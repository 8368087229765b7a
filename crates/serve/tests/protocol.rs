//! Wire-protocol fuzz/property tests: codec round-trips, hostile-input
//! rejection without panics, and exact-byte handshake fixtures.

use dwv_serve::proto::{
    append_event_frame, error_code, read_frame, Frame, FrameBuffer, ProtoError, MAX_FRAME, VERSION,
};
use dwv_serve::{
    Client, JobEvent, JobKind, JobSpec, JobState, ProblemId, RejectCode, ServeConfig, Server,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// SplitMix64 — the repo's standard deterministic test RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn f64(&mut self) -> f64 {
        f64::from_bits(self.next() % (1u64 << 62)) // avoid inf/nan-heavy space but keep spread
    }

    fn range(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn sample_frames(rng: &mut Rng) -> Vec<Frame> {
    vec![
        Frame::Hello { version: VERSION },
        Frame::HelloAck { version: VERSION },
        Frame::Submit {
            tenant: rng.next(),
            job_id: rng.next(),
            deadline_ms: rng.range(10_000) as u32,
            spec: JobSpec {
                problem: ProblemId::Acc,
                kind: JobKind::VerifyLinear {
                    gains: vec![rng.f64(), rng.f64()],
                    grid: 1 + rng.range(4) as u32,
                    samples: 10 + rng.range(100) as u32,
                },
            },
        },
        Frame::Submit {
            tenant: rng.next(),
            job_id: rng.next(),
            deadline_ms: 0,
            spec: JobSpec {
                problem: ProblemId::VanDerPol,
                kind: JobKind::AssessNn {
                    hidden: vec![8],
                    output_scale: 1.0,
                    order: 2,
                    params: (0..10).map(|_| rng.f64()).collect(),
                },
            },
        },
        Frame::Submit {
            tenant: 3,
            job_id: 4,
            deadline_ms: 0,
            spec: JobSpec {
                problem: ProblemId::ThreeDim,
                kind: JobKind::LearnLinear {
                    seed: rng.next(),
                    max_updates: 50,
                },
            },
        },
        Frame::Submit {
            tenant: 9,
            job_id: 9,
            deadline_ms: 0,
            spec: JobSpec {
                problem: ProblemId::Acc,
                kind: JobKind::AssessLinear {
                    gains: vec![rng.f64(), rng.f64()],
                },
            },
        },
        Frame::Accepted { job_id: rng.next() },
        Frame::Rejected {
            job_id: rng.next(),
            code: RejectCode::Overloaded,
            retry_after_ms: 25,
        },
        Frame::Poll {
            tenant: rng.next(),
            job_id: rng.next(),
        },
        Frame::Status {
            job_id: rng.next(),
            state: JobState::Running,
        },
        Frame::Stream {
            tenant: rng.next(),
            job_id: rng.next(),
        },
        Frame::Event {
            job_id: rng.next(),
            event: JobEvent::Verdict("reach-avoid".to_string()),
        },
        Frame::Event {
            job_id: rng.next(),
            event: JobEvent::Segment {
                index: rng.range(100) as u32,
                t0: rng.f64(),
                t1: rng.f64(),
                bounds: (0..4).map(|_| rng.f64()).collect(),
            },
        },
        Frame::Event {
            job_id: rng.next(),
            event: JobEvent::Report(vec![b'a'; rng.range(64) as usize]),
        },
        Frame::Event {
            job_id: 1,
            event: JobEvent::Failed("broken".to_string()),
        },
        Frame::Event {
            job_id: 1,
            event: JobEvent::Done,
        },
        Frame::Event {
            job_id: 1,
            event: JobEvent::Cancelled,
        },
        Frame::Cancel {
            tenant: rng.next(),
            job_id: rng.next(),
        },
        Frame::Drain,
        Frame::DrainAck {
            queued: rng.range(100) as u32,
            running: rng.range(8) as u32,
        },
        Frame::Error {
            code: error_code::BAD_FRAME,
            message: "nope".to_string(),
        },
    ]
}

#[test]
fn every_frame_round_trips() {
    let mut rng = Rng(0xF00D);
    for round in 0..50 {
        for frame in sample_frames(&mut rng) {
            let body = frame.encode_body();
            let back = Frame::decode_body(&body)
                .unwrap_or_else(|e| panic!("round {round}: {frame:?} failed to decode: {e}"));
            assert_eq!(back, frame, "round {round}");
            // Full wire form through the incremental assembler too.
            let mut fb = FrameBuffer::new();
            fb.feed(&frame.encode());
            assert_eq!(fb.next_frame(), Ok(Some(frame)));
            assert_eq!(fb.next_frame(), Ok(None));
            assert_eq!(fb.pending(), 0);
        }
    }
}

#[test]
fn appending_to_a_buffer_gives_the_encoded_bytes() {
    let mut rng = Rng(0xA99E);
    let mut out = b"bytes already queued".to_vec();
    let mut expected = out.clone();
    for frame in sample_frames(&mut rng) {
        frame.encode_into(&mut out);
        expected.extend(frame.encode());
        if let Frame::Event { job_id, event } = &frame {
            append_event_frame(&mut out, *job_id, event);
            expected.extend(frame.encode());
        }
    }
    assert_eq!(out, expected);
}

#[test]
fn f64_bit_patterns_survive_the_wire() {
    for bits in [
        0u64,
        f64::to_bits(-0.0),
        f64::to_bits(f64::NAN),
        f64::to_bits(f64::INFINITY),
        f64::to_bits(f64::MIN_POSITIVE),
        0x0000_0000_0000_0001, // subnormal
        f64::to_bits(0.5867),
    ] {
        let frame = Frame::Submit {
            tenant: 1,
            job_id: 1,
            deadline_ms: 0,
            spec: JobSpec {
                problem: ProblemId::Acc,
                kind: JobKind::AssessLinear {
                    gains: vec![f64::from_bits(bits), -2.0],
                },
            },
        };
        let Frame::Submit { spec, .. } = Frame::decode_body(&frame.encode_body()).expect("decodes")
        else {
            panic!("wrong frame kind back");
        };
        let JobKind::AssessLinear { gains } = spec.kind else {
            panic!("wrong kind back");
        };
        assert_eq!(gains[0].to_bits(), bits, "bit pattern {bits:#x} mangled");
    }
}

#[test]
fn every_truncation_of_every_frame_errors_not_panics() {
    let mut rng = Rng(0xBEEF);
    for frame in sample_frames(&mut rng) {
        let body = frame.encode_body();
        for cut in 0..body.len() {
            let sliced = &body[..cut];
            let r = Frame::decode_body(sliced);
            assert!(
                r.is_err(),
                "prefix of {} bytes of {frame:?} decoded as {r:?}",
                cut
            );
        }
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut body = Frame::Drain.encode_body();
    body.push(0xAA);
    assert_eq!(Frame::decode_body(&body), Err(ProtoError::TrailingBytes(1)));
}

#[test]
fn garbage_bytes_never_panic_the_decoder() {
    let mut rng = Rng(0xDEAD_BEEF);
    for _ in 0..2000 {
        let n = rng.range(96) as usize;
        let bytes: Vec<u8> = (0..n).map(|_| (rng.next() & 0xFF) as u8).collect();
        // Any result is fine; a panic is the only failure.
        let _ = Frame::decode_body(&bytes);
        let mut fb = FrameBuffer::new();
        fb.feed(&bytes);
        // Drain until it errors or wants more input.
        while let Ok(Some(_)) = fb.next_frame() {}
    }
}

#[test]
fn oversized_and_zero_length_prefixes_are_rejected_before_buffering() {
    let mut fb = FrameBuffer::new();
    fb.feed(&(MAX_FRAME + 1).to_le_bytes());
    assert_eq!(fb.next_frame(), Err(ProtoError::BadLength(MAX_FRAME + 1)));
    let mut fb = FrameBuffer::new();
    fb.feed(&0u32.to_le_bytes());
    assert_eq!(fb.next_frame(), Err(ProtoError::BadLength(0)));
}

#[test]
fn split_feeds_reassemble() {
    let frame = Frame::Status {
        job_id: 42,
        state: JobState::Done,
    };
    let wire = frame.encode();
    // Feed byte-by-byte: exactly one frame must come out, at the end.
    let mut fb = FrameBuffer::new();
    let mut seen = 0;
    for (i, b) in wire.iter().enumerate() {
        fb.feed(&[*b]);
        match fb.next_frame() {
            Ok(Some(f)) => {
                assert_eq!(i, wire.len() - 1, "frame completed early");
                assert_eq!(f, frame);
                seen += 1;
            }
            Ok(None) => {}
            Err(e) => panic!("byte {i}: {e}"),
        }
    }
    assert_eq!(seen, 1);
}

#[test]
fn hello_with_bad_magic_is_rejected() {
    let good = Frame::Hello { version: VERSION }.encode_body();
    let mut evil = good.clone();
    evil[1] = b'X'; // corrupt first magic byte
    assert_eq!(Frame::decode_body(&evil), Err(ProtoError::BadMagic));
    assert!(Frame::decode_body(&good).is_ok());
}

/// The version-mismatch handshake, pinned to exact bytes on a live server.
#[test]
fn version_mismatch_reply_bytes_are_pinned() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    // Hello at version 9 — well-formed, wrong version.
    let hello = Frame::Hello { version: 9 }.encode();
    // Fixture: the exact bytes of a v9 Hello under the v1 grammar.
    assert_eq!(
        hello,
        vec![0x07, 0x00, 0x00, 0x00, 0x01, b'D', b'W', b'V', b'S', 0x09, 0x00],
        "Hello wire bytes changed — protocol break"
    );
    stream.write_all(&hello).expect("send");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read until close");
    // Fixture: Error{code=1, "unsupported protocol version 9; server speaks 2"},
    // then the server closes the connection.
    let msg = b"unsupported protocol version 9; server speaks 2";
    let mut expect = Vec::new();
    let body_len = 1 + 2 + 4 + msg.len();
    expect.extend_from_slice(&(body_len as u32).to_le_bytes());
    expect.push(0x0D); // Error tag
    expect.extend_from_slice(&error_code::VERSION_MISMATCH.to_le_bytes());
    expect.extend_from_slice(&(msg.len() as u32).to_le_bytes());
    expect.extend_from_slice(msg);
    assert_eq!(reply, expect, "version-mismatch reply bytes drifted");
    server.shutdown();
}

/// A version-1 client, whose `LearnLinear` specs carried one more byte,
/// is refused at the handshake with the typed error instead of having its
/// specs misparsed.
#[test]
fn version_one_client_is_refused() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream
        .write_all(&Frame::Hello { version: 1 }.encode())
        .expect("send");
    match read_frame(&mut stream).expect("reply") {
        Frame::Error { code, .. } => assert_eq!(code, error_code::VERSION_MISMATCH),
        other => panic!("expected a version-mismatch error, got {other:?}"),
    }
    server.shutdown();
}

/// The happy handshake, pinned to exact bytes.
#[test]
fn hello_ack_bytes_are_pinned() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream
        .write_all(&Frame::Hello { version: VERSION }.encode())
        .expect("send");
    let mut ack = [0u8; 7];
    stream.read_exact(&mut ack).expect("ack");
    assert_eq!(
        ack,
        [0x03, 0x00, 0x00, 0x00, 0x02, 0x02, 0x00],
        "HelloAck wire bytes drifted"
    );
    server.shutdown();
}

/// Garbage after a valid handshake must produce a BAD_FRAME error, not a
/// hung or crashed server — and the server must survive to serve the next
/// client.
#[test]
fn mid_session_garbage_gets_error_and_server_survives() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    {
        let mut client = Client::connect(server.addr()).expect("handshake");
        // A length prefix claiming more than MAX_FRAME.
        client
            .send_raw(&(MAX_FRAME + 7).to_le_bytes())
            .expect("send");
        // Server replies Error{BAD_FRAME} and closes; reading a frame sees it.
    }
    // A fresh client still works.
    let mut client = Client::connect(server.addr()).expect("second handshake");
    let state = client.poll(1, 1).expect("poll");
    assert_eq!(state, JobState::Unknown);
    server.shutdown();
}
