//! A small blocking client for the `dwv-serve` protocol.
//!
//! Used by the binary's `--smoke`/`--drain` modes, the parity tests, and
//! the `serve` dwv-check family. One connection, read through one buffer
//! for its whole life, synchronous request/response;
//! [`Client::stream_result`] collects a job's full event stream and
//! reassembles it into a [`JobOutput`] for byte-exact comparison against
//! batch runs.

use crate::job::{JobOutput, SegmentData};
use crate::proto::{read_frame, write_frame, Frame, JobEvent, JobSpec, JobState, VERSION};
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A connected, handshaken client.
#[derive(Debug)]
pub struct Client {
    /// Reads go through the buffer, so a batch of frames costs one read;
    /// writes go straight to the socket through `get_mut`.
    stream: BufReader<TcpStream>,
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Client {
    /// Connects and performs the `Hello`/`HelloAck` handshake.
    ///
    /// # Errors
    ///
    /// Connection errors, or `InvalidData` when the server refuses the
    /// handshake (e.g. version mismatch).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        let mut client = Self {
            stream: BufReader::new(stream),
        };
        write_frame(client.stream.get_mut(), &Frame::Hello { version: VERSION })?;
        match read_frame(&mut client.stream)? {
            Frame::HelloAck { .. } => Ok(client),
            Frame::Error { code, message } => {
                Err(bad_data(format!("handshake refused ({code}): {message}")))
            }
            other => Err(bad_data(format!("unexpected handshake reply: {other:?}"))),
        }
    }

    /// Submits a job; returns the server's `Accepted` or `Rejected` frame.
    ///
    /// # Errors
    ///
    /// Transport errors, or `InvalidData` on an unexpected reply.
    pub fn submit(
        &mut self,
        tenant: u64,
        job_id: u64,
        deadline_ms: u32,
        spec: JobSpec,
    ) -> io::Result<Frame> {
        write_frame(
            self.stream.get_mut(),
            &Frame::Submit {
                tenant,
                job_id,
                deadline_ms,
                spec,
            },
        )?;
        match read_frame(&mut self.stream)? {
            reply @ (Frame::Accepted { .. } | Frame::Rejected { .. }) => Ok(reply),
            other => Err(bad_data(format!("unexpected submit reply: {other:?}"))),
        }
    }

    /// Polls a job's lifecycle state.
    ///
    /// # Errors
    ///
    /// Transport errors, or `InvalidData` on an unexpected reply.
    pub fn poll(&mut self, tenant: u64, job_id: u64) -> io::Result<JobState> {
        write_frame(self.stream.get_mut(), &Frame::Poll { tenant, job_id })?;
        match read_frame(&mut self.stream)? {
            Frame::Status { state, .. } => Ok(state),
            other => Err(bad_data(format!("unexpected poll reply: {other:?}"))),
        }
    }

    /// Cancels a job; returns its state after the cancel took effect.
    ///
    /// # Errors
    ///
    /// Transport errors, or `InvalidData` on an unexpected reply.
    pub fn cancel(&mut self, tenant: u64, job_id: u64) -> io::Result<JobState> {
        write_frame(self.stream.get_mut(), &Frame::Cancel { tenant, job_id })?;
        match read_frame(&mut self.stream)? {
            Frame::Status { state, .. } => Ok(state),
            other => Err(bad_data(format!("unexpected cancel reply: {other:?}"))),
        }
    }

    /// Asks the server to drain; returns `(queued, running)` at the instant
    /// the drain started.
    ///
    /// # Errors
    ///
    /// Transport errors, or `InvalidData` on an unexpected reply.
    pub fn drain(&mut self) -> io::Result<(u32, u32)> {
        write_frame(self.stream.get_mut(), &Frame::Drain)?;
        match read_frame(&mut self.stream)? {
            Frame::DrainAck { queued, running } => Ok((queued, running)),
            other => Err(bad_data(format!("unexpected drain reply: {other:?}"))),
        }
    }

    /// Streams a job until its terminal event, returning every event in
    /// order. An `Unknown` status comes back as `InvalidData`.
    ///
    /// # Errors
    ///
    /// Transport errors, or `InvalidData` for unknown jobs/replies.
    pub fn stream_events(&mut self, tenant: u64, job_id: u64) -> io::Result<Vec<JobEvent>> {
        write_frame(self.stream.get_mut(), &Frame::Stream { tenant, job_id })?;
        let mut events = Vec::new();
        loop {
            match read_frame(&mut self.stream)? {
                Frame::Event { event, .. } => {
                    let terminal = event.is_terminal();
                    events.push(event);
                    if terminal {
                        return Ok(events);
                    }
                }
                Frame::Status {
                    state: JobState::Unknown,
                    ..
                } => return Err(bad_data("job unknown".to_string())),
                other => return Err(bad_data(format!("unexpected stream reply: {other:?}"))),
            }
        }
    }

    /// Streams a job and reassembles the events into the deterministic
    /// [`JobOutput`] the batch path produces for the same spec.
    ///
    /// # Errors
    ///
    /// Transport errors; `Other` when the job failed or was cancelled.
    pub fn stream_result(&mut self, tenant: u64, job_id: u64) -> io::Result<JobOutput> {
        let events = self.stream_events(tenant, job_id)?;
        reassemble(&events).map_err(io::Error::other)
    }

    /// Sends raw bytes down the connection (protocol-fuzz helper).
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        use io::Write;
        let stream = self.stream.get_mut();
        stream.write_all(bytes)?;
        stream.flush()
    }
}

/// Rebuilds a [`JobOutput`] from a terminal event stream.
///
/// # Errors
///
/// A description when the stream ended in `Failed`/`Cancelled` or was
/// malformed (no verdict, no terminal event).
pub fn reassemble(events: &[JobEvent]) -> Result<JobOutput, String> {
    let mut verdict: Option<String> = None;
    let mut segments: Vec<SegmentData> = Vec::new();
    let mut report_csv: Option<Vec<u8>> = None;
    let mut done = false;
    for event in events {
        match event {
            JobEvent::Verdict(v) => verdict = Some(v.clone()),
            JobEvent::Segment {
                index,
                t0,
                t1,
                bounds,
            } => segments.push(SegmentData {
                index: *index,
                t0: *t0,
                t1: *t1,
                bounds: bounds.clone(),
            }),
            JobEvent::Report(bytes) => report_csv = Some(bytes.clone()),
            JobEvent::Done => {
                done = true;
                break;
            }
            JobEvent::Failed(m) => return Err(format!("job failed: {m}")),
            JobEvent::Cancelled => return Err("job cancelled".to_string()),
        }
    }
    if !done {
        return Err("stream ended without a terminal event".to_string());
    }
    verdict
        .map(|verdict| JobOutput {
            verdict,
            segments,
            report_csv,
        })
        .ok_or_else(|| "stream completed without a verdict".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    fn events() -> Vec<JobEvent> {
        let mut events = vec![JobEvent::Verdict("reach-avoid".to_string())];
        events.extend((0..3).map(|index| JobEvent::Segment {
            index,
            t0: f64::from(index) * 0.1,
            t1: f64::from(index + 1) * 0.1,
            bounds: vec![-0.0, 1.5, f64::MIN_POSITIVE, 3.0],
        }));
        events.push(JobEvent::Report(b"section,key,value\n".to_vec()));
        events.push(JobEvent::Done);
        events
    }

    /// Serves one client that streams job 1: answers `Hello` and `Stream`
    /// with `events()`, writing each of `chunks(bytes)` separately.
    fn serve_once(
        chunks: fn(Vec<u8>) -> Vec<Vec<u8>>,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("address");
        let handle = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().expect("accept");
            peer.set_nodelay(true).expect("nodelay");
            assert_eq!(
                read_frame(&mut peer).expect("hello"),
                Frame::Hello { version: VERSION }
            );
            let mut bytes = Frame::HelloAck { version: VERSION }.encode();
            for event in events() {
                bytes.extend(Frame::Event { job_id: 1, event }.encode());
            }
            for chunk in chunks(bytes) {
                peer.write_all(&chunk).expect("send");
            }
            assert_eq!(
                read_frame(&mut peer).expect("stream request"),
                Frame::Stream {
                    tenant: 1,
                    job_id: 1
                }
            );
        });
        (addr, handle)
    }

    #[test]
    fn frames_merged_into_one_segment_come_out_whole_and_in_order() {
        let (addr, server) = serve_once(|bytes| vec![bytes]);
        let mut client = Client::connect(addr).expect("handshake");
        assert_eq!(client.stream_events(1, 1).expect("stream"), events());
        server.join().expect("fake server");
    }

    #[test]
    fn frames_split_at_every_byte_come_out_whole_and_in_order() {
        let (addr, server) = serve_once(|bytes| bytes.into_iter().map(|b| vec![b]).collect());
        let mut client = Client::connect(addr).expect("handshake");
        assert_eq!(client.stream_events(1, 1).expect("stream"), events());
        server.join().expect("fake server");
    }
}
