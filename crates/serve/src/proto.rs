//! The `dwv-serve` wire protocol: versioned, length-prefixed frames.
//!
//! # Grammar
//!
//! Every frame on the wire is
//!
//! ```text
//! frame   := len:u32-le  body
//! body    := tag:u8  payload            (len = body length, 1 ≤ len ≤ MAX_FRAME)
//! ```
//!
//! Integers are little-endian; `f64` values travel as their exact IEEE-754
//! bit pattern (`to_bits`/`from_bits`), so controller weights and flowpipe
//! bounds survive the wire **bit-for-bit** — the serve-vs-batch parity
//! contract depends on it. Strings are `u32` length + UTF-8 bytes; vectors
//! are `u32` count + elements.
//!
//! A connection opens with `Hello{magic, version}` and the server answers
//! `HelloAck` (exact bytes pinned by tests) or a version-mismatch `Error`
//! and closes. After the handshake, clients submit jobs and poll, stream,
//! or cancel them; `Drain` asks the whole server to stop admitting and
//! finish up.
//!
//! # Panic freedom
//!
//! This module parses attacker-controlled bytes, so it denies clippy's
//! panic lints (R2, DESIGN.md §4d): truncated, oversized, or garbage input
//! must yield [`ProtoError`], never a panic. No indexing, no `unwrap`, and
//! every length arithmetic is checked.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::integer_division_remainder_used
)]

use std::fmt;

/// Protocol magic, first bytes of every `Hello`.
pub const MAGIC: [u8; 4] = *b"DWVS";

/// Protocol version spoken by this build. Bump it whenever the frame or
/// spec grammar changes, so an older peer is refused at the handshake
/// instead of having its frames misparsed.
pub const VERSION: u16 = 2;

/// Upper bound on a frame body, in bytes. Oversized length prefixes are
/// rejected before any allocation, so a hostile peer cannot balloon memory.
pub const MAX_FRAME: u32 = 1 << 20;

/// Why a sequence of bytes is not a valid frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The input ended before the announced structure did.
    Truncated,
    /// A frame announced a body longer than [`MAX_FRAME`] (or zero).
    BadLength(u32),
    /// Bytes were left over after the payload was fully decoded.
    TrailingBytes(usize),
    /// An unknown frame or enum tag.
    BadTag(u8),
    /// A string field was not UTF-8.
    BadUtf8,
    /// A `Hello` carried the wrong magic bytes.
    BadMagic,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "truncated frame"),
            Self::BadLength(n) => write!(f, "bad frame length {n}"),
            Self::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            Self::BadTag(t) => write!(f, "unknown tag {t:#04x}"),
            Self::BadUtf8 => write!(f, "string field is not UTF-8"),
            Self::BadMagic => write!(f, "bad protocol magic"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Which benchmark problem a job targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProblemId {
    /// Adaptive cruise control (affine, 2-state) — paper Fig. 6.
    Acc,
    /// Van der Pol oscillator — paper Fig. 7.
    VanDerPol,
    /// The 3-dimensional system — paper Fig. 8.
    ThreeDim,
}

impl ProblemId {
    fn tag(self) -> u8 {
        match self {
            Self::Acc => 0,
            Self::VanDerPol => 1,
            Self::ThreeDim => 2,
        }
    }

    fn from_tag(t: u8) -> Result<Self, ProtoError> {
        match t {
            0 => Ok(Self::Acc),
            1 => Ok(Self::VanDerPol),
            2 => Ok(Self::ThreeDim),
            other => Err(ProtoError::BadTag(other)),
        }
    }
}

/// What a submitted job should compute.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// Verify a linear controller over a uniform `grid^dim` partition of
    /// `X₀` with the exact linear verifier, then judge the whole-`X₀`
    /// flowpipe with `samples` rollouts. Affine problems only.
    VerifyLinear {
        /// Row-major gain matrix, `n_input × n_state`.
        gains: Vec<f64>,
        /// Per-dimension split count for the cell sweep (≥ 1).
        grid: u32,
        /// Rollout budget for the judgement.
        samples: u32,
    },
    /// Full [`dwv_core::VerificationReport`] for a linear controller
    /// (verdict, Algorithm-2 certified set, rates, counterexample).
    AssessLinear {
        /// Row-major gain matrix, `n_input × n_state`.
        gains: Vec<f64>,
    },
    /// Run the whole Algorithm-1 pipeline (`design_while_verify_linear`)
    /// and report on the learned controller.
    LearnLinear {
        /// Learning seed.
        seed: u64,
        /// Gradient-update budget.
        max_updates: u32,
    },
    /// Full report for a neural-network controller with explicit weights,
    /// verified by the Taylor-model/POLAR abstraction.
    AssessNn {
        /// Hidden-layer widths.
        hidden: Vec<u32>,
        /// Output scale (> 0).
        output_scale: f64,
        /// Taylor abstraction order (≥ 1).
        order: u32,
        /// Flat parameter vector (must match the architecture).
        params: Vec<f64>,
    },
}

impl JobKind {
    fn tag(&self) -> u8 {
        match self {
            Self::VerifyLinear { .. } => 0,
            Self::AssessLinear { .. } => 1,
            Self::LearnLinear { .. } => 2,
            Self::AssessNn { .. } => 3,
        }
    }
}

/// A complete job specification: problem + computation.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Which benchmark problem to run against.
    pub problem: ProblemId,
    /// What to compute.
    pub kind: JobKind,
}

/// Server-side lifecycle state of a job, as reported by `Status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; events carry the results.
    Done,
    /// Failed; a `Failed` event carries the reason.
    Failed,
    /// Cancelled (client request, deadline, or forced drain).
    Cancelled,
    /// The server has no record of this `(tenant, job)` pair.
    Unknown,
}

impl JobState {
    fn tag(self) -> u8 {
        match self {
            Self::Queued => 0,
            Self::Running => 1,
            Self::Done => 2,
            Self::Failed => 3,
            Self::Cancelled => 4,
            Self::Unknown => 5,
        }
    }

    fn from_tag(t: u8) -> Result<Self, ProtoError> {
        match t {
            0 => Ok(Self::Queued),
            1 => Ok(Self::Running),
            2 => Ok(Self::Done),
            3 => Ok(Self::Failed),
            4 => Ok(Self::Cancelled),
            5 => Ok(Self::Unknown),
            other => Err(ProtoError::BadTag(other)),
        }
    }
}

/// Why a submission was rejected (admission control).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCode {
    /// The bounded queue is full — retry after the hinted delay.
    Overloaded,
    /// The server is draining and admits no new work.
    Draining,
    /// The `(tenant, job_id)` pair is already in use.
    DuplicateJob,
    /// The spec failed validation (wrong gain count, bad scale, …).
    BadSpec,
}

impl RejectCode {
    fn tag(self) -> u8 {
        match self {
            Self::Overloaded => 0,
            Self::Draining => 1,
            Self::DuplicateJob => 2,
            Self::BadSpec => 3,
        }
    }

    fn from_tag(t: u8) -> Result<Self, ProtoError> {
        match t {
            0 => Ok(Self::Overloaded),
            1 => Ok(Self::Draining),
            2 => Ok(Self::DuplicateJob),
            3 => Ok(Self::BadSpec),
            other => Err(ProtoError::BadTag(other)),
        }
    }
}

/// A streamed result fragment for one job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    /// The formal verdict, rendered canonically.
    Verdict(String),
    /// One flowpipe step enclosure: `[t0, t1]` × interleaved `lo, hi`
    /// bounds per dimension.
    Segment {
        /// 0-based step index.
        index: u32,
        /// Step start time.
        t0: f64,
        /// Step end time.
        t1: f64,
        /// `2·dim` interleaved lower/upper bounds.
        bounds: Vec<f64>,
    },
    /// The canonical `VerificationReport` CSV
    /// ([`dwv_core::VerificationReport::to_csv`]), as raw bytes.
    Report(Vec<u8>),
    /// Terminal: the job completed; no further events follow.
    Done,
    /// Terminal: the job failed.
    Failed(String),
    /// Terminal: the job was cancelled before completing.
    Cancelled,
}

impl JobEvent {
    fn tag(&self) -> u8 {
        match self {
            Self::Verdict(_) => 0,
            Self::Segment { .. } => 1,
            Self::Report(_) => 2,
            Self::Done => 3,
            Self::Failed(_) => 4,
            Self::Cancelled => 5,
        }
    }

    /// Whether this event ends the job's stream.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(self, Self::Done | Self::Failed(_) | Self::Cancelled)
    }
}

/// Error codes carried by [`Frame::Error`].
pub mod error_code {
    /// The peer spoke a protocol version this build does not.
    pub const VERSION_MISMATCH: u16 = 1;
    /// The first frame was not a `Hello` (or carried bad magic).
    pub const BAD_HANDSHAKE: u16 = 2;
    /// A frame failed to decode mid-session.
    pub const BAD_FRAME: u16 = 3;
}

/// One protocol frame, either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server greeting: magic + spoken version.
    Hello {
        /// Protocol version the client speaks.
        version: u16,
    },
    /// Server → client: handshake accepted at this version.
    HelloAck {
        /// Protocol version the server will speak.
        version: u16,
    },
    /// Client → server: submit a job.
    Submit {
        /// Tenant namespace (cache shard + job-id scope).
        tenant: u64,
        /// Client-chosen job id, unique per tenant.
        job_id: u64,
        /// Soft deadline in milliseconds from admission (0 = none); on
        /// expiry the job is cancelled, queued or running.
        deadline_ms: u32,
        /// What to run.
        spec: JobSpec,
    },
    /// Server → client: the job was admitted.
    Accepted {
        /// Echo of the submitted job id.
        job_id: u64,
    },
    /// Server → client: the job was *not* admitted. Explicit backpressure:
    /// the server never buffers beyond its bounded queue.
    Rejected {
        /// Echo of the submitted job id.
        job_id: u64,
        /// Why.
        code: RejectCode,
        /// Retry hint in milliseconds (0 = do not retry).
        retry_after_ms: u32,
    },
    /// Client → server: ask for a job's state.
    Poll {
        /// Tenant namespace.
        tenant: u64,
        /// Job id within the tenant.
        job_id: u64,
    },
    /// Server → client: current job state.
    Status {
        /// Echo of the polled job id.
        job_id: u64,
        /// Lifecycle state.
        state: JobState,
    },
    /// Client → server: stream the job's events until terminal.
    Stream {
        /// Tenant namespace.
        tenant: u64,
        /// Job id within the tenant.
        job_id: u64,
    },
    /// Server → client: one streamed event.
    Event {
        /// Job the event belongs to.
        job_id: u64,
        /// The event.
        event: JobEvent,
    },
    /// Client → server: cancel a queued or running job.
    Cancel {
        /// Tenant namespace.
        tenant: u64,
        /// Job id within the tenant.
        job_id: u64,
    },
    /// Client → server: stop admitting, finish in-flight work, shut down.
    Drain,
    /// Server → client: drain initiated; backlog at that instant.
    DrainAck {
        /// Jobs still queued.
        queued: u32,
        /// Jobs currently running.
        running: u32,
    },
    /// Server → client: protocol-level failure (see [`error_code`]).
    Error {
        /// Machine-readable code.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
}

const TAG_HELLO: u8 = 0x01;
const TAG_HELLO_ACK: u8 = 0x02;
const TAG_SUBMIT: u8 = 0x03;
const TAG_ACCEPTED: u8 = 0x04;
const TAG_REJECTED: u8 = 0x05;
const TAG_POLL: u8 = 0x06;
const TAG_STATUS: u8 = 0x07;
const TAG_STREAM: u8 = 0x08;
const TAG_EVENT: u8 = 0x09;
const TAG_CANCEL: u8 = 0x0A;
const TAG_DRAIN: u8 = 0x0B;
const TAG_DRAIN_ACK: u8 = 0x0C;
const TAG_ERROR: u8 = 0x0D;

/// Little-endian byte writer appending frame bodies to a buffer.
#[derive(Debug)]
struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl Writer<'_> {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bytes(&mut self, v: &[u8]) {
        // Lengths beyond u32 cannot round-trip; saturate and let the frame
        // cap reject the result rather than truncating silently.
        let n = u32::try_from(v.len()).unwrap_or(u32::MAX);
        self.u32(n);
        self.buf.extend_from_slice(v);
    }

    fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    fn f64_slice(&mut self, v: &[f64]) {
        let n = u32::try_from(v.len()).unwrap_or(u32::MAX);
        self.u32(n);
        for &x in v {
            self.f64(x);
        }
    }

    fn u32_slice(&mut self, v: &[u32]) {
        let n = u32::try_from(v.len()).unwrap_or(u32::MAX);
        self.u32(n);
        for &x in v {
            self.u32(x);
        }
    }
}

/// Checked little-endian byte reader over a frame body.
#[derive(Debug)]
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let (head, tail) = self.buf.split_at_checked(n).ok_or(ProtoError::Truncated)?;
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        self.take(1)?.first().copied().ok_or(ProtoError::Truncated)
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        let b = self.take(2)?;
        let arr: [u8; 2] = b.try_into().map_err(|_| ProtoError::Truncated)?;
        Ok(u16::from_le_bytes(arr))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let b = self.take(4)?;
        let arr: [u8; 4] = b.try_into().map_err(|_| ProtoError::Truncated)?;
        Ok(u32::from_le_bytes(arr))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let b = self.take(8)?;
        let arr: [u8; 8] = b.try_into().map_err(|_| ProtoError::Truncated)?;
        Ok(u64::from_le_bytes(arr))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bytes(&mut self) -> Result<&'a [u8], ProtoError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        let b = self.bytes()?;
        core::str::from_utf8(b)
            .map(str::to_string)
            .map_err(|_| ProtoError::BadUtf8)
    }

    fn f64_vec(&mut self) -> Result<Vec<f64>, ProtoError> {
        let n = self.u32()? as usize;
        // Bound the claim by the bytes actually present before allocating.
        let need = n.checked_mul(8).ok_or(ProtoError::Truncated)?;
        if self.buf.len() < need {
            return Err(ProtoError::Truncated);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    fn u32_vec(&mut self) -> Result<Vec<u32>, ProtoError> {
        let n = self.u32()? as usize;
        let need = n.checked_mul(4).ok_or(ProtoError::Truncated)?;
        if self.buf.len() < need {
            return Err(ProtoError::Truncated);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    fn finish(&self) -> Result<(), ProtoError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes(self.buf.len()))
        }
    }
}

fn encode_spec(w: &mut Writer<'_>, spec: &JobSpec) {
    w.u8(spec.problem.tag());
    w.u8(spec.kind.tag());
    match &spec.kind {
        JobKind::VerifyLinear {
            gains,
            grid,
            samples,
        } => {
            w.f64_slice(gains);
            w.u32(*grid);
            w.u32(*samples);
        }
        JobKind::AssessLinear { gains } => w.f64_slice(gains),
        JobKind::LearnLinear { seed, max_updates } => {
            w.u64(*seed);
            w.u32(*max_updates);
        }
        JobKind::AssessNn {
            hidden,
            output_scale,
            order,
            params,
        } => {
            w.u32_slice(hidden);
            w.f64(*output_scale);
            w.u32(*order);
            w.f64_slice(params);
        }
    }
}

fn decode_spec(r: &mut Reader<'_>) -> Result<JobSpec, ProtoError> {
    let problem = ProblemId::from_tag(r.u8()?)?;
    let kind = match r.u8()? {
        0 => JobKind::VerifyLinear {
            gains: r.f64_vec()?,
            grid: r.u32()?,
            samples: r.u32()?,
        },
        1 => JobKind::AssessLinear {
            gains: r.f64_vec()?,
        },
        2 => JobKind::LearnLinear {
            seed: r.u64()?,
            max_updates: r.u32()?,
        },
        3 => JobKind::AssessNn {
            hidden: r.u32_vec()?,
            output_scale: r.f64()?,
            order: r.u32()?,
            params: r.f64_vec()?,
        },
        other => return Err(ProtoError::BadTag(other)),
    };
    Ok(JobSpec { problem, kind })
}

fn encode_event(w: &mut Writer<'_>, event: &JobEvent) {
    w.u8(event.tag());
    match event {
        JobEvent::Verdict(s) => w.string(s),
        JobEvent::Segment {
            index,
            t0,
            t1,
            bounds,
        } => {
            w.u32(*index);
            w.f64(*t0);
            w.f64(*t1);
            w.f64_slice(bounds);
        }
        JobEvent::Report(bytes) => w.bytes(bytes),
        JobEvent::Done | JobEvent::Cancelled => {}
        JobEvent::Failed(msg) => w.string(msg),
    }
}

fn decode_event(r: &mut Reader<'_>) -> Result<JobEvent, ProtoError> {
    match r.u8()? {
        0 => Ok(JobEvent::Verdict(r.string()?)),
        1 => Ok(JobEvent::Segment {
            index: r.u32()?,
            t0: r.f64()?,
            t1: r.f64()?,
            bounds: r.f64_vec()?,
        }),
        2 => Ok(JobEvent::Report(r.bytes()?.to_vec())),
        3 => Ok(JobEvent::Done),
        4 => Ok(JobEvent::Failed(r.string()?)),
        5 => Ok(JobEvent::Cancelled),
        other => Err(ProtoError::BadTag(other)),
    }
}

/// The body of `Frame::Event { job_id, event }`.
fn encode_event_frame(w: &mut Writer<'_>, job_id: u64, event: &JobEvent) {
    w.u8(TAG_EVENT);
    w.u64(job_id);
    encode_event(w, event);
}

/// Appends a length prefix and the body `body` writes to `out`.
fn append_framed(out: &mut Vec<u8>, body: impl FnOnce(&mut Writer<'_>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    body(&mut Writer { buf: out });
    // A body beyond u32 saturates, and the peer's frame cap rejects it.
    let len = u32::try_from(out.len().saturating_sub(start).saturating_sub(4)).unwrap_or(u32::MAX);
    if let Some(prefix) = out.get_mut(start..start.saturating_add(4)) {
        prefix.copy_from_slice(&len.to_le_bytes());
    }
}

/// Appends the wire form of `Frame::Event { job_id, event }` to `out`:
/// the bytes [`Frame::encode`] gives, without cloning `event` into a frame.
pub fn append_event_frame(out: &mut Vec<u8>, job_id: u64, event: &JobEvent) {
    append_framed(out, |w| encode_event_frame(w, job_id, event));
}

impl Frame {
    /// Encodes the frame body (tag + payload), without the length prefix.
    #[must_use]
    pub fn encode_body(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write_body(&mut Writer { buf: &mut buf });
        buf
    }

    fn write_body(&self, w: &mut Writer<'_>) {
        match self {
            Self::Hello { version } => {
                w.u8(TAG_HELLO);
                w.buf.extend_from_slice(&MAGIC);
                w.u16(*version);
            }
            Self::HelloAck { version } => {
                w.u8(TAG_HELLO_ACK);
                w.u16(*version);
            }
            Self::Submit {
                tenant,
                job_id,
                deadline_ms,
                spec,
            } => {
                w.u8(TAG_SUBMIT);
                w.u64(*tenant);
                w.u64(*job_id);
                w.u32(*deadline_ms);
                encode_spec(w, spec);
            }
            Self::Accepted { job_id } => {
                w.u8(TAG_ACCEPTED);
                w.u64(*job_id);
            }
            Self::Rejected {
                job_id,
                code,
                retry_after_ms,
            } => {
                w.u8(TAG_REJECTED);
                w.u64(*job_id);
                w.u8(code.tag());
                w.u32(*retry_after_ms);
            }
            Self::Poll { tenant, job_id } => {
                w.u8(TAG_POLL);
                w.u64(*tenant);
                w.u64(*job_id);
            }
            Self::Status { job_id, state } => {
                w.u8(TAG_STATUS);
                w.u64(*job_id);
                w.u8(state.tag());
            }
            Self::Stream { tenant, job_id } => {
                w.u8(TAG_STREAM);
                w.u64(*tenant);
                w.u64(*job_id);
            }
            Self::Event { job_id, event } => encode_event_frame(w, *job_id, event),
            Self::Cancel { tenant, job_id } => {
                w.u8(TAG_CANCEL);
                w.u64(*tenant);
                w.u64(*job_id);
            }
            Self::Drain => w.u8(TAG_DRAIN),
            Self::DrainAck { queued, running } => {
                w.u8(TAG_DRAIN_ACK);
                w.u32(*queued);
                w.u32(*running);
            }
            Self::Error { code, message } => {
                w.u8(TAG_ERROR);
                w.u16(*code);
                w.string(message);
            }
        }
    }

    /// Encodes the full wire form: length prefix + body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the full wire form ([`Frame::encode`]) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        append_framed(out, |w| self.write_body(w));
    }

    /// Decodes one frame body (tag + payload, no length prefix).
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on truncated, trailing, or malformed bytes — never a
    /// panic.
    pub fn decode_body(body: &[u8]) -> Result<Self, ProtoError> {
        let mut r = Reader::new(body);
        let frame = match r.u8()? {
            TAG_HELLO => {
                let magic = r.take(4)?;
                if magic != MAGIC {
                    return Err(ProtoError::BadMagic);
                }
                Self::Hello { version: r.u16()? }
            }
            TAG_HELLO_ACK => Self::HelloAck { version: r.u16()? },
            TAG_SUBMIT => Self::Submit {
                tenant: r.u64()?,
                job_id: r.u64()?,
                deadline_ms: r.u32()?,
                spec: decode_spec(&mut r)?,
            },
            TAG_ACCEPTED => Self::Accepted { job_id: r.u64()? },
            TAG_REJECTED => Self::Rejected {
                job_id: r.u64()?,
                code: RejectCode::from_tag(r.u8()?)?,
                retry_after_ms: r.u32()?,
            },
            TAG_POLL => Self::Poll {
                tenant: r.u64()?,
                job_id: r.u64()?,
            },
            TAG_STATUS => Self::Status {
                job_id: r.u64()?,
                state: JobState::from_tag(r.u8()?)?,
            },
            TAG_STREAM => Self::Stream {
                tenant: r.u64()?,
                job_id: r.u64()?,
            },
            TAG_EVENT => Self::Event {
                job_id: r.u64()?,
                event: decode_event(&mut r)?,
            },
            TAG_CANCEL => Self::Cancel {
                tenant: r.u64()?,
                job_id: r.u64()?,
            },
            TAG_DRAIN => Self::Drain,
            TAG_DRAIN_ACK => Self::DrainAck {
                queued: r.u32()?,
                running: r.u32()?,
            },
            TAG_ERROR => Self::Error {
                code: r.u16()?,
                message: r.string()?,
            },
            other => return Err(ProtoError::BadTag(other)),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Incremental frame assembler over a byte stream.
///
/// Feed raw reads in; complete frames come out. Keeps at most one frame of
/// buffered bytes plus one read's worth — bounded by [`MAX_FRAME`] because
/// oversized prefixes fail before their bodies are awaited.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    /// An empty assembler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes read from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete frame, if the buffer holds one.
    ///
    /// `Ok(None)` means "need more bytes". After an `Err` the connection
    /// should be torn down: framing is lost.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] for zero/oversized length prefixes and malformed
    /// bodies.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, ProtoError> {
        let Some(prefix) = self.buf.get(..4) else {
            return Ok(None);
        };
        let arr: [u8; 4] = prefix.try_into().map_err(|_| ProtoError::Truncated)?;
        let len = u32::from_le_bytes(arr);
        if len == 0 || len > MAX_FRAME {
            return Err(ProtoError::BadLength(len));
        }
        let end = (len as usize).saturating_add(4);
        if self.buf.len() < end {
            return Ok(None);
        }
        let rest = self.buf.split_off(end);
        let taken = std::mem::replace(&mut self.buf, rest);
        let body = taken.get(4..).ok_or(ProtoError::Truncated)?;
        Frame::decode_body(body).map(Some)
    }

    /// Bytes currently buffered (for diagnostics).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

/// Writes one frame to a blocking transport.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_frame<W: std::io::Write>(w: &mut W, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&frame.encode())?;
    w.flush()
}

/// Reads one frame from a blocking transport.
///
/// # Errors
///
/// Transport errors pass through; protocol violations surface as
/// [`std::io::ErrorKind::InvalidData`].
pub fn read_frame<R: std::io::Read>(r: &mut R) -> std::io::Result<Frame> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix);
    if len == 0 || len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            ProtoError::BadLength(len).to_string(),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Frame::decode_body(&body)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}
