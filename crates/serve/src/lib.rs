//! Verification-as-a-service for the design-while-verify stack.
//!
//! `dwv-serve` turns the batch pipeline into a long-running job server: a
//! hand-rolled, versioned, length-prefixed TCP protocol ([`proto`]) carries
//! problem specs and controller weights in, and verdicts, report CSVs, and
//! flowpipe segments back out. Jobs run through the *same* code the batch
//! binaries use — [`dwv_core::assess`], `design_while_verify_linear`, the
//! exact [`LinearReach`](dwv_reach::LinearReach) — so a served verdict is
//! **byte-identical** to the batch verdict for the same spec (the `serve`
//! dwv-check family and `tests/serve_batch_parity.rs` enforce this, at pool
//! widths 2/4/8).
//!
//! Production concerns, by module:
//!
//! * [`proto`] — frame grammar, panic-free codec, exact-byte handshake
//! * [`queue`] — bounded FIFO admission, reject-with-retry-after
//!   backpressure
//! * [`job`] — spec validation and execution on [`dwv_core::WorkerPool`]
//! * [`server`] — thread-per-core workers, per-tenant sharded
//!   [`ReachCache`](dwv_reach::ReachCache)s, deadline/cancel propagation
//!   via [`CancelToken`](dwv_core::parallel::CancelToken), graceful +
//!   forced drain
//! * [`client`] — blocking client used by tests, the check family, and the
//!   binary's `--smoke`/`--drain` modes
//!
//! Observability: `serve.accept`, `serve.submitted`, `serve.queue_depth`,
//! `serve.rejections[.reason]`, `serve.drain`, `serve.stream.writes` (one
//! per batch of streamed events), plus
//! `serve.conn`/`serve.job`/`serve.drain` spans — all through [`dwv_obs`],
//! feeding the existing `dwv-trace` analyzer.
//!
//! ```no_run
//! use dwv_serve::{Client, JobKind, JobSpec, ProblemId, ServeConfig, Server};
//!
//! # fn main() -> std::io::Result<()> {
//! let server = Server::start(ServeConfig::default())?;
//! let mut client = Client::connect(server.addr())?;
//! client.submit(1, 1, 0, JobSpec {
//!     problem: ProblemId::Acc,
//!     kind: JobKind::VerifyLinear { gains: vec![0.5867, -2.0], grid: 2, samples: 100 },
//! })?;
//! let result = client.stream_result(1, 1)?;
//! println!("{}", result.verdict);
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod job;
pub mod proto;
pub mod queue;
pub mod server;

pub use client::{reassemble, Client};
pub use job::{run_job, validate, JobError, JobOutput, SegmentData};
pub use proto::{
    Frame, FrameBuffer, JobEvent, JobKind, JobSpec, JobState, ProblemId, ProtoError, RejectCode,
    MAGIC, MAX_FRAME, VERSION,
};
pub use queue::{AdmissionQueue, QueueFull};
pub use server::{ServeConfig, Server};
