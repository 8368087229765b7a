//! dwv-lint: the soundness & determinism static-analysis pass for the
//! verified core.
//!
//! A zero-dependency token-level scanner (no `syn` — the build is offline)
//! enforcing the project's soundness contract:
//!
//! | rule            | what it forbids                                      |
//! |-----------------|------------------------------------------------------|
//! | `float-hygiene` | raw `f64` arithmetic / non-directed float methods in soundness zones |
//! | `panic-freedom` | `unwrap`/`expect`/panicking macros/indexing in verified library code |
//! | `determinism`   | iteration-order, wall-clock, thread-identity dependence in result-bearing code |
//! | `no-alloc`      | allocation in the designated no-alloc kernel zone    |
//!
//! Findings are suppressible only via an inline, reasoned annotation:
//!
//! ```text
//! // dwv-lint: allow(panic-freedom#index) -- bounds established by loop guard
//! ```
//!
//! which the linter records in the report's audit trail. Malformed
//! annotations are findings themselves and always fail the run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod config;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod structure;
pub mod walk;

pub use config::ZoneConfig;
pub use engine::{lint_sources, lint_workspace, read_workspace, why_workspace};
pub use report::{Finding, Report, Rule, Suppression};
pub use rules::lint_source;
