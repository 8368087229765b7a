//! dwv-lint: the float-hygiene and no-alloc static-analysis pass for the
//! verified core.
//!
//! A token-level scanner (no `syn` — the build is offline) enforcing the
//! parts of the project's soundness contract clippy cannot express:
//!
//! | rule            | what it forbids                                      |
//! |-----------------|------------------------------------------------------|
//! | `float-hygiene` | raw `f64` arithmetic / non-directed float methods in soundness zones, directly or through a raw-float helper (`#taint`) |
//! | `no-alloc`      | allocation in the designated no-alloc kernel zone    |
//!
//! Panic freedom (R2) and determinism (R3) are clippy lints: the
//! panic-free crate roots deny `clippy::indexing_slicing`,
//! `clippy::unwrap_used` and friends, and the workspace `clippy.toml`
//! disallows the hash containers, clocks and thread identity (DESIGN.md
//! §4d).
//!
//! Findings are suppressible only via an inline, reasoned annotation:
//!
//! ```text
//! // dwv-lint: allow(float-hygiene) -- step timestamps are display metadata
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
pub use engine::{lint_sources, lint_workspace, read_workspace};
pub use report::{Finding, Report, Rule, Suppression};
pub use rules::lint_source;
