//! Experiment harness reproducing the paper's tables and figures.
//!
//! Every table and figure of the evaluation section maps to a function
//! here; the `repro` binary drives them and prints the same rows/series the
//! paper reports:
//!
//! | Paper artifact | Function |
//! |----------------|----------|
//! | Table 1 (ACC rows) | [`table1_acc`] |
//! | Table 1 (oscillator rows) | [`table1_oscillator`] |
//! | Table 1 (3-D rows) | [`table1_three_dim`] |
//! | Table 2 (runtime / iteration) | [`table2`] |
//! | Fig. 4 (geometric learning curves, ACC) | [`fig4`] |
//! | Fig. 5 (Wasserstein learning curves, oscillator) | [`fig5`] |
//! | Fig. 6 (ACC reach sets) | [`fig6`] |
//! | Fig. 7 (oscillator reach sets + X_I) | [`fig7`] |
//! | Fig. 8 (3-D reach sets, divergence detection) | [`fig8`] |
//! | §4 tightness discussion | [`tightness`] |
//!
//! Absolute numbers differ from the paper (different hardware, Rust
//! reimplementations of the verifiers); the *shape* — which method wins,
//! by what order of magnitude, which verdicts appear — is the reproduction
//! target. `EXPERIMENTS.md` records paper-vs-measured for every row.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod figures;
pub mod report;
pub mod tables;

pub use experiments::{
    ddpg_budget, default_nn_config, run_ddpg, run_ours_linear, run_ours_nn, run_svg,
    verify_nn_posthoc, NnSetup, OursResult,
};
pub use report::{fmt_ci, RowResult};
pub use tables::{ablation, table1_acc, table1_oscillator, table1_three_dim, table2, tightness};

pub use figures::{fig4, fig5, fig6, fig7, fig8};
