//! The zone map: which parts of the workspace each rule applies to.
//!
//! Paths are repo-relative with `/` separators. The default configuration
//! encodes the project's soundness contract (see `DESIGN.md` §4d); tests
//! construct custom configurations pointing at fixture files.

/// Whether a repo-relative path is library code. Tests, examples, benches
/// and binaries (`src/bin/`, `main.rs`) are outside every rule's zone, so
/// the linter skips them.
#[must_use]
pub fn is_library(rel_path: &str) -> bool {
    let parts: Vec<&str> = rel_path.split('/').collect();
    !parts
        .iter()
        .any(|p| matches!(*p, "tests" | "examples" | "benches" | "bin"))
        && parts.last() != Some(&"main.rs")
}

/// The crate owning a repo-relative path: `<name>` for `crates/<name>/…`,
/// the root package otherwise.
#[must_use]
pub fn crate_of(rel_path: &str) -> String {
    let parts: Vec<&str> = rel_path.split('/').collect();
    if parts.len() >= 2 && parts[0] == "crates" {
        parts[1].to_string()
    } else {
        "design-while-verify".to_string()
    }
}

/// The zone map consulted by the rule passes.
#[derive(Debug, Clone)]
pub struct ZoneConfig {
    /// Files whose float arithmetic must be directed (R1 soundness zones).
    pub float_zone_files: Vec<String>,
    /// Zone files exempt from R1 because they *are* the rounding primitives.
    pub float_primitive_files: Vec<String>,
    /// Designated coefficient-kernel modules (the SIMD zone's compute core):
    /// raw f64 arithmetic is their job, so R1's operator heuristic is waived
    /// there — but the denylisted float methods and the rounding-primitive
    /// containment check (R1#rounding) still apply.
    pub kernel_module_files: Vec<String>,
    /// Crates whose library code must be panic-free (R2).
    pub panic_free_crates: Vec<String>,
    /// Individual files under the R2 panic-freedom contract even though
    /// their crate as a whole is not (e.g. the serve wire-protocol parser,
    /// which decodes attacker-controlled bytes).
    pub panic_free_files: Vec<String>,
    /// Files whose results must be deterministic (R3).
    pub determinism_zone_files: Vec<String>,
    /// Files every function of which is in the R6 no-alloc zone.
    pub no_alloc_files: Vec<String>,
    /// Function names in the R6 no-alloc zone wherever they are defined
    /// (the workspace-arena kernels and the arena flow step).
    pub no_alloc_fns: Vec<String>,
    /// Function-name suffixes placing a function in the R6 no-alloc zone
    /// when its file is listed in `no_alloc_suffix_files`.
    pub no_alloc_fn_suffixes: Vec<String>,
    /// Files whose `_into`/`_in_place`-style kernels join the R6 zone.
    pub no_alloc_suffix_files: Vec<String>,
    /// Type names whose arithmetic operators are sound overloads (interval
    /// and enclosure types): an operand of one of these types discharges
    /// the R1 raw-float-operator obligation.
    pub enclosure_types: Vec<String>,
    /// Crates whose public functions the panic-reachability pass must prove
    /// transitively panic-free.
    pub proof_crates: Vec<String>,
}

impl Default for ZoneConfig {
    fn default() -> Self {
        let v = |xs: &[&str]| xs.iter().map(|s| (*s).to_string()).collect();
        Self {
            // The verified enclosure arithmetic: interval boxes, Bernstein
            // range enclosures, Taylor-model remainder bookkeeping, and the
            // SIMD zone around the coefficient kernels (packed polynomial
            // storage, workspaces, and the flowpipe's defect tape).
            float_zone_files: v(&[
                "crates/interval/src/lib.rs",
                "crates/interval/src/boxes.rs",
                "crates/poly/src/bernstein.rs",
                "crates/poly/src/polynomial.rs",
                "crates/poly/src/workspace.rs",
                "crates/taylor/src/model.rs",
                "crates/taylor/src/defect.rs",
                "crates/reach/src/interval_reach.rs",
                "crates/reach/src/portfolio.rs",
            ]),
            // The rounding primitives themselves: one-ulp outward nudges and
            // the widened libm endpoint evaluations.
            float_primitive_files: v(&[
                "crates/interval/src/interval.rs",
                "crates/interval/src/transcendental.rs",
            ]),
            // The vectorized coefficient kernels: the one module whose raw
            // f64 loops are the designated scalar/SIMD compute core.
            kernel_module_files: v(&["crates/poly/src/kernels.rs"]),
            // The verified core: a panic mid-flowpipe would abort a whole
            // training run, so library paths must be Result-carrying.
            panic_free_crates: v(&["interval", "poly", "taylor", "reach", "core", "trace"]),
            // Hostile-input parsers outside the verified crates: the serve
            // frame codec must reject truncated/garbage bytes, never panic.
            panic_free_files: v(&["crates/serve/src/proto.rs"]),
            // Result-bearing parallel/caching code: the bit-identity contract
            // (serial vs parallel, cached vs fresh) forbids iteration-order,
            // wall-clock, and thread-identity dependence. The trace analyzer
            // joins the zone: the same trace must give the same report bytes
            // on every run, so its aggregation must be order-stable
            // (`BTreeMap`, never `HashMap`).
            determinism_zone_files: v(&[
                "crates/core/src/parallel.rs",
                "crates/reach/src/cache.rs",
                "crates/reach/src/taylor_reach.rs",
                "crates/reach/src/sweep.rs",
                "crates/poly/src/bernstein.rs",
                "crates/poly/src/tables.rs",
                "crates/trace/src/model.rs",
                "crates/trace/src/forest.rs",
                "crates/trace/src/attribution.rs",
                "crates/trace/src/critical.rs",
                "crates/trace/src/folded.rs",
                "crates/trace/src/bill.rs",
                "crates/trace/src/lib.rs",
                "crates/obs/src/recorder.rs",
            ]),
            // The zero-copy hot core (PR 2/6): the coefficient kernels, the
            // workspace-arena in-place polynomial kernels, and the arena
            // flow step must never allocate on the steady-state path.
            no_alloc_files: v(&["crates/poly/src/kernels.rs"]),
            no_alloc_fns: v(&["flow_step_ws"]),
            no_alloc_fn_suffixes: v(&["_into", "_in_place"]),
            no_alloc_suffix_files: v(&[
                "crates/poly/src/polynomial.rs",
                "crates/taylor/src/model.rs",
            ]),
            enclosure_types: v(&[
                "Interval",
                "IntervalBox",
                "Polynomial",
                "TaylorModel",
                "Zonotope",
            ]),
            proof_crates: v(&["interval", "poly", "taylor", "reach"]),
        }
    }
}

impl ZoneConfig {
    /// Whether `rel_path` is in the R1 float-hygiene zone (and neither a
    /// rounding-primitive module nor a designated kernel module).
    #[must_use]
    pub fn in_float_zone(&self, rel_path: &str) -> bool {
        self.float_zone_files.iter().any(|f| f == rel_path)
            && !self.is_rounding_primitive(rel_path)
            && !self.is_kernel_module(rel_path)
    }

    /// Whether `rel_path` is one of the rounding-primitive modules (the only
    /// places `next_up`/`next_down`-style endpoint math may live).
    #[must_use]
    pub fn is_rounding_primitive(&self, rel_path: &str) -> bool {
        self.float_primitive_files.iter().any(|f| f == rel_path)
    }

    /// Whether `rel_path` is a designated coefficient-kernel module.
    #[must_use]
    pub fn is_kernel_module(&self, rel_path: &str) -> bool {
        self.kernel_module_files.iter().any(|f| f == rel_path)
    }

    /// Whether `rel_path` carries the R2 panic-freedom contract: its crate
    /// is listed in `panic_free_crates`, or the file itself is singled out
    /// in `panic_free_files`.
    #[must_use]
    pub fn in_panic_free_crate(&self, rel_path: &str) -> bool {
        self.panic_free_crates.contains(&crate_of(rel_path))
            || self.panic_free_files.iter().any(|f| f == rel_path)
    }

    /// Whether `rel_path` is in the R3 determinism zone.
    #[must_use]
    pub fn in_determinism_zone(&self, rel_path: &str) -> bool {
        self.determinism_zone_files.iter().any(|f| f == rel_path)
    }

    /// Whether function `fn_name` defined in `rel_path` is in the R6
    /// no-alloc zone.
    #[must_use]
    pub fn in_no_alloc_zone(&self, rel_path: &str, fn_name: &str) -> bool {
        self.no_alloc_files.iter().any(|f| f == rel_path)
            || self.no_alloc_fns.iter().any(|f| f == fn_name)
            || (self.no_alloc_suffix_files.iter().any(|f| f == rel_path)
                && self
                    .no_alloc_fn_suffixes
                    .iter()
                    .any(|s| fn_name.ends_with(s.as_str())))
    }

    /// Whether `name` is a registered enclosure type (whose operators are
    /// sound overloads, not raw float arithmetic).
    #[must_use]
    pub fn is_enclosure_type(&self, name: &str) -> bool {
        self.enclosure_types.iter().any(|t| t == name)
    }

    /// Whether `rel_path` belongs to a crate under the public-API
    /// panic-reachability proof.
    #[must_use]
    pub fn in_proof_crate(&self, rel_path: &str) -> bool {
        self.proof_crates.contains(&crate_of(rel_path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_paths_and_crates() {
        assert!(is_library("crates/interval/src/interval.rs"));
        assert!(is_library("src/lib.rs"));
        assert!(!is_library("crates/bench/src/bin/bench_core.rs"));
        assert!(!is_library("crates/serve/src/main.rs"));
        assert!(!is_library("crates/poly/tests/properties.rs"));
        assert!(!is_library("examples/quickstart.rs"));
        assert_eq!(crate_of("crates/interval/src/interval.rs"), "interval");
        assert_eq!(crate_of("src/lib.rs"), "design-while-verify");
    }

    #[test]
    fn default_zones() {
        let z = ZoneConfig::default();
        assert!(z.in_float_zone("crates/interval/src/boxes.rs"));
        assert!(z.in_float_zone("crates/reach/src/interval_reach.rs"));
        assert!(z.in_float_zone("crates/reach/src/portfolio.rs"));
        assert!(!z.in_float_zone("crates/interval/src/interval.rs"));
        assert!(z.in_panic_free_crate("crates/reach/src/cache.rs"));
        assert!(z.in_panic_free_crate("crates/trace/src/forest.rs"));
        assert!(!z.in_panic_free_crate("crates/obs/src/trace.rs"));
        // File-granular R2: the serve codec is in the zone, the rest of
        // the serve crate is not.
        assert!(z.in_panic_free_crate("crates/serve/src/proto.rs"));
        assert!(!z.in_panic_free_crate("crates/serve/src/server.rs"));
        assert!(z.in_determinism_zone("crates/core/src/parallel.rs"));
        assert!(z.in_determinism_zone("crates/trace/src/attribution.rs"));
        assert!(z.in_determinism_zone("crates/obs/src/recorder.rs"));
    }
}
