//! R1 fixture for the float zones: linted as if at
//! `crates/taylor/src/defect.rs`, where the float-hygiene zone and the
//! rounding containment check apply at once; the audited exemption lands
//! in the suppression trail.

/// Trait-bound `+` is type syntax, not float arithmetic.
pub fn bounded<C: Clone + ?Sized + Sync>(_c: &C) {}

/// Raw float arithmetic inside the zone.
pub fn raw(a: f64, b: f64) -> f64 {
    a * b + 0.5
}

/// Denylisted libm-backed method inside the zone.
pub fn dist(x: f64) -> f64 {
    x.sqrt()
}

/// Directed endpoint math outside the rounding primitives.
pub fn nudge(x: f64) -> f64 {
    next_up(x)
}

/// An audited exemption: the reason lands in the suppression trail.
pub fn timestamp(t0: f64, delta: f64) -> f64 {
    t0 + delta // dwv-lint: allow(float-hygiene) -- step timestamps are display metadata
}
