//! SIMD-zone fixture: linted as a designated kernel module.

/// Raw elementwise kernel loop — the designation waives the operator check.
pub fn kernel_ok(dst: &mut [f64], a: f64, src: &[f64]) {
    for (d, &x) in dst.iter_mut().zip(src) {
        *d += a * x;
    }
}

/// Denylisted libm-backed method: still banned inside a kernel module.
pub fn bad_method(x: f64) -> f64 {
    x.sqrt()
}

/// Rounding-sensitive endpoint math outside the rounding primitives.
pub fn bad_rounding(x: f64) -> f64 {
    x.next_up()
}
