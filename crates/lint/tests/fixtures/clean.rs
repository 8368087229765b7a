//! Clean fixture: every rule passes even when linted as a zone file.

/// Sound midpoint via directed endpoints (no raw float ops at all).
pub fn lo_of(pair: (f64, f64)) -> f64 {
    pair.0.min(pair.1)
}

/// Result-carrying accessor: no panic paths.
pub fn first(v: &[f64]) -> Option<f64> {
    v.first().copied()
}

/// Deterministic accumulation over a sorted map.
pub fn total(m: &std::collections::BTreeMap<u64, u64>) -> u64 {
    let mut acc = 0u64;
    for v in m.values() {
        acc = acc.saturating_add(*v);
    }
    acc
}

#[cfg(test)]
mod tests {
    // Test code may do what it likes: no rule applies here.
    #[test]
    fn looks_fine() {
        let v = [1.0, 2.0];
        assert!((v[0] + v[1]).sqrt() > 0.0);
    }
}
