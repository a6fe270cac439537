//! Order statistics shared by every workload: nearest-rank percentiles,
//! the "ten samples beyond" rule for tail percentiles, medians and the
//! quartile spread the acceptance rule is stated in.

/// Samples that must lie beyond a tail percentile before it is
/// reported (choosing-metrics §1).
pub const TAIL_SUPPORT: usize = 10;

/// Nearest-rank percentile of an ascending slice: the element of rank
/// `ceil(p/100 · N)` clamped to `[1, N]`. `None` when empty.
pub fn percentile_sorted(sorted: &[u64], p: u32) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let p = p.min(100) as usize;
    let rank = (p * sorted.len()).div_ceil(100).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
pub fn samples_beyond(n: usize, p: u32) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = (p.min(100) as usize * n).div_ceil(100).clamp(1, n);
    n - rank
}

/// The highest of `candidates` (ascending) that still has
/// [`TAIL_SUPPORT`] samples beyond it, with its value; falls back to
/// the lowest candidate when even that is unsupported.
pub fn supported_tail(sorted: &[u64], candidates: &[u32]) -> Option<(u32, u64)> {
    let first = *candidates.first()?;
    let p = candidates
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(sorted.len(), p) >= TAIL_SUPPORT)
        .unwrap_or(first);
    percentile_sorted(sorted, p).map(|v| (p, v))
}

/// Median of unordered values (mean of the two middle ones when the
/// count is even). `None` when empty or when any value is NaN.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN excluded above"));
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Jain's fairness index `(Σx)² / (k · Σx²)` over per-client counts:
/// `1/k` when one client takes everything, `1` when all are served
/// alike. `1` for an empty or all-zero population (nobody is treated
/// worse than anybody else).
pub fn jain_index(counts: &[u64]) -> f64 {
    let sum: f64 = counts.iter().map(|&c| c as f64).sum();
    let sq: f64 = counts.iter().map(|&c| (c as f64) * (c as f64)).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (counts.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile_sorted(&v, 50), Some(5));
        assert_eq!(percentile_sorted(&v, 51), Some(6));
        assert_eq!(percentile_sorted(&v, 99), Some(10));
        assert_eq!(percentile_sorted(&v, 0), Some(1));
        assert_eq!(percentile_sorted(&v, 100), Some(10));
        assert_eq!(percentile_sorted(&[7], 99), Some(7));
        assert_eq!(percentile_sorted(&[], 50), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, ten beyond — the smallest supported N.
        assert_eq!(samples_beyond(1000, 99), 10);
        assert_eq!(samples_beyond(999, 99), 9);
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(supported_tail(&v, &[50, 90, 99]), Some((99, 990)));
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(supported_tail(&v, &[50, 90, 99]), Some((90, 900)));
        // Too few samples for any tail: the lowest candidate is used.
        let v: Vec<u64> = (1..=12).collect();
        assert_eq!(supported_tail(&v, &[50, 90, 99]), Some((50, 6)));
        assert_eq!(supported_tail(&[], &[50, 99]), None);
    }

    #[test]
    fn median_handles_even_odd_and_nan() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn jain_index_spans_one_over_k_to_one() {
        assert!((jain_index(&[5, 0, 0, 0]) - 0.25).abs() < 1e-12);
        assert!((jain_index(&[3, 3, 3]) - 1.0).abs() < 1e-12);
        assert_eq!(jain_index(&[0, 0]), 1.0);
        assert_eq!(jain_index(&[]), 1.0);
    }
}
