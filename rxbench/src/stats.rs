//! The benchmark's own arithmetic: percentiles, failure accounting and
//! throughput. Kept apart from the timing code so it can be unit tested.

/// Samples that must lie strictly beyond a percentile before it is
/// reported; with fewer the tail is noise, not a measurement.
pub const MIN_TAIL: usize = 10;

/// The latency a packet enters the distribution with: its measured
/// time, or `+∞` when it failed (a failed packet misses every limit).
pub fn latency_or_inf(ok: bool, us: f64) -> f64 {
    if ok {
        us
    } else {
        f64::INFINITY
    }
}

/// Nearest-rank `q`-quantile (`0 < q < 1`) of `samples`, or `None`
/// when fewer than [`MIN_TAIL`] samples lie beyond it. Reorders
/// `samples` in place instead of copying them.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_TAIL {
        return None;
    }
    Some(*samples.select_nth_unstable_by(rank - 1, f64::total_cmp).1)
}

/// Median of a non-empty set (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Wire bytes a packet adds to the delivered total: its length when it
/// came back `Ok`, nothing when it failed.
pub fn delivered_bytes(ok: bool, wire_len: usize) -> u64 {
    if ok {
        wire_len as u64
    } else {
        0
    }
}

/// Throughput in Mbps of `bytes` delivered in `seconds`.
pub fn ok_mbps(bytes: u64, seconds: f64) -> f64 {
    bytes as f64 * 8.0 / seconds / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&mut ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&mut ramp(999), 0.99), None);
        assert_eq!(percentile(&mut ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&mut ramp(19), 0.5), None);
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(1000);
        v.reverse();
        assert_eq!(percentile(&mut v, 0.99), Some(990.0));
        assert_eq!(percentile(&mut v, 0.5), Some(500.0));
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        assert_eq!(latency_or_inf(true, 3.5), 3.5);
        assert_eq!(latency_or_inf(false, 3.5), f64::INFINITY);
        // Ten failures sit exactly beyond p99 of 1000: p99 stays finite.
        let mut v: Vec<f64> = ramp(990);
        v.extend((0..10).map(|_| latency_or_inf(false, 1.0)));
        assert_eq!(percentile(&mut v, 0.99), Some(990.0));
        // An eleventh failure moves p99 onto a failed packet.
        let i = v.iter().position(|&x| x == 1.0).expect("fastest packet");
        v[i] = latency_or_inf(false, 1.0);
        assert_eq!(percentile(&mut v, 0.99), Some(f64::INFINITY));
        // The median is unaffected by a few failures.
        assert_eq!(percentile(&mut v, 0.5), Some(501.0));
    }

    #[test]
    fn mbps_counts_only_ok_packets() {
        let outcomes = [(true, 1000), (false, 1000), (true, 250)];
        let bytes: u64 = outcomes.iter().map(|&(ok, w)| delivered_bytes(ok, w)).sum();
        assert_eq!(ok_mbps(bytes, 1e-3), 10.0);
        assert_eq!(ok_mbps(delivered_bytes(false, 1400), 1.0), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
