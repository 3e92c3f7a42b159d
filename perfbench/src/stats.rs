//! Order statistics over measured samples.

/// Nearest-rank percentile `p` (in percent, `1..=100`) of `sorted`, which
/// must be ascending and nonempty: the smallest sample with at least
/// `p`% of all samples at or below it. Integer arithmetic, so the rank
/// never depends on how `p / 100` rounds.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((1..=100).contains(&p), "percentile outside 1..=100");
    let n = sorted.len();
    let rank = (p as usize * n).div_ceil(100);
    sorted[rank.clamp(1, n) - 1]
}

/// Samples needed so that at least ten lie above percentile `p`.
pub fn samples_for(p: u32) -> usize {
    assert!(
        p < 100,
        "no sample count puts ten samples above the maximum"
    );
    (1000usize).div_ceil(100 - p as usize)
}

/// Ascending copy of `v`.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Consecutive ranges splitting `n` samples into about `target` chunks
/// of at least `min` samples each (one chunk when `n < 2 * min`).
pub fn chunks(n: usize, target: usize, min: usize) -> Vec<std::ops::Range<usize>> {
    let k = (n / min.max(1)).clamp(1, target.max(1));
    (0..k).map(|c| c * n / k..(c + 1) * n / k).collect()
}

/// Median over [`chunks`] of each chunk's percentile `p`: a slow spell
/// on the machine spoils a few chunks, not the reported value.
pub fn chunked_percentile(samples: &[f64], p: u32, target: usize, min: usize) -> f64 {
    let per: Vec<f64> = chunks(samples.len(), target, min)
        .into_iter()
        .map(|r| percentile(&sorted(&samples[r]), p))
        .collect();
    median(&per)
}

/// Median over [`chunks`] of the completion rate, per second, from
/// ascending completion times `done_s` (seconds since the phase began).
pub fn chunked_rate(done_s: &[f64], target: usize, min: usize) -> f64 {
    let per: Vec<f64> = chunks(done_s.len(), target, min)
        .into_iter()
        .map(|r| {
            let from = if r.start == 0 {
                0.0
            } else {
                done_s[r.start - 1]
            };
            r.len() as f64 / (done_s[r.end - 1] - from)
        })
        .collect();
    median(&per)
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    assert!(!s.is_empty(), "median of an empty sample");
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// Arithmetic mean of `v` (0 for an empty sample).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_at_the_stated_sample_counts() {
        // 100 samples back p90 and 1000 back p99 with exactly ten
        // samples above each.
        let s = ramp(100);
        assert_eq!(percentile(&s, 50), 50.0);
        assert_eq!(percentile(&s, 90), 90.0);
        assert_eq!(s.iter().filter(|&&x| x > percentile(&s, 90)).count(), 10);
        let s = ramp(1000);
        assert_eq!(percentile(&s, 99), 990.0);
        assert_eq!(s.iter().filter(|&&x| x > percentile(&s, 99)).count(), 10);
        assert_eq!(samples_for(90), 100);
        assert_eq!(samples_for(99), 1000);
        assert_eq!(samples_for(50), 20);
    }

    #[test]
    fn nearest_rank_rounds_up_and_clamps() {
        let s = ramp(101);
        assert_eq!(percentile(&s, 50), 51.0);
        assert_eq!(percentile(&s, 100), 101.0);
        assert_eq!(percentile(&[7.0], 1), 7.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
        // Ten samples: p90 is the ninth, p99 already the maximum.
        let s = ramp(10);
        assert_eq!(percentile(&s, 90), 9.0);
        assert_eq!(percentile(&s, 99), 10.0);
    }

    #[test]
    fn chunks_partition_with_a_floor() {
        assert_eq!(
            chunks(1000, 10, 100),
            (0..10).map(|c| c * 100..c * 100 + 100).collect::<Vec<_>>()
        );
        // Too few samples for ten chunks of 100: as many as fit.
        assert_eq!(chunks(350, 10, 100), vec![0..116, 116..233, 233..350]);
        assert_eq!(chunks(50, 10, 100), vec![0..50]);
        let c = chunks(5003, 10, 100);
        assert_eq!((c.len(), c[0].start, c[9].end), (10, 0, 5003));
        assert!(c.windows(2).all(|w| w[0].end == w[1].start));
    }

    #[test]
    fn chunk_medians_shrug_off_a_slow_spell() {
        // Five chunks of 100; one chunk ran 10x slower.
        let mut lat: Vec<f64> = (0..500).map(|i| (i % 100 + 1) as f64).collect();
        lat[200..300].iter_mut().for_each(|x| *x *= 10.0);
        assert_eq!(chunked_percentile(&lat, 90, 10, 100), 90.0);
        assert_eq!(chunked_percentile(&lat, 50, 10, 100), 50.0);
        // Completions every 10 ms, except a chunk at one per 100 ms.
        let mut t = 0.0;
        let done: Vec<f64> = (0..500)
            .map(|i| {
                t += if (200..300).contains(&i) { 0.1 } else { 0.01 };
                t
            })
            .collect();
        assert!((chunked_rate(&done, 10, 100) - 100.0).abs() < 1e-6);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(sorted(&[2.0, -1.0, 0.5]), vec![-1.0, 0.5, 2.0]);
    }
}
