//! Pins the paper's simulated figures across commits. Figs. 5–6, Table 4
//! and the fusion ablation are simulated costs of shapes no host could
//! hold, so no numeric test reaches them; this hashes every number they
//! report to one committed constant. A cost model, tile choice or launch
//! stream that moves any of them fails here.

use unisvd_bench::{figures, ratios};

/// FNV-1a over a stream of 64-bit words, byte by byte (little-endian).
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn paper_figures_match_golden_fingerprint() {
    const GOLDEN: u64 = 0x846b_96d7_c2c4_9f63;
    let mut words = Vec::new();
    for curve in figures::fig5(32768) {
        words.push(curve.points.len() as u64);
        for (n, t) in curve.points {
            words.extend([n as u64, t.to_bits()]);
        }
    }
    for row in figures::fig6(16384) {
        words.push(row.n as u64);
        words.extend(row.fractions.map(f64::to_bits));
        words.push(row.trailing_over_panel.to_bits());
    }
    for row in ratios::table4(16384) {
        for stats in [row.vendor, row.magma, row.slate] {
            match stats {
                Some((g, lo, hi)) => words.extend([1, g.to_bits(), lo.to_bits(), hi.to_bits()]),
                None => words.push(0),
            }
        }
    }
    for p in figures::fusion_ablation(8192) {
        words.extend([
            p.n as u64,
            p.launches_fused as u64,
            p.launches_unfused as u64,
            p.seconds_fused.to_bits(),
            p.seconds_unfused.to_bits(),
        ]);
    }
    let got = fnv1a(words);
    assert_eq!(
        got, GOLDEN,
        "paper-figure fingerprint moved: {got:#018x} (want {GOLDEN:#018x})"
    );
}
