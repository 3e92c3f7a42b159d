//! Out-of-core SVD: solving operands that do not fit device memory.
//!
//! ```text
//! cargo run --release --example svd_oocore
//! ```
//!
//! Three escalating views of the same subsystem:
//!
//! * **direct streaming** — a square operand ~10x the device's memory
//!   solves through [`OutOfCorePlan`], charging one transfer per
//!   `budget/4`-byte tile, with values bit-identical to a device large
//!   enough to hold it in one upload;
//! * **tall streaming** — a tall-skinny operand streams the same way and
//!   takes the in-core plan's host-QR front-end, again bit-identical to
//!   the big-device solve;
//! * **serving fallback** — a fleet built with `oocore_fallback(true)`
//!   absorbs an over-capacity request that would otherwise be an
//!   unroutable rejection, streaming it on the device that rejected it.

use rand::{rngs::StdRng, SeedableRng};
use unisvd::{hw, KernelClass, Matrix, OutOfCore, SvDistribution, Svd, SvdFleet};

fn main() {
    // A deliberately tiny device: 16 KiB of "HBM". Every operand below
    // is oversized relative to it, the way a 40 GB card is oversized
    // relative to a 400 GB operand — the ratios are what matter.
    let mut tiny = hw::rtx4060();
    tiny.memory_bytes = 16 * 1024;

    // --- direct streaming ------------------------------------------------
    let n = 208; // 208 * 208 * 4 B = 173 KiB, >= 10x device memory
    let a = {
        let mut rng = StdRng::seed_from_u64(7);
        unisvd::testmat::test_matrix::<f32, _>(n, SvDistribution::Logarithmic, false, &mut rng).0
    };
    let operand_bytes = (n * n * std::mem::size_of::<f32>()) as u64;
    println!(
        "svd_oocore: {} B operand on a {} B device ({:.1}x over memory)",
        operand_bytes,
        tiny.memory_bytes,
        operand_bytes as f64 / tiny.memory_bytes as f64
    );

    assert!(
        Svd::on(&tiny).precision::<f32>().plan(n, n).is_err(),
        "the in-core planner must reject this shape"
    );
    let mut plan = OutOfCore::on(&tiny)
        .precision::<f32>()
        .plan(n, n)
        .expect("the out-of-core planner accepts it");
    let out = plan.execute(&a).expect("streams tile by tile");
    println!(
        "streaming: σ₁ = {:.4}, {} tiles, {:.3} ms of transfer",
        out.values[0],
        plan.panels(),
        out.summary.seconds_of(KernelClass::Transfer) * 1e3
    );

    // Oracle: the same solve on an artificially enlarged clone of the
    // device. The streaming values must match it bit for bit.
    let mut big = tiny.clone();
    big.memory_bytes = 1 << 30;
    let oracle = Svd::on(&big)
        .precision::<f32>()
        .plan(n, n)
        .unwrap()
        .execute(&a)
        .unwrap();
    let bit_equal = out
        .values
        .iter()
        .zip(&oracle.values)
        .all(|(x, y)| x.to_bits() == y.to_bits());
    println!("bit-identical to the big-device oracle: {bit_equal}");
    assert!(bit_equal);

    // --- tall streaming ---------------------------------------------------
    let (m, k) = (4096, 16);
    let t = Matrix::<f64>::from_fn(m, k, |i, j| {
        (((i * 13 + j * 5) % 89) as f64 - 44.0) / 89.0 + if i % (k + 1) == j { 3.0 } else { 0.0 }
    });
    let mut tall = OutOfCore::on(&tiny)
        .precision::<f64>()
        .plan(m, k)
        .expect("the out-of-core planner accepts tall shapes");
    let sv = tall.execute(&t).expect("streams tile by tile");
    let tall_oracle = Svd::on(&big)
        .precision::<f64>()
        .plan(m, k)
        .unwrap()
        .execute(&t)
        .unwrap();
    assert_eq!(
        sv.values, tall_oracle.values,
        "tall streaming must be bit-identical to the big-device oracle"
    );
    println!(
        "\ntall streaming: {m}x{k} f64 in {} tiles, σ₁ = {:.4}, σ_min = {:.4} \
         (bit-identical to the oracle)",
        tall.panels(),
        sv.values[0],
        sv.values[k - 1]
    );

    // --- serving fallback -------------------------------------------------
    // Without the knob the fleet has nowhere to put the oversized shape;
    // with it, the rejecting device itself absorbs the request by
    // streaming.
    let strict = SvdFleet::builder().device(tiny.clone()).build();
    let cfg = unisvd::SvdConfig::default();
    let refused = strict.solve(&a, &cfg).is_err();
    let fleet = SvdFleet::builder()
        .device(tiny)
        .backends(|s| s.oocore_fallback(true))
        .build();
    let served = fleet.solve(&a, &cfg).expect("fallback streams it");
    println!(
        "\nfleet: strict build refused = {refused}, oocore_fallback served σ₁ = {:.4} \
         (matches oracle: {})",
        served.values[0],
        served.values[0].to_bits() == oracle.values[0].to_bits()
    );
    assert!(refused);
}
