//! LoRA-style rank selection — the workload the paper's introduction
//! motivates: low-rank adaptation of large language models needs fast
//! singular value computation, often in half precision, to decide how
//! much of a weight-update matrix's energy a rank-r adapter captures.
//!
//! We build a synthetic "weight update" ΔW with rapidly decaying spectrum
//! (what fine-tuning deltas empirically look like), compute its singular
//! values in FP16 through the unified API, pick ranks from the energy
//! profile, and then *materialise* the adapters with the pipeline's
//! truncated factorisation (`Want::TopK(r)`) — reporting the actual
//! reconstruction error of each candidate rank, not just its energy.
//!
//! ```text
//! cargo run --release --example lora_rank_selection
//! ```

use rand::{rngs::StdRng, SeedableRng};
use unisvd::{hw, svdvals, testmat, Device, Matrix, Svd, Want, F16};

/// Minimal rank whose leading singular values capture `fraction` of the
/// total squared energy.
fn rank_for_energy(sv: &[f64], fraction: f64) -> usize {
    let total: f64 = sv.iter().map(|s| s * s).sum();
    let mut acc = 0.0;
    for (i, s) in sv.iter().enumerate() {
        acc += s * s;
        if acc >= fraction * total {
            return i + 1;
        }
    }
    sv.len()
}

/// `‖ΔW − U_r Σ_r V_rᵀ‖_F / ‖ΔW‖_F`: what the adapter actually loses.
fn adapter_error(dw: &Matrix<f64>, u: &Matrix<f64>, s: &[f64], vt: &Matrix<f64>) -> f64 {
    let mut err2 = 0.0;
    for j in 0..dw.cols() {
        for i in 0..dw.rows() {
            let mut x = 0.0;
            for (l, &sv) in s.iter().enumerate() {
                x += u[(i, l)] * sv * vt[(l, j)];
            }
            err2 += (dw[(i, j)] - x).powi(2);
        }
    }
    err2.sqrt() / dw.fro_norm()
}

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let n = 512;

    // Synthetic fine-tuning delta: singular values decay exponentially
    // with a long flat noise tail — a classic LoRA-friendly spectrum.
    let svs: Vec<f64> = (0..n)
        .map(|i| {
            let signal = (-(i as f64) / 12.0).exp();
            let noise = 1e-3;
            (signal * signal + noise * noise).sqrt()
        })
        .collect();
    let delta_w64 = unisvd::testmat::with_singular_values_fast(&svs, 64, &mut rng);

    // Adapter pipelines store deltas in FP16; the unified API takes them
    // directly (first GPU SVD with FP16 support, per the paper).
    let delta_w: Matrix<F16> = delta_w64.cast();

    let dev = Device::numeric(hw::h100());
    let sv = svdvals(&delta_w, &dev).expect("svdvals failed");

    println!("ΔW is {n}×{n}; singular values computed in FP16 storage");
    println!(
        "σ₁ = {:.4}, σ₁₆ = {:.4}, σ₆₄ = {:.4}, σ_min = {:.5}",
        sv[0],
        sv[15],
        sv[63],
        sv[n - 1]
    );
    for f in [0.90, 0.95, 0.99] {
        let r = rank_for_energy(&sv, f);
        println!(
            "rank capturing {:>4.0}% of energy: r = {:<4} (adapter compression {}x)",
            f * 100.0,
            r,
            2 * n / (2 * r).max(1)
        );
    }

    // Cross-check the FP16 ranks against an FP64 run: rank decisions are
    // robust to half-precision storage (the use case that motivates FP16
    // singular values — exact values matter less than the energy profile).
    let sv64 = svdvals(&delta_w64, &dev).expect("FP64 solve failed");
    for f in [0.90, 0.95, 0.99] {
        let (r16, r64) = (rank_for_energy(&sv, f), rank_for_energy(&sv64, f));
        assert!(
            (r16 as i64 - r64 as i64).unsigned_abs() <= 2,
            "FP16 rank decision diverged: {r16} vs {r64}"
        );
    }
    println!("FP16 rank decisions match FP64 within ±2 — half precision suffices here.");

    // Error-vs-rank: build the actual rank-r adapters with the truncated
    // pipeline (values + top-r vectors in one solve, FP64 on a smaller
    // layer so the reconstruction check is exact-precision) and measure
    // what each candidate rank really loses.
    let layer_n = 128;
    let layer_svs: Vec<f64> = (0..layer_n)
        .map(|i| ((-(i as f64) / 10.0).exp().powi(2) + 1e-6).sqrt())
        .collect();
    let layer = testmat::with_singular_values_fast(&layer_svs, 48, &mut rng);
    let full_layer = svdvals(&layer, &dev).expect("layer spectrum");
    println!("\nerror vs adapter rank for a {layer_n}×{layer_n} layer:");
    println!(
        "{:>5} | {:>12} | {:>12} | {:>8}",
        "r", "rel. error", "E-Y bound", "energy"
    );
    let total: f64 = full_layer.iter().map(|s| s * s).sum();
    let mut prev_err = f64::INFINITY;
    for r in [2usize, 4, 8, 16, 32] {
        let mut plan = Svd::on(&hw::h100())
            .precision::<f64>()
            .vectors(Want::TopK(r))
            .plan(layer_n, layer_n)
            .expect("plan");
        let out = plan.execute(&layer).expect("truncated solve");
        assert_eq!(out.values.len(), r, "top-{r} returns exactly r values");
        let err = adapter_error(
            &layer,
            out.u.as_ref().unwrap(),
            &out.values,
            out.vt.as_ref().unwrap(),
        );
        let tail2: f64 = full_layer[r..].iter().map(|s| s * s).sum();
        let bound = tail2.sqrt() / layer.fro_norm();
        let energy = 1.0 - tail2 / total;
        println!(
            "{r:>5} | {err:>11.4e} | {bound:>11.4e} | {:>7.2}%",
            100.0 * energy
        );
        // More rank never hurts, and each adapter sits at its optimum.
        assert!(err <= prev_err + 1e-12, "error must decrease with rank");
        assert!(err <= bound + 1e-8, "rank-{r} adapter missed the optimum");
        prev_err = err;
    }

    // A *fleet* of adapters — the workload that motivates the plan API:
    // every layer of a fine-tuned model contributes one same-shaped ΔW.
    // Plan once (support check, hyperparameter resolution, workspace
    // allocation), then execute the whole fleet with per-solve overhead
    // amortized away — vectors included.
    let layers = 12;
    let adapter_n = 96;
    let fleet: Vec<Matrix<F16>> = (0..layers)
        .map(|l| {
            let decay = 8.0 + l as f64;
            let svs: Vec<f64> = (0..adapter_n)
                .map(|i| ((-(i as f64) / decay).exp().powi(2) + 1e-6).sqrt())
                .collect();
            testmat::with_singular_values_fast(&svs, 32, &mut rng).cast()
        })
        .collect();
    let mut plan = Svd::on(&hw::h100())
        .precision::<F16>()
        .vectors(Want::TopK(16))
        .plan(adapter_n, adapter_n)
        .expect("H100 supports FP16");
    println!("\nadapter fleet: {layers} layers of {adapter_n}x{adapter_n} ΔW via one SvdPlan (top-16 triplets)");
    for (l, out) in plan.execute_batch(&fleet).into_iter().enumerate() {
        let out = out.expect("fleet solve failed");
        let u = out.u.as_ref().expect("vectors came back");
        assert_eq!((u.rows(), u.cols()), (adapter_n, 16));
        let r95 = rank_for_energy(&out.values, 0.95);
        println!(
            "  layer {l:>2}: r(95%) ≤ {r95:<3} σ₁ = {:.4}",
            out.values[0]
        );
    }
}
