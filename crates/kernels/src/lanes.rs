//! Lane-wide building blocks of a Householder reflector, shared by the
//! panel and update kernels.
//!
//! Both work on a block of register rows stored row by row (lane `l` of
//! row `i` at `rows[i * n + l]`, `n` lanes per row, as
//! [`LaneRegs::split_mut`](unisvd_gpu::LaneRegs::split_mut) hands them
//! out) and on one more row `acc` of `n` lanes. Each lane sees exactly the
//! operations its thread would, in the same order, so the result is the
//! same bit for bit however the lanes are swept.

use std::ops::Range;
use unisvd_scalar::Real;

/// Lanes whose running sums [`dot_lanes`] keeps in machine registers:
/// eight independent add chains of two `f64` (or four `f32`) SSE2 lanes,
/// enough to hide the add latency.
const BLOCK: usize = 16;

/// `acc[l] += Σ_i v[i] · rows[i][l]` for each lane `l` in `lanes`, each
/// lane adding its terms in ascending `i`. Summed row by row, every term
/// would load and store the lane's running sum; here a block of lanes is
/// summed at a time, with the block's sums held in machine registers.
pub(crate) fn dot_lanes<R: Real>(acc: &mut [R], rows: &[R], v: &[R], lanes: Range<usize>) {
    let n = acc.len();
    if n < BLOCK {
        for (row, &vi) in rows.chunks_exact(n).zip(v) {
            for (s, &x) in acc[lanes.clone()].iter_mut().zip(&row[lanes.clone()]) {
                *s += vi * x;
            }
        }
        return;
    }
    let mut l = lanes.start;
    while l < lanes.end {
        // A full block that covers lane `l`. Near the end of the row it
        // starts early and re-sums lanes that are done or out of range;
        // only lanes `l..e` are written back.
        let b = l.min(n - BLOCK);
        let mut sum: [R; BLOCK] = acc[b..b + BLOCK].try_into().unwrap();
        for (row, &vi) in rows.chunks_exact(n).zip(v) {
            let x: &[R; BLOCK] = row[b..b + BLOCK].try_into().unwrap();
            for (s, &x) in sum.iter_mut().zip(x) {
                *s += vi * x;
            }
        }
        let e = (b + BLOCK).min(lanes.end);
        acc[l..e].copy_from_slice(&sum[l - b..e - b]);
        l = e;
    }
}

/// `rows[i][l] -= acc[l] · w_i` for each lane `l` in `lanes`, where `w_i`
/// is the `i`-th weight: the rank-1 update that follows a [`dot_lanes`].
pub(crate) fn sub_lanes<R: Real>(
    rows: &mut [R],
    acc: &[R],
    w: impl IntoIterator<Item = R>,
    lanes: Range<usize>,
) {
    let n = acc.len();
    let acc = &acc[lanes.clone()];
    for (row, wi) in rows.chunks_exact_mut(n).zip(w) {
        for (x, &a) in row[lanes.clone()].iter_mut().zip(acc) {
            *x -= a * wi;
        }
    }
}
