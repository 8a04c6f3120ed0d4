//! Shared dense kernels: the workspace GEMM, one [`ParPool`]-taking entry
//! point whose 1-job pool is the serial path.
//!
//! # Kernel structure
//!
//! [`gemm_f32_par`] runs a cache-blocked, panel-packed microkernel in the
//! BLIS mold: the iteration space is tiled into `MC × KC × NC` blocks, the
//! `A` operand is packed into contiguous [`MR`]-row panels, the `B`
//! operand into contiguous [`NR`]-column panels ([`PackedB`]), and an
//! inner `MR × NR` register tile accumulates in f64 with enough
//! independent accumulators (32) for the autovectorizer to emit SIMD and
//! for out-of-order cores to hide the multiply-add latency that a single
//! f64 chain (the old naive kernel) serializes on.
//!
//! # Determinism contract
//!
//! Work follows the `wmpt-par` rule: it splits into chunks whose
//! boundaries depend only on the problem shape (fixed `const` chunk
//! sizes below), and every output element is computed by exactly the
//! same arithmetic whichever thread runs its chunk — bit-identical
//! results for any job count. The blocked kernel preserves a stronger
//! invariant: each output element is reduced by **one** f64 accumulator
//! in strictly ascending `l` (inner-dimension) order, exactly as the
//! retained naive reference [`gemm_f32_ref`]. `KC` blocking only pauses
//! that chain — the accumulator strip is stored and reloaded as f64
//! between `KC` blocks, which is exact — and `M`/`N` zero-padding lanes
//! are never written back, so blocked ≡ reference ≡ parallel, bit for
//! bit, on every shape. Nothing numeric in the workspace changes when
//! the schedule does.

use std::cell::RefCell;

use wmpt_par::ParPool;

/// Output rows per parallel GEMM chunk. A fixed constant so that chunk
/// boundaries depend only on the matrix shape, never on the job count.
/// Matches [`MC`] so each band is one cache block of the kernel.
pub const GEMM_ROW_CHUNK: usize = 64;

/// Register-tile rows of the inner microkernel.
pub const MR: usize = 4;

/// Register-tile columns of the inner microkernel.
pub const NR: usize = 8;

/// Row-block size: rows of `A` packed and kept hot in L2 per block.
/// Must be a multiple of [`MR`].
pub const MC: usize = 64;

/// Inner-dimension block size: the packed `A` block is `MC × KC` f32
/// (64 KiB), sized to stay cache-resident across the `N` sweep.
pub const KC: usize = 256;

/// Column-block size: columns of packed `B` streamed per block. Must be
/// a multiple of [`NR`].
pub const NC: usize = 256;

/// Below this many multiply-adds (`m·k·n`) the packing overhead is not
/// worth paying and the reference kernel runs instead ([`GemmB`]). Safe
/// to tune freely: both paths produce identical bits.
pub const BLOCKED_MIN_MACS: usize = 4096;

const _: () = assert!(MC.is_multiple_of(MR), "MC must be a multiple of MR");
const _: () = assert!(NC.is_multiple_of(NR), "NC must be a multiple of NR");

/// Naive triple-loop f32 GEMM with f64 accumulation — the reference the
/// blocked kernel is held bit-identical to, retained for property tests
/// and as the small-problem fallback.
///
/// `a` is `ar × ac`; when `ta` it is used as `ac × ar` (transposed read).
/// `b` has `bc` columns (rows inferred from `k`); when `tb`, `b` is read
/// transposed. `out` must hold `m × bc` values where `m = ac` if `ta`
/// else `ar`.
///
/// # Panics
///
/// Panics if `out.len() != m * bc`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_f32_ref(
    a: &[f32],
    ar: usize,
    ac: usize,
    b: &[f32],
    bc: usize,
    out: &mut [f32],
    ta: bool,
    tb: bool,
) {
    let (m, _) = if ta { (ac, ar) } else { (ar, ac) };
    assert_eq!(
        out.len(),
        m * bc,
        "gemm_f32_ref: out length {} does not match {m}x{bc} product",
        out.len()
    );
    gemm_rows_ref(a, ar, ac, b, bc, out, ta, tb, 0);
}

/// Computes rows `row0 .. row0 + out.len()/bc` of the product into `out`
/// with the naive per-element loop. Shared by the reference entry point
/// and the tiny-problem parallel path so both run identical arithmetic.
#[allow(clippy::too_many_arguments)]
fn gemm_rows_ref(
    a: &[f32],
    ar: usize,
    ac: usize,
    b: &[f32],
    bc: usize,
    out: &mut [f32],
    ta: bool,
    tb: bool,
    row0: usize,
) {
    let k = if ta { ar } else { ac };
    let n = bc;
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    for ri in 0..rows {
        let i = row0 + ri;
        for j in 0..n {
            let mut acc = 0.0f64;
            for l in 0..k {
                let av = if ta { a[l * ac + i] } else { a[i * ac + l] };
                let bv = if tb { b[j * k + l] } else { b[l * n + j] };
                acc += av as f64 * bv as f64;
            }
            out[ri * n + j] = acc as f32;
        }
    }
}

/// `B` packed into contiguous [`NR`]-column panels.
///
/// Panel `q` covers columns `q·NR .. (q+1)·NR` and stores the full inner
/// dimension contiguously: element `(l, c)` of the panel lives at
/// `q·k·NR + l·NR + c`. Columns past `n` are zero-padded; the padding
/// lanes feed multiplies whose results are never written back, so they
/// cannot perturb any output bit. Packing once per GEMM turns the
/// strided `b[l*n + j]` (or `b[j*k + l]`) walks of the naive kernel into
/// unit-stride streams, and lets the parallel path share one packed copy
/// across all row bands.
pub struct PackedB {
    /// Inner dimension (rows of the logical `B`).
    pub k: usize,
    /// Logical columns of `B` (before padding).
    pub n: usize,
    data: Vec<f32>,
}

impl PackedB {
    /// The full panel for NR-aligned column `j0`, `k·NR` long.
    #[inline]
    fn panel(&self, j0: usize) -> &[f32] {
        let q = j0 / NR;
        &self.data[q * self.k * NR..(q + 1) * self.k * NR]
    }
}

/// Packs `b` (`k × n`, or `n × k` read transposed when `tb`) into
/// [`NR`]-column panels.
pub fn pack_b(b: &[f32], k: usize, n: usize, tb: bool) -> PackedB {
    let panels = n.div_ceil(NR);
    let mut data = vec![0.0f32; panels * k * NR];
    for q in 0..panels {
        let dst = &mut data[q * k * NR..(q + 1) * k * NR];
        for l in 0..k {
            for c in 0..NR {
                let j = q * NR + c;
                if j < n {
                    dst[l * NR + c] = if tb { b[j * k + l] } else { b[l * n + j] };
                }
            }
        }
    }
    PackedB { k, n, data }
}

/// Per-thread packing/accumulator scratch, reused across GEMM calls so
/// the parallel row bands do not allocate per chunk.
struct Scratch {
    apack: Vec<f32>,
    acc: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            apack: Vec::new(),
            acc: Vec::new(),
        })
    };
}

/// Reads element `(r, c)` of the logical `A` (honouring `ta`).
#[inline(always)]
fn a_at(a: &[f32], ac: usize, ta: bool, r: usize, c: usize) -> f32 {
    if ta {
        a[c * ac + r]
    } else {
        a[r * ac + c]
    }
}

/// Packs rows `row_base .. row_base+mcb` × cols `pc .. pc+kcb` of `A`
/// into [`MR`]-row panels: element `(i, l)` of panel `p` lives at
/// `p·kcb·MR + l·MR + i`. Rows past `mcb` in the last panel are zeroed
/// (their accumulator lanes are never written back).
#[allow(clippy::too_many_arguments)]
fn pack_a_block(
    a: &[f32],
    ac: usize,
    ta: bool,
    row_base: usize,
    mcb: usize,
    pc: usize,
    kcb: usize,
    apack: &mut [f32],
) {
    for p in 0..mcb.div_ceil(MR) {
        let dst = &mut apack[p * kcb * MR..(p + 1) * kcb * MR];
        for l in 0..kcb {
            for i in 0..MR {
                dst[l * MR + i] = if p * MR + i < mcb {
                    a_at(a, ac, ta, row_base + p * MR + i, pc + l)
                } else {
                    0.0
                };
            }
        }
    }
}

/// Full `MR × NR` register tile: `kc` rank-1 updates into 32 independent
/// f64 accumulators. Written with fixed-size array lanes so the
/// autovectorizer emits SIMD; each accumulator still performs its adds in
/// ascending `l` order, preserving the reference reduction sequence.
#[inline]
fn micro_full(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [f64], off: usize, stride: usize) {
    let mut t = [[0.0f64; NR]; MR];
    for (i, row) in t.iter_mut().enumerate() {
        row.copy_from_slice(&acc[off + i * stride..off + i * stride + NR]);
    }
    for l in 0..kc {
        let av = &ap[l * MR..l * MR + MR];
        let bv = &bp[l * NR..l * NR + NR];
        let mut bw = [0.0f64; NR];
        for (w, &v) in bw.iter_mut().zip(bv) {
            *w = v as f64;
        }
        for (i, row) in t.iter_mut().enumerate() {
            let aw = av[i] as f64;
            for (slot, &v) in row.iter_mut().zip(&bw) {
                *slot += aw * v;
            }
        }
    }
    for (i, row) in t.iter().enumerate() {
        acc[off + i * stride..off + i * stride + NR].copy_from_slice(row);
    }
}

/// Partial edge tile (`mrb × nrb` live lanes): same per-element ascending
/// `l` reduction, scalar form.
#[allow(clippy::too_many_arguments)]
fn micro_edge(
    ap: &[f32],
    bp: &[f32],
    kc: usize,
    mrb: usize,
    nrb: usize,
    acc: &mut [f64],
    off: usize,
    stride: usize,
) {
    for i in 0..mrb {
        for j in 0..nrb {
            let mut t = acc[off + i * stride + j];
            for l in 0..kc {
                t += ap[l * MR + i] as f64 * bp[l * NR + j] as f64;
            }
            acc[off + i * stride + j] = t;
        }
    }
}

/// Blocked GEMM over output rows `row0 .. row0 + out.len()/n` against a
/// pre-packed `B`. This is the band kernel [`gemm_f32_par`] dispatches
/// per chunk, all chunks sharing one [`PackedB`].
///
/// Bit-identical to [`gemm_f32_ref`] on the same rows: every output
/// element is reduced by one f64 accumulator in ascending `l` order (the
/// accumulator strip round-trips through f64 storage between `KC`
/// blocks, which is exact).
pub fn gemm_f32_packed_rows(
    a: &[f32],
    ar: usize,
    ac: usize,
    ta: bool,
    bp: &PackedB,
    out: &mut [f32],
    row0: usize,
) {
    let k = bp.k;
    let n = bp.n;
    debug_assert_eq!(k, if ta { ar } else { ac });
    let _ = ar;
    if n == 0 || out.is_empty() {
        return;
    }
    let rows = out.len() / n;
    SCRATCH.with(|s| {
        let s = &mut *s.borrow_mut();
        let kc_max = KC.min(k.max(1));
        let nc_max = NC.min(n.div_ceil(NR) * NR);
        s.apack.resize(MC * kc_max, 0.0);
        s.acc.resize(MC * nc_max, 0.0);
        for jc in (0..n).step_by(NC) {
            let ncb = NC.min(n - jc);
            for ic in (0..rows).step_by(MC) {
                let mcb = MC.min(rows - ic);
                let acc = &mut s.acc[..mcb * ncb];
                acc.fill(0.0);
                for pc in (0..k).step_by(KC) {
                    let kcb = KC.min(k - pc);
                    pack_a_block(a, ac, ta, row0 + ic, mcb, pc, kcb, &mut s.apack);
                    let mut jr = 0;
                    while jr < ncb {
                        let nrb = NR.min(ncb - jr);
                        let panel = bp.panel(jc + jr);
                        let bpan = &panel[pc * NR..(pc + kcb) * NR];
                        let mut ir = 0;
                        while ir < mcb {
                            let mrb = MR.min(mcb - ir);
                            let apan = &s.apack[(ir / MR) * kcb * MR..(ir / MR + 1) * kcb * MR];
                            let off = ir * ncb + jr;
                            if mrb == MR && nrb == NR {
                                micro_full(apan, bpan, kcb, acc, off, ncb);
                            } else {
                                micro_edge(apan, bpan, kcb, mrb, nrb, acc, off, ncb);
                            }
                            ir += MR;
                        }
                        jr += NR;
                    }
                }
                for i in 0..mcb {
                    for j in 0..ncb {
                        out[(ic + i) * n + jc + j] = acc[i * ncb + j] as f32;
                    }
                }
            }
        }
    });
}

/// The `B` operand of one GEMM, prepared once and shared by every row
/// band. Above the [`BLOCKED_MIN_MACS`] cutoff it is packed into panels
/// for the blocked kernel; below it the packing overhead is not worth
/// paying, so `B` is borrowed as is and rows run the naive reference
/// kernel. Both produce identical bits (see module docs), so the cutoff
/// is a pure performance knob.
pub enum GemmB<'a> {
    /// Small product: rows run [`gemm_f32_ref`]'s loop straight off `b`.
    Ref {
        /// The operand as given.
        b: &'a [f32],
        /// Logical columns of `B`.
        n: usize,
        /// Whether `b` is read transposed.
        tb: bool,
    },
    /// Large product: rows run the blocked kernel on packed panels.
    Packed(PackedB),
}

impl<'a> GemmB<'a> {
    /// Prepares `b` (`k × n`, or `n × k` read transposed when `tb`) for a
    /// product with `m` output rows.
    pub fn new(b: &'a [f32], m: usize, k: usize, n: usize, tb: bool) -> Self {
        if m * k * n < BLOCKED_MIN_MACS {
            Self::Ref { b, n, tb }
        } else {
            Self::Packed(pack_b(b, k, n, tb))
        }
    }

    /// Computes output rows `row0 .. row0 + out.len()/n` of `A · B` into
    /// `out` (`A` as in [`gemm_f32_par`]).
    pub fn rows(&self, a: &[f32], ar: usize, ac: usize, ta: bool, out: &mut [f32], row0: usize) {
        match self {
            Self::Ref { b, n, tb } => gemm_rows_ref(a, ar, ac, b, *n, out, ta, *tb, row0),
            Self::Packed(bp) => gemm_f32_packed_rows(a, ar, ac, ta, bp, out, row0),
        }
    }
}

/// f32 GEMM with f64 accumulation — the one matrix multiply every numeric
/// path in the workspace funnels through. Output rows are computed in
/// fixed [`GEMM_ROW_CHUNK`]-row bands distributed across the pool, all
/// bands sharing one prepared copy of `B` ([`GemmB`]: the blocked kernel
/// above the size cutoff, the reference kernel below it). Each output
/// element runs the same f64-accumulated ascending-`l` reduction as
/// [`gemm_f32_ref`], so the result is bit-identical for any `jobs`
/// value; a 1-job pool runs every band inline on the caller's thread.
///
/// `a` is `ar × ac`; when `ta` it is used as `ac × ar` (transposed read).
/// `b` has `bc` columns (rows inferred from `k`); when `tb`, `b` is read
/// transposed. `out` must hold `m × bc` values where `m = ac` if `ta`
/// else `ar`.
///
/// # Panics
///
/// Panics if `out.len() != m * bc` (a real `assert!` — release builds
/// must not scribble past a mis-shaped output).
#[allow(clippy::too_many_arguments)]
pub fn gemm_f32_par(
    pool: &ParPool,
    a: &[f32],
    ar: usize,
    ac: usize,
    b: &[f32],
    bc: usize,
    out: &mut [f32],
    ta: bool,
    tb: bool,
) {
    let (m, k) = if ta { (ac, ar) } else { (ar, ac) };
    assert_eq!(
        out.len(),
        m * bc,
        "gemm_f32_par: out length {} does not match {m}x{bc} product",
        out.len()
    );
    let bp = GemmB::new(b, m, k, bc, tb);
    pool.for_each_chunk_mut(out, GEMM_ROW_CHUNK * bc, |ci, band| {
        bp.rows(a, ar, ac, ta, band, ci * GEMM_ROW_CHUNK);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataGen;

    fn random(n: usize, seed: u64) -> Vec<f32> {
        let mut g = DataGen::new(seed);
        (0..n).map(|_| g.normal(0.0, 1.0) as f32).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn gemm_par_is_bit_identical_for_any_jobs() {
        // Odd sizes so the last row band is partial, all four transpose
        // combinations so every indexing path is covered, m >
        // GEMM_ROW_CHUNK so there are several bands. One shape sits above
        // the BLOCKED_MIN_MACS cutoff (blocked kernel), one below it
        // (reference kernel per band). The 1-job result must equal the
        // reference, and every wider pool the 1-job result.
        for (m, k, n) in [(131, 13, 11), (131, 2, 3)] {
            assert_eq!(m * k * n >= BLOCKED_MIN_MACS, k == 13);
            let a = random(m * k, 1);
            let bv = random(k * n, 3);
            for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
                let (ar, ac) = if ta { (k, m) } else { (m, k) };
                let run = |jobs: usize| {
                    let mut out = vec![0.0f32; m * n];
                    gemm_f32_par(&ParPool::new(jobs), &a, ar, ac, &bv, n, &mut out, ta, tb);
                    bits(&out)
                };
                let mut reference = vec![0.0f32; m * n];
                gemm_f32_ref(&a, ar, ac, &bv, n, &mut reference, ta, tb);
                let serial = run(1);
                assert_eq!(
                    bits(&reference),
                    serial,
                    "{m}x{k}x{n} ta={ta} tb={tb} jobs=1"
                );
                for jobs in [2, 7] {
                    assert_eq!(serial, run(jobs), "{m}x{k}x{n} ta={ta} tb={tb} jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn blocked_is_bit_identical_to_reference() {
        // Shapes straddling every blocking boundary: microkernel edges
        // (m % MR, n % NR), block edges (MC, KC, NC crossings), and the
        // small-problem cutoff on both sides.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (MR, KC, NR),
            (MC - 1, KC + 3, NR + 1),
            (MC + 5, 2 * KC + 1, NC + 9),
            (130, 300, 70),
        ] {
            let a = random(m * k, 11);
            let bv = random(k * n, 13);
            for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
                let (ar, ac) = if ta { (k, m) } else { (m, k) };
                let mut reference = vec![0.0f32; m * n];
                gemm_f32_ref(&a, ar, ac, &bv, n, &mut reference, ta, tb);
                // Force the blocked path regardless of the size cutoff.
                let bp = pack_b(&bv, k, n, tb);
                let mut blocked = vec![0.0f32; m * n];
                gemm_f32_packed_rows(&a, ar, ac, ta, &bp, &mut blocked, 0);
                assert_eq!(
                    bits(&reference),
                    bits(&blocked),
                    "{m}x{k}x{n} ta={ta} tb={tb} diverged"
                );
            }
        }
    }

    #[test]
    fn gemm_matches_hand_product() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let pool = ParPool::serial();
        let mut out = [0.0f32; 4];
        gemm_f32_par(&pool, &a, 2, 2, &b, 2, &mut out, false, false);
        assert_eq!(out, [19.0, 22.0, 43.0, 50.0]);
        // Aᵀ * B with A stored as 2×2: same matrix transposed.
        let mut out_t = [0.0f32; 4];
        gemm_f32_par(&pool, &a, 2, 2, &b, 2, &mut out_t, true, false);
        assert_eq!(out_t, [26.0, 30.0, 38.0, 44.0]);
    }

    #[test]
    #[should_panic(expected = "gemm_f32_par: out length")]
    fn gemm_rejects_mis_shaped_output() {
        let a = [1.0f32; 6];
        let b = [1.0f32; 6];
        let mut out = [0.0f32; 5]; // should be 2x3 = 6
        gemm_f32_par(&ParPool::serial(), &a, 2, 3, &b, 3, &mut out, false, false);
    }

    #[test]
    #[should_panic(expected = "gemm_f32_par: out length")]
    fn gemm_par_rejects_mis_shaped_output() {
        let a = [1.0f32; 6];
        let b = [1.0f32; 6];
        let mut out = [0.0f32; 7]; // should be 2x3 = 6
        let pool = ParPool::new(2);
        gemm_f32_par(&pool, &a, 2, 3, &b, 3, &mut out, false, false);
    }

    #[test]
    #[should_panic(expected = "gemm_f32_ref: out length")]
    fn gemm_ref_rejects_mis_shaped_output() {
        let a = [1.0f32; 4];
        let b = [1.0f32; 4];
        let mut out = [0.0f32; 3]; // should be 2x2 = 4
        gemm_f32_ref(&a, 2, 2, &b, 2, &mut out, false, false);
    }
}
