//! Runtime-dispatched wide kernel families (§5.5, tract's `plug()` idiom).
//!
//! The 128-bit kernels are compiled unconditionally — SSE2/NEON are
//! baseline. Anything wider is a **runtime** property of the host, so the
//! wide instantiations of [`crate::main_kernel::main_kernel_shape`] live
//! here as *kernel families*: per-ISA bundles of monomorphic
//! `#[target_feature]`-attributed entry points plus their solver-derived
//! register tiles, registered in a process-global table that
//! `core::driver`/`core::plan` consult after probing the CPU
//! ([`shalom_simd::caps`]).
//!
//! Two families ship today, both solved fresh from the paper's Eq. 1–2
//! against the x86 register files (the constants below are *checked
//! against the solver at registration*, so they cannot drift from the
//! analytic model):
//!
//! | family | registers | f32 tile | f64 tile |
//! |---|---|---|---|
//! | AVX2+FMA (256-bit) | 16 YMM, 1 reserved | 7 × 8 | 4 × 8 |
//! | AVX-512F (512-bit) | 32 ZMM, 1 reserved | 15 × 16 | 9 × 16 |
//!
//! (The `kernels::wide` module's 9×16 / 7×12 tiles model a 32-register
//! 256-bit *SVE* file and stay as the paper's §5.5 ARM study; these
//! families are the x86 register files actually dispatched at runtime.)
//!
//! [`family_gemm`] is the one blocked driver over a family, for all four
//! op modes. Following §4.3, a transposed operand is packed and then runs
//! the same micro-kernel as NN: "NT packs B" (each B panel is
//! transpose-packed into the layout the Goto sliver packer gives an
//! untransposed B) and "TN packs A" (each `mc x kc` block of `Aᵀ` is
//! staged once and read by every panel). Full tiles run directly on C;
//! edge tiles go through a zero-padded scratch tile so the shaped kernel
//! never reads or writes out of bounds.

#[cfg(any(test, all(target_arch = "x86_64", not(feature = "force-scalar"))))]
use crate::main_kernel::main_kernel_shape;
use crate::pack::{pack_b_slivers_goto, pack_transpose};
#[cfg(any(test, all(target_arch = "x86_64", not(feature = "force-scalar"))))]
use crate::tile::{solve_tile, TileConstraints};
use shalom_matrix::{Op, Scalar};
use shalom_simd::caps::{self, Isa};
use std::sync::OnceLock;

/// AVX2 f32 tile rows (Eq. 1 over 15 usable YMM, `j = 8`).
pub const AVX2_MR_F32: usize = 7;
/// AVX2 f32 tile columns (`nrv = 1` vector of 8 lanes).
pub const AVX2_NR_F32: usize = 8;
/// AVX2 f64 tile rows (Eq. 1 over 15 usable YMM, `j = 4`).
pub const AVX2_MR_F64: usize = 4;
/// AVX2 f64 tile columns (`nrv = 2` vectors of 4 lanes).
pub const AVX2_NR_F64: usize = 8;
/// AVX-512 f32 tile rows (Eq. 1 over 31 usable ZMM, `j = 16`).
pub const AVX512_MR_F32: usize = 15;
/// AVX-512 f32 tile columns (`nrv = 1` vector of 16 lanes).
pub const AVX512_NR_F32: usize = 16;
/// AVX-512 f64 tile rows (Eq. 1 over 31 usable ZMM, `j = 8`).
pub const AVX512_MR_F64: usize = 9;
/// AVX-512 f64 tile columns (`nrv = 2` vectors of 8 lanes).
pub const AVX512_NR_F64: usize = 16;

/// A family micro-kernel entry point — the exact
/// [`main_kernel_shape`] signature, monomorphic so it can live in a
/// dispatch table: `(kc, alpha, a, lda, b, ldb, beta, c, ldc)`.
///
/// # Safety
/// Callers must uphold the [`main_kernel_shape`] contract for the
/// family's `(mr, nr)` tile, **and** the family's ISA must have been
/// runtime-probed on this host (the registry only hands out families
/// whose probe passed).
pub type FamilyKernelFn<T> =
    unsafe fn(usize, T, *const T, usize, *const T, usize, T, *mut T, usize);

/// One element type's kernels within a family.
pub struct FamilyKernels<T> {
    /// Register-tile rows.
    pub mr: usize,
    /// Register-tile columns.
    pub nr: usize,
    /// The `mr x nr` micro-kernel.
    pub kernel: FamilyKernelFn<T>,
}

/// A registered kernel family: one ISA level, both precisions.
pub struct KernelFamily {
    /// The ISA this family's kernels require.
    pub isa: Isa,
    /// f32 kernels and tile.
    pub k_f32: FamilyKernels<f32>,
    /// f64 kernels and tile.
    pub k_f64: FamilyKernels<f64>,
}

/// Selects the per-element-type half of a [`KernelFamily`]. Implemented
/// for `f32`/`f64`; a supertrait of [`crate::Vector`]'s `Elem` so generic
/// drivers reach the family table without cascading `where` clauses.
pub trait FamilyElem: Scalar {
    /// This element type's kernels in `fam`.
    fn kernels(fam: &KernelFamily) -> &FamilyKernels<Self>
    where
        Self: Sized;
}

impl FamilyElem for f32 {
    #[inline(always)]
    fn kernels(fam: &KernelFamily) -> &FamilyKernels<f32> {
        &fam.k_f32
    }
}

impl FamilyElem for f64 {
    #[inline(always)]
    fn kernels(fam: &KernelFamily) -> &FamilyKernels<f64> {
        &fam.k_f64
    }
}

/// The dispatched entry points. Each shim enables exactly the features
/// its vector type's ops require; `main_kernel_shape` is
/// `#[inline(always)]`, so its body — and the `SHALOM-V-SIMD` inner
/// functions it calls, whose feature sets are subsets of the shim's —
/// inlines here and compiles to real 256/512-bit FMA with no global
/// `RUSTFLAGS`.
#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
mod x86 {
    use super::*;
    use shalom_simd::{F32x16, F32x8, F64x4, F64x8};

    /// AVX2+FMA f32 micro-kernel at the family's (7, 8) tile.
    ///
    /// # Safety
    /// [`FamilyKernelFn`] contract: the [`main_kernel_shape`] operand
    /// contract at this tile, on a host whose AVX2+FMA probe passed.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn avx2_kernel_f32(
        kc: usize,
        alpha: f32,
        a: *const f32,
        lda: usize,
        b: *const f32,
        ldb: usize,
        beta: f32,
        c: *mut f32,
        ldc: usize,
    ) {
        // SAFETY: SHALOM-K-MAIN — caller upholds the shaped-kernel
        // contract for the (AVX2_MR_F32 x AVX2_NR_F32) tile.
        main_kernel_shape::<F32x8, AVX2_MR_F32, 1>(kc, alpha, a, lda, b, ldb, beta, c, ldc)
    }

    /// AVX2+FMA f64 micro-kernel at the family's (4, 8) tile.
    ///
    /// # Safety
    /// [`FamilyKernelFn`] contract: the [`main_kernel_shape`] operand
    /// contract at this tile, on a host whose AVX2+FMA probe passed.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn avx2_kernel_f64(
        kc: usize,
        alpha: f64,
        a: *const f64,
        lda: usize,
        b: *const f64,
        ldb: usize,
        beta: f64,
        c: *mut f64,
        ldc: usize,
    ) {
        // SAFETY: SHALOM-K-MAIN — caller upholds the shaped-kernel
        // contract for the (AVX2_MR_F64 x AVX2_NR_F64) tile.
        main_kernel_shape::<F64x4, AVX2_MR_F64, 2>(kc, alpha, a, lda, b, ldb, beta, c, ldc)
    }

    /// AVX-512F f32 micro-kernel at the family's (15, 16) tile.
    ///
    /// # Safety
    /// [`FamilyKernelFn`] contract: the [`main_kernel_shape`] operand
    /// contract at this tile, on a host whose AVX-512F probe passed.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn avx512_kernel_f32(
        kc: usize,
        alpha: f32,
        a: *const f32,
        lda: usize,
        b: *const f32,
        ldb: usize,
        beta: f32,
        c: *mut f32,
        ldc: usize,
    ) {
        // SAFETY: SHALOM-K-MAIN — caller upholds the shaped-kernel
        // contract for the (AVX512_MR_F32 x AVX512_NR_F32) tile.
        main_kernel_shape::<F32x16, AVX512_MR_F32, 1>(kc, alpha, a, lda, b, ldb, beta, c, ldc)
    }

    /// AVX-512F f64 micro-kernel at the family's (9, 16) tile.
    ///
    /// # Safety
    /// [`FamilyKernelFn`] contract: the [`main_kernel_shape`] operand
    /// contract at this tile, on a host whose AVX-512F probe passed.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn avx512_kernel_f64(
        kc: usize,
        alpha: f64,
        a: *const f64,
        lda: usize,
        b: *const f64,
        ldb: usize,
        beta: f64,
        c: *mut f64,
        ldc: usize,
    ) {
        // SAFETY: SHALOM-K-MAIN — caller upholds the shaped-kernel
        // contract for the (AVX512_MR_F64 x AVX512_NR_F64) tile.
        main_kernel_shape::<F64x8, AVX512_MR_F64, 2>(kc, alpha, a, lda, b, ldb, beta, c, ldc)
    }
}

/// Registration-time guard: the wired `(mr, nr)` constants must equal the
/// Eq. 1–2 solver's answer for that ISA's register file, so the table can
/// never ship a tile that drifted from the analytic model.
#[cfg(any(test, all(target_arch = "x86_64", not(feature = "force-scalar"))))]
fn assert_tile_matches_solver(isa: Isa, lanes: usize, mr: usize, nr: usize) {
    let c = TileConstraints {
        vector_registers: isa.vector_registers(),
        reserved_registers: 1,
        lanes,
    };
    let t = solve_tile(&c);
    assert!(
        t.mr == mr && t.nr == nr,
        "family {}: wired tile ({mr}, {nr}) != solver tile ({}, {}) for {} registers, j = {lanes}",
        isa.label(),
        t.mr,
        t.nr,
        c.vector_registers,
    );
}

#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
fn build_family(isa: Isa) -> Option<KernelFamily> {
    if !caps::supported(isa) {
        return None;
    }
    let fam = match isa {
        Isa::Avx2W256 => KernelFamily {
            isa,
            k_f32: FamilyKernels {
                mr: AVX2_MR_F32,
                nr: AVX2_NR_F32,
                kernel: x86::avx2_kernel_f32,
            },
            k_f64: FamilyKernels {
                mr: AVX2_MR_F64,
                nr: AVX2_NR_F64,
                kernel: x86::avx2_kernel_f64,
            },
        },
        Isa::Avx512W512 => KernelFamily {
            isa,
            k_f32: FamilyKernels {
                mr: AVX512_MR_F32,
                nr: AVX512_NR_F32,
                kernel: x86::avx512_kernel_f32,
            },
            k_f64: FamilyKernels {
                mr: AVX512_MR_F64,
                nr: AVX512_NR_F64,
                kernel: x86::avx512_kernel_f64,
            },
        },
        _ => return None,
    };
    assert_tile_matches_solver(isa, isa.vector_bits() / 32, fam.k_f32.mr, fam.k_f32.nr);
    assert_tile_matches_solver(isa, isa.vector_bits() / 64, fam.k_f64.mr, fam.k_f64.nr);
    Some(fam)
}

#[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
fn build_family(_isa: Isa) -> Option<KernelFamily> {
    None
}

/// The family registered for `isa`, if this host can execute it.
/// Families are built (and solver-checked) once, on first request.
pub fn family_for(isa: Isa) -> Option<&'static KernelFamily> {
    static AVX2: OnceLock<Option<KernelFamily>> = OnceLock::new();
    static AVX512: OnceLock<Option<KernelFamily>> = OnceLock::new();
    match isa {
        Isa::Avx2W256 => AVX2.get_or_init(|| build_family(isa)).as_ref(),
        Isa::Avx512W512 => AVX512.get_or_init(|| build_family(isa)).as_ref(),
        _ => None,
    }
}

/// The widest family this host can execute, or `None` when the 128-bit
/// substrate is already the best available (non-x86, `force-scalar`, or
/// hardware without AVX2+FMA).
pub fn selected_wide_family() -> Option<&'static KernelFamily> {
    let best = caps::best_isa();
    if best.is_wide() {
        family_for(best)
    } else {
        None
    }
}

/// A phase of [`family_gemm`] the caller may time or trace: the driver
/// runs each one through its `span` hook, so the wide route reports the
/// same pack/compute split as the 128-bit driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyPhase {
    /// Staging one block of `Aᵀ` (§4.3 "TN packs A").
    PackA,
    /// Packing one B panel, transposed or not.
    PackB,
    /// The panel sweep of one `m x n x k` block, its B packs included.
    Compute {
        /// Rows of the block.
        m: usize,
        /// Columns of the block.
        n: usize,
        /// Depth of the block.
        k: usize,
    },
}

/// Workspace elements [`family_gemm`] needs for `kc`-deep, `mc`-row
/// blocks: `(bc_elems, at_elems)`. `bc` holds one packed `kc x nr` B
/// panel followed by the edge staging area (an `mr x nr` C tile, then
/// `mr x kc` A rows); `at` holds the staged `op(A) = Aᵀ` block — `mc`
/// rounded up to whole `mr`-row tiles, by `kc` — and is empty for an
/// untransposed A, which the driver reads in place.
pub fn family_workspace<T: FamilyElem>(
    fam: &KernelFamily,
    op_a: Op,
    kc: usize,
    mc: usize,
) -> (usize, usize) {
    let ks = T::kernels(fam);
    let at_elems = match op_a {
        Op::NoTrans => 0,
        Op::Trans => mc.div_ceil(ks.mr) * ks.mr * kc,
    };
    (kc * ks.nr + ks.mr * ks.nr + ks.mr * kc, at_elems)
}

/// Blocked driver over one kernel family, for every op mode:
/// `C = alpha * op(A) * op(B) + beta * C` with row-major operands.
///
/// Loop order is `kk` (depth blocks of `kc`) → `ii` (row blocks of `mc`,
/// rounded up to whole `mr`-row tiles) → `j` (B panels of `nr`) → `i`
/// (row tiles of `mr`). The op modes differ only in how an operand
/// reaches the kernel (§4.3), and each choice is made once per block or
/// panel, never per tile:
///
/// * **B panel.** `op_b = N` packs the `kc x nr` panel with the Goto
///   sliver packer — or, with `direct_b`, reads every full-width panel in
///   place (the caller's "never pack" policy; the one partial panel is
///   still staged zero-padded, since the kernel loads whole vectors);
///   `T` transpose-packs the `ncols` stored rows into the same
///   zero-padded panel ("NT packs B").
/// * **A block.** `op_a = N` reads A in place; `T` stages the `(ii, kk)`
///   block of `Aᵀ` into `at` once, zero-padded to whole tiles, and every
///   panel reads it from there ("TN packs A").
///
/// `span` runs every A staging, B pack and block sweep, tagged with its
/// [`FamilyPhase`], so callers can time and trace them (pass
/// `&|_, body| body()` when there is nothing to record).
///
/// Full tiles run the family kernel directly on `C`; edge tiles compute
/// into a scratch C tile and merge the `nrows x ncols` result. The rows of
/// a partial tile of an untransposed A are staged, zero-padded, once per
/// block on its first panel, so the shaped kernel never reads out of
/// bounds.
///
/// # Safety
/// * `a` valid for reads of the stored A — `m x k` for `op_a = N`,
///   `k x m` for `T` — at row stride `lda` (at least its column count);
/// * `b` likewise for the stored B — `k x n` for `N`, `n x k` for `T` —
///   at `ldb`;
/// * `c` valid for `m x n` reads/writes at row stride `ldc` (`ldc >= n`),
///   not aliasing `a`/`b`;
/// * `bc`/`at` sized per [`family_workspace`] for this `fam`, `op_a`,
///   `kc` and `mc`, not aliasing anything above;
/// * `m, n, k, kc, mc >= 1`;
/// * `fam` was obtained from [`family_for`]/[`selected_wide_family`] on
///   this host (its ISA probe passed).
// CONTRACT(SHALOM-K-FAMILY)
#[allow(clippy::too_many_arguments)]
pub unsafe fn family_gemm<T: Scalar + FamilyElem>(
    fam: &KernelFamily,
    op_a: Op,
    op_b: Op,
    direct_b: bool,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: *const T,
    lda: usize,
    b: *const T,
    ldb: usize,
    beta: T,
    c: *mut T,
    ldc: usize,
    kc: usize,
    mc: usize,
    bc: *mut T,
    at: *mut T,
    span: &dyn Fn(FamilyPhase, &mut dyn FnMut()),
) {
    // PANIC-OK(api): driver precondition, caught before any unsafe work.
    assert!(
        m >= 1 && n >= 1 && k >= 1 && kc >= 1 && mc >= 1,
        "family_gemm: empty problem"
    );
    let ks = T::kernels(fam);
    let (mr, nr, kernel) = (ks.mr, ks.nr, ks.kernel);
    let trans_a = op_a == Op::Trans;
    let trans_b = op_b == Op::Trans;
    let tiles = mc.div_ceil(mr);
    let mcr = tiles * mr;
    let c_pad = bc.add(kc * nr); // mr x nr, row stride nr
    let a_pad = bc.add(kc * nr + mr * nr); // mr x kcb, row stride kcb

    let mut kk = 0;
    while kk < k {
        let kcb = kc.min(k - kk);
        // First depth block applies the caller's beta; later blocks
        // accumulate on top of it.
        let beta_eff = if kk == 0 { beta } else { T::ONE };
        let mut ii = 0;
        while ii < m {
            let mcb = mcr.min(m - ii);
            if trans_a {
                // SAFETY: SHALOM-K-FAMILY-AT — the stored A is k x m at
                // `lda`; `kk + kcb <= k`, `ii + mcb <= m`, and `at` holds
                // `tiles * mr >= ceil(mcb/mr) * mr` rows of `kc >= kcb`.
                span(FamilyPhase::PackA, &mut || {
                    stage_at_block(a, lda, m, k, ii, kk, mcb, kcb, mr, at)
                });
            }
            let mut sweep = || {
                let mut j = 0;
                while j < n {
                    let ncols = nr.min(n - j);
                    // This panel's B: transpose-packed, read in place, or
                    // packed by the Goto sliver packer.
                    let (bp, ldbp) = if trans_b {
                        // SAFETY: SHALOM-K-FAMILY-BT — the stored B is n x k at
                        // `ldb`; `j + ncols <= n`, `kk + kcb <= k`, `ncols <= nr`,
                        // and `bc` starts with the `kc x nr` panel.
                        span(FamilyPhase::PackB, &mut || {
                            pack_bt_panel(b, ldb, n, k, j, kk, ncols, kcb, nr, bc)
                        });
                        (bc as *const T, nr)
                    } else if direct_b && ncols == nr {
                        (b.add(kk * ldb + j), ldb)
                    } else {
                        // SAFETY: SHALOM-K-PACK-B — `b + kk*ldb + j` covers the
                        // `kcb x ncols` panel (`ldb >= n`); `bc` starts with
                        // `kc * nr` elements and `ncols <= nr` means one sliver.
                        span(FamilyPhase::PackB, &mut || {
                            pack_b_slivers_goto(b.add(kk * ldb + j), ldb, kcb, ncols, nr, bc);
                        });
                        (bc as *const T, nr)
                    };
                    let mut i = 0;
                    while i < mcb {
                        let nrows = mr.min(mcb - i);
                        // This tile's A rows: the staged Aᵀ block, A in place,
                        // or — for a partial tile of an untransposed A — rows
                        // staged zero-padded on the block's first panel.
                        let (ap, ldap) = if trans_a {
                            (at.add(i * kcb) as *const T, kcb)
                        } else if nrows == mr {
                            (a.add((ii + i) * lda + kk), lda)
                        } else {
                            if j == 0 {
                                for r in 0..mr {
                                    let dst = a_pad.add(r * kcb);
                                    if r < nrows {
                                        core::ptr::copy_nonoverlapping(
                                            a.add((ii + i + r) * lda + kk),
                                            dst,
                                            kcb,
                                        );
                                    } else {
                                        core::ptr::write_bytes(dst, 0, kcb);
                                    }
                                }
                            }
                            (a_pad as *const T, kcb)
                        };
                        if nrows == mr && ncols == nr {
                            // SAFETY: SHALOM-K-MAIN — full tile: `ap` covers
                            // `mr x kcb` at stride `ldap` (A in place at
                            // `lda >= k`, or the staged block at `kcb`); `bp`
                            // covers `kcb x nr` at stride `ldbp` (the panel at
                            // `nr`, or B in place at `ldb >= n`); C rows
                            // `ii+i..ii+i+mr` x `j..j+nr` at stride `ldc >= n`.
                            kernel(
                                kcb,
                                alpha,
                                ap,
                                ldap,
                                bp,
                                ldbp,
                                beta_eff,
                                c.add((ii + i) * ldc + j),
                                ldc,
                            );
                        } else {
                            // SAFETY: SHALOM-K-MAIN — edge tile: `ap` covers
                            // `mr x kcb` zero-padded rows at `ldap`, `bp` is as
                            // above, and `c_pad` is `mr x nr` at stride `nr`;
                            // beta = 0 makes the kernel overwrite `c_pad`
                            // without reading it.
                            kernel(kcb, alpha, ap, ldap, bp, ldbp, T::ZERO, c_pad, nr);
                            for r in 0..nrows {
                                let crow = c.add((ii + i + r) * ldc + j);
                                let prow = c_pad.add(r * nr);
                                if beta_eff == T::ZERO {
                                    core::ptr::copy_nonoverlapping(prow, crow, ncols);
                                } else {
                                    for s in 0..ncols {
                                        *crow.add(s) = *prow.add(s) + beta_eff * *crow.add(s);
                                    }
                                }
                            }
                        }
                        i += mr;
                    }
                    j += nr;
                }
            };
            span(FamilyPhase::Compute { m: mcb, n, k: kcb }, &mut sweep);
            ii += mcb;
        }
        kk += kc;
    }
}

/// §4.3 "TN packs A": stages rows `ii..ii+mb` by depth `kk..kk+kb` of
/// `op(A) = Aᵀ`, read from the stored `k x m` matrix `a`, into `dst` as
/// an `mb x kb` row-major block (row stride `kb`), zero-padded to whole
/// `mr`-row tiles so the edge tile reads it in place.
///
/// # Safety
/// `a` valid for `k x m` reads at stride `lda`; `kb, mr >= 1`,
/// `kk + kb <= k` and `ii + mb <= m`; `dst` valid for
/// `ceil(mb/mr) * mr * kb` writes and not aliasing `a`.
// CONTRACT(SHALOM-K-FAMILY-AT)
#[allow(clippy::too_many_arguments)]
unsafe fn stage_at_block<T: Scalar>(
    a: *const T,
    lda: usize,
    m: usize,
    k: usize,
    ii: usize,
    kk: usize,
    mb: usize,
    kb: usize,
    mr: usize,
    dst: *mut T,
) {
    debug_assert!(kb >= 1 && mr >= 1 && kk + kb <= k && ii + mb <= m);
    // SAFETY: SHALOM-K-PACK-TRANS — the source is the `kb x mb` stored
    // block at `kk * lda + ii`; `dst` takes its `mb x kb` transpose.
    pack_transpose(a.add(kk * lda + ii), lda, kb, mb, dst, kb);
    let tiles = mb.div_ceil(mr);
    core::ptr::write_bytes(dst.add(mb * kb), 0, (tiles * mr - mb) * kb);
}

/// §4.3 "NT packs B": transpose-packs the `nb` stored rows `j..j+nb` of
/// a transposed B (`n x k` at stride `ldb`), depth `kk..kk+kb`, into the
/// `kb x nr` panel layout [`pack_b_slivers_goto`] produces, with columns
/// `nb..nr` zero.
///
/// # Safety
/// `b` valid for `n x k` reads at stride `ldb`; `kb, nb >= 1`,
/// `kk + kb <= k`, `j + nb <= n` and `nb <= nr`; `bc` valid for `kb * nr`
/// writes and not aliasing `b`.
// CONTRACT(SHALOM-K-FAMILY-BT)
#[allow(clippy::too_many_arguments)]
unsafe fn pack_bt_panel<T: Scalar>(
    b: *const T,
    ldb: usize,
    n: usize,
    k: usize,
    j: usize,
    kk: usize,
    nb: usize,
    kb: usize,
    nr: usize,
    bc: *mut T,
) {
    debug_assert!(kb >= 1 && nb >= 1 && kk + kb <= k && j + nb <= n && nb <= nr);
    // SAFETY: SHALOM-K-PACK-TRANS — the source is the `nb x kb` stored
    // block at `j * ldb + kk`; `bc` takes its transpose at stride `nr`.
    pack_transpose(b.add(j * ldb + kk), ldb, nb, kb, bc, nr);
    if nb < nr {
        for p in 0..kb {
            core::ptr::write_bytes(bc.add(p * nr + nb), 0, nr - nb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite guard in test form: the wired constants equal the solver
    /// output on every build (the registry re-asserts this at runtime
    /// registration on hosts that can actually build the families).
    #[test]
    fn family_tiles_match_solver_on_all_builds() {
        for (isa, lanes, mr, nr) in [
            (Isa::Avx2W256, 8, AVX2_MR_F32, AVX2_NR_F32),
            (Isa::Avx2W256, 4, AVX2_MR_F64, AVX2_NR_F64),
            (Isa::Avx512W512, 16, AVX512_MR_F32, AVX512_NR_F32),
            (Isa::Avx512W512, 8, AVX512_MR_F64, AVX512_NR_F64),
        ] {
            assert_tile_matches_solver(isa, lanes, mr, nr);
        }
    }

    #[test]
    fn registry_matches_probe() {
        let caps = caps::detect();
        let on_wide_x86 = cfg!(all(target_arch = "x86_64", not(feature = "force-scalar")));
        assert_eq!(
            family_for(Isa::Avx2W256).is_some(),
            on_wide_x86 && caps.avx2_fma
        );
        assert_eq!(
            family_for(Isa::Avx512W512).is_some(),
            on_wide_x86 && caps.avx512f
        );
        assert!(family_for(Isa::Sse128).is_none());
        assert!(family_for(Isa::Scalar).is_none());
        if let Some(fam) = selected_wide_family() {
            assert_eq!(fam.isa, caps::best_isa());
            assert!(fam.isa.is_wide());
        } else {
            assert!(!caps::best_isa().is_wide() || !on_wide_x86);
        }
    }

    /// `C = alpha * op(A) * op(B) + beta * C` over stored operands at tight
    /// strides, accumulated in f64.
    #[allow(clippy::too_many_arguments)]
    fn reference_gemm<T: Scalar>(
        op_a: Op,
        op_b: Op,
        m: usize,
        n: usize,
        k: usize,
        alpha: T,
        a: &[T],
        b: &[T],
        beta: T,
        c: &mut [T],
    ) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for p in 0..k {
                    let av = if op_a == Op::NoTrans {
                        a[i * k + p]
                    } else {
                        a[p * m + i]
                    };
                    let bv = if op_b == Op::NoTrans {
                        b[p * n + j]
                    } else {
                        b[j * k + p]
                    };
                    acc += av.to_f64() * bv.to_f64();
                }
                c[i * n + j] =
                    T::from_f64(alpha.to_f64() * acc + beta.to_f64() * c[i * n + j].to_f64());
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn check_family_gemm<T: Scalar + FamilyElem>(
        fam: &KernelFamily,
        op_a: Op,
        op_b: Op,
        direct_b: bool,
        m: usize,
        n: usize,
        k: usize,
        kc: usize,
        mc: usize,
    ) {
        let gen = |seed: usize, len: usize| -> Vec<T> {
            (0..len)
                .map(|i| T::from_f64((((i * 31 + seed * 17) % 23) as f64 - 11.0) / 7.0))
                .collect()
        };
        let a = gen(1, m * k);
        let b = gen(2, k * n);
        let c0 = gen(3, m * n);
        // Stored row strides: the column count of the stored operand.
        let lda = if op_a == Op::NoTrans { k } else { m };
        let ldb = if op_b == Op::NoTrans { n } else { k };
        for (alpha, beta) in [(1.0, 0.0), (0.5, 1.0), (-1.25, 2.0)] {
            let (alpha, beta) = (T::from_f64(alpha), T::from_f64(beta));
            let mut c = c0.clone();
            let mut want = c0.clone();
            let kc = kc.min(k);
            let (bc_elems, at_elems) = family_workspace::<T>(fam, op_a, kc, mc);
            let mut bc = vec![T::ZERO; bc_elems];
            let mut at = vec![T::ZERO; at_elems];
            let stagings = core::cell::Cell::new(0usize);
            // SAFETY: SHALOM-K-FAMILY — a/b/c are owned stored operands at
            // tight strides, bc/at sized per family_workspace, and `fam`
            // came from the runtime registry.
            unsafe {
                family_gemm::<T>(
                    fam,
                    op_a,
                    op_b,
                    direct_b,
                    m,
                    n,
                    k,
                    alpha,
                    a.as_ptr(),
                    lda,
                    b.as_ptr(),
                    ldb,
                    beta,
                    c.as_mut_ptr(),
                    n,
                    kc,
                    mc,
                    bc.as_mut_ptr(),
                    at.as_mut_ptr(),
                    &|phase, body| {
                        if phase == FamilyPhase::PackA {
                            stagings.set(stagings.get() + 1);
                        }
                        body()
                    },
                );
            }
            // TN packs A once per (ii, kk) block, never per tile or panel.
            let mr = T::kernels(fam).mr;
            let mcr = mc.div_ceil(mr) * mr;
            let blocks = if op_a == Op::Trans {
                m.div_ceil(mcr) * k.div_ceil(kc)
            } else {
                0
            };
            assert_eq!(stagings.get(), blocks, "{op_a:?}{op_b:?} {m}x{n}x{k}");
            reference_gemm(op_a, op_b, m, n, k, alpha, &a, &b, beta, &mut want);
            let tol = T::from_f64(1e-4 * k as f64);
            for (i, (&got, &want)) in c.iter().zip(want.iter()).enumerate() {
                assert!(
                    (got - want).abs() <= tol.abs(),
                    "{op_a:?}{op_b:?} ({m}x{n}x{k}) idx {i}: got {got}, want {want}"
                );
            }
        }
    }

    /// The wide kernels' rounding contract, checked **bitwise**: each C
    /// element is one fused multiply-add chain over `k` in increasing
    /// order (`acc = fma(b, a, acc)`), then `alpha * acc` for `beta == 0`
    /// or `(alpha * acc) + (beta * c)` in exactly-rounded plain ops.
    ///
    /// Running the same check against the native kernels here and against
    /// the scalar-emulated kernels in a `force-scalar` build proves the
    /// two builds bitwise-identical transitively: both must equal this
    /// model, so they equal each other.
    fn check_bitwise_model<T: Scalar>(
        kernel: FamilyKernelFn<T>,
        mr: usize,
        nr: usize,
        fma: fn(T, T, T) -> T,
        bits: fn(T) -> u64,
    ) {
        let gen = |seed: usize, len: usize| -> Vec<T> {
            (0..len)
                .map(|i| T::from_f64((((i * 31 + seed * 17) % 23) as f64 - 11.0) / 7.0))
                .collect()
        };
        for kc in [1usize, 2, 7, 33] {
            let a = gen(1, mr * kc); // mr x kc, lda = kc
            let b = gen(2, kc * nr); // packed kc x nr panel
            let c0 = gen(3, mr * nr);
            for (alpha, beta) in [(1.0, 0.0), (1.0, 1.0), (-1.5, 0.5), (2.0, 0.0)] {
                let (alpha, beta) = (T::from_f64(alpha), T::from_f64(beta));
                let mut c = c0.clone();
                // SAFETY: SHALOM-K-MAIN — a is mr x kc at stride kc, b is
                // the packed kc x nr panel at stride nr, c is mr x nr at
                // stride nr; the caller picked a kernel this build/host
                // can execute.
                unsafe {
                    kernel(
                        kc,
                        alpha,
                        a.as_ptr(),
                        kc,
                        b.as_ptr(),
                        nr,
                        beta,
                        c.as_mut_ptr(),
                        nr,
                    );
                }
                for i in 0..mr {
                    for j in 0..nr {
                        let mut acc = T::ZERO;
                        for p in 0..kc {
                            acc = fma(b[p * nr + j], a[i * kc + p], acc);
                        }
                        let want = if beta == T::ZERO {
                            acc * alpha
                        } else {
                            acc * alpha + c0[i * nr + j] * beta
                        };
                        let got = c[i * nr + j];
                        assert!(
                            bits(got) == bits(want),
                            "kc {kc} ({i},{j}): got {got}, model {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn family_kernels_are_bitwise_the_fused_model() {
        // Native builds: through the registered, runtime-probed family
        // entry points (skipped per-family on hosts lacking the ISA).
        for isa in [Isa::Avx2W256, Isa::Avx512W512] {
            let Some(fam) = family_for(isa) else { continue };
            check_bitwise_model::<f32>(
                fam.k_f32.kernel,
                fam.k_f32.mr,
                fam.k_f32.nr,
                f32::mul_add,
                |x| u64::from(x.to_bits()),
            );
            check_bitwise_model::<f64>(
                fam.k_f64.kernel,
                fam.k_f64.mr,
                fam.k_f64.nr,
                f64::mul_add,
                f64::to_bits,
            );
        }
        // force-scalar (and non-x86) builds: the identical shaped kernels
        // compile to the scalar `mul_add` emulation, callable without any
        // CPU probe — the same model must hold bit for bit.
        #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
        {
            use shalom_simd::{F32x16, F32x8, F64x4, F64x8};
            check_bitwise_model::<f32>(
                |kc, al, a, lda, b, ldb, be, c, ldc| {
                    // SAFETY: SHALOM-K-MAIN — forwarded caller contract.
                    unsafe {
                        main_kernel_shape::<F32x8, AVX2_MR_F32, 1>(
                            kc, al, a, lda, b, ldb, be, c, ldc,
                        )
                    }
                },
                AVX2_MR_F32,
                AVX2_NR_F32,
                f32::mul_add,
                |x| u64::from(x.to_bits()),
            );
            check_bitwise_model::<f64>(
                |kc, al, a, lda, b, ldb, be, c, ldc| {
                    // SAFETY: SHALOM-K-MAIN — forwarded caller contract.
                    unsafe {
                        main_kernel_shape::<F64x4, AVX2_MR_F64, 2>(
                            kc, al, a, lda, b, ldb, be, c, ldc,
                        )
                    }
                },
                AVX2_MR_F64,
                AVX2_NR_F64,
                f64::mul_add,
                f64::to_bits,
            );
            check_bitwise_model::<f32>(
                |kc, al, a, lda, b, ldb, be, c, ldc| {
                    // SAFETY: SHALOM-K-MAIN — forwarded caller contract.
                    unsafe {
                        main_kernel_shape::<F32x16, AVX512_MR_F32, 1>(
                            kc, al, a, lda, b, ldb, be, c, ldc,
                        )
                    }
                },
                AVX512_MR_F32,
                AVX512_NR_F32,
                f32::mul_add,
                |x| u64::from(x.to_bits()),
            );
            check_bitwise_model::<f64>(
                |kc, al, a, lda, b, ldb, be, c, ldc| {
                    // SAFETY: SHALOM-K-MAIN — forwarded caller contract.
                    unsafe {
                        main_kernel_shape::<F64x8, AVX512_MR_F64, 2>(
                            kc, al, a, lda, b, ldb, be, c, ldc,
                        )
                    }
                },
                AVX512_MR_F64,
                AVX512_NR_F64,
                f64::mul_add,
                f64::to_bits,
            );
        }
    }

    #[test]
    fn family_gemm_matches_reference_over_edge_lattice() {
        const OPS: [(Op, Op); 4] = [
            (Op::NoTrans, Op::NoTrans),
            (Op::NoTrans, Op::Trans),
            (Op::Trans, Op::NoTrans),
            (Op::Trans, Op::Trans),
        ];
        for isa in [Isa::Avx2W256, Isa::Avx512W512] {
            let Some(fam) = family_for(isa) else { continue };
            let (mr32, nr32) = (fam.k_f32.mr, fam.k_f32.nr);
            // (m, n, k, kc, mc): several kc and mc blocks, and an mc that
            // is not a whole number of tiles (the driver rounds it up).
            let shapes = [
                (1, 1, 1, 32, 64),
                (mr32, nr32, 8, 32, 64),
                (mr32 - 1, nr32 + 1, 5, 32, 64),
                (2 * mr32 + 3, 2 * nr32 + 5, 70, 32, 64),
                (3, 2 * nr32, 33, 8, 64),
                (2 * mr32, 3, 40, 16, 64),
                (5 * mr32 + 2, nr32 + 3, 37, 16, 2 * mr32 - 1),
            ];
            for (op_a, op_b) in OPS {
                for direct_b in [false, true] {
                    for (m, n, k, kc, mc) in shapes {
                        check_family_gemm::<f32>(fam, op_a, op_b, direct_b, m, n, k, kc, mc);
                        check_family_gemm::<f64>(fam, op_a, op_b, direct_b, m, n, k, kc, mc);
                    }
                }
            }
        }
    }
}
