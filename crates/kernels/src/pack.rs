//! Standalone packing routines (pack *then* compute).
//!
//! These are the sequential packers of the classical Goto algorithm —
//! what OpenBLAS/BLIS always run and what LibShalom runs only when the
//! fused kernels do not apply (TN/TT operand preparation). Keeping them
//! separate lets the baselines be faithful and lets the benches measure
//! exactly the overhead the paper's fused kernels remove.
//!
//! shalom-analysis: deny(panic)

use shalom_matrix::Scalar;

/// Copies a `rows x cols` block (stride `ld_src`) into a buffer with
/// stride `ld_dst` — the trivial NN-mode B pack.
///
/// # Safety
/// `src` valid for `rows x cols` reads at stride `ld_src`; `dst` valid for
/// `rows x cols` writes at stride `ld_dst`; `cols <= ld_dst`.
// ALLOC-FREE
// CONTRACT(SHALOM-K-PACK-COPY: m = rows, n = cols, lda = ld_src, ldb = ld_dst)
pub unsafe fn pack_copy<T: Scalar>(
    src: *const T,
    ld_src: usize,
    rows: usize,
    cols: usize,
    dst: *mut T,
    ld_dst: usize,
) {
    // Contract SHALOM-K-PACK-COPY preconditions.
    debug_assert!(cols <= ld_dst || rows <= 1);
    if rows > 0 && cols > 0 {
        debug_assert!(!src.is_null() && !dst.is_null());
        debug_assert!(rows <= 1 || ld_src >= cols);
    }
    for r in 0..rows {
        core::ptr::copy_nonoverlapping(src.add(r * ld_src), dst.add(r * ld_dst), cols);
    }
}

/// Edge of the square tiles [`pack_transpose`] walks. One tile touches 16
/// source rows and 16 destination rows, so both stay L1-resident whatever
/// the strides; a row-at-a-time walk instead writes one element per
/// destination row at stride `ld_dst`, and at `ld_dst = 256` those stores
/// all land in the same few L1 sets.
const TRANSPOSE_TILE: usize = 16;

/// Transpose-packs a `rows x cols` block (stride `ld_src`) into a
/// `cols x rows` buffer (stride `ld_dst`): `dst[c][r] = src[r][c]`,
/// walked in 16 x 16 tiles (`TRANSPOSE_TILE`).
///
/// Used to prepare `op(A)` blocks in the TN/TT modes, the wide driver's
/// transposed B panels, and the sequential (non-fused) NT B-pack of the
/// baselines.
///
/// # Safety
/// `src` valid for `rows x cols` reads at stride `ld_src`; `dst` valid for
/// `cols x rows` writes at stride `ld_dst`; `rows <= ld_dst`.
// ALLOC-FREE
// CONTRACT(SHALOM-K-PACK-TRANS: m = rows, n = cols, lda = ld_src, ldb = ld_dst)
pub unsafe fn pack_transpose<T: Scalar>(
    src: *const T,
    ld_src: usize,
    rows: usize,
    cols: usize,
    dst: *mut T,
    ld_dst: usize,
) {
    // Contract SHALOM-K-PACK-TRANS preconditions.
    debug_assert!(rows <= ld_dst || cols <= 1);
    if rows > 0 && cols > 0 {
        debug_assert!(!src.is_null() && !dst.is_null());
        debug_assert!(rows <= 1 || ld_src >= cols);
    }
    let mut r0 = 0;
    while r0 < rows {
        let rb = TRANSPOSE_TILE.min(rows - r0);
        let mut c0 = 0;
        while c0 < cols {
            let cb = TRANSPOSE_TILE.min(cols - c0);
            for r in r0..r0 + rb {
                let srow = src.add(r * ld_src);
                for c in c0..c0 + cb {
                    *dst.add(c * ld_dst + r) = *srow.add(c);
                }
            }
            c0 += TRANSPOSE_TILE;
        }
        r0 += TRANSPOSE_TILE;
    }
}

/// Goto-style sliver-major A pack with zero padding (the classical
/// libraries' edge strategy, §2.2 "pad the matrices with zeros").
///
/// The `mc x kc` block at `a` is cut into `ceil(mc/mr)` slivers of `mr`
/// rows. Sliver `s` occupies `mr * kc` contiguous elements of `dst`,
/// stored **column-major within the sliver**: element `(i, k)` of sliver
/// `s` is `dst[s*mr*kc + k*mr + i]` — the order the Goto micro-kernel
/// consumes A. Rows past `mc` in the last sliver are zero.
///
/// Returns the number of slivers written.
///
/// # Safety
/// `a` valid for `mc x kc` reads at stride `lda`; `dst` valid for
/// `ceil(mc/mr) * mr * kc` writes.
// CONTRACT(SHALOM-K-PACK-A: m = mc, mr_sliver = mr)
pub unsafe fn pack_a_slivers_goto<T: Scalar>(
    a: *const T,
    lda: usize,
    mc: usize,
    kc: usize,
    mr: usize,
    dst: *mut T,
) -> usize {
    // Contract SHALOM-K-PACK-A preconditions: a positive sliver height
    // and strides clearing the row width.
    debug_assert!(mr >= 1);
    if mc > 0 && kc > 0 {
        debug_assert!(!a.is_null() && !dst.is_null());
        debug_assert!(mc <= 1 || lda >= kc);
    }
    let slivers = mc.div_ceil(mr);
    for s in 0..slivers {
        let base = dst.add(s * mr * kc);
        let rows = mr.min(mc - s * mr);
        for k in 0..kc {
            for i in 0..rows {
                *base.add(k * mr + i) = *a.add((s * mr + i) * lda + k);
            }
            for i in rows..mr {
                *base.add(k * mr + i) = T::ZERO;
            }
        }
    }
    slivers
}

/// Goto-style sliver-major B pack with zero padding.
///
/// The `kc x nc` block at `b` is cut into `ceil(nc/nr)` slivers of `nr`
/// columns. Sliver `s` occupies `kc * nr` contiguous elements of `dst`,
/// stored row-major within the sliver: element `(k, j)` of sliver `s` is
/// `dst[s*kc*nr + k*nr + j]`. Columns past `nc` in the last sliver are
/// zero.
///
/// Returns the number of slivers written.
///
/// # Safety
/// `b` valid for `kc x nc` reads at stride `ldb`; `dst` valid for
/// `ceil(nc/nr) * kc * nr` writes.
// CONTRACT(SHALOM-K-PACK-B: n = nc)
pub unsafe fn pack_b_slivers_goto<T: Scalar>(
    b: *const T,
    ldb: usize,
    kc: usize,
    nc: usize,
    nr: usize,
    dst: *mut T,
) -> usize {
    // Contract SHALOM-K-PACK-B preconditions.
    debug_assert!(nr >= 1);
    if kc > 0 && nc > 0 {
        debug_assert!(!b.is_null() && !dst.is_null());
        debug_assert!(kc <= 1 || ldb >= nc);
    }
    let slivers = nc.div_ceil(nr);
    for s in 0..slivers {
        let base = dst.add(s * kc * nr);
        let cols = nr.min(nc - s * nr);
        for k in 0..kc {
            let srow = b.add(k * ldb + s * nr);
            for j in 0..cols {
                *base.add(k * nr + j) = *srow.add(j);
            }
            for j in cols..nr {
                *base.add(k * nr + j) = T::ZERO;
            }
        }
    }
    slivers
}

#[cfg(test)]
mod tests {
    use super::*;
    use shalom_matrix::Matrix;

    #[test]
    fn copy_pack_with_strides() {
        let src = Matrix::<f32>::random_with_ld(4, 6, 9, 1);
        let mut dst = vec![0f32; 4 * 6];
        // SAFETY: src is 4x6 (ld 9), dst holds 4*6 elements.
        unsafe {
            pack_copy(src.as_slice().as_ptr(), src.ld(), 4, 6, dst.as_mut_ptr(), 6);
        }
        for r in 0..4 {
            for c in 0..6 {
                assert_eq!(dst[r * 6 + c], src.at(r, c));
            }
        }
    }

    #[test]
    fn transpose_pack_round_trip() {
        let src = Matrix::<f64>::random(5, 3, 2);
        let mut dst = vec![0f64; 3 * 5];
        // SAFETY: src is 5x3, dst holds the 3x5 transpose.
        unsafe {
            pack_transpose(src.as_slice().as_ptr(), src.ld(), 5, 3, dst.as_mut_ptr(), 5);
        }
        for r in 0..5 {
            for c in 0..3 {
                assert_eq!(dst[c * 5 + r], src.at(r, c));
            }
        }
        // Transposing back recovers the original.
        let mut back = vec![0f64; 5 * 3];
        // SAFETY: dst is the 3x5 transpose, back holds 5*3 elements.
        unsafe { pack_transpose(dst.as_ptr(), 5, 3, 5, back.as_mut_ptr(), 3) };
        for r in 0..5 {
            for c in 0..3 {
                assert_eq!(back[r * 3 + c], src.at(r, c));
            }
        }
    }

    #[test]
    fn transpose_pack_covers_ragged_tiles_at_wide_strides() {
        // Shapes straddling the 16-square tiles on both axes (ragged
        // remainders of 1 and 15), padded strides on both sides, and the
        // 1 KiB-stride destination (`ld_dst = 256` f32) of a kc = 256 pack.
        for (rows, cols, ld_src, ld_dst) in [
            (17, 33, 40, 20),
            (31, 15, 15, 256),
            (256, 45, 45, 256),
            (1, 16, 16, 1),
            (16, 1, 3, 16),
        ] {
            let src = Matrix::<f32>::random_with_ld(rows, cols, ld_src, 3);
            let mut dst = vec![f32::NAN; cols * ld_dst];
            // SAFETY: src is rows x cols at ld_src; dst holds cols rows of
            // ld_dst >= rows elements.
            unsafe {
                pack_transpose(
                    src.as_slice().as_ptr(),
                    ld_src,
                    rows,
                    cols,
                    dst.as_mut_ptr(),
                    ld_dst,
                );
            }
            for c in 0..cols {
                for r in 0..ld_dst {
                    let got = dst[c * ld_dst + r];
                    if r < rows {
                        assert_eq!(got, src.at(r, c), "{rows}x{cols} ({r},{c})");
                    } else {
                        assert!(
                            got.is_nan(),
                            "{rows}x{cols}: wrote past the block at ({r},{c})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn goto_a_pack_layout_and_padding() {
        let mc = 10; // 2 slivers of 4 + remainder 2
        let kc = 3;
        let mr = 4;
        let a = Matrix::from_fn(mc, kc, |i, k| (100 * i + k) as f32);
        let mut dst = vec![f32::NAN; mc.div_ceil(mr) * mr * kc];
        // SAFETY: dst is sized for ceil(mc/mr) padded slivers.
        let slivers = unsafe {
            pack_a_slivers_goto(a.as_slice().as_ptr(), a.ld(), mc, kc, mr, dst.as_mut_ptr())
        };
        assert_eq!(slivers, 3);
        for s in 0..slivers {
            for k in 0..kc {
                for i in 0..mr {
                    let v = dst[s * mr * kc + k * mr + i];
                    let row = s * mr + i;
                    if row < mc {
                        assert_eq!(v, a.at(row, k));
                    } else {
                        assert_eq!(v, 0.0, "padding must be zero");
                    }
                }
            }
        }
    }

    #[test]
    fn goto_b_pack_layout_and_padding() {
        let kc = 4;
        let nc = 7; // 1 sliver of 3 + 1 of 3 + remainder 1
        let nr = 3;
        let b = Matrix::from_fn(kc, nc, |k, j| (10 * k + j) as f64);
        let mut dst = vec![f64::NAN; nc.div_ceil(nr) * kc * nr];
        // SAFETY: dst is sized for ceil(nc/nr) padded slivers.
        let slivers = unsafe {
            pack_b_slivers_goto(b.as_slice().as_ptr(), b.ld(), kc, nc, nr, dst.as_mut_ptr())
        };
        assert_eq!(slivers, 3);
        for s in 0..slivers {
            for k in 0..kc {
                for j in 0..nr {
                    let v = dst[s * kc * nr + k * nr + j];
                    let col = s * nr + j;
                    if col < nc {
                        assert_eq!(v, b.at(k, col));
                    } else {
                        assert_eq!(v, 0.0, "padding must be zero");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_blocks_are_noops() {
        let mut dst = [1.0f32; 4];
        // SAFETY: rows = cols = 0 means neither pointer is dereferenced.
        unsafe {
            pack_copy(
                core::ptr::NonNull::<f32>::dangling().as_ptr(),
                1,
                0,
                0,
                dst.as_mut_ptr(),
                1,
            );
            pack_transpose(
                core::ptr::NonNull::<f32>::dangling().as_ptr(),
                1,
                0,
                0,
                dst.as_mut_ptr(),
                1,
            );
        }
        assert_eq!(dst, [1.0; 4]);
    }
}
