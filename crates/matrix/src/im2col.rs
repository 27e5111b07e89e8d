//! `im2col`: lowering a convolution to the irregular-shaped GEMM the paper
//! motivates (§1: "GEMMs used by the convolution kernels of the ResNet deep
//! neural network computes on matrices with one dimension equal to 64 while
//! the other is greater than 3000").
//!
//! For a convolution with `c_in` input channels, an `kh x kw` kernel,
//! `c_out` filters and an `h x w` input (stride 1, zero padding `pad`),
//! the lowering produces `B = im2col(input)` of shape
//! `(c_in*kh*kw) x (h_out*w_out)`, so that `C = W · B` with the filter
//! matrix `W` of shape `c_out x (c_in*kh*kw)`. `M = c_out` is small while
//! `N = h_out*w_out` is huge — exactly the paper's tall-and-skinny case.

use crate::{MatMut, Matrix, Scalar};

/// Shape of a stride-1 2-D convolution to be lowered to GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Input channels.
    pub c_in: usize,
    /// Output channels (number of filters) — the GEMM `M`.
    pub c_out: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Symmetric zero padding.
    pub pad: usize,
}

impl ConvShape {
    /// Checks that the kernel is at least `1 x 1` and fits the padded
    /// input, so the output is at least `1 x 1`. [`ConvShape::h_out`],
    /// [`ConvShape::w_out`] and [`ConvShape::gemm_dims`] assume it.
    ///
    /// # Panics
    /// If the kernel is empty or larger than the padded input.
    pub fn validate(&self) {
        assert!(self.kh > 0 && self.kw > 0, "kernel must be at least 1x1");
        assert!(
            self.kh <= self.h + 2 * self.pad && self.kw <= self.w + 2 * self.pad,
            "kernel larger than padded input"
        );
    }

    /// Output spatial height.
    pub fn h_out(&self) -> usize {
        self.h + 2 * self.pad + 1 - self.kh
    }

    /// Output spatial width.
    pub fn w_out(&self) -> usize {
        self.w + 2 * self.pad + 1 - self.kw
    }

    /// GEMM dimensions `(M, N, K)` of the lowered convolution.
    pub fn gemm_dims(&self) -> (usize, usize, usize) {
        (
            self.c_out,
            self.h_out() * self.w_out(),
            self.c_in * self.kh * self.kw,
        )
    }
}

/// Lowers `input` (shape `c_in x (h*w)`, each row one channel in row-major
/// spatial order) to a new im2col matrix `B` of shape `K x N` where
/// `K = c_in*kh*kw` and `N = h_out*w_out`. See [`im2col_into`].
///
/// # Panics
/// As [`im2col_into`].
pub fn im2col<T: Scalar>(shape: &ConvShape, input: &Matrix<T>) -> Matrix<T> {
    shape.validate();
    let (_, n, k) = shape.gemm_dims();
    let mut b = Matrix::zeros(k, n);
    im2col_into(shape, input, b.as_mut());
    b
}

/// Lowers `input` into `dst` (`K x N`, any `ld`): row `(c*kh + dy)*kw + dx`,
/// column `oy*w_out + ox` receives input `(c, oy+dy-pad, ox+dx-pad)`, or zero
/// where that falls in the padding.
///
/// Each output row `oy` of a lowered row is one run: all zeros when
/// `oy+dy-pad` is a padding row, otherwise a zero prefix, one contiguous
/// copy from the input row and a zero suffix. Every element of `dst` is
/// written exactly once, so `dst` needs no prior zeroing; its `ld` padding
/// is not touched.
///
/// # Panics
/// If `input` does not have shape `c_in x (h*w)`, `dst` is not `K x N`, or
/// the kernel is empty or exceeds the padded input.
pub fn im2col_into<T: Scalar>(shape: &ConvShape, input: &Matrix<T>, mut dst: MatMut<'_, T>) {
    assert_eq!(input.rows(), shape.c_in, "input must have c_in rows");
    assert_eq!(
        input.cols(),
        shape.h * shape.w,
        "input rows must be h*w long"
    );
    shape.validate();
    let (_, n, k) = shape.gemm_dims();
    assert_eq!((dst.rows(), dst.cols()), (k, n), "dst must be K x N");
    let ConvShape { h, w, pad, .. } = *shape;
    let w_out = shape.w_out();
    let src = input.as_slice();
    for c in 0..shape.c_in {
        let channel = &src[c * input.ld()..][..h * w];
        for dy in 0..shape.kh {
            for dx in 0..shape.kw {
                // Output columns [lo, hi) read input columns
                // [lo+dx-pad, hi+dx-pad), the ones inside [0, w).
                let lo = pad.saturating_sub(dx).min(w_out);
                let hi = (w + pad).saturating_sub(dx).clamp(lo, w_out);
                let row = dst.row_mut((c * shape.kh + dy) * shape.kw + dx);
                for (oy, run) in row.chunks_exact_mut(w_out).enumerate() {
                    match (oy + dy).checked_sub(pad).filter(|&iy| iy < h) {
                        Some(iy) if hi > lo => {
                            let x0 = iy * w + lo + dx - pad;
                            run[..lo].fill(T::ZERO);
                            run[lo..hi].copy_from_slice(&channel[x0..x0 + hi - lo]);
                            run[hi..].fill(T::ZERO);
                        }
                        _ => run.fill(T::ZERO),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lowering's definition, element by element: the oracle
    /// `im2col_into` is checked against.
    fn im2col_oracle<T: Scalar>(shape: &ConvShape, input: &Matrix<T>) -> Matrix<T> {
        let (_, n, k) = shape.gemm_dims();
        let (h_out, w_out) = (shape.h_out(), shape.w_out());
        let mut b = Matrix::zeros(k, n);
        for c in 0..shape.c_in {
            for dy in 0..shape.kh {
                for dx in 0..shape.kw {
                    let krow = (c * shape.kh + dy) * shape.kw + dx;
                    for oy in 0..h_out {
                        for ox in 0..w_out {
                            let iy = (oy + dy) as isize - shape.pad as isize;
                            let ix = (ox + dx) as isize - shape.pad as isize;
                            let v = if iy >= 0
                                && ix >= 0
                                && (iy as usize) < shape.h
                                && (ix as usize) < shape.w
                            {
                                input.at(c, iy as usize * shape.w + ix as usize)
                            } else {
                                T::ZERO
                            };
                            b.set(krow, oy * w_out + ox, v);
                        }
                    }
                }
            }
        }
        b
    }

    /// Lowers into a `dst` with `ld = N + 3` pre-filled with a sentinel and
    /// checks every element bitwise against the oracle, and that the `ld`
    /// padding still holds the sentinel.
    fn check_against_oracle(shape: &ConvShape, input_ld: usize, seed: u64) {
        let input = Matrix::<f64>::random_with_ld(shape.c_in, shape.h * shape.w, input_ld, seed);
        let want = im2col_oracle(shape, &input);
        let (_, n, k) = shape.gemm_dims();
        let ld = n + 3;
        let sentinel = -7.25;
        let mut data = vec![sentinel; k * ld];
        im2col_into(shape, &input, MatMut::from_slice(&mut data, k, n, ld));
        for r in 0..k {
            for j in 0..ld {
                let got = data[r * ld + j];
                let expect = if j < n { want.at(r, j) } else { sentinel };
                assert_eq!(
                    got.to_bits(),
                    expect.to_bits(),
                    "{shape:?} input ld {input_ld}: element ({r},{j})"
                );
            }
        }
        assert_eq!(im2col(shape, &input), want, "{shape:?}: im2col");
    }

    #[test]
    fn run_copy_matches_the_elementwise_definition() {
        let mut cases = 0;
        for (h, w) in [(1, 1), (1, 6), (5, 1), (4, 7), (6, 3)] {
            for pad in [0, 1, 2, w + 1] {
                for kh in [1, 2, 3, 5] {
                    for kw in [1, 2, 3, 5] {
                        let shape = ConvShape {
                            c_in: 2,
                            c_out: 1,
                            h,
                            w,
                            kh,
                            kw,
                            pad,
                        };
                        if kh > h + 2 * pad || kw > w + 2 * pad {
                            continue;
                        }
                        // A tight input and one whose rows carry ld padding.
                        check_against_oracle(&shape, h * w, cases);
                        check_against_oracle(&shape, h * w + 5, cases + 1000);
                        cases += 1;
                    }
                }
            }
        }
        assert!(cases > 200, "lattice collapsed to {cases} shapes");
    }

    #[test]
    fn run_copy_f32_vgg_like_layer() {
        let shape = ConvShape {
            c_in: 3,
            c_out: 8,
            h: 20,
            w: 17,
            kh: 3,
            kw: 3,
            pad: 1,
        };
        let input = Matrix::<f32>::random(3, 20 * 17, 9);
        assert_eq!(im2col(&shape, &input), im2col_oracle(&shape, &input));
    }

    #[test]
    #[should_panic(expected = "kernel larger than padded input")]
    fn kernel_taller_than_padded_input_panics() {
        let shape = ConvShape {
            c_in: 1,
            c_out: 1,
            h: 3,
            w: 8,
            kh: 6,
            kw: 3,
            pad: 1,
        };
        let _ = im2col(&shape, &Matrix::<f32>::zeros(1, 24));
    }

    #[test]
    #[should_panic(expected = "kernel must be at least 1x1")]
    fn empty_kernel_panics() {
        let shape = ConvShape {
            c_in: 1,
            c_out: 1,
            h: 3,
            w: 3,
            kh: 3,
            kw: 0,
            pad: 0,
        };
        let _ = im2col(&shape, &Matrix::<f32>::zeros(1, 9));
    }

    #[test]
    #[should_panic(expected = "dst must be K x N")]
    fn wrong_dst_shape_panics() {
        let shape = ConvShape {
            c_in: 1,
            c_out: 1,
            h: 3,
            w: 3,
            kh: 2,
            kw: 2,
            pad: 0,
        };
        let mut dst = Matrix::<f32>::zeros(4, 5);
        im2col_into(&shape, &Matrix::zeros(1, 9), dst.as_mut());
    }

    #[test]
    fn one_by_one_kernel_is_identity_layout() {
        let shape = ConvShape {
            c_in: 2,
            c_out: 3,
            h: 2,
            w: 2,
            kh: 1,
            kw: 1,
            pad: 0,
        };
        let input = Matrix::from_fn(2, 4, |c, p| (c * 10 + p) as f32);
        let b = im2col(&shape, &input);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.cols(), 4);
        for c in 0..2 {
            for p in 0..4 {
                assert_eq!(b.at(c, p), input.at(c, p));
            }
        }
    }

    #[test]
    fn vgg_layer_dims_match_paper() {
        // VGG conv1.2: 64 filters, 64 input channels, 3x3 kernel, 224x224
        // input, pad 1 => M=64, N=50176, K=576 (paper §8.3, §8.6).
        let shape = ConvShape {
            c_in: 64,
            c_out: 64,
            h: 224,
            w: 224,
            kh: 3,
            kw: 3,
            pad: 1,
        };
        assert_eq!(shape.gemm_dims(), (64, 50176, 576));
    }

    #[test]
    fn hand_checked_3x3_no_pad() {
        // 1 channel, 3x3 input, 2x2 kernel, no pad -> 2x2 output, K=4, N=4.
        let shape = ConvShape {
            c_in: 1,
            c_out: 1,
            h: 3,
            w: 3,
            kh: 2,
            kw: 2,
            pad: 0,
        };
        let input = Matrix::from_vec(1, 9, vec![1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        let b = im2col(&shape, &input);
        assert_eq!((b.rows(), b.cols()), (4, 4));
        // Column 0 is the top-left 2x2 patch [1,2,4,5] in (dy,dx) order.
        assert_eq!(b.at(0, 0), 1.0);
        assert_eq!(b.at(1, 0), 2.0);
        assert_eq!(b.at(2, 0), 4.0);
        assert_eq!(b.at(3, 0), 5.0);
        // Column 3 is the bottom-right patch [5,6,8,9].
        assert_eq!(b.at(0, 3), 5.0);
        assert_eq!(b.at(3, 3), 9.0);
    }

    #[test]
    fn padding_injects_zeros() {
        let shape = ConvShape {
            c_in: 1,
            c_out: 1,
            h: 2,
            w: 2,
            kh: 3,
            kw: 3,
            pad: 1,
        };
        let input = Matrix::from_vec(1, 4, vec![1.0f32, 2.0, 3.0, 4.0]);
        let b = im2col(&shape, &input);
        assert_eq!((b.rows(), b.cols()), (9, 4));
        // Output (0,0): kernel centered so (dy=0,dx=0) reads padded corner.
        assert_eq!(b.at(0, 0), 0.0);
        // (dy=1,dx=1) at output 0 reads input (0,0).
        assert_eq!(b.at(4, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "c_in rows")]
    fn wrong_channel_count_panics() {
        let shape = ConvShape {
            c_in: 2,
            c_out: 1,
            h: 2,
            w: 2,
            kh: 1,
            kw: 1,
            pad: 0,
        };
        let input = Matrix::<f32>::zeros(1, 4);
        let _ = im2col(&shape, &input);
    }
}
