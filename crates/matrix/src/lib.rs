//! Dense row-major matrix substrate for the LibShalom reproduction.
//!
//! Provides the storage and view types every other crate builds on:
//!
//! * [`Matrix<T>`] — owned, row-major, with an explicit leading dimension
//!   (`ld >= cols`), matching the BLAS storage convention the paper assumes
//!   ("we assume the matrices are stored in the row-major format", §3.3).
//! * [`MatRef`] / [`MatMut`] — borrowed views carrying `(rows, cols, ld)`,
//!   cheap to sub-slice; the GEMM drivers and micro-kernels consume these.
//! * [`Op`] — the per-operand transpose flag that composes into the four
//!   GEMM modes NN/NT/TN/TT.
//! * [`reference`] — a naive triple-loop GEMM with `f64` accumulation,
//!   the correctness oracle for every optimized path in the workspace.
//! * [`compare`] — numeric comparison helpers with GEMM-aware tolerances.
//! * [`im2col`] — the convolution-to-GEMM lowering used by the VGG
//!   workloads (paper §7.2, §8.6).

#![deny(missing_docs)]

mod compare;
mod im2col;
mod matrix;
pub mod reference;
mod scalar;
mod view;

pub use compare::{assert_close, gemm_tolerance, max_abs_diff, max_rel_diff};
pub use im2col::{im2col, im2col_into, ConvShape};
pub use matrix::Matrix;
pub use scalar::Scalar;
pub use view::{MatMut, MatRef};

/// Per-operand transpose flag. `op(A)=A` for [`Op::NoTrans`]; `op(A)=Aᵀ`
/// for [`Op::Trans`]. The pair `(op_a, op_b)` selects the paper's NN / NT /
/// TN / TT kernel mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Operand used as stored (the paper's "N").
    NoTrans,
    /// Operand used transposed (the paper's "T").
    Trans,
}

impl Op {
    /// One-letter label matching the paper's mode naming.
    pub fn letter(self) -> char {
        match self {
            Op::NoTrans => 'N',
            Op::Trans => 'T',
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_letters() {
        assert_eq!(Op::NoTrans.letter(), 'N');
        assert_eq!(Op::Trans.letter(), 'T');
    }
}
