//! Differential oracle for the wide kernel-family route in all four op
//! modes: every call here is checked against `reference::gemm`, and the
//! plan key is checked to name the family, so a gate change that quietly
//! sends the calls back to the 128-bit driver fails instead of passing
//! vacuously. On a host without a wide family the route does not exist
//! and the tests return early.

use libshalom::core::{request_plan_key, IsaPolicy};
use libshalom::kernels::{selected_wide_family, FamilyElem, KernelFamily};
use libshalom::matrix::{assert_close, gemm_tolerance, reference, Matrix};
use libshalom::{gemm_with, CacheParams, GemmConfig, GemmElem, Op};

const OPS: [(Op, Op); 4] = [
    (Op::NoTrans, Op::NoTrans),
    (Op::NoTrans, Op::Trans),
    (Op::Trans, Op::NoTrans),
    (Op::Trans, Op::Trans),
];

/// A cache small enough that `kc = 32` and the row block `mc` is a few
/// register tiles, so the shapes below cross several `kc` and `mc`
/// blocks.
fn tiny(isa: IsaPolicy) -> GemmConfig {
    GemmConfig {
        cache: CacheParams {
            l1: 256,
            l2: 16 * 1024,
            l3: 64 * 1024,
        },
        isa,
        ..GemmConfig::with_threads(1)
    }
}

fn operands<T: GemmElem>(
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
) -> (Matrix<T>, Matrix<T>) {
    let (ar, ac) = match op_a {
        Op::NoTrans => (m, k),
        Op::Trans => (k, m),
    };
    let (br, bc) = match op_b {
        Op::NoTrans => (k, n),
        Op::Trans => (n, k),
    };
    (
        Matrix::<T>::random_with_ld(ar, ac, ac + 3, 21),
        Matrix::<T>::random_with_ld(br, bc, bc + 1, 22),
    )
}

/// One call against the oracle. With `nan_c`, C starts as all-NaN, which a
/// `beta = 0` call must overwrite without reading.
#[allow(clippy::too_many_arguments)]
fn check<T: GemmElem>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    beta: f64,
    nan_c: bool,
) {
    let (a, b) = operands::<T>(op_a, op_b, m, n, k);
    let mut c = if nan_c {
        Matrix::<T>::from_fn(m, n, |_, _| T::from_f64(f64::NAN))
    } else {
        Matrix::<T>::random(m, n, 23)
    };
    let mut want = if nan_c {
        Matrix::<T>::zeros(m, n)
    } else {
        c.clone()
    };
    let (alpha, beta) = (T::from_f64(alpha), T::from_f64(beta));
    reference::gemm(
        op_a,
        op_b,
        alpha,
        a.as_ref(),
        b.as_ref(),
        beta,
        want.as_mut(),
    );
    gemm_with(
        cfg,
        op_a,
        op_b,
        alpha,
        a.as_ref(),
        b.as_ref(),
        beta,
        c.as_mut(),
    );
    assert_close(
        c.as_ref(),
        want.as_ref(),
        gemm_tolerance::<T>(k.max(1), 4.0),
    );
}

fn lattice<T: GemmElem + FamilyElem>(fam: &KernelFamily) {
    let (mr, nr) = (T::kernels(fam).mr, T::kernels(fam).nr);
    let auto = tiny(IsaPolicy::Auto);
    // Sub-tile shapes take the family only when it is forced — the way
    // the parallel path pins its workers.
    let forced = tiny(IsaPolicy::Force(fam.isa));
    let ms = [mr - 1, mr, mr + 1, 4 * mr + 1];
    let ns = [nr - 1, nr, nr + 1, 2 * nr + 1];
    for (op_a, op_b) in OPS {
        for &m in &ms {
            for &n in &ns {
                let cfg = if m >= mr && n >= nr { &auto } else { &forced };
                let key = request_plan_key::<T>(cfg, op_a, op_b, m, n, 70);
                assert_eq!(key.isa, fam.isa.code(), "{op_a:?}{op_b:?} {m}x{n}");
                for k in [1, 70] {
                    for (alpha, beta) in [(1.0, 0.0), (-1.5, 0.5), (0.0, 2.0)] {
                        check::<T>(cfg, op_a, op_b, m, n, k, alpha, beta, false);
                    }
                }
                check::<T>(cfg, op_a, op_b, m, n, 0, 1.0, 0.5, false);
                check::<T>(cfg, op_a, op_b, m, n, 70, -1.5, 0.0, true);
            }
        }
    }
}

#[test]
fn wide_route_matches_reference_in_every_mode() {
    let Some(fam) = selected_wide_family() else {
        return;
    };
    lattice::<f32>(fam);
    lattice::<f64>(fam);
}

fn threads_agree<T: GemmElem>(op_a: Op, op_b: Op, m: usize, n: usize, k: usize) {
    let (a, b) = operands::<T>(op_a, op_b, m, n, k);
    let c0 = Matrix::<T>::random(m, n, 24);
    let run = |threads: usize| {
        let cfg = GemmConfig {
            threads,
            ..tiny(IsaPolicy::Auto)
        };
        let mut c = c0.clone();
        let (alpha, beta) = (T::from_f64(1.25), T::from_f64(-0.5));
        gemm_with(
            &cfg,
            op_a,
            op_b,
            alpha,
            a.as_ref(),
            b.as_ref(),
            beta,
            c.as_mut(),
        );
        c
    };
    let (one, two) = (run(1), run(2));
    for i in 0..m {
        for j in 0..n {
            assert!(
                one.at(i, j).to_f64().to_bits() == two.at(i, j).to_f64().to_bits(),
                "{op_a:?}{op_b:?} {m}x{n}x{k} ({i},{j}): {} vs {}",
                one.at(i, j),
                two.at(i, j)
            );
        }
    }
}

#[test]
fn wide_transposed_threads_are_bitwise_serial() {
    let Some(fam) = selected_wide_family() else {
        return;
    };
    // Workers are pinned to the whole problem's effective ISA, so each
    // sub-block runs the same family route and the same kc blocking.
    let (mr, nr) = (fam.k_f32.mr, fam.k_f32.nr);
    for (op_a, op_b) in [(Op::NoTrans, Op::Trans), (Op::Trans, Op::NoTrans)] {
        threads_agree::<f32>(op_a, op_b, 6 * mr + 5, 4 * nr + 3, 70);
        threads_agree::<f64>(op_a, op_b, 5 * mr + 2, 3 * nr + 1, 45);
    }
}
