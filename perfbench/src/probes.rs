//! Per-layer probes: public calls into one layer, timed from outside on
//! fixed inputs. Each returns a median over repeated batches.

use crate::closed::{cp2k_shapes, skinny_shapes, Problem, Vgg};
use crate::stats::median;
use shalom_core::{describe_plan, gemm_with, plan_cache_clear, GemmConfig, Op};
use shalom_kernels::edge::edge_kernel_pipelined;
use shalom_kernels::family::FamilyKernels;
use shalom_kernels::main_kernel::main_kernel;
use shalom_kernels::nt_pack::nt_pack_panel;
use shalom_kernels::pack::pack_b_slivers_goto;
use shalom_kernels::{family_for, nr_for, MR};
use shalom_matrix::{im2col, Matrix};
use shalom_simd::{F32x4, F64x2};
use shalom_trace::now_ns;
use std::hint::black_box;

/// Median over `batches` of the mean ns per call of `f`, `calls` calls
/// per batch.
fn ns_per_call(batches: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let per: Vec<f64> = (0..batches)
        .map(|_| {
            let t = now_ns();
            for _ in 0..calls {
                f();
            }
            (now_ns() - t) as f64 / calls as f64
        })
        .collect();
    median(&per)
}

fn cfg(threads: usize) -> GemmConfig {
    GemmConfig::with_threads(threads)
}

// ------------------------------------------------------------------ plans

fn describe(p: &Problem) {
    let c = cfg(p.threads);
    if p.f64 {
        black_box(describe_plan::<f64>(&c, p.op_a, p.op_b, p.m, p.n, p.k));
    } else {
        black_box(describe_plan::<f32>(&c, p.op_a, p.op_b, p.m, p.n, p.k));
    }
}

/// Warm `describe_plan`, median ns per lookup over the problems.
pub fn plan_lookup_ns(problems: &[Problem]) -> f64 {
    problems.iter().for_each(describe);
    let per: Vec<f64> = problems
        .iter()
        .map(|p| ns_per_call(9, 2000, || describe(p)))
        .collect();
    median(&per)
}

/// First `describe_plan` after `plan_cache_clear()`, median ns. Leaves
/// the cache holding the problems' plans again.
pub fn plan_cold_ns(problems: &[Problem]) -> f64 {
    let mut per = Vec::new();
    for _ in 0..15 {
        for p in problems {
            plan_cache_clear();
            let t = now_ns();
            describe(p);
            per.push((now_ns() - t) as f64);
        }
    }
    problems.iter().for_each(describe);
    median(&per)
}

// ------------------------------------------------------------------- core

/// `gemm_with` on hot operands, median ns per call.
fn gemm_ns(m: usize, n: usize, k: usize, threads: usize) -> f64 {
    let (a, b) = (
        Matrix::<f64>::random(m, k, 1),
        Matrix::<f64>::random(k, n, 2),
    );
    let mut c = Matrix::<f64>::zeros(m, n);
    let (c_, nn) = (cfg(threads), Op::NoTrans);
    let mut call = || gemm_with(&c_, nn, nn, 1.0, a.as_ref(), b.as_ref(), 1.0, c.as_mut());
    call();
    ns_per_call(15, 1000, call)
}

/// `gemm_with` 1x1x1 at one thread, ns.
pub fn call_fixed_ns() -> f64 {
    gemm_ns(1, 1, 1, 1)
}

/// Per-shape `gemm_with` ns on the CP2K shapes at one thread.
pub fn cp2k_call_ns() -> Vec<(String, f64)> {
    cp2k_shapes()
        .into_iter()
        .map(|(label, p)| (label.to_string(), gemm_ns(p.m, p.n, p.k, 1)))
        .collect()
}

/// 1x1x1 `gemm_with` at two threads minus at one thread, ns: the pool's
/// fork-join cost.
pub fn pool_fork_ns() -> f64 {
    gemm_ns(1, 1, 1, 2) - gemm_ns(1, 1, 1, 1)
}

/// The skinny shapes run as NN at one thread, GFLOP/s.
pub fn skinny_nn_gflops() -> f64 {
    let (nn, c_) = (Op::NoTrans, cfg(1));
    let (mut flops, mut ns) = (0.0, 0.0);
    for (m, n, k) in skinny_shapes() {
        let (a, b) = (
            Matrix::<f32>::random(m, k, 3),
            Matrix::<f32>::random(k, n, 4),
        );
        let mut c = Matrix::<f32>::zeros(m, n);
        let mut call = || gemm_with(&c_, nn, nn, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        call();
        ns += ns_per_call(3, 2, &mut call);
        flops += 2.0 * (m * n * k) as f64;
    }
    flops / ns
}

/// The VGG layers' layer-by-layer probes, from one set of inputs.
pub struct VggProbe {
    /// The GEMMs on pre-lowered B at one thread, GFLOP/s.
    pub serial_gflops: f64,
    /// The same at two threads over twice the one-thread rate.
    pub scaling_eff: f64,
    /// The five `im2col` calls of one pass, ms.
    pub im2col_ms: f64,
    /// Two-thread GEMM time over `Conv2d::forward` time.
    pub gemm_frac: f64,
}

pub fn vgg_probe(v: &Vgg) -> VggProbe {
    let nn = Op::NoTrans;
    let (mut flops, mut t1, mut t2, mut lower, mut fwd) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for l in &v.layers {
        let (m, n, k) = l.shape.gemm_dims();
        flops += 2.0 * (m * n * k) as f64;
        let lowered = im2col(&l.shape, &l.input);
        lower += ns_per_call(3, 1, || drop(black_box(im2col(&l.shape, &l.input))));
        let mut c = Matrix::<f32>::zeros(m, n);
        let mut gemm = |threads: usize| {
            let c_ = cfg(threads);
            ns_per_call(3, 1, || {
                gemm_with(
                    &c_,
                    nn,
                    nn,
                    1.0,
                    l.weights.as_ref(),
                    lowered.as_ref(),
                    0.0,
                    c.as_mut(),
                )
            })
        };
        t1 += gemm(1);
        t2 += gemm(2);
        fwd += ns_per_call(3, 1, || drop(black_box(l.conv.forward(&l.input))));
    }
    VggProbe {
        serial_gflops: flops / t1,
        scaling_eff: t1 / (2.0 * t2),
        im2col_ms: lower / 1e6,
        gemm_frac: t2 / fwd,
    }
}

// ---------------------------------------------------------------- kernels

/// GFLOP/s of an `mr x nr` tile kernel on L1-resident operands: `kc` is
/// chosen so A and B fill about 24 KiB, half a typical L1D.
///
/// # Safety
/// `kernel` must accept the `main_kernel_shape` operand contract at the
/// `(mr, nr)` tile on this host.
unsafe fn tile_peak<T: shalom_matrix::Scalar>(
    mr: usize,
    nr: usize,
    kernel: impl Fn(usize, *const T, usize, *const T, usize, *mut T, usize),
) -> f64 {
    let kc = 24 * 1024 / ((mr + nr) * std::mem::size_of::<T>());
    let a = Matrix::<T>::random(mr, kc, 5);
    let b = Matrix::<T>::random(kc, nr, 6);
    let mut c = Matrix::<T>::zeros(mr, nr);
    let (pa, pb, pc) = (
        a.as_ref().as_ptr(),
        b.as_ref().as_ptr(),
        c.as_mut().as_mut_ptr(),
    );
    let calls = (2_000_000 / (mr * nr * kc)).max(1);
    let ns = ns_per_call(21, calls, || {
        kernel(kc, black_box(pa), kc, black_box(pb), nr, black_box(pc), nr)
    });
    black_box(c.at(0, 0));
    2.0 * (mr * nr * kc) as f64 / ns
}

fn family_peak<T: shalom_matrix::Scalar>(k: &FamilyKernels<T>) -> f64 {
    // SAFETY: `family_for` hands out only families whose ISA probe passed
    // on this host, and `tile_peak` passes operands laid out for the
    // family's own (mr, nr) tile.
    unsafe {
        tile_peak::<T>(k.mr, k.nr, |kc, a, lda, b, ldb, c, ldc| {
            (k.kernel)(kc, T::ONE, a, lda, b, ldb, T::ZERO, c, ldc)
        })
    }
}

/// (f32, f64) GFLOP/s of the host's wide family kernel; the 128-bit
/// kernel's when the host has no wide family.
pub fn family_peaks() -> (f64, f64) {
    match family_for(shalom_core::host_isa()) {
        Some(f) => (family_peak(&f.k_f32), family_peak(&f.k_f64)),
        None => base_peaks(),
    }
}

/// (f32, f64) GFLOP/s of the 128-bit `main_kernel` at its 7 x 3-vector
/// tile.
pub fn base_peaks() -> (f64, f64) {
    // SAFETY: `main_kernel` takes a 7 x nr tile, which is what `tile_peak`
    // lays out; the 128-bit substrate runs on every host.
    unsafe {
        (
            tile_peak::<f32>(MR, nr_for::<f32>(), |kc, a, lda, b, ldb, c, ldc| {
                main_kernel::<F32x4>(kc, 1.0, a, lda, b, ldb, 0.0, c, ldc)
            }),
            tile_peak::<f64>(MR, nr_for::<f64>(), |kc, a, lda, b, ldb, c, ldc| {
                main_kernel::<F64x2>(kc, 1.0, a, lda, b, ldb, 0.0, c, ldc)
            }),
        )
    }
}

/// `edge_kernel_pipelined` on each CP2K shape's corner residue tile of
/// the 128-bit f64 route (`m mod 7` x `n mod 6`, full K), mean ns.
pub fn edge_ns() -> f64 {
    let (mr, nr) = (MR, nr_for::<f64>());
    let per: Vec<f64> = cp2k_shapes()
        .into_iter()
        .map(|(_, p)| {
            let rm = if p.m % mr == 0 { mr } else { p.m % mr };
            let rn = if p.n % nr == 0 { nr } else { p.n % nr };
            let (a, b) = (
                Matrix::<f64>::random(rm, p.k, 7),
                Matrix::<f64>::random(p.k, rn, 8),
            );
            let mut c = Matrix::<f64>::zeros(rm, rn);
            let (pa, pb, pc) = (
                a.as_ref().as_ptr(),
                b.as_ref().as_ptr(),
                c.as_mut().as_mut_ptr(),
            );
            let ns = ns_per_call(15, 2000, || {
                // SAFETY: a is rm x k, b is k x rn and c is rm x rn, all
                // tight; rm <= 7 and rn <= 6 as the edge kernel requires.
                unsafe {
                    edge_kernel_pipelined::<F64x2>(rm, rn, p.k, 1.0, pa, p.k, pb, rn, 1.0, pc, rn)
                }
            });
            black_box(c.at(0, 0));
            ns
        })
        .collect();
    per.iter().sum::<f64>() / per.len() as f64
}

/// `pack_b_slivers_goto` on the kc x nc panel the plan picks for VGG3.2,
/// read plus written bytes per second, GB/s.
pub fn pack_b_gbps() -> f64 {
    let g = shalom_workloads::vgg_layers()[2];
    let plan = describe_plan::<f32>(&cfg(2), Op::NoTrans, Op::NoTrans, g.m, g.n, g.k).plan;
    let kc = (plan.kc as usize).clamp(1, g.k);
    let nc = (plan.nc as usize).clamp(1, g.n);
    let nr = family_for(shalom_core::host_isa()).map_or(nr_for::<f32>(), |f| f.k_f32.nr);
    let b = Matrix::<f32>::random(kc, g.n, 9);
    let mut dst = vec![0f32; nc.div_ceil(nr) * kc * nr];
    let ns = ns_per_call(15, 4, || {
        // SAFETY: b holds kc rows of g.n >= nc columns at stride g.n, and
        // dst holds ceil(nc/nr) slivers of kc x nr.
        unsafe { pack_b_slivers_goto(b.as_ref().as_ptr(), g.n, kc, nc, nr, dst.as_mut_ptr()) };
    });
    black_box(dst[0]);
    2.0 * (kc * nc * 4) as f64 / ns
}

/// `nt_pack_panel` over the stored-B rows of the 32x4096x256 NT problem
/// (7 rows of A per panel), read plus written bytes per second, GB/s.
pub fn nt_pack_gbps() -> f64 {
    let (n, k, nr) = (4096, 256, nr_for::<f32>());
    let a = Matrix::<f32>::random(MR, k, 10);
    let b = Matrix::<f32>::random(n, k, 11);
    let mut c = Matrix::<f32>::zeros(MR, n);
    let mut bc = vec![0f32; k * nr];
    let (pa, pb, pc) = (
        a.as_ref().as_ptr(),
        b.as_ref().as_ptr(),
        c.as_mut().as_mut_ptr(),
    );
    let ns = ns_per_call(9, 2, || {
        for j in (0..n).step_by(nr) {
            let np = nr.min(n - j);
            // SAFETY: a is 7 x k; rows j..j+np of b (stride k) exist; c
            // columns j..j+np of 7 rows at stride n exist; bc is k x nr.
            unsafe {
                nt_pack_panel::<F32x4>(
                    MR,
                    np,
                    k,
                    nr,
                    1.0,
                    pa,
                    k,
                    pb.add(j * k),
                    k,
                    0.0,
                    pc.add(j),
                    n,
                    bc.as_mut_ptr(),
                )
            }
        }
    });
    black_box(c.at(0, 0));
    let bytes = (n * k + n.div_ceil(nr) * k * nr) * 4;
    bytes as f64 / ns
}
