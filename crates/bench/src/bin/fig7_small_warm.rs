//! Figure 7: single-threaded small GEMM, warm cache.
//!
//! `M = N = K` from 8 to 120 step 8, FP32, NN and NT modes, all six
//! contenders (BLIS / OpenBLAS / ARMPL / LIBXSMM / BLASFEO classes and
//! LibShalom). The cache is warmed by an untimed run before timing —
//! the methodology of the LIBXSMM and BLASFEO publications the paper
//! follows (§8.1).

use shalom_baselines::small_gemm_contenders;
use shalom_bench::{measure_gflops, BenchArgs, CacheState, Report};
use shalom_matrix::Op;
use shalom_workloads::small_square_sizes;

fn main() {
    let args = BenchArgs::parse();
    shalom_bench::trace::begin(&args);
    let libs = small_gemm_contenders::<f32>();
    for (mode, op_b) in [("NN", Op::NoTrans), ("NT", Op::Trans)] {
        let mut r = Report::new(
            &format!("fig7_small_warm_{}", mode.to_lowercase()),
            &format!("small GEMM, warm cache, FP32 {mode} mode (GFLOPS, 1 thread)"),
        );
        let mut cols = vec!["M=N=K".to_string()];
        cols.extend(libs.iter().map(|l| l.name().to_string()));
        r.columns(&cols);
        for shape in small_square_sizes() {
            let vals: Vec<f64> = libs
                .iter()
                .map(|l| {
                    measure_gflops::<f32>(
                        l.as_ref(),
                        1,
                        Op::NoTrans,
                        op_b,
                        shape,
                        args.reps,
                        CacheState::Warm,
                    )
                })
                .collect();
            r.row_values(&shape.m.to_string(), &vals);
        }
        r.note("paper shape: LibShalom highest across the sweep, ~2x over BLASFEO at size 8, >=5% at 120; NN > NT for LibShalom on small sizes (no packing when B fits L1)");
        r.emit(&args.out);
    }
    shalom_bench::trace::finish(&args, "fig7_small_warm");
}
