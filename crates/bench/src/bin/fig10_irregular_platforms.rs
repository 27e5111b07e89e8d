//! Figure 10: parallelized irregular-shaped GEMM on KP920 (top row) and
//! ThunderX2 (bottom row), NN and NT modes, K = 5000.
//!
//! Regenerated from the analytic model for both platforms (the hardware
//! substitution), plus a measured host section comparing NN vs NT for
//! LibShalom — checking the paper's §8.2 observation that the NT mode is
//! *faster* than NN for irregular shapes (B contiguous along K).

use shalom_baselines::{GemmImpl, ShalomGemm};
use shalom_bench::{measure_gflops, BenchArgs, CacheState, Report};
use shalom_core::{base_isa, gemm_with, GemmConfig, GemmElem, IsaPolicy};
use shalom_matrix::{MatMut, MatRef, Op};
use shalom_perfmodel::{predict, MachineModel, Precision, StrategyModel};
use shalom_workloads::GemmShape;

/// LibShalom under one ISA policy: `Auto` is the dispatched route,
/// `Force(base_isa())` the 128-bit driver.
struct Pinned(IsaPolicy);

impl<T: GemmElem> GemmImpl<T> for Pinned {
    fn name(&self) -> &'static str {
        "LibShalom"
    }

    fn gemm(
        &self,
        threads: usize,
        op_a: Op,
        op_b: Op,
        alpha: T,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        beta: T,
        c: MatMut<'_, T>,
    ) {
        let cfg = GemmConfig {
            isa: self.0,
            ..GemmConfig::with_threads(threads)
        };
        gemm_with(&cfg, op_a, op_b, alpha, a, b, beta, c);
    }
}

fn main() {
    let args = BenchArgs::parse();
    let k = 5000;
    let wides: Vec<usize> = (1..=5).map(|i| i * 2048).collect();
    let strategies = StrategyModel::parallel_roster();
    for machine in [MachineModel::kunpeng920(), MachineModel::thunderx2()] {
        for &m in &[32usize, 128] {
            let mut r = Report::new(
                &format!(
                    "fig10_projection_{}_m{m}",
                    machine.name.to_lowercase().replace(' ', "_")
                ),
                &format!(
                    "irregular GEMM projection, {} ({} cores), K={k}, M={m}",
                    machine.name, machine.cores
                ),
            );
            let mut cols = vec!["N".to_string()];
            cols.extend(strategies.iter().map(|s| s.name.to_string()));
            r.columns(&cols);
            for &n in &wides {
                let vals: Vec<f64> = strategies
                    .iter()
                    .map(|s| predict(&machine, s, Precision::F32, m, n, k, machine.cores).gflops)
                    .collect();
                r.row_values(&n.to_string(), &vals);
            }
            r.note("paper: LibShalom 1.6x (KP920) / 1.3x (TX2) over the best baseline on average");
            r.emit(&args.out);
        }
    }

    // Measured host section: LibShalom NN vs NT on irregular shapes.
    let (k, wides): (usize, Vec<usize>) = if args.full {
        (5000, vec![2048, 4096, 6144])
    } else {
        (1000, vec![1024, 2048])
    };
    let mut r = Report::new(
        "fig10_measured_nn_vs_nt",
        &format!("LibShalom measured on host: NN vs NT, irregular shapes, K={k}"),
    );
    r.columns(&["MxN", "NN", "NT"]);
    for &m in &[32usize, 128] {
        for &n in &wides {
            let shape = GemmShape::new(m, n, k);
            let nn = measure_gflops::<f32>(
                &ShalomGemm,
                1,
                Op::NoTrans,
                Op::NoTrans,
                shape,
                args.reps.min(3),
                CacheState::Warm,
            );
            let nt = measure_gflops::<f32>(
                &ShalomGemm,
                1,
                Op::NoTrans,
                Op::Trans,
                shape,
                args.reps.min(3),
                CacheState::Warm,
            );
            r.row_values(&format!("{m}x{n}"), &[nn, nt]);
        }
    }
    r.note("paper §8.2: NT > NN for irregular shapes (B elements contiguous along K in NT)");
    r.emit(&args.out);

    // Measured host section: each skinny shape (the Fig 9/10 M|N values
    // against 4096/8192, K = 256, both orientations) per op mode on the
    // dispatched route and on the 128-bit driver, in one run.
    let mut r = Report::new(
        "fig10_measured_routes",
        "LibShalom measured on host: NN/NT/TN, dispatched route vs 128-bit driver, K=256",
    );
    r.columns(&["MxN", "NN", "NT", "TN", "NN_128", "NT_128", "TN_128"]);
    let routes = [
        Pinned(IsaPolicy::Auto),
        Pinned(IsaPolicy::Force(base_isa())),
    ];
    for (small, wide) in [(32usize, 4096usize), (32, 8192), (128, 4096), (128, 8192)] {
        for (m, n) in [(small, wide), (wide, small)] {
            let shape = GemmShape::new(m, n, 256);
            let mut vals = Vec::new();
            for route in &routes {
                for (op_a, op_b) in [
                    (Op::NoTrans, Op::NoTrans),
                    (Op::NoTrans, Op::Trans),
                    (Op::Trans, Op::NoTrans),
                ] {
                    vals.push(measure_gflops::<f32>(
                        route,
                        1,
                        op_a,
                        op_b,
                        shape,
                        args.reps.min(3),
                        CacheState::Warm,
                    ));
                }
            }
            r.row_values(&format!("{m}x{n}"), &vals);
        }
    }
    r.note("the _128 columns pin IsaPolicy::Force(base_isa()); on a wide host the others run the kernel family in every op mode");
    r.emit(&args.out);
}
