//! Route coverage: every dispatch route must emit the same phase set and
//! carry its route on its GEMM spans. One table row per route — 128-bit
//! serial, wide serial, pool-parallel, `gemm_batch` and a service flush —
//! each run under capture on a shape whose B is packed. A row fails if
//! its root span is missing, if any `Serial`/`Parallel` span lacks the
//! route attributes, if the route is on the wrong dispatch path, or if
//! any of `PlanLookup`, `PackB` and `Compute` is absent. The wide row is
//! skipped on hosts without a wide kernel family.
#![cfg(feature = "trace")]

use libshalom::core::{base_isa, gemm_batch, BatchItem, IsaPolicy, Runtime};
use libshalom::kernels::selected_wide_family;
use libshalom::service::{GemmRequest, Service, ServiceConfig};
use libshalom::trace::{self, PathTag, Phase, TraceSnapshot};
use libshalom::{gemm_with, GemmConfig, Matrix, Op, PackingPolicy};

/// B is 96x96 f32 = 36 KiB, and the sequential policy packs it on every
/// route as its own phase (a fused pack has no separable span).
const DIM: usize = 96;

#[derive(Clone, Copy, Debug)]
enum Route {
    Serial128,
    SerialWide,
    PoolParallel,
    Batch,
    ServiceFlush,
}

fn config(isa: IsaPolicy, threads: usize) -> GemmConfig {
    GemmConfig {
        isa,
        packing: PackingPolicy::AlwaysSequential,
        runtime: Runtime::Pool,
        ..GemmConfig::with_threads(threads)
    }
}

fn operands() -> (Matrix<f32>, Matrix<f32>, Vec<Matrix<f32>>) {
    let a = Matrix::random(DIM, DIM, 1);
    let b = Matrix::random(DIM, DIM, 2);
    let cs = (0..4).map(|_| Matrix::zeros(DIM, DIM)).collect();
    (a, b, cs)
}

/// Runs `route` once under capture; returns the snapshot, the phase its
/// root span has, and the path its GEMM spans' routes must name.
fn capture(route: Route) -> (TraceSnapshot, Phase, Vec<PathTag>) {
    let (a, b, mut cs) = operands();
    let gemm = |cfg: &GemmConfig, c: &mut Matrix<f32>| {
        gemm_with(
            cfg,
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
        )
    };
    // The service's scheduler thread must exist before capture starts.
    let svc =
        matches!(route, Route::ServiceFlush).then(|| Service::start(ServiceConfig::default()));
    trace::reset();
    trace::enable();
    let (root, paths) = match route {
        Route::Serial128 => {
            gemm(&config(IsaPolicy::Force(base_isa()), 1), &mut cs[0]);
            (Phase::Serial, vec![PathTag::Serial])
        }
        Route::SerialWide => {
            gemm(&config(IsaPolicy::Auto, 1), &mut cs[0]);
            (Phase::Serial, vec![PathTag::Serial])
        }
        Route::PoolParallel => {
            gemm(&config(IsaPolicy::Auto, 2), &mut cs[0]);
            (
                Phase::Parallel,
                vec![PathTag::Parallel, PathTag::ParallelWorker],
            )
        }
        Route::Batch => {
            let mut items: Vec<BatchItem<'_, f32>> = cs
                .iter_mut()
                .map(|c| BatchItem {
                    a: a.as_ref(),
                    b: b.as_ref(),
                    c: c.as_mut(),
                })
                .collect();
            gemm_batch(
                &config(IsaPolicy::Auto, 2),
                Op::NoTrans,
                Op::NoTrans,
                1.0,
                &mut items,
            );
            (Phase::Batch, vec![PathTag::Batch])
        }
        Route::ServiceFlush => {
            let svc = svc.as_ref().expect("service started above");
            for c in cs.iter_mut() {
                let req = GemmRequest::new(
                    config(IsaPolicy::Auto, 1),
                    Op::NoTrans,
                    Op::NoTrans,
                    1.0,
                    a.as_ref(),
                    b.as_ref(),
                    0.0,
                    c.as_mut(),
                );
                svc.submit_wait(req, None).expect("service request");
            }
            (Phase::BatchFlush, vec![PathTag::Batch])
        }
    };
    trace::disable();
    let snap = trace::snapshot();
    trace::reset();
    (snap, root, paths)
}

#[test]
fn every_route_emits_the_route_and_phase_set() {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let routes = [
        Route::Serial128,
        Route::SerialWide,
        Route::PoolParallel,
        Route::Batch,
        Route::ServiceFlush,
    ];
    for route in routes {
        if matches!(route, Route::SerialWide) && selected_wide_family().is_none() {
            continue; // 128-bit-only host: the wide route does not exist.
        }
        let (snap, root, paths) = capture(route);
        let spans: Vec<_> = snap.lanes.iter().flat_map(|l| &l.spans).collect();
        assert!(
            spans.iter().any(|s| s.phase() == root && s.depth == 0),
            "{route:?}: no root {} span",
            root.as_str()
        );
        let gemm_spans: Vec<_> = spans
            .iter()
            .filter(|s| matches!(s.phase(), Phase::Serial | Phase::Parallel))
            .collect();
        assert!(!gemm_spans.is_empty(), "{route:?}: no GEMM span");
        for s in &gemm_spans {
            assert!(
                s.route.is_set(),
                "{route:?}: {} span without a route",
                s.phase().as_str()
            );
            assert!(
                paths.contains(&s.route.path),
                "{route:?}: route on path {:?}, want one of {paths:?}",
                s.route.path
            );
            assert!(s.route.mr > 0 && s.route.nr > 0, "{route:?}: no tile");
        }
        for phase in [Phase::PlanLookup, Phase::PackB, Phase::Compute] {
            assert!(
                spans.iter().any(|s| s.phase() == phase),
                "{route:?}: no {} span",
                phase.as_str()
            );
        }
        assert_eq!(snap.total_dropped(), 0, "{route:?}: spans dropped");
    }
}
