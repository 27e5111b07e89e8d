//! Integration tests for the per-call records: every dispatch path's
//! root span must carry the route the driver actually executed, and
//! capture must never perturb numerics.
//!
//! Capture state is process-global, so every test here serializes on
//! one mutex and resets the lanes before acting.
#![cfg(feature = "trace")]
#![recursion_limit = "256"]

use proptest::prelude::*;
use shalom_core::trace::{self, src, DecisionRecord, EdgeTag, PathTag, PlanTag, ShapeClassTag};
use shalom_core::{
    base_isa, gemm_batch, gemm_with, BatchItem, CacheParams, GemmConfig, IsaPolicy, Op,
    PackingPolicy,
};
use shalom_matrix::Matrix;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn state_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Fixed cache geometry so plan resolution doesn't depend on the host:
/// 32 KiB L1, 2 MiB LLC (the paper's Kunpeng 920 per-core figures).
fn fixed_config() -> GemmConfig {
    GemmConfig {
        cache: CacheParams {
            l1: 32 * 1024,
            l2: 2 * 1024 * 1024,
            l3: 0,
        },
        threads: 1,
        ..GemmConfig::default()
    }
}

/// [`fixed_config`] pinned to the 128-bit driver: the tests that pin a §4
/// packing decision describe that driver's plans, which a host with a
/// wide kernel family would otherwise route around.
fn base_config() -> GemmConfig {
    GemmConfig {
        isa: IsaPolicy::Force(base_isa()),
        ..fixed_config()
    }
}

/// Runs one f32 GEMM under capture and returns its per-call records.
fn trace_gemm(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
) -> Vec<DecisionRecord> {
    let (ar, ac) = if op_a == Op::Trans { (k, m) } else { (m, k) };
    let (br, bc) = if op_b == Op::Trans { (n, k) } else { (k, n) };
    let a = Matrix::<f32>::random(ar, ac, 1);
    let b = Matrix::<f32>::random(br, bc, 2);
    let mut c = Matrix::<f32>::zeros(m, n);
    trace::reset();
    trace::enable();
    gemm_with(
        cfg,
        op_a,
        op_b,
        1.0,
        a.as_ref(),
        b.as_ref(),
        0.0,
        c.as_mut(),
    );
    trace::disable();
    trace::snapshot().decisions()
}

/// The single record a serial call must produce, with shape echoed back.
fn sole_record(recs: &[DecisionRecord], m: usize, n: usize, k: usize) -> DecisionRecord {
    assert_eq!(recs.len(), 1, "serial call must emit exactly one record");
    let r = recs[0];
    assert_eq!((r.m, r.n, r.k), (m, n, k));
    r
}

#[test]
fn nn_no_pack_path() {
    let _g = state_lock();
    // 64x64x64 f32: size(B) = 16 KiB <= L1 -> read B in place (§4.1).
    let recs = trace_gemm(&base_config(), Op::NoTrans, Op::NoTrans, 64, 64, 64);
    let r = sole_record(&recs, 64, 64, 64);
    assert_eq!(r.route.plan, PlanTag::NoPack);
    assert_eq!(r.route.class, ShapeClassTag::Small);
    assert_eq!(r.route.path, PathTag::Serial);
    assert_eq!((r.route.tm, r.route.tn), (1, 1));
    assert_eq!(r.pack_ns, 0, "no-pack path must record no pack span");
    assert_eq!((r.route.op_a, r.route.op_b), (b'N', b'N'));
}

#[test]
fn nn_fused_path() {
    let _g = state_lock();
    // 200x200x200: size(B) = 160 KiB > L1, shape small -> fused t=0 pack.
    let recs = trace_gemm(&base_config(), Op::NoTrans, Op::NoTrans, 200, 200, 200);
    let r = sole_record(&recs, 200, 200, 200);
    assert_eq!(r.route.plan, PlanTag::FusedPack);
    assert_eq!(r.route.class, ShapeClassTag::Small);
    assert!(
        r.route.workspace_bytes > 0,
        "fused pack needs a Bc workspace"
    );
}

#[test]
fn nn_lookahead_path() {
    let _g = state_lock();
    // 64x2048x64: B too big for L1 and N/M = 32 >= 8 with N >= 1024 ->
    // irregular -> fused pack with t=1 lookahead (§4.2).
    let recs = trace_gemm(&base_config(), Op::NoTrans, Op::NoTrans, 64, 2048, 64);
    let r = sole_record(&recs, 64, 2048, 64);
    assert_eq!(r.route.plan, PlanTag::Lookahead);
    assert_eq!(r.route.class, ShapeClassTag::Irregular);
}

#[test]
fn nt_path_packs_b() {
    let _g = state_lock();
    // NT always restructures B (§4.3): Auto resolves to the fused pack.
    let recs = trace_gemm(&base_config(), Op::NoTrans, Op::Trans, 64, 64, 64);
    let r = sole_record(&recs, 64, 64, 64);
    assert_eq!(r.route.plan, PlanTag::FusedPack);
    assert_eq!((r.route.op_a, r.route.op_b), (b'N', b'T'));
    // Fused NT hides the transpose inside the first row-block's kernel
    // sweep, so there is no separable pack span to time.
    assert_eq!(r.pack_ns, 0, "fused NT pack is not a separable span");

    // The ablation policy downgrades it to a sequential phase, which IS
    // a separable (and therefore timed) span.
    let cfg = GemmConfig {
        packing: PackingPolicy::AlwaysSequential,
        ..base_config()
    };
    let recs = trace_gemm(&cfg, Op::NoTrans, Op::Trans, 64, 64, 64);
    let r = sole_record(&recs, 64, 64, 64);
    assert_eq!(r.route.plan, PlanTag::SequentialPack);
    assert!(r.pack_ns > 0, "sequential NT must time the transpose-pack");
}

#[test]
fn tn_path_packs_a() {
    let _g = state_lock();
    // TN: B-side plan follows the NN rules (here: no-pack), but A must be
    // transpose-packed, which shows up as a nonzero pack span.
    let recs = trace_gemm(&base_config(), Op::Trans, Op::NoTrans, 64, 64, 64);
    let r = sole_record(&recs, 64, 64, 64);
    assert_eq!(r.route.plan, PlanTag::NoPack);
    assert_eq!((r.route.op_a, r.route.op_b), (b'T', b'N'));
    assert!(r.pack_ns > 0, "TN must spend time transpose-packing A");
}

#[test]
fn wide_transposed_paths_record_the_family_route() {
    let _g = state_lock();
    let Some(fam) = shalom_kernels::selected_wide_family() else {
        return;
    };
    // On a wide host NT and TN take the kernel family (§4.3: the
    // transposed operand is packed, then the NN micro-kernel runs), and
    // the record says so: the family's tile and its per-panel sequential
    // B pack. TN's staged Aᵀ blocks are timed as pack time.
    for (op_a, op_b) in [(Op::NoTrans, Op::Trans), (Op::Trans, Op::NoTrans)] {
        let recs = trace_gemm(&fixed_config(), op_a, op_b, 64, 64, 64);
        let r = sole_record(&recs, 64, 64, 64);
        assert_eq!(
            (r.route.mr as usize, r.route.nr as usize),
            (fam.k_f32.mr, fam.k_f32.nr)
        );
        assert_eq!(r.route.plan, PlanTag::SequentialPack);
        assert_eq!(r.route.edge, EdgeTag::Padded);
        assert!(
            r.pack_ns > 0,
            "{op_a:?}{op_b:?}: the family's packs must be timed"
        );
    }
}

#[test]
fn parallel_path_reports_grid() {
    let _g = state_lock();
    let cfg = GemmConfig {
        threads: 4,
        ..fixed_config()
    };
    let (m, n, k) = (256, 1024, 64);
    let recs = trace_gemm(&cfg, Op::NoTrans, Op::NoTrans, m, n, k);
    let (parent, workers) = parent_and_workers(&recs);
    assert_eq!((parent.m, parent.n, parent.k), (m, n, k));
    assert_eq!(parent.route.tm as usize * parent.route.tn as usize, 4);
    assert_eq!(parent.route.threads, 4);
    assert_eq!(workers.len(), 4, "each worker emits its sub-block record");

    let snap = trace::snapshot();
    assert_eq!(snap.totals.fork_joins, 1);
}

/// The one parallel-parent record and the worker records of a call.
fn parent_and_workers(recs: &[DecisionRecord]) -> (DecisionRecord, Vec<DecisionRecord>) {
    let parent: Vec<_> = recs
        .iter()
        .filter(|r| r.route.path == PathTag::Parallel)
        .collect();
    assert_eq!(parent.len(), 1, "one parent record per parallel call");
    let workers = recs
        .iter()
        .filter(|r| r.route.path == PathTag::ParallelWorker)
        .copied()
        .collect();
    (*parent[0], workers)
}

#[test]
fn parallel_parent_record_matches_its_workers() {
    let _g = state_lock();
    let Some(fam) = shalom_kernels::selected_wide_family() else {
        return; // 128-bit-only host: the wide family route does not exist.
    };
    // The wide route: workers are pinned to the family (its tile,
    // per-panel B packing, padded edge tiles); the parent record must
    // describe that route, not the 128-bit one.
    let cfg = GemmConfig::with_threads(2);
    let recs = trace_gemm(&cfg, Op::NoTrans, Op::NoTrans, 256, 256, 256);
    let (parent, workers) = parent_and_workers(&recs);
    assert!(!workers.is_empty());
    let what = |r: &DecisionRecord| {
        (
            r.route.isa,
            r.route.mr,
            r.route.nr,
            r.route.plan,
            r.route.edge,
        )
    };
    for w in &workers {
        assert_eq!(what(&parent), what(w), "parent {parent:?}\nworker {w:?}");
    }
    assert_eq!(
        (parent.route.mr as usize, parent.route.nr as usize),
        (fam.k_f32.mr, fam.k_f32.nr)
    );
    assert_eq!(parent.route.edge, EdgeTag::Padded);
}

#[test]
fn batch_path_counts_items() {
    let _g = state_lock();
    let a = Matrix::<f32>::random(16, 16, 7);
    let b = Matrix::<f32>::random(16, 16, 8);
    let mut cs: Vec<Matrix<f32>> = (0..6).map(|_| Matrix::zeros(16, 16)).collect();
    trace::reset();
    trace::enable();
    {
        let mut items: Vec<BatchItem<'_, f32>> = cs
            .iter_mut()
            .map(|c| BatchItem {
                a: a.as_ref(),
                b: b.as_ref(),
                c: c.as_mut(),
            })
            .collect();
        gemm_batch(
            &fixed_config(),
            Op::NoTrans,
            Op::NoTrans,
            1.0f32,
            &mut items,
        );
    }
    trace::disable();
    let snap = trace::snapshot();
    assert_eq!(snap.totals.batch_calls, 1);
    assert_eq!(snap.totals.batch_items, 6);
    let recs = snap.decisions();
    assert_eq!(recs.len(), 6);
    assert!(
        recs.iter().all(|r| r.route.path == PathTag::Batch),
        "batch sub-GEMMs must be tagged with the batch path"
    );
}

#[test]
fn plan_cache_hits_show_up_in_records_and_counters() {
    let _g = state_lock();
    // A signature no other test uses, so the cold call really misses.
    shalom_core::plan_cache_clear();
    shalom_core::set_plan_cache_enabled(true);
    let cfg = fixed_config();
    let (m, n, k) = (51, 49, 47);

    let cold = trace_gemm(&cfg, Op::NoTrans, Op::NoTrans, m, n, k);
    let r = sole_record(&cold, m, n, k);
    assert_eq!(r.plan_source, src::COMPUTED);

    let warm = trace_gemm(&cfg, Op::NoTrans, Op::NoTrans, m, n, k);
    let r = sole_record(&warm, m, n, k);
    assert_eq!(r.plan_source, src::CACHED);

    // Counters (reset per trace_gemm) saw exactly the warm lookup.
    let snap = trace::snapshot();
    assert_eq!(snap.totals.plan_hits, 1, "warm call must hit");
    assert_eq!(snap.totals.plan_misses, 0);

    // An installed autotune override reports as Profile.
    shalom_core::install_tuned::<f32>(&cfg, &cfg, Op::NoTrans, Op::NoTrans, m, n, k);
    let prof = trace_gemm(&cfg, Op::NoTrans, Op::NoTrans, m, n, k);
    let r = sole_record(&prof, m, n, k);
    assert_eq!(r.plan_source, src::PROFILE);

    // With the cache disabled the source degrades to Computed and no
    // lookups are counted.
    shalom_core::set_plan_cache_enabled(false);
    let off = trace_gemm(&cfg, Op::NoTrans, Op::NoTrans, m, n, k);
    let r = sole_record(&off, m, n, k);
    assert_eq!(r.plan_source, src::COMPUTED);
    let snap = trace::snapshot();
    assert_eq!(snap.totals.plan_hits + snap.totals.plan_misses, 0);
    shalom_core::set_plan_cache_enabled(true);
    shalom_core::plan_cache_clear();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Observation must not perturb computation: C with capture enabled
    // is bitwise identical to C with capture disabled, across ops,
    // shapes, and thread counts.
    #[test]
    fn capture_is_bitwise_invisible(
        m in 1usize..48,
        n in 1usize..48,
        k in 1usize..32,
        opa in 0u8..2,
        opb in 0u8..2,
        threads in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let _g = state_lock();
        let op_a = if opa == 0 { Op::NoTrans } else { Op::Trans };
        let op_b = if opb == 0 { Op::NoTrans } else { Op::Trans };
        let cfg = GemmConfig { threads, ..fixed_config() };
        let (ar, ac) = if op_a == Op::Trans { (k, m) } else { (m, k) };
        let (br, bc) = if op_b == Op::Trans { (n, k) } else { (k, n) };
        let a = Matrix::<f32>::random(ar, ac, seed);
        let b = Matrix::<f32>::random(br, bc, seed + 1);
        let c0 = Matrix::<f32>::random(m, n, seed + 2);

        let mut c_off = c0.clone();
        trace::reset();
        trace::disable();
        gemm_with(&cfg, op_a, op_b, 1.5, a.as_ref(), b.as_ref(), 0.5, c_off.as_mut());

        let mut c_on = c0.clone();
        trace::enable();
        gemm_with(&cfg, op_a, op_b, 1.5, a.as_ref(), b.as_ref(), 0.5, c_on.as_mut());
        trace::disable();

        for i in 0..m {
            for j in 0..n {
                prop_assert_eq!(
                    c_off.as_ref().at(i, j).to_bits(),
                    c_on.as_ref().at(i, j).to_bits(),
                    "capture changed C[{}][{}]", i, j
                );
            }
        }
    }
}
