//! Observability integration (the `trace` cargo feature).
//!
//! Re-exports the [`shalom_trace`] API so users of this crate can
//! enable capture, pull snapshots (per-call records, folded counters,
//! the Fig 13 report) and export Chrome traces without a separate
//! dependency, and builds the [`Route`] every root span carries.
//!
//! Span sites live in `driver.rs` (serial dispatch, pack-A/pack-B,
//! per-block compute), `plan.rs` (cache lookup), `pool.rs` (dispatch,
//! queue wait, join barrier, worker park, task execution), `parallel.rs`
//! (threaded calls) and `batch.rs` (batch calls and member items). All
//! of them compile away without the feature; with the feature but
//! capture disabled at runtime, each costs one relaxed atomic load.

pub use shalom_trace::{
    chrome_trace_json, disable, enable, enabled, json, now_ns, pause_guard, perf, reset,
    shape_from_key, shape_key, snapshot, span_end, span_end_route, span_end_src, span_start, src,
    CounterTotals, DecisionRecord, EdgeTag, Histogram, LaneSnapshot, LaneStat, PathTag, PauseGuard,
    PerfSample, Phase, PhaseStat, PlanTag, Route, ShapeClassTag, SpanRecord, SpanToken,
    TraceReport, TraceSnapshot, HIST_BUCKETS, MAX_LANES, SPANS_PER_LANE,
};

use crate::config::{classify, EdgeSchedule, GemmConfig, ShapeClass};
use crate::driver::BPlan;
use crate::plan::{PlanSource, SerialPlan};
use shalom_kernels::{family_for, FamilyElem, Vector, MR, NR_VECS};
use shalom_matrix::Op;

/// Internal: plan-cache `PlanSource` -> span source code.
pub(crate) fn src_code(source: PlanSource) -> u8 {
    match source {
        PlanSource::Computed => src::COMPUTED,
        PlanSource::Cached => src::CACHED,
        PlanSource::Profile => src::PROFILE,
    }
}

fn op_char(op: Op) -> u8 {
    match op {
        Op::NoTrans => b'N',
        Op::Trans => b'T',
    }
}

/// The route a call with `plan` runs: the one place a root span's
/// attributes come from, for serial calls and parallel parents alike.
/// `(m, n, k)` is the call's full shape; `grid` is `(tm, tn, threads)`.
///
/// It mirrors the driver's own dispatch test: a wide plan whose family
/// is registered runs that family's tile, packs B per panel (or reads it
/// in place under `Never`) and pads edge tiles; anything else runs the
/// 128-bit substrate's tile, §4 plan and §5.4 edge schedule.
#[allow(clippy::too_many_arguments)]
pub(crate) fn route_of<V: Vector>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
    plan: &SerialPlan,
    grid: (usize, usize, usize),
    workspace_bytes: usize,
) -> Route {
    let elem_bytes = core::mem::size_of::<V::Elem>();
    let family = plan.isa.is_wide().then(|| family_for(plan.isa)).flatten();
    let (isa, mr, nr, b_plan, edge) = match family {
        Some(fam) => {
            let ks = <V::Elem as FamilyElem>::kernels(fam);
            let b_plan = match plan.b_plan {
                BPlan::Direct => PlanTag::NoPack,
                _ => PlanTag::SequentialPack,
            };
            (plan.isa, ks.mr, ks.nr, b_plan, EdgeTag::Padded)
        }
        None => {
            let edge = match plan.edge {
                EdgeSchedule::Pipelined => EdgeTag::Pipelined,
                EdgeSchedule::Batched => EdgeTag::Batched,
            };
            let isa = if plan.isa.is_wide() {
                shalom_simd::base_isa()
            } else {
                plan.isa
            };
            let nr = NR_VECS * V::LANES;
            (isa, MR, nr, plan.b_plan.tag(op_b), edge)
        }
    };
    let (tm, tn, threads) = grid;
    let narrow = |v: usize| v.min(u16::MAX as usize) as u16;
    Route {
        isa: Some(isa),
        op_a: op_char(op_a),
        op_b: op_char(op_b),
        elem_bits: (elem_bytes * 8) as u8,
        class: match classify(m, n, k, elem_bytes, &cfg.cache) {
            ShapeClass::Small => ShapeClassTag::Small,
            ShapeClass::Irregular => ShapeClassTag::Irregular,
            ShapeClass::Regular => ShapeClassTag::Regular,
        },
        plan: b_plan,
        edge,
        path: PathTag::Serial,
        mr: mr as u8,
        nr: nr as u8,
        tm: narrow(tm),
        tn: narrow(tn),
        threads: narrow(threads),
        workspace_bytes: workspace_bytes as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheParams;

    #[test]
    fn src_codes_line_up() {
        assert_eq!(src::as_str(src_code(PlanSource::Computed)), "computed");
        assert_eq!(src::as_str(src_code(PlanSource::Cached)), "cached");
        assert_eq!(src::as_str(src_code(PlanSource::Profile)), "profile");
    }

    #[test]
    fn tag_conversions_line_up() {
        let cfg = GemmConfig {
            cache: CacheParams {
                l1: 32 * 1024,
                l2: 2 * 1024 * 1024,
                l3: 0,
            },
            isa: crate::IsaPolicy::Force(shalom_simd::base_isa()),
            ..GemmConfig::with_threads(1)
        };
        let route = |op_a, op_b, m, n, k| {
            let plan = crate::plan::serial_plan::<shalom_simd::F32x4>(&cfg, op_a, op_b, m, n, k);
            route_of::<shalom_simd::F32x4>(&cfg, op_a, op_b, m, n, k, &plan, (1, 1, 1), 0)
        };
        let small = route(Op::NoTrans, Op::NoTrans, 64, 64, 64);
        assert_eq!(small.class, ShapeClassTag::Small);
        assert_eq!((small.op_a, small.op_b, small.elem_bits), (b'N', b'N', 32));
        assert_eq!((small.mr as usize, small.nr as usize), (MR, NR_VECS * 4));
        assert_eq!(small.isa, Some(shalom_simd::base_isa()));
        assert_eq!(
            route(Op::NoTrans, Op::NoTrans, 64, 50176, 64).class,
            ShapeClassTag::Irregular
        );
        assert_eq!(route(Op::Trans, Op::Trans, 64, 64, 64).op_b, b'T');
    }
}
