//! Aggregate folds: each lane carries counters and per-class latency
//! histograms that its owner thread feeds as its spans close, before
//! the span is appended. The folds therefore keep counting after the
//! lane's buffer fills, and [`crate::snapshot`] sums them across lanes
//! into one [`CounterTotals`].
//!
//! shalom-analysis: deny(panic)

use crate::hist::{bucket_of, Histogram, HIST_BUCKETS};
use crate::record::{PathTag, PlanTag, ShapeClassTag};
use crate::{src, Phase, SpanRecord};
use std::sync::atomic::{AtomicU64, Ordering};

// A fold is one flat array of cells: the scalar counters, then calls by
// class, plan and path, then the per-class latency histograms.
const CALLS: usize = 0;
const PACK_NS: usize = 1;
const TOTAL_NS: usize = 2;
const WORKSPACE_PEAK: usize = 3;
const FORK_JOINS: usize = 4;
const BATCH_CALLS: usize = 5;
const BATCH_ITEMS: usize = 6;
const DISPATCHES: usize = 7;
const DISPATCH_NS: usize = 8;
const PLAN_HITS: usize = 9;
const PLAN_MISSES: usize = 10;
const PLAN_EVICTIONS: usize = 11;
const BY_CLASS: usize = 12;
const BY_PLAN: usize = BY_CLASS + ShapeClassTag::ALL.len();
const BY_PATH: usize = BY_PLAN + PlanTag::ALL.len();
const HIST: usize = BY_PATH + PathTag::ALL.len();
const CELLS: usize = HIST + ShapeClassTag::ALL.len() * HIST_BUCKETS;

/// One lane's fold. Written only by the lane's owner; read by snapshots.
pub(crate) struct Fold([AtomicU64; CELLS]);

impl Fold {
    pub(crate) fn new() -> Fold {
        Fold(std::array::from_fn(|_| AtomicU64::new(0)))
    }

    // ORDERING(SHALOM-O-TRACE-FOLD): owner-only Relaxed add; snapshots sum the
    // folds racily by design and infer no cross-counter consistency.
    fn add(&self, cell: usize, v: u64) {
        if let Some(c) = self.0.get(cell) {
            c.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Folds one closing span: routed spans are calls (class, plan,
    /// path, latency histogram); `Parallel`, `Batch`, `Dispatch` and
    /// `PlanLookup` spans feed their own counters.
    // ALLOC-FREE
    pub(crate) fn observe(&self, rec: &SpanRecord) {
        let dur = rec.duration_ns();
        if rec.route.is_set() {
            let r = &rec.route;
            self.add(CALLS, 1);
            self.add(BY_CLASS + r.class.index(), 1);
            self.add(BY_PLAN + r.plan.index(), 1);
            self.add(BY_PATH + r.path.index(), 1);
            self.add(TOTAL_NS, dur);
            self.add(HIST + r.class.index() * HIST_BUCKETS + bucket_of(dur), 1);
            if let Some(c) = self.0.get(WORKSPACE_PEAK) {
                // ORDERING(SHALOM-O-TRACE-FOLD): owner-only Relaxed high-water mark.
                c.fetch_max(r.workspace_bytes, Ordering::Relaxed);
            }
        }
        match rec.phase() {
            Phase::Serial => self.add(PACK_NS, rec.extra),
            Phase::Parallel => self.add(FORK_JOINS, 1),
            Phase::Batch if rec.aux > 0 => {
                self.add(BATCH_CALLS, 1);
                self.add(BATCH_ITEMS, rec.aux);
            }
            Phase::Dispatch => {
                self.add(DISPATCHES, 1);
                self.add(DISPATCH_NS, dur);
            }
            Phase::PlanLookup => {
                match rec.src {
                    src::CACHED | src::PROFILE => self.add(PLAN_HITS, 1),
                    src::COMPUTED => self.add(PLAN_MISSES, 1),
                    _ => {}
                }
                self.add(PLAN_EVICTIONS, rec.extra);
            }
            _ => {}
        }
    }

    /// Adds this fold into `totals` and `hists`.
    pub(crate) fn add_to(&self, t: &mut CounterTotals, hists: &mut [Histogram; 3]) {
        // ORDERING(SHALOM-O-TRACE-FOLD): Relaxed reads for a racy snapshot sum.
        let v: Vec<u64> = self.0.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let at = |i: usize| v.get(i).copied().unwrap_or(0);
        let sum_into = |dst: &mut [u64], from: usize| {
            for (i, d) in dst.iter_mut().enumerate() {
                *d += at(from + i);
            }
        };
        t.calls += at(CALLS);
        t.pack_ns += at(PACK_NS);
        t.total_ns += at(TOTAL_NS);
        t.workspace_peak_bytes = t.workspace_peak_bytes.max(at(WORKSPACE_PEAK));
        t.fork_joins += at(FORK_JOINS);
        t.batch_calls += at(BATCH_CALLS);
        t.batch_items += at(BATCH_ITEMS);
        t.dispatches += at(DISPATCHES);
        t.dispatch_ns += at(DISPATCH_NS);
        t.plan_hits += at(PLAN_HITS);
        t.plan_misses += at(PLAN_MISSES);
        t.plan_evictions += at(PLAN_EVICTIONS);
        sum_into(&mut t.by_class, BY_CLASS);
        sum_into(&mut t.by_plan, BY_PLAN);
        sum_into(&mut t.by_path, BY_PATH);
        for (c, h) in hists.iter_mut().enumerate() {
            sum_into(&mut h.buckets, HIST + c * HIST_BUCKETS);
        }
    }

    /// Zeroes every cell; valid only under the quiescence `reset` needs.
    pub(crate) fn clear(&self) {
        for c in &self.0 {
            // ORDERING(SHALOM-O-TRACE-RESET): Relaxed wipe under quiescence.
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// Summed folds of every lane at one point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterTotals {
    /// Routed spans: every serial dispatch (worker and batch-item ones
    /// included) plus every parallel parent.
    pub calls: u64,
    /// Calls by [`ShapeClassTag::index`].
    pub by_class: [u64; 3],
    /// Calls by [`PlanTag::index`].
    pub by_plan: [u64; 4],
    /// Calls by [`PathTag::index`].
    pub by_path: [u64; 4],
    /// Sequential-pack nanoseconds inside serial dispatches.
    pub pack_ns: u64,
    /// Wall nanoseconds of all calls.
    pub total_ns: u64,
    /// Parallel parents (§6 fork-join scopes); their dispatch and join
    /// costs are the `Dispatch` and `Barrier` spans.
    pub fork_joins: u64,
    /// Non-empty `gemm_batch` calls.
    pub batch_calls: u64,
    /// Problems inside those batches.
    pub batch_items: u64,
    /// High-water mark of per-thread workspace bytes.
    pub workspace_peak_bytes: u64,
    /// Fork-join runtime dispatches (publish + wake, or a spawn loop).
    pub dispatches: u64,
    /// Nanoseconds spent dispatching.
    pub dispatch_ns: u64,
    /// Plan lookups served from the cache (computed or profile entries).
    pub plan_hits: u64,
    /// Plan lookups that computed and inserted a fresh plan.
    pub plan_misses: u64,
    /// Plan-cache entries evicted to make room for lookups' inserts.
    pub plan_evictions: u64,
    /// Spans the lanes hold.
    pub spans_recorded: u64,
    /// Spans lost to full lanes or laneless threads.
    pub spans_dropped: u64,
}

impl CounterTotals {
    /// JSON object with named keys per class/plan/path.
    pub fn to_json(&self) -> String {
        fn named(names: impl Iterator<Item = &'static str>, vals: &[u64]) -> String {
            names
                .zip(vals)
                .map(|(n, v)| format!("\"{n}\":{v}"))
                .collect::<Vec<_>>()
                .join(",")
        }
        format!(
            concat!(
                "{{\"calls\":{},\"by_class\":{{{}}},\"by_plan\":{{{}}},",
                "\"by_path\":{{{}}},\"pack_ns\":{},\"total_ns\":{},",
                "\"fork_joins\":{},",
                "\"batch_calls\":{},\"batch_items\":{},",
                "\"workspace_peak_bytes\":{},",
                "\"dispatches\":{},\"dispatch_ns\":{},",
                "\"plan_hits\":{},\"plan_misses\":{},\"plan_evictions\":{},",
                "\"spans_recorded\":{},\"spans_dropped\":{}}}"
            ),
            self.calls,
            named(
                ShapeClassTag::ALL.iter().map(|c| c.as_str()),
                &self.by_class
            ),
            named(PlanTag::ALL.iter().map(|p| p.as_str()), &self.by_plan),
            named(PathTag::ALL.iter().map(|p| p.as_str()), &self.by_path),
            self.pack_ns,
            self.total_ns,
            self.fork_joins,
            self.batch_calls,
            self.batch_items,
            self.workspace_peak_bytes,
            self.dispatches,
            self.dispatch_ns,
            self.plan_hits,
            self.plan_misses,
            self.plan_evictions,
            self.spans_recorded,
            self.spans_dropped,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Route;

    fn totals(fold: &Fold) -> CounterTotals {
        let mut t = CounterTotals::default();
        let mut h = [Histogram::default(); 3];
        fold.add_to(&mut t, &mut h);
        t
    }

    fn span(phase: Phase, dur: u64, aux: u64, extra: u64, src: u8) -> SpanRecord {
        SpanRecord {
            t0_ns: 1,
            t1_ns: 1 + dur,
            aux,
            extra,
            phase: phase as u8,
            src,
            ..SpanRecord::default()
        }
    }

    #[test]
    fn observe_sums_across_threads() {
        let _l = crate::tests::state_lock();
        crate::enable();
        crate::reset();
        let threads = 8;
        let per = 100;
        let route = Route {
            isa: Some(shalom_simd::Isa::Sse128),
            class: ShapeClassTag::Irregular,
            plan: PlanTag::Lookahead,
            workspace_bytes: 512,
            ..Route::default()
        };
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(move || {
                    let item = crate::span_start(Phase::BatchItem, 0);
                    for _ in 0..per {
                        let tok = crate::span_start(Phase::Serial, 0);
                        crate::span_end_route(tok, src::CACHED, route);
                    }
                    crate::span_end(item);
                });
            }
        });
        crate::disable();
        let t = crate::snapshot().totals;
        let n = (threads * per) as u64;
        assert_eq!(t.calls, n);
        assert_eq!(t.by_class[ShapeClassTag::Irregular.index()], n);
        assert_eq!(t.by_plan[PlanTag::Lookahead.index()], n);
        assert_eq!(t.by_path[PathTag::Batch.index()], n);
        assert_eq!(t.workspace_peak_bytes, 512);
        crate::reset();
    }

    #[test]
    fn fork_join_and_batch_counters() {
        let fold = Fold::new();
        fold.observe(&span(Phase::Parallel, 500, 0, 0, 0));
        fold.observe(&span(Phase::Parallel, 500, 0, 0, 0));
        fold.observe(&span(Phase::Batch, 9, 32, 0, 0));
        fold.observe(&span(Phase::Batch, 9, 8, 0, 0));
        fold.observe(&span(Phase::Batch, 9, 0, 0, 0)); // empty batch
        fold.observe(&span(Phase::Dispatch, 40, 2, 0, 0));
        fold.observe(&span(Phase::Dispatch, 2, 2, 0, 0));
        let t = totals(&fold);
        assert_eq!(t.fork_joins, 2);
        assert_eq!(t.batch_calls, 2);
        assert_eq!(t.batch_items, 40);
        assert_eq!(t.dispatches, 2);
        assert_eq!(t.dispatch_ns, 42);
        fold.clear();
        assert_eq!(totals(&fold), CounterTotals::default());
    }

    #[test]
    fn plan_cache_counters() {
        let fold = Fold::new();
        fold.observe(&span(Phase::PlanLookup, 5, 0, 0, src::COMPUTED));
        fold.observe(&span(Phase::PlanLookup, 5, 0, 5, src::CACHED));
        fold.observe(&span(Phase::PlanLookup, 5, 0, 0, src::PROFILE));
        fold.observe(&span(Phase::PlanLookup, 5, 0, 0, src::NONE)); // bypass
        let t = totals(&fold);
        assert_eq!(t.plan_hits, 2);
        assert_eq!(t.plan_misses, 1);
        assert_eq!(t.plan_evictions, 5);
        let j = t.to_json();
        for needle in [
            "\"plan_hits\":2",
            "\"plan_misses\":1",
            "\"plan_evictions\":5",
        ] {
            assert!(j.contains(needle), "{j} missing {needle}");
        }
        fold.clear();
        assert_eq!(totals(&fold).plan_hits, 0);
    }

    #[test]
    fn trace_span_counters() {
        let _l = crate::tests::state_lock();
        crate::enable();
        crate::reset();
        for _ in 0..3 {
            crate::span_end(crate::span_start(Phase::Compute, 0));
        }
        crate::disable();
        let t = crate::snapshot().totals;
        assert_eq!((t.spans_recorded, t.spans_dropped), (3, 0));
        let j = t.to_json();
        for needle in ["\"spans_recorded\":3", "\"spans_dropped\":0"] {
            assert!(j.contains(needle), "{j} missing {needle}");
        }
        crate::reset();
    }

    #[test]
    fn totals_json_names_every_bucket() {
        let fold = Fold::new();
        let mut rec = span(Phase::Serial, 10, 0, 0, 0);
        rec.route.isa = Some(shalom_simd::Isa::Scalar);
        fold.observe(&rec);
        let j = totals(&fold).to_json();
        for needle in [
            "\"calls\":1",
            "\"small\":1",
            "\"irregular\":0",
            "\"no-pack\":1",
            "\"fused-lookahead\":0",
            "\"serial\":1",
            "\"workspace_peak_bytes\":0",
        ] {
            assert!(j.contains(needle), "{j} missing {needle}");
        }
    }
}
