//! # shalom-trace
//!
//! The observability layer of the LibShalom dispatch pipeline. Spans are
//! its only event: one [`SpanRecord`] per phase instance (plan lookup,
//! pack-A, pack-B, per-block compute, queue/barrier waits, worker parks,
//! batch items, service enqueue/linger/flush), bucketed into per-thread
//! lanes so a pooled GEMM call can be replayed worker by worker.
//!
//! * **Per-call records.** The root `Serial`/`Parallel` span of a GEMM
//!   carries the [`Route`] the call ran: ISA, tile, B plan, edge
//!   handling, thread grid, workspace. [`TraceSnapshot::decisions`]
//!   reads one [`DecisionRecord`] per such span off the lanes.
//! * **Aggregates.** Calls, plan-cache hits/misses/evictions, pool
//!   dispatch, fork-join, batch counts and the per-class latency
//!   histograms are folds each lane's owner feeds as its spans close
//!   ([`CounterTotals`]), so they stay exact after a lane fills up.
//! * **Reports.** The paper's Fig 13 breakdown and §6 imbalance analysis
//!   come from [`TraceSnapshot::report`]; `chrome://tracing` / Perfetto
//!   get the raw timeline via [`chrome_trace_json`].
//!
//! ## Cost model
//!
//! Capture is **off by default at runtime** and the core crate compiles
//! every span site out unless its `trace` cargo feature is on. With the
//! feature on but capture disabled, each site is one relaxed atomic load
//! and a branch ([`enabled`]). When enabled, a span costs two clock reads
//! (`cntvct_el0` / `rdtsc` via [`now_ns`]), a handful of relaxed adds
//! into the lane's fold and one 64-byte write into a pre-allocated
//! per-thread buffer: no locks, no allocation, no syscalls. Buffers are
//! fixed capacity ([`SPANS_PER_LANE`]); overflow *drops* spans and counts
//! the drops rather than growing or blocking.
//!
//! ## Concurrency protocol
//!
//! Each OS thread claims one lane (index from a monotonic counter) and
//! is that lane's only writer, ever. The writer publishes a record by
//! filling `buf[len]` and then storing `len + 1` with `Release`;
//! [`snapshot`] reads `len` with `Acquire` and then the first `len`
//! records — the classic single-producer publish. Threads beyond
//! [`MAX_LANES`] record nothing and count their spans as dropped.
//!
//! ## Usage
//!
//! ```
//! use shalom_trace::{Phase, Route};
//! shalom_trace::enable();
//! shalom_trace::reset();
//! let tok = shalom_trace::span_start(Phase::Serial, shalom_trace::shape_key(64, 64, 64));
//! let route = Route { isa: Some(shalom_simd::Isa::Sse128), mr: 7, nr: 12, ..Route::default() };
//! shalom_trace::span_end_route(tok, shalom_trace::src::CACHED, route);
//! shalom_trace::disable();
//! let snap = shalom_trace::snapshot();
//! assert_eq!(snap.totals.calls, 1);
//! assert_eq!((snap.decisions()[0].m, snap.decisions()[0].route.mr), (64, 7));
//! println!("{}", snap.to_json());
//! ```
//!
//! shalom-analysis: deny(panic)

/// Declares a `Copy` tag enum whose first variant is the default, with
/// its stable labels (`as_str`), `ALL` in discriminant order and a dense
/// `index`.
macro_rules! tag_enum {
    ($(#[$meta:meta])* $name:ident {
        $($(#[$vmeta:meta])* $var:ident => $label:literal,)+
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $name {
            $($(#[$vmeta])* $var,)+
        }

        impl $name {
            /// Every variant, in `index` order.
            pub const ALL: [$name; [$($label),+].len()] = [$($name::$var),+];

            /// Stable lowercase label used in reports and exports.
            pub fn as_str(self) -> &'static str {
                match self {
                    $($name::$var => $label,)+
                }
            }

            /// Dense index into `ALL`-shaped arrays.
            #[inline]
            pub fn index(self) -> usize {
                self as usize
            }
        }

        impl Default for $name {
            fn default() -> Self {
                let [first, ..] = $name::ALL;
                first
            }
        }
    };
}

pub mod chrome;
mod clock;
mod counters;
mod hist;
pub mod json;
pub mod perf;
mod record;
mod snapshot;

pub use chrome::chrome_trace_json;
pub use clock::now_ns;
pub use counters::CounterTotals;
pub use hist::{Histogram, HIST_BUCKETS};
pub use perf::PerfSample;
pub use record::{DecisionRecord, EdgeTag, PathTag, PlanTag, Route, ShapeClassTag};
pub use snapshot::{LaneSnapshot, LaneStat, PhaseStat, TraceReport, TraceSnapshot};

use counters::Fold;
use std::cell::Cell;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Maximum number of traced threads; later threads drop their spans.
pub const MAX_LANES: usize = 32;

/// Fixed capacity of one per-thread lane (64 B per record).
pub const SPANS_PER_LANE: usize = 4096;

tag_enum! {
    /// Phase of one span. The taxonomy covers every instrumented site in
    /// the core and service crates; `as_str` names are the lane labels in
    /// exports.
    #[repr(u8)]
    Phase {
        /// One serial GEMM dispatch (`gemm_serial`), end to end.
        Serial => "serial",
        /// Plan-cache lookup (hit, miss + recompute, or profile override).
        PlanLookup => "plan_lookup",
        /// Sequential packing of the A operand.
        PackA => "pack_a",
        /// Sequential packing of a B panel.
        PackB => "pack_b",
        /// One macro-block compute sweep (packed-panel × A-block kernels).
        Compute => "compute",
        /// One pool task executed by a worker (a §6 tile or a batch chunk).
        Task => "task",
        /// One §6 parallel GEMM call, end to end (caller's view).
        Parallel => "parallel",
        /// One `gemm_batch` call, end to end.
        Batch => "batch",
        /// One member problem inside a batch.
        BatchItem => "batch_item",
        /// Pool publish + wake: from call-slot claim to workers notified.
        Dispatch => "dispatch",
        /// Caller waiting for the pool's single call slot to free up.
        QueueWait => "queue_wait",
        /// Caller waiting at the join barrier for workers to finish.
        Barrier => "barrier",
        /// Worker parked on the condvar waiting for work.
        Park => "park",
        /// One service request admitted into the batching queue (submit-side
        /// lock + bucket push; `aux` is the request's shape key).
        Enqueue => "enqueue",
        /// Time a flushed bucket's oldest request sat waiting for batch
        /// formation (recorded retroactively by the scheduler via
        /// [`span_record`]; `aux` is the batch occupancy).
        Linger => "linger",
        /// One scheduler flush: bucket extraction through `gemm_batch`
        /// completion (`aux` is the batch occupancy).
        BatchFlush => "batch_flush",
    }
}

impl Phase {
    /// Number of phases (`ALL.len()`).
    pub const COUNT: usize = Phase::ALL.len();

    /// This phase's bit in a set of open phases.
    #[inline]
    pub fn bit(self) -> u32 {
        1 << (self as u32)
    }

    /// Inverse of the `repr(u8)` discriminant; unknown codes map to
    /// `Serial` rather than failing (records are never trusted input).
    pub fn from_code(code: u8) -> Phase {
        Phase::ALL
            .get(code as usize)
            .copied()
            .unwrap_or(Phase::Serial)
    }

    /// Whether this phase is idle waiting (counted against utilization)
    /// rather than work. A bucket's linger is queueing latency, not
    /// work, so it counts as waiting too.
    pub fn is_wait(self) -> bool {
        matches!(
            self,
            Phase::QueueWait | Phase::Barrier | Phase::Park | Phase::Linger
        )
    }

    /// Whether `aux` on spans of this phase is a [`shape_key`].
    pub fn carries_shape(self) -> bool {
        matches!(
            self,
            Phase::Serial
                | Phase::PlanLookup
                | Phase::Compute
                | Phase::Parallel
                | Phase::BatchItem
                | Phase::Enqueue
        )
    }
}

/// Plan-source codes carried in [`SpanRecord::src`]. On a root span
/// they say where the call's plan came from; on a `PlanLookup` span they
/// are the lookup's outcome (`NONE` when the cache was bypassed).
pub mod src {
    /// No plan source recorded (most phases; a bypassed cache).
    pub const NONE: u8 = 0;
    /// Plan computed fresh on this call.
    pub const COMPUTED: u8 = 1;
    /// Plan served from the warm cache.
    pub const CACHED: u8 = 2;
    /// Plan pinned by an installed autotune profile.
    pub const PROFILE: u8 = 3;

    /// Stable name for a source code.
    pub fn as_str(code: u8) -> &'static str {
        match code {
            COMPUTED => "computed",
            CACHED => "cached",
            PROFILE => "profile",
            _ => "none",
        }
    }
}

/// Packs a GEMM shape into one `u64` aux word: 21 bits per dimension
/// (values clamp at `2^21 - 1 = 2097151`, far above the paper's sizes).
#[inline]
pub fn shape_key(m: usize, n: usize, k: usize) -> u64 {
    const MASK: u64 = (1 << 21) - 1;
    let clamp = |v: usize| (v as u64).min(MASK);
    (clamp(m) << 42) | (clamp(n) << 21) | clamp(k)
}

/// Inverse of [`shape_key`] (exact for unclamped dimensions).
pub fn shape_from_key(key: u64) -> (usize, usize, usize) {
    const MASK: u64 = (1 << 21) - 1;
    (
        ((key >> 42) & MASK) as usize,
        ((key >> 21) & MASK) as usize,
        (key & MASK) as usize,
    )
}

/// One closed span: 64 bytes, plain data, safe to bulk-copy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanRecord {
    /// Start, [`now_ns`] units (never 0 for real spans).
    pub t0_ns: u64,
    /// End, same clock; `>= t0_ns`.
    pub t1_ns: u64,
    /// Phase-dependent payload: a [`shape_key`] where
    /// [`Phase::carries_shape`], a pool task index for `Task`, an item
    /// count for `Batch`, 0 otherwise.
    pub aux: u64,
    /// Second phase-dependent payload: sequential-pack nanoseconds
    /// inside a `Serial` span (the tracer sums its `PackA`/`PackB`
    /// children), plan-cache evictions for `PlanLookup`, 0 otherwise.
    pub extra: u64,
    /// The route a root `Serial`/`Parallel` span ran; unset elsewhere.
    pub route: Route,
    /// [`Phase`] discriminant (`Phase::from_code` decodes).
    pub phase: u8,
    /// [`src`] plan-source code; `src::NONE` for most phases.
    pub src: u8,
    /// Nesting depth at start on the recording thread (0 = top level).
    pub depth: u8,
}

impl SpanRecord {
    /// Span length in nanoseconds.
    #[inline]
    pub fn duration_ns(&self) -> u64 {
        self.t1_ns.saturating_sub(self.t0_ns)
    }

    /// Decoded phase.
    #[inline]
    pub fn phase(&self) -> Phase {
        Phase::from_code(self.phase)
    }
}

/// One per-thread span buffer plus its aggregate fold. Single-writer:
/// only the owning thread touches `buf`, stores `len` and feeds `fold`;
/// readers go through `snapshot`.
struct Lane {
    len: AtomicUsize,
    dropped: AtomicU64,
    fold: Fold,
    buf: UnsafeCell<Box<[SpanRecord]>>,
}

// SAFETY: `buf` is written only by the lane's unique owner thread
// (lane indices come from a monotonic counter and are cached in TLS,
// never reused), and only at index `len`; every read in `snapshot`
// covers indices `< len` loaded with `Acquire`, which pairs with the
// owner's `Release` store after the write. `len`/`dropped`/`fold` are
// atomics.
unsafe impl Sync for Lane {}

static LANES: OnceLock<Vec<Lane>> = OnceLock::new();

fn lanes() -> &'static [Lane] {
    LANES.get_or_init(|| {
        (0..MAX_LANES)
            .map(|_| Lane {
                len: AtomicUsize::new(0),
                dropped: AtomicU64::new(0),
                fold: Fold::new(),
                buf: UnsafeCell::new(
                    vec![SpanRecord::default(); SPANS_PER_LANE].into_boxed_slice(),
                ),
            })
            .collect()
    })
}

/// Bit 0: user enable. Bits 1..: pause count (scaled by 2). `state == 1`
/// is the only value on which capture happens, so the disabled check is
/// one load and one compare.
static STATE: AtomicU32 = AtomicU32::new(0);

/// Monotonic lane allocator; never reset, so a lane has one owner for
/// the process lifetime.
static NEXT_LANE: AtomicUsize = AtomicUsize::new(0);

/// Spans dropped by threads that arrived after all lanes were claimed.
static UNASSIGNED_DROPPED: AtomicU64 = AtomicU64::new(0);

const LANE_UNASSIGNED: usize = usize::MAX;
const LANE_NONE: usize = usize::MAX - 1;

thread_local! {
    /// This thread's lane index; `LANE_UNASSIGNED` until first span,
    /// `LANE_NONE` when the process ran out of lanes.
    static LANE_IDX: Cell<usize> = const { Cell::new(LANE_UNASSIGNED) };
    /// Current span nesting depth on this thread.
    static DEPTH: Cell<u8> = const { Cell::new(0) };
    /// [`Phase::bit`] set of the spans open on this thread.
    static OPEN: Cell<u32> = const { Cell::new(0) };
    /// Sequential-pack nanoseconds closed since the open `Serial` span
    /// began; drained into that span's `extra` when it closes.
    static PACK_NS: Cell<u64> = const { Cell::new(0) };
}

/// Turn capture on. The lane arena (8 MB) and the span clock are
/// initialized here, outside any measured region, so the record path
/// never allocates or calibrates. Spans and folds keep their contents;
/// call [`reset`] for a clean slate.
// ORDERING(SHALOM-O-TRACE-STATE): Relaxed bit set — the flag only gates
// whether spans are captured; span data is published via lane `len`.
pub fn enable() {
    let _ = now_ns();
    let _ = lanes();
    STATE.fetch_or(1, Ordering::Relaxed);
}

/// Turn capture off. Recorded spans stay readable via [`snapshot`].
// ORDERING(SHALOM-O-TRACE-STATE): Relaxed bit clear; see `enable`.
pub fn disable() {
    STATE.fetch_and(!1, Ordering::Relaxed);
}

/// Whether capture is active (enabled and not paused): one relaxed load
/// and a compare — the entire disabled-path cost of a span site.
#[inline]
// ORDERING(SHALOM-O-TRACE-STATE): one Relaxed load on the hot path — a
// stale view only records or skips one extra span.
pub fn enabled() -> bool {
    STATE.load(Ordering::Relaxed) == 1
}

/// Suspends capture while the guard lives, without touching the user
/// enable bit. The autotuner holds one so its probe GEMMs stay out of
/// the trace; guards nest freely.
// ORDERING(SHALOM-O-TRACE-STATE): Relaxed nesting count; same-thread RAII
// pairs the add/sub, cross-thread skew only mistimes capture of a span.
pub fn pause_guard() -> PauseGuard {
    STATE.fetch_add(2, Ordering::Relaxed);
    PauseGuard { _priv: () }
}

/// RAII token from [`pause_guard`].
pub struct PauseGuard {
    _priv: (),
}

impl Drop for PauseGuard {
    fn drop(&mut self) {
        // ORDERING(SHALOM-O-TRACE-STATE): pairs with `pause_guard`'s add.
        STATE.fetch_sub(2, Ordering::Relaxed);
    }
}

/// Empties every lane and zeroes the folds and drop counters. Lane
/// *ownership* is kept (threads keep their lanes). Callers must be
/// quiescent — no GEMM in flight; a concurrent writer could republish
/// over the wipe.
pub fn reset() {
    if let Some(ls) = LANES.get() {
        for lane in ls {
            // ORDERING(SHALOM-O-TRACE-RESET): Relaxed wipe valid only under
            // external quiescence; no concurrent writer exists by contract.
            lane.len.store(0, Ordering::Relaxed);
            // ORDERING(SHALOM-O-TRACE-RESET): same quiescence argument.
            lane.dropped.store(0, Ordering::Relaxed);
            lane.fold.clear();
        }
    }
    // ORDERING(SHALOM-O-TRACE-RESET): same quiescence argument.
    UNASSIGNED_DROPPED.store(0, Ordering::Relaxed);
}

/// This thread's lane index, claiming one on first use.
#[inline]
fn lane_index() -> usize {
    LANE_IDX.with(|c| {
        let v = c.get();
        if v != LANE_UNASSIGNED {
            return v;
        }
        // ORDERING(SHALOM-O-TRACE-LANE-IDX): Relaxed monotonic tick; the
        // index is cached in TLS and no data hangs off the counter itself.
        let id = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
        let v = if id < MAX_LANES { id } else { LANE_NONE };
        c.set(v);
        v
    })
}

/// Open-span token from [`span_start`]; close it with one of the
/// `span_end*` functions. `t0 == 0` marks the inert token (capture was
/// off).
#[derive(Debug, Clone, Copy)]
pub struct SpanToken {
    t0: u64,
    aux: u64,
    /// The open-phase set before this span began (its enclosing phases).
    outer: u32,
    phase: u8,
    depth: u8,
}

impl SpanToken {
    /// Token that records nothing when closed; what [`span_start`]
    /// returns while capture is off, and a useful initializer for
    /// lazily-started spans.
    #[inline]
    pub const fn inert() -> SpanToken {
        SpanToken {
            t0: 0,
            aux: 0,
            outer: 0,
            phase: 0,
            depth: 0,
        }
    }

    /// Whether closing this token is a no-op.
    #[inline]
    pub fn is_inert(&self) -> bool {
        self.t0 == 0
    }
}

/// Starts a span of `phase` with payload `aux` if capture is enabled;
/// returns the inert token otherwise. The token is `Copy` and must be
/// closed on the same thread it was opened on (depths are per-thread).
#[inline]
pub fn span_start(phase: Phase, aux: u64) -> SpanToken {
    if !enabled() {
        return SpanToken::inert();
    }
    begin_span(phase, aux)
}

// ALLOC-FREE
#[inline(never)]
fn begin_span(phase: Phase, aux: u64) -> SpanToken {
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v.saturating_add(1));
        v
    });
    let outer = OPEN.with(|o| o.replace(o.get() | phase.bit()));
    if phase == Phase::Serial {
        PACK_NS.with(|p| p.set(0));
    }
    SpanToken {
        t0: now_ns().max(1),
        aux,
        outer,
        phase: phase as u8,
        depth,
    }
}

/// Closes a span. Records even if capture was disabled after the start,
/// so enable/disable races never leave half-open nesting.
#[inline]
pub fn span_end(tok: SpanToken) {
    if tok.t0 != 0 {
        finish_span(tok, src::NONE, 0, Route::default());
    }
}

/// Closes a span, stamping a [`src`] plan-source code and its
/// [`SpanRecord::extra`] payload (a plan lookup's evictions) on it.
#[inline]
pub fn span_end_src(tok: SpanToken, src_code: u8, extra: u64) {
    if tok.t0 != 0 {
        finish_span(tok, src_code, extra, Route::default());
    }
}

/// Closes a root `Serial`/`Parallel` span with the [`Route`] the call
/// ran. The tracer fills in the route's [`PathTag`] from the enclosing
/// spans, and a `Serial` span's `extra` from its pack children.
#[inline]
pub fn span_end_route(tok: SpanToken, src_code: u8, route: Route) {
    if tok.t0 != 0 {
        finish_span(tok, src_code, 0, route);
    }
}

// ALLOC-FREE
#[inline(never)]
fn finish_span(tok: SpanToken, src_code: u8, extra: u64, mut route: Route) {
    let t1 = now_ns();
    DEPTH.with(|d| d.set(tok.depth));
    OPEN.with(|o| o.set(tok.outer));
    let phase = Phase::from_code(tok.phase);
    let t1 = t1.max(tok.t0);
    let extra = match phase {
        Phase::PackA | Phase::PackB => {
            PACK_NS.with(|p| p.set(p.get() + (t1 - tok.t0)));
            extra
        }
        Phase::Serial => PACK_NS.with(|p| p.replace(0)),
        _ => extra,
    };
    if route.is_set() {
        route.path = PathTag::of(phase, tok.outer);
    }
    push_record(SpanRecord {
        t0_ns: tok.t0,
        t1_ns: t1,
        aux: tok.aux,
        extra,
        route,
        phase: tok.phase,
        src: src_code,
        depth: tok.depth,
    });
}

/// Records a span whose endpoints the caller already measured (both in
/// [`now_ns`] units). The token API cannot express phases that start on
/// one thread and end on another — a bucket's linger starts at the
/// oldest enqueue on a submitter thread and ends when the scheduler
/// flushes it — so the scheduler stamps those retroactively here. The
/// record lands in the *calling* thread's lane at its current nesting
/// depth; a `t0_ns` of 0 (the inert marker) is clamped to 1.
#[inline]
pub fn span_record(phase: Phase, t0_ns: u64, t1_ns: u64, aux: u64) {
    if !enabled() {
        return;
    }
    record_closed(phase, t0_ns, t1_ns, aux);
}

// ALLOC-FREE
#[inline(never)]
fn record_closed(phase: Phase, t0_ns: u64, t1_ns: u64, aux: u64) {
    let t0 = t0_ns.max(1);
    push_record(SpanRecord {
        t0_ns: t0,
        t1_ns: t1_ns.max(t0),
        aux,
        phase: phase as u8,
        depth: DEPTH.with(|d| d.get()),
        ..SpanRecord::default()
    });
}

/// Folds the record into this thread's lane, then appends it if the
/// lane has room.
// ALLOC-FREE
#[inline]
fn push_record(rec: SpanRecord) {
    let Some(lane) = lanes().get(lane_index()) else {
        // ORDERING(SHALOM-O-TRACE-DROP): Relaxed loss counter, stats only.
        UNASSIGNED_DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    };
    lane.fold.observe(&rec);
    // ORDERING(SHALOM-O-TRACE-PUBLISH): owner-only Relaxed read of its own
    // lane length; the Release store below publishes the record to readers.
    let len = lane.len.load(Ordering::Relaxed);
    if len >= SPANS_PER_LANE {
        // ORDERING(SHALOM-O-TRACE-DROP): Relaxed loss counter, stats only.
        lane.dropped.fetch_add(1, Ordering::Relaxed);
        return;
    }
    // SAFETY: this thread is the lane's unique owner (index from the
    // monotonic claim, cached in TLS), `len < SPANS_PER_LANE` was just
    // checked, and no reader touches index `len` until the Release
    // store below makes it visible.
    unsafe {
        (*lane.buf.get()).as_mut_ptr().add(len).write(rec);
    }
    // ORDERING(SHALOM-O-TRACE-PUBLISH): Release publish of the filled slot;
    // pairs with the Acquire length load in `snapshot`.
    lane.len.store(len + 1, Ordering::Release);
}

/// Copies every non-empty lane and the summed folds out into an owned
/// [`TraceSnapshot`]. Safe to call while writers are active: each lane
/// is read up to its `Acquire`-loaded length, so a span recorded
/// concurrently is either fully visible or not included.
pub fn snapshot() -> TraceSnapshot {
    let mut snap = TraceSnapshot {
        // ORDERING(SHALOM-O-TRACE-DROP): Relaxed loss counter, stats only.
        dropped_unassigned: UNASSIGNED_DROPPED.load(Ordering::Relaxed),
        perf: perf::sample(),
        ..TraceSnapshot::default()
    };
    if let Some(ls) = LANES.get() {
        for (i, lane) in ls.iter().enumerate() {
            lane.fold.add_to(&mut snap.totals, &mut snap.histograms);
            // ORDERING(SHALOM-O-TRACE-PUBLISH): Acquire pairs with the owner's
            // Release length store; records below `len` are fully written.
            let len = lane.len.load(Ordering::Acquire).min(SPANS_PER_LANE);
            // ORDERING(SHALOM-O-TRACE-DROP): Relaxed loss counter, stats only.
            let dropped = lane.dropped.load(Ordering::Relaxed);
            if len == 0 && dropped == 0 {
                continue;
            }
            // SAFETY: the Acquire load above synchronizes with the owner's
            // Release publish of each slot; indices `0..len` are initialized
            // and never rewritten (the buffer is append-only until `reset`,
            // which requires quiescence).
            let spans = unsafe { std::slice::from_raw_parts((*lane.buf.get()).as_ptr(), len) };
            snap.lanes.push(LaneSnapshot {
                lane: i,
                spans: spans.to_vec(),
                dropped,
            });
        }
    }
    snap.totals.spans_recorded = snap.total_spans() as u64;
    snap.totals.spans_dropped = snap.total_dropped();
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    // Enable/disable state and the lane arena are process-global; tests
    // that toggle them serialize on one lock.
    pub(crate) fn state_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        match LOCK.lock() {
            Ok(g) => g,
            Err(poison) => poison.into_inner(),
        }
    }

    fn routed(class: ShapeClassTag, plan: PlanTag, workspace_bytes: u64) -> Route {
        Route {
            isa: Some(shalom_simd::Isa::Sse128),
            class,
            plan,
            workspace_bytes,
            ..Route::default()
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let _l = state_lock();
        disable();
        reset();
        let tok = span_start(Phase::Serial, shape_key(8, 8, 8));
        assert!(tok.is_inert());
        span_end(tok);
        assert_eq!(snapshot().total_spans(), 0);
    }

    #[test]
    fn enable_disable_pause() {
        let _l = state_lock();
        disable();
        assert!(!enabled());
        enable();
        assert!(enabled());
        {
            let _g1 = pause_guard();
            assert!(!enabled());
            let _g2 = pause_guard();
            assert!(!enabled());
        }
        assert!(enabled());
        disable();
        assert!(!enabled());
        // Pausing while disabled stays disabled after the guard drops.
        {
            let _g = pause_guard();
            assert!(!enabled());
        }
        assert!(!enabled());
    }

    #[test]
    fn records_and_nests() {
        let _l = state_lock();
        enable();
        reset();
        let outer = span_start(Phase::Serial, shape_key(4, 5, 6));
        let inner = span_start(Phase::PackA, 0);
        span_end(inner);
        span_end_src(outer, src::CACHED, 0);
        disable();
        let snap = snapshot();
        assert_eq!(snap.total_spans(), 2);
        let lane = &snap.lanes[0];
        // Buffer order is close order: inner first.
        assert_eq!(lane.spans[0].phase(), Phase::PackA);
        assert_eq!(lane.spans[0].depth, 1);
        assert_eq!(lane.spans[1].phase(), Phase::Serial);
        assert_eq!(lane.spans[1].depth, 0);
        assert_eq!(lane.spans[1].src, src::CACHED);
        assert_eq!(shape_from_key(lane.spans[1].aux), (4, 5, 6));
        assert!(lane.spans[1].t0_ns <= lane.spans[0].t0_ns);
        assert!(lane.spans[1].t1_ns >= lane.spans[0].t1_ns);
        // The serial span's extra is the time of its pack child.
        assert_eq!(lane.spans[1].extra, lane.spans[0].duration_ns());
        reset();
    }

    #[test]
    fn record_flows_to_all_views() {
        let _l = state_lock();
        enable();
        reset();
        let tok = span_start(Phase::Serial, shape_key(64, 50176, 64));
        span_end_route(
            tok,
            src::COMPUTED,
            routed(ShapeClassTag::Irregular, PlanTag::Lookahead, 1 << 16),
        );
        disable();
        let snap = snapshot();
        assert_eq!(snap.totals.calls, 1);
        assert_eq!(snap.totals.by_class[ShapeClassTag::Irregular.index()], 1);
        assert_eq!(snap.totals.workspace_peak_bytes, 1 << 16);
        assert_eq!(snap.histograms[ShapeClassTag::Irregular.index()].count(), 1);
        let recs = snap.decisions();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].n, 50176);
        assert_eq!(recs[0].route.plan, PlanTag::Lookahead);
        reset();
        assert_eq!(snapshot().totals.calls, 0);
        assert!(snapshot().decisions().is_empty());
    }

    #[test]
    fn path_tag_inheritance() {
        let _l = state_lock();
        enable();
        reset();
        let route = routed(ShapeClassTag::Small, PlanTag::NoPack, 0);
        // A serial call at top level, inside a batch item, and inside a
        // pool task; then a parallel parent.
        span_end_route(span_start(Phase::Serial, 0), src::NONE, route);
        let item = span_start(Phase::BatchItem, 0);
        span_end_route(span_start(Phase::Serial, 0), src::NONE, route);
        span_end(item);
        let par = span_start(Phase::Parallel, 0);
        let task = span_start(Phase::Task, 0);
        span_end_route(span_start(Phase::Serial, 0), src::NONE, route);
        span_end(task);
        span_end_route(par, src::NONE, route);
        disable();
        let paths: Vec<PathTag> = snapshot()
            .decisions()
            .iter()
            .map(|r| r.route.path)
            .collect();
        assert_eq!(
            paths,
            [
                PathTag::Serial,
                PathTag::Batch,
                PathTag::ParallelWorker,
                PathTag::Parallel
            ]
        );
        reset();
    }

    #[test]
    fn pack_span_accumulator_drains() {
        let _l = state_lock();
        enable();
        reset();
        // Pack time closed before a serial span begins is not its own.
        span_end(span_start(Phase::PackB, 0));
        let serial = span_start(Phase::Serial, 0);
        span_end(span_start(Phase::PackA, 0));
        span_end(span_start(Phase::PackB, 0));
        span_end(serial);
        disable();
        let snap = snapshot();
        let spans = &snap.lanes[0].spans;
        assert_eq!(spans[3].phase(), Phase::Serial);
        assert_eq!(
            spans[3].extra,
            spans[1].duration_ns() + spans[2].duration_ns()
        );
        reset();
    }

    #[test]
    fn plan_lookup_records() {
        let _l = state_lock();
        enable();
        reset();
        span_end_src(span_start(Phase::PlanLookup, 0), src::COMPUTED, 0);
        span_end_src(span_start(Phase::PlanLookup, 0), src::CACHED, 0);
        span_end_src(span_start(Phase::PlanLookup, 0), src::PROFILE, 3);
        span_end_src(span_start(Phase::PlanLookup, 0), src::NONE, 0);
        disable();
        let t = snapshot().totals;
        assert_eq!(t.plan_hits, 2);
        assert_eq!(t.plan_misses, 1);
        assert_eq!(t.plan_evictions, 3);
        reset();
    }

    #[test]
    fn trace_span_records() {
        let _l = state_lock();
        enable();
        reset();
        for _ in 0..10 {
            span_end(span_start(Phase::Compute, 0));
        }
        disable();
        let snap = snapshot();
        assert_eq!(snap.totals.spans_recorded, 10);
        assert_eq!(snap.totals.spans_dropped, 0);
        assert!(snap.summary().contains("10 spans recorded / 0 dropped"));
        reset();
    }

    #[test]
    fn fork_join_and_batch_records() {
        let _l = state_lock();
        enable();
        reset();
        let route = routed(ShapeClassTag::Small, PlanTag::NoPack, 0);
        span_end_route(span_start(Phase::Parallel, 0), src::NONE, route);
        span_end(span_start(Phase::Batch, 16));
        span_end(span_start(Phase::Dispatch, 4));
        disable();
        let t = snapshot().totals;
        assert_eq!(t.fork_joins, 1);
        assert_eq!(t.batch_calls, 1);
        assert_eq!(t.batch_items, 16);
        assert_eq!(t.dispatches, 1);
        reset();
    }

    #[test]
    fn overflow_drops_and_counts() {
        let _l = state_lock();
        enable();
        reset();
        let extra = 37;
        for _ in 0..SPANS_PER_LANE + extra {
            let tok = span_start(Phase::Dispatch, 0);
            span_end(tok);
        }
        disable();
        let snap = snapshot();
        let lane = snap
            .lanes
            .iter()
            .find(|l| l.spans.len() == SPANS_PER_LANE)
            .expect("full lane");
        assert_eq!(lane.dropped, extra as u64);
        assert_eq!(snap.total_dropped(), extra as u64);
        // The fold saw every span, dropped or not.
        assert_eq!(snap.totals.dispatches, (SPANS_PER_LANE + extra) as u64);
        reset();
        assert_eq!(snapshot().total_spans(), 0);
        assert_eq!(snapshot().total_dropped(), 0);
    }

    #[test]
    fn depth_restores_after_drop() {
        let _l = state_lock();
        enable();
        reset();
        // Fill the lane, then check nesting depth still tracks through
        // dropped spans.
        for _ in 0..SPANS_PER_LANE {
            span_end(span_start(Phase::Compute, 0));
        }
        let outer = span_start(Phase::Serial, 0);
        let inner = span_start(Phase::PackB, 0);
        assert_eq!(inner.depth, 1);
        span_end(inner);
        span_end(outer);
        let after = span_start(Phase::Serial, 0);
        assert_eq!(after.depth, 0);
        assert_eq!(after.outer, 0);
        span_end(after);
        disable();
        reset();
    }

    #[test]
    fn shape_key_round_trips_and_clamps() {
        assert_eq!(shape_from_key(shape_key(1, 2, 3)), (1, 2, 3));
        assert_eq!(shape_from_key(shape_key(64, 50176, 512)), (64, 50176, 512));
        let max = (1usize << 21) - 1;
        assert_eq!(shape_from_key(shape_key(usize::MAX, 0, 0)).0, max);
    }

    #[test]
    fn phase_codes_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_code(p as u8), p);
            assert_eq!(Phase::ALL[p.index()], p);
            assert!(!p.as_str().is_empty());
        }
        assert_eq!(Phase::from_code(200), Phase::Serial);
        assert!(Phase::Park.is_wait() && !Phase::Compute.is_wait());
        assert_eq!(src::as_str(src::PROFILE), "profile");
        assert_eq!(src::as_str(99), "none");
    }

    #[test]
    fn span_record_backdates() {
        let _l = state_lock();
        enable();
        reset();
        let t0 = now_ns();
        let t1 = t0 + 1234;
        span_record(Phase::Linger, t0, t1, 9);
        // Reversed endpoints clamp to a zero-length span, never panic.
        span_record(Phase::BatchFlush, t1, t0, 3);
        disable();
        span_record(Phase::Linger, t0, t1, 9); // off: dropped silently
        let snap = snapshot();
        assert_eq!(snap.total_spans(), 2);
        let lane = &snap.lanes[0];
        assert_eq!(lane.spans[0].phase(), Phase::Linger);
        assert_eq!(lane.spans[0].duration_ns(), 1234);
        assert_eq!(lane.spans[0].aux, 9);
        assert_eq!(lane.spans[1].phase(), Phase::BatchFlush);
        assert_eq!(lane.spans[1].duration_ns(), 0);
        reset();
    }

    #[test]
    fn end_records_even_after_disable() {
        let _l = state_lock();
        enable();
        reset();
        let tok = span_start(Phase::Batch, 7);
        disable();
        span_end(tok);
        let snap = snapshot();
        assert_eq!(snap.total_spans(), 1);
        assert_eq!(snap.lanes[0].spans[0].aux, 7);
        reset();
    }
}
