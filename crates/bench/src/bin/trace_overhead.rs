//! Observability overhead and record demo.
//!
//! 1. Times a warm 64x64x64 FP64 NN GEMM with capture disabled and
//!    enabled in paired, interleaved batches, and reports the median
//!    ns/call of each side and the median per-pair ratio (this host's
//!    speed drifts between batches). Two acceptance bars (DESIGN
//!    §12): a build *without* the `trace` feature must match the
//!    feature-compiled, capture-disabled row (the span sites compile
//!    out entirely, so compare across builds), and capture *enabled*
//!    must stay within 5% of disabled — a 64-cubed call records only a
//!    handful of spans, so the per-span cost (~tens of ns) is amortized
//!    over ~524k flops.
//! 2. With the feature, runs the paper's two poster-child shapes under
//!    capture — a small NN GEMM (64x64x64) and a tall-and-skinny one
//!    (64x50176x64, the VGG conv1.2-style N, on `--threads N`, default
//!    4) — prints the route each call ran (shape class, packing plan,
//!    tile, edge handling, thread grid) and writes the snapshot to
//!    `<out>/trace_overhead.trace.json`.
//!
//! ```text
//! cargo run --release -p shalom-bench --bin trace_overhead
//! cargo run --release -p shalom-bench --features trace --bin trace_overhead
//! ```
//!
//! `--reps N` runs `40 N` batch pairs of 50 calls (default `N = 5`).

use shalom_bench::{BenchArgs, Report};
use shalom_core::{gemm_with, GemmConfig, Op};
use shalom_matrix::Matrix;
use std::time::Instant;

/// Short batches, so a burst of host noise spoils few pairs; a warm 64³
/// FP64 call records 7 spans, so no batch comes near a lane's 4096
/// slots and every enabled call pays the full recording cost.
const CALLS_PER_BATCH: usize = 50;

/// Batch pairs per `--reps`.
const PAIRS_PER_REP: usize = 40;

/// Turns capture on (on a clean slate, so a batch never inherits a full
/// lane whose drops would make it artificially cheap) or off.
#[cfg(feature = "trace")]
fn capture(on: bool) {
    if on {
        shalom_core::trace::reset();
        shalom_core::trace::enable();
    } else {
        shalom_core::trace::disable();
    }
}

#[cfg(not(feature = "trace"))]
fn capture(_on: bool) {}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|x, y| x.total_cmp(y));
    v[v.len() / 2]
}

fn main() {
    let args = BenchArgs::parse();
    let cfg = GemmConfig::with_threads(1);
    let a = Matrix::<f64>::random(64, 64, 1);
    let b = Matrix::<f64>::random(64, 64, 2);
    let mut c = Matrix::<f64>::zeros(64, 64);
    let mut batch = |calls: usize| {
        let t0 = Instant::now();
        for _ in 0..calls {
            gemm_with(
                &cfg,
                Op::NoTrans,
                Op::NoTrans,
                1.0,
                a.as_ref(),
                b.as_ref(),
                0.0,
                c.as_mut(),
            );
        }
        t0.elapsed().as_nanos() as f64 / calls as f64
    };
    // Untimed warmup: page in operands, settle the dispatch caches.
    batch(10 * CALLS_PER_BATCH);

    // Paired, interleaved batches: each pair times capture off and on
    // back to back, in alternating order, so host drift between batches
    // cancels in the per-pair ratio.
    let feature = cfg!(feature = "trace");
    let (mut off, mut on, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..args.reps.max(1) * PAIRS_PER_REP {
        let mut pair = [0.0f64; 2];
        let order = if rep % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order.into_iter().filter(|&s| s == 0 || feature) {
            capture(side == 1);
            pair[side] = batch(CALLS_PER_BATCH);
        }
        capture(false);
        off.push(pair[0]);
        on.push(pair[1]);
        ratio.push(pair[1] / pair[0]);
    }
    let disabled_ns = median(off);

    let mut r = Report::new(
        "trace_overhead",
        "64x64x64 FP64 NN cost per call (warm, 1 thread; median of paired batches)",
    );
    r.columns(&["capture", "ns/call", "vs disabled"]);
    r.row(&[
        if feature {
            "disabled (feature on)"
        } else {
            "absent (feature off)"
        },
        &format!("{disabled_ns:.1}"),
        "1.000x",
    ]);
    let overhead = median(ratio);
    if feature {
        r.row(&[
            "enabled",
            &format!("{:.1}", median(on)),
            &format!("{overhead:.3}x"),
        ]);
    }
    r.note("acceptance: enabled <= 1.05x disabled (median per-pair ratio); the capture-disabled row must match a build without the trace feature (run both builds and compare)");
    r.emit(&args.out);

    if feature && overhead > 1.05 {
        eprintln!(
            "trace_overhead: WARNING enabled/disabled = {overhead:.3}x exceeds the 1.05x budget"
        );
    }
    #[cfg(feature = "trace")]
    route_demo(args);
}

/// Runs the small and the irregular shape under capture and prints the
/// route records: the dispatch layer decides differently for the two.
#[cfg(feature = "trace")]
fn route_demo(mut args: BenchArgs) {
    args.trace = true;
    shalom_bench::trace::begin(&args);
    let threads = args.threads.unwrap_or(4).max(1);
    for ((m, n, k), t) in [((64, 64, 64), 1), ((64, 50176, 64), threads)] {
        let a = Matrix::<f32>::random(m, k, 1);
        let b = Matrix::<f32>::random(k, n, 2);
        let mut c = Matrix::<f32>::zeros(m, n);
        let cfg = GemmConfig::with_threads(t);
        gemm_with(
            &cfg,
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
        );
    }
    for r in shalom_core::trace::snapshot().decisions() {
        println!("route: {}", r.to_json());
    }
    shalom_bench::trace::finish(&args, "trace_overhead");
}
