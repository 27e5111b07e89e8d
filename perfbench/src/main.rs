//! The repository benchmark. One run measures one workload:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! it runs the workload untraced and traced, then probes each layer's
//! public calls, and prints the per-layer metrics. The last stdout line
//! is the result object; the line before it is the host and run
//! fingerprint. `perfbench/README.md` defines every metric.

mod closed;
mod gen;
mod probes;
mod serve;
mod spans;
mod stats;

use closed::{run_phase, Closed, Cp2k, Phase, Problem, Skinny, Vgg};
use serve::{PhaseOut, Serve, RATE_RPS};
use shalom_core::{plan_cache_stats, CacheParams, PlanCacheStats};
use spans::Spans;
use stats::{median, peak_rss_mb, Report};
use std::process::ExitCode;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Cp2k,
    Vgg,
    Skinny,
    Serve,
}

const WORKLOADS: [(&str, Workload); 4] = [
    ("cp2k-f64", Workload::Cp2k),
    ("vgg-conv", Workload::Vgg),
    ("skinny-trans", Workload::Skinny),
    ("serve-open", Workload::Serve),
];

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {s} is not in (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace {v}: expected 0 or 1")),
                    })
                }
                f => return Err(format!("unknown flag {f}")),
            }
        }
        let name = workload.ok_or("--workload is required")?;
        let workload = WORKLOADS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, w)| w)
            .ok_or(format!("unknown workload {name}"))?;
        Ok(Args {
            workload,
            name,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }

    fn budget_ns(&self, share: f64) -> u64 {
        (self.seconds * share * 1e9) as u64
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|(n, _)| n).join("|")
            );
            return ExitCode::from(2);
        }
    };
    // The open-loop run uses a generator and a scheduler thread; vgg-conv
    // and every traced run (its VGG probe) call the pool at two threads.
    let threads = match (args.workload, args.trace) {
        (_, true) | (Workload::Vgg | Workload::Serve, _) => 2,
        _ => 1,
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if threads > nproc {
        eprintln!(
            "perfbench: {} needs {threads} threads; this host has {nproc}",
            args.name
        );
        return ExitCode::from(3);
    }
    let cache = CacheParams::detect();
    println!(
        "{{\"fingerprint\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_isa\": \"{}\", \"nproc\": {nproc}, \"threads\": {threads}, \"l1_bytes\": {}, \
         \"l2_bytes\": {}, \"l3_bytes\": {}, \"commit\": \"{}\"}}}}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        shalom_core::host_isa().label(),
        cache.l1,
        cache.l2,
        cache.l3,
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
    );
    let report = match args.workload {
        Workload::Cp2k => closed_run(&args, Cp2k::setup),
        Workload::Vgg => closed_run(&args, Vgg::setup),
        Workload::Skinny => closed_run(&args, Skinny::setup),
        Workload::Serve => serve_run(&args),
    };
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

/// Set-up repeats at least `SETUPS` times per run, and more until
/// `SETUP_BUDGET_S` has gone into it (at most `MAX_SETUPS`); the median
/// is reported. The budget gives the ~10 ms set-ups (`cp2k-f64`,
/// `serve-open`) dozens of samples, where five moved their median by a
/// third between runs.
const SETUPS: usize = 5;
const MAX_SETUPS: usize = 64;
const SETUP_BUDGET_S: f64 = 1.0;

/// Runs `setup` as often as the constants above say, dropping all but
/// the last state before the next, and returns the last state with the
/// median set-up time.
fn timed_setup<W>(setup: impl Fn() -> W) -> (W, f64) {
    let mut times: Vec<f64> = Vec::new();
    let mut state = None;
    while times.len() < SETUPS
        || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (state.expect("SETUPS > 0"), median(&times))
}

/// Latencies in ns.
fn end_to_end(r: &mut Report, gflops: f64, p50: f64, p90: f64, setup_s: f64) {
    r.add("gflops", gflops, "GFLOP/s");
    r.add("lat_p50_us", p50 / 1e3, "us");
    r.add("lat_p90_us", p90 / 1e3, "us");
    r.add("setup_s", setup_s, "s");
    r.add("rss_mb", peak_rss_mb(), "MB");
}

fn closed_run<W: Closed>(args: &Args, setup: fn(u64) -> W) -> Report {
    let (mut w, setup_s) = timed_setup(|| setup(args.seed));
    let mut r = Report::default();
    if !args.trace {
        let ph = run_phase(&mut w, args.budget_ns(1.0), None);
        let (attempted, failed) = w.verify(ph.passes);
        r.count(attempted, failed);
        end_to_end(&mut r, ph.gflops(), ph.lat_p50(), ph.lat_p90(), setup_s);
        return r;
    }
    let untraced = run_phase(&mut w, args.budget_ns(0.3), None);
    let plans0 = plan_cache_stats();
    let mut sp = Spans::new();
    let traced = run_phase(&mut w, args.budget_ns(0.3), Some(&mut sp));
    let plans1 = plan_cache_stats();
    let (attempted, failed) = w.verify(untraced.passes + traced.passes);
    r.count(attempted, failed);
    let per_op = |ph: &Phase| ph.wall_ns as f64 / ph.ops as f64;
    let run = RunLayers {
        problems: w.problems(),
        gflops: untraced.gflops(),
        threads: W::THREADS,
        hit_frac: hit_frac(&plans0, &plans1),
        closure_err: sp.closure_err(traced.wall_ns),
        overhead: per_op(&traced) / per_op(&untraced),
        lat_p99_us: untraced.lat.quantile(0.99) / 1e3,
    };
    drop(w);
    let mut svc = Serve::setup(args.seed);
    service_layer(&mut r, &mut svc, args.seed, args.budget_ns(0.05));
    drop(svc);
    common_layers(&mut r, args, &run);
    r
}

fn serve_run(args: &Args) -> Report {
    let (mut s, setup_s) = timed_setup(|| Serve::setup(args.seed));
    let mut r = Report::default();
    if !args.trace {
        let out = s.phase(args.seed, 1, RATE_RPS, args.budget_ns(1.0), &[], None);
        eprintln!(
            "perfbench: serve-open sent {} ok {} rejected {} expired {} mismatched {} \
             queue_depth_peak {}",
            out.sent, out.ok, out.rejected, out.expired, out.mismatched, out.stats.queue_depth_peak
        );
        r.count(out.sent, out.failed());
        end_to_end(
            &mut r,
            out.gflops(),
            out.lat_q(0.5),
            out.lat_q(0.9),
            setup_s,
        );
        return r;
    }
    let plans0 = plan_cache_stats();
    let (untraced, traced, closure_err) =
        service_layer(&mut r, &mut s, args.seed, args.budget_ns(0.3));
    let plans1 = plan_cache_stats();
    let run = RunLayers {
        problems: s.kinds.clone(),
        gflops: untraced.gflops(),
        threads: 1,
        hit_frac: hit_frac(&plans0, &plans1),
        closure_err,
        overhead: traced.lat_q(0.5) / untraced.lat_q(0.5),
        lat_p99_us: untraced.lat_q(0.99) / 1e3,
    };
    drop(s);
    common_layers(&mut r, args, &run);
    r
}

/// Runs an untraced and a traced open-loop phase of `dur_ns` each at
/// `RATE_RPS` and the rate ladders, counts their checks into `r`, and adds
/// the `service.*` metrics. Returns both phases and the traced phase's
/// closure error.
fn service_layer(
    r: &mut Report,
    s: &mut Serve,
    seed: u64,
    dur_ns: u64,
) -> (PhaseOut, PhaseOut, f64) {
    let direct = s.direct_ns();
    let un = s.phase(seed, 1, RATE_RPS, dur_ns, &direct, None);
    let mut sp = Spans::new();
    let tr = s.phase(seed, 2, RATE_RPS, dur_ns, &direct, Some(&mut sp));
    r.count(un.sent + tr.sent, un.failed() + tr.failed());
    let st = &un.stats;
    let batches = st.batches.max(1) as f64;
    r.add(
        "service.sojourn_us.p50",
        un.sojourn.quantile(0.5) / 1e3,
        "us",
    );
    r.add(
        "service.direct_us",
        un.direct_ns_sum / un.ok.max(1) as f64 / 1e3,
        "us",
    );
    r.add("service.wait_us.p50", un.wait.quantile(0.5) / 1e3, "us");
    r.add("service.submit_ns.p50", tr.submit.quantile(0.5), "ns");
    r.add("service.occupancy", st.mean_occupancy(), "count");
    r.add(
        "service.flush_full_frac",
        st.flush_full as f64 / batches,
        "frac",
    );
    r.add(
        "service.flush_linger_frac",
        st.flush_linger as f64 / batches,
        "frac",
    );
    r.add(
        "service.flush_deadline_frac",
        st.flush_deadline as f64 / batches,
        "frac",
    );
    r.add(
        "service.queue_depth_peak",
        st.queue_depth_peak as f64,
        "count",
    );
    r.add("service.rejected", st.rejected as f64, "count");
    r.add("service.expired", st.expired as f64, "count");
    r.add("service.gen_lag_us.p99", un.lag_q(0.99) / 1e3, "us");
    let (max_rps, attempted, failed) = s.ladders(seed);
    r.count(attempted, failed);
    r.add("service.max_rps", max_rps, "1/s");
    let closure = sp.closure_err(tr.wall_ns);
    (un, tr, closure)
}

/// Plan-cache hits over lookups between two snapshots.
fn hit_frac(before: &PlanCacheStats, after: &PlanCacheStats) -> f64 {
    let hits = (after.hits - before.hits) as f64;
    hits / (hits + (after.misses - before.misses) as f64).max(1.0)
}

/// What a traced run measured of its own workload.
struct RunLayers {
    problems: Vec<Problem>,
    /// Untraced GFLOP/s of the workload in this run.
    gflops: f64,
    /// Threads per library call.
    threads: usize,
    hit_frac: f64,
    closure_err: f64,
    overhead: f64,
    /// Untraced p99 latency of one operation (closed loops) or request
    /// (open loops), µs.
    lat_p99_us: f64,
}

/// Closure tolerance: layer self-times must add up to the traced wall
/// within this share, or the run is not valid.
const CLOSURE_TOL: f64 = 0.05;

/// The per-layer metrics every traced run reports: plans on the
/// workload's own problems, then probes on fixed inputs.
fn common_layers(r: &mut Report, args: &Args, run: &RunLayers) {
    let p = &run.problems;
    r.add("plans.lookup_ns", probes::plan_lookup_ns(p), "ns");
    r.add("plans.hit_frac", run.hit_frac, "frac");
    r.add("core.call_fixed_ns", probes::call_fixed_ns(), "ns");
    for (label, ns) in probes::cp2k_call_ns() {
        r.add(format!("core.call_ns.{label}"), ns, "ns");
    }
    r.add("core.pool.fork_ns", probes::pool_fork_ns(), "ns");
    let vgg = Vgg::setup(args.seed);
    let v = probes::vgg_probe(&vgg);
    drop(vgg);
    r.add("core.serial_gflops", v.serial_gflops, "GFLOP/s");
    r.add("core.pool.scaling_eff", v.scaling_eff, "frac");
    r.add("core.nn_gflops", probes::skinny_nn_gflops(), "GFLOP/s");
    r.add("matrix.im2col_ms", v.im2col_ms, "ms");
    r.add("nn.gemm_frac", v.gemm_frac, "frac");
    let (peak32, peak64) = probes::family_peaks();
    let (base32, base64) = probes::base_peaks();
    r.add("kernels.peak_gflops.f32", peak32, "GFLOP/s");
    r.add("kernels.peak_gflops.f64", peak64, "GFLOP/s");
    r.add("kernels.base_peak_gflops.f32", base32, "GFLOP/s");
    r.add("kernels.base_peak_gflops.f64", base64, "GFLOP/s");
    let peak = if p.iter().all(|q| q.f64) {
        peak64
    } else {
        peak32
    };
    r.add(
        "kernels.peak_frac",
        run.gflops / (peak * run.threads as f64),
        "frac",
    );
    r.add("kernels.edge_ns", probes::edge_ns(), "ns");
    r.add("kernels.pack_b_gbps", probes::pack_b_gbps(), "GB/s");
    r.add("kernels.nt_pack_gbps", probes::nt_pack_gbps(), "GB/s");
    let flops: f64 = p.iter().map(Problem::flops).sum();
    let bytes: f64 = p.iter().map(Problem::bytes).sum();
    r.add("run.flops", flops, "flop");
    r.add("run.bytes_computed", bytes, "B");
    r.add("run.intensity", flops / bytes, "flop/B");
    r.add(
        "run.fail_frac",
        r.failed as f64 / r.attempted.max(1) as f64,
        "frac",
    );
    r.add("tail.lat_p99_us", run.lat_p99_us, "us");
    r.add("trace.overhead", run.overhead, "ratio");
    r.add("trace.closure_err", run.closure_err, "frac");
    if run.closure_err > CLOSURE_TOL {
        eprintln!(
            "perfbench: layer self-times miss the traced wall by {:.1}% (> {:.0}%)",
            run.closure_err * 100.0,
            CLOSURE_TOL * 100.0
        );
        r.failed += 1;
    }
    // Last: it empties the plan cache.
    r.add("plans.cold_ns", probes::plan_cold_ns(p), "ns");
}
