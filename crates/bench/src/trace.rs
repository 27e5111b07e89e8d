//! `--trace` support for the figure binaries: capture spans during a
//! run and write a JSON snapshot of its per-call records, counters and
//! latency histograms next to the figure's CSV.
//!
//! Both entry points exist regardless of the `trace` cargo feature so
//! every binary can call them unconditionally; without the feature they
//! degrade to a one-line warning ([`begin`]) and a no-op ([`finish`]).

use crate::BenchArgs;

/// Starts capture if `--trace` was passed. Call once, after arg parsing
/// and before the first measured GEMM. With the `perf-hooks` feature
/// this also opens the hardware counters (silently skipped if the kernel
/// refuses, e.g. under a restrictive `perf_event_paranoid`).
pub fn begin(args: &BenchArgs) {
    if !args.trace {
        return;
    }
    #[cfg(feature = "trace")]
    {
        shalom_core::trace::reset();
        shalom_core::trace::enable();
        shalom_core::trace::perf::start();
    }
    #[cfg(not(feature = "trace"))]
    eprintln!(
        "warning: --trace ignored; rebuild with `--features trace` \
         (optionally `trace,perf-hooks`)"
    );
}

/// Stops capture and writes `<out>/<figure>.trace.json` plus a console
/// summary. Call once, after the last measured GEMM.
pub fn finish(args: &BenchArgs, figure: &str) {
    if !args.trace {
        return;
    }
    #[cfg(feature = "trace")]
    {
        shalom_core::trace::disable();
        let snap = shalom_core::trace::snapshot();
        println!("{}", snap.summary());
        let path = std::path::Path::new(&args.out).join(format!("{figure}.trace.json"));
        match std::fs::create_dir_all(&args.out)
            .and_then(|()| std::fs::write(&path, snap.to_json()))
        {
            Ok(()) => println!("trace json: {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    #[cfg(not(feature = "trace"))]
    let _ = figure;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_op_without_flag() {
        // Must never panic or create files when --trace is absent.
        let args = BenchArgs::parse_from(&[]);
        begin(&args);
        finish(&args, "figX");
    }

    #[cfg(feature = "trace")]
    #[test]
    fn snapshot_written_with_flag() {
        let dir = std::env::temp_dir().join("shalom_bench_trace_test");
        let args = BenchArgs::parse_from(&["--trace", "--out", dir.to_str().unwrap()]);
        begin(&args);
        let a = shalom_matrix::Matrix::<f32>::random(16, 16, 1);
        let b = shalom_matrix::Matrix::<f32>::random(16, 16, 2);
        let mut c = shalom_matrix::Matrix::<f32>::zeros(16, 16);
        shalom_core::sgemm(
            shalom_matrix::Op::NoTrans,
            shalom_matrix::Op::NoTrans,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
        );
        finish(&args, "fig_test");
        let body = std::fs::read_to_string(dir.join("fig_test.trace.json")).unwrap();
        assert!(body.contains("\"totals\""));
        assert!(body.contains("\"decisions\":[{"));
    }
}
