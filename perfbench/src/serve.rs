//! The open-loop workload, `serve-open`: one generator thread submits Poisson
//! arrivals into one `Service`, whose scheduler thread is the second
//! thread. Arrivals go out on their schedule whatever the service does,
//! and latency runs from the *scheduled* arrival to the completion
//! stamp, so a stall is charged to every request it delays.

use crate::closed::{cp2k_shapes, Problem};
use crate::gen::{tag, Rng, Schedule};
use crate::spans::Spans;
use crate::stats::Hist;
use shalom_core::{gemm_with, GemmConfig, GemmElem, Op};
use shalom_matrix::{MatMut, Matrix};
use shalom_service::{Completion, GemmRequest, Service, ServiceConfig, ServiceStatsSnapshot};
use shalom_trace::now_ns;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// The arrival rate, below saturation. Spread over the mix's ten plan
/// buckets it still leaves most flushes to the linger timer. At lower,
/// purely linger-bound rates the scheduler's vCPU idles between flushes,
/// and on a shared VM host its wake-up latency made the p90 swing 2.5x
/// between runs; here the scheduler is busy enough that it held within 1%.
pub const RATE_RPS: f64 = 32_000.0;
/// The p99 latency limit a ladder rate must meet, µs.
const LIMIT_US: f64 = 5_000.0;
/// Coarse ladder rungs: 64k rps times powers of sqrt(2), up to 362k.
const COARSE_RUNGS: usize = 6;
const LADDER_BASE_RPS: f64 = 64_000.0;
const RUNG_NS: u64 = 300_000_000;
/// Independent ladders per run; `max_rps` is their median.
const LADDERS: u64 = 3;
/// Output buffers, one per request in flight. When all are taken the
/// generator waits for the oldest request, so no more than this many
/// requests are ever queued.
const RING: usize = 8192;
/// Admission queue bound: the whole ring, so admission never rejects.
/// The vCPUs of a shared VM host are stolen for 5-40 ms at a time, in
/// bursts; a 4096-deep queue (128 ms at `RATE_RPS`) overflowed in some
/// 20 s runs. A stall now holds the generator back instead, and is
/// charged to the latency of every arrival it delays.
const QUEUE: usize = RING;
/// Per-request deadline after the scheduled arrival: long enough that
/// only a hung service expires anything.
const DEADLINE_NS: u64 = 5_000_000_000;
/// The latency a failed, rejected or expired request is recorded with,
/// so it misses every limit.
const MISS_NS: u64 = 1_000_000_000;
/// The generator sleeps while the next arrival is further away than
/// twice this, waking this much early, then spins to the due time. A
/// sleeping vCPU can take milliseconds to wake on a shared VM host, so
/// at the fixed rates the generator effectively always spins.
const SPIN_NS: u64 = 1_000_000;

enum Operands {
    F32 {
        a: Matrix<f32>,
        b: Matrix<f32>,
        want: Matrix<f32>,
    },
    F64 {
        a: Matrix<f64>,
        b: Matrix<f64>,
        want: Matrix<f64>,
    },
}

pub struct Serve {
    cfg: GemmConfig,
    pub kinds: Vec<Problem>,
    ops: Vec<Operands>,
    /// Output slots of `words` 8-byte words each, holding the largest
    /// f32 or f64 output of the mix.
    ring: Vec<u64>,
    words: usize,
}

/// The request mix: the service bench's scaled VGG layers (f32) and the
/// five CP2K shapes (f64), all at one thread per request.
pub fn kinds() -> Vec<Problem> {
    let vgg = shalom_workloads::vgg_layers().into_iter().map(|s| {
        Problem::nn(
            s.m.div_ceil(8),
            s.n.div_ceil(256),
            s.k.div_ceil(64),
            false,
            1,
        )
    });
    vgg.chain(cp2k_shapes().into_iter().map(|(_, p)| p))
        .collect()
}

/// Everything one fixed-rate phase measured.
pub struct PhaseOut {
    pub sent: u64,
    pub ok: u64,
    pub rejected: u64,
    pub expired: u64,
    pub mismatched: u64,
    /// Scheduled arrival to completion, one histogram per window of
    /// arrivals; failures recorded as `MISS_NS`.
    lat: Vec<Hist>,
    window_ns: u64,
    /// Submit to completion.
    pub sojourn: Hist,
    /// Sojourn minus the direct-call time of the request's shape.
    pub wait: Hist,
    /// Send time minus scheduled time, per window like `lat`.
    gen_lag: Vec<Hist>,
    /// Time inside `submit` (traced phases only).
    pub submit: Hist,
    pub direct_ns_sum: f64,
    pub flops: f64,
    pub wall_ns: u64,
    /// Requests queued, sampled as each window's first arrival is sent.
    depth: Vec<f64>,
    pub stats: ServiceStatsSnapshot,
}

impl PhaseOut {
    pub fn failed(&self) -> u64 {
        self.rejected + self.expired + self.mismatched
    }

    pub fn gflops(&self) -> f64 {
        self.flops / self.wall_ns.max(1) as f64
    }

    /// The median over arrival windows of each window's `q`-quantile
    /// latency, ns. Windows hold about 2000 arrivals (at most 0.5 s), so
    /// a p99 has some 20 samples beyond it, and a host stall inflates
    /// the windows it hits rather than the whole phase's figure.
    pub fn lat_q(&self, q: f64) -> f64 {
        windowed(&self.lat, q)
    }

    /// Generator lag quantile, windowed like `lat_q`, ns.
    pub fn lag_q(&self, q: f64) -> f64 {
        windowed(&self.gen_lag, q)
    }

    fn window(&self, at: u64) -> usize {
        ((at / self.window_ns) as usize).min(self.lat.len() - 1)
    }

    fn record_lat(&mut self, at: u64, ns: u64) {
        let w = self.window(at);
        self.lat[w].record(ns);
    }

    fn record_lag(&mut self, at: u64, ns: u64) {
        let w = self.window(at);
        self.gen_lag[w].record(ns);
    }
}

fn windowed(windows: &[Hist], q: f64) -> f64 {
    let per: Vec<f64> = windows
        .iter()
        .filter(|h| h.len() > 0)
        .map(|h| h.quantile(q))
        .collect();
    crate::stats::median(&per)
}

struct Pending<'scope> {
    done: Completion<'scope>,
    kind: usize,
    slot: usize,
    /// Scheduled arrival, from the phase start.
    at: u64,
    sent: u64,
}

/// Seeded operands of one request kind and their direct `gemm_with`
/// product, the output every served request must match bitwise.
fn operands<T: GemmElem>(
    cfg: &GemmConfig,
    p: &Problem,
    seed_a: u64,
    seed_b: u64,
) -> (Matrix<T>, Matrix<T>, Matrix<T>) {
    let (a, b) = (
        Matrix::random(p.m, p.k, seed_a),
        Matrix::random(p.k, p.n, seed_b),
    );
    let mut want = Matrix::zeros(p.m, p.n);
    let nn = Op::NoTrans;
    gemm_with(
        cfg,
        nn,
        nn,
        T::ONE,
        a.as_ref(),
        b.as_ref(),
        T::ZERO,
        want.as_mut(),
    );
    (a, b, want)
}

/// Median over 9 batches of the mean ns of 200 direct `gemm_with` calls.
fn direct_call_ns<T: GemmElem>(cfg: &GemmConfig, a: &Matrix<T>, b: &Matrix<T>) -> f64 {
    let mut c = Matrix::<T>::zeros(a.rows(), b.cols());
    let nn = Op::NoTrans;
    let per: Vec<f64> = (0..9)
        .map(|_| {
            let t = now_ns();
            for _ in 0..200 {
                gemm_with(
                    cfg,
                    nn,
                    nn,
                    T::ONE,
                    a.as_ref(),
                    b.as_ref(),
                    T::ZERO,
                    c.as_mut(),
                );
            }
            (now_ns() - t) as f64 / 200.0
        })
        .collect();
    crate::stats::median(&per)
}

/// Sleeps, then spins, until `now_ns() >= due`.
fn wait_until(due: u64) {
    loop {
        let now = now_ns();
        if now >= due {
            return;
        }
        if due - now > 2 * SPIN_NS {
            std::thread::sleep(Duration::from_nanos(due - now - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

impl Serve {
    /// Operands from the seed, and each kind's direct-call output.
    pub fn setup(seed: u64) -> Self {
        let kinds = kinds();
        let mut rng = Rng::new(seed, tag::OPERANDS);
        let seeds: Vec<(u64, u64)> = kinds.iter().map(|_| (rng.seed(), rng.seed())).collect();
        let cfg = GemmConfig::with_threads(1);
        let ops = kinds
            .iter()
            .zip(seeds)
            .map(|(p, (sa, sb))| {
                if p.f64 {
                    let (a, b, want) = operands(&cfg, p, sa, sb);
                    Operands::F64 { a, b, want }
                } else {
                    let (a, b, want) = operands(&cfg, p, sa, sb);
                    Operands::F32 { a, b, want }
                }
            })
            .collect();
        let words = kinds
            .iter()
            .map(|p| (p.m * p.n * if p.f64 { 8 } else { 4 }).div_ceil(8))
            .max()
            .unwrap_or(1);
        let mut s = Serve {
            cfg,
            ops,
            // NaN bits: an output the service never wrote fails the check.
            ring: vec![u64::MAX; RING * words],
            words,
            kinds,
        };
        // Start a service and run a few arrivals of each kind through it,
        // so its thread, the plan cache and the ring pages are warm.
        s.phase(seed, 0, 10_000.0, 5_000_000, &[], None);
        s
    }

    /// Median time of a direct `gemm_with` per request kind, ns.
    pub fn direct_ns(&self) -> Vec<f64> {
        self.ops
            .iter()
            .map(|o| match o {
                Operands::F32 { a, b, .. } => direct_call_ns(&self.cfg, a, b),
                Operands::F64 { a, b, .. } => direct_call_ns(&self.cfg, a, b),
            })
            .collect()
    }

    /// One open-loop phase: Poisson arrivals at `rate` for `dur_ns` into
    /// a fresh `Service`. Every completed output is compared bitwise
    /// with the direct `gemm_with` result. `direct_ns` (may be empty)
    /// gives each kind's direct-call time for the wait split; with
    /// `spans`, the generator's work is traced.
    pub fn phase(
        &mut self,
        seed: u64,
        phase_id: u64,
        rate: f64,
        dur_ns: u64,
        direct_ns: &[f64],
        mut spans: Option<&mut Spans>,
    ) -> PhaseOut {
        let sched = Schedule::poisson(seed, phase_id, rate, dur_ns, self.kinds.len());
        let window_ns = ((2000.0 / rate * 1e9) as u64).clamp(1, 500_000_000);
        let mut out = PhaseOut {
            sent: 0,
            ok: 0,
            rejected: 0,
            expired: 0,
            mismatched: 0,
            lat: (0..dur_ns.div_ceil(window_ns).max(1))
                .map(|_| Hist::new())
                .collect(),
            window_ns,
            sojourn: Hist::new(),
            wait: Hist::new(),
            gen_lag: (0..dur_ns.div_ceil(window_ns).max(1))
                .map(|_| Hist::new())
                .collect(),
            submit: Hist::new(),
            direct_ns_sum: 0.0,
            flops: 0.0,
            wall_ns: 0,
            depth: Vec::new(),
            stats: ServiceStatsSnapshot::default(),
        };
        let svc = Service::start(ServiceConfig {
            queue_capacity: QUEUE,
            ..ServiceConfig::default()
        });
        let (cfg, kinds, ops, words) = (self.cfg, &self.kinds, &self.ops, self.words);
        let ring = self.ring.as_mut_ptr();
        let nn = Op::NoTrans;
        let t_inst = Instant::now();
        let base = now_ns();

        let reclaim = |p: Pending<'_>, out: &mut PhaseOut| {
            let kind = &kinds[p.kind];
            let len = kind.m * kind.n;
            let done_at = match p.done.wait() {
                Ok(()) => p.done.done_at_ns().expect("a completed request is stamped"),
                Err(_) => {
                    out.expired += 1;
                    out.record_lat(p.at, MISS_NS);
                    return;
                }
            };
            // SAFETY: the slot's request has completed (`wait` returned),
            // so the scheduler no longer writes it; the slot holds `words`
            // 8-byte words, enough for `len` outputs of either type, and
            // no other view of it is live until it is reused.
            let same = unsafe {
                let slot = ring.add(p.slot * words);
                match &ops[p.kind] {
                    Operands::F32 { want, .. } => {
                        let got = std::slice::from_raw_parts(slot.cast::<f32>(), len);
                        got.iter()
                            .zip(want.as_slice())
                            .all(|(x, y)| x.to_bits() == y.to_bits())
                    }
                    Operands::F64 { want, .. } => {
                        let got = std::slice::from_raw_parts(slot.cast::<f64>(), len);
                        got.iter()
                            .zip(want.as_slice())
                            .all(|(x, y)| x.to_bits() == y.to_bits())
                    }
                }
            };
            if !same {
                out.mismatched += 1;
                out.record_lat(p.at, MISS_NS);
                return;
            }
            out.ok += 1;
            out.flops += kind.flops();
            out.record_lat(p.at, done_at.saturating_sub(base + p.at));
            let sojourn = done_at.saturating_sub(p.sent);
            out.sojourn.record(sojourn);
            let direct = direct_ns.get(p.kind).copied().unwrap_or(0.0);
            out.direct_ns_sum += direct;
            out.wait.record((sojourn as f64 - direct).max(0.0) as u64);
        };

        svc.scope(|scope| {
            // Requests in submission order; slots not in flight.
            let mut pending: VecDeque<Pending<'_>> = VecDeque::with_capacity(RING);
            let mut free: Vec<usize> = (0..RING).rev().collect();
            let check = |p: Pending<'_>,
                         out: &mut PhaseOut,
                         free: &mut Vec<usize>,
                         sp: Option<&mut Spans>| {
                free.push(p.slot);
                match sp {
                    Some(sp) => sp.time("bench.check", || reclaim(p, out)),
                    None => reclaim(p, out),
                }
            };
            for (&at, &kind) in sched.at_ns.iter().zip(&sched.kind) {
                while pending.front().is_some_and(|p| p.done.try_wait().is_some())
                    || free.is_empty()
                {
                    let p = pending
                        .pop_front()
                        .expect("a full ring has requests in flight");
                    check(p, &mut out, &mut free, spans.as_deref_mut());
                }
                let due = base + at;
                match spans.as_deref_mut() {
                    Some(sp) => sp.time("bench.gen", || wait_until(due)),
                    None => wait_until(due),
                }
                let sent = now_ns();
                out.record_lag(at, sent - due);
                if out.window(at) == out.depth.len() {
                    out.depth.push(svc.queue_depth() as f64);
                }
                out.sent += 1;
                let kind = kind as usize;
                let (m, n) = (kinds[kind].m, kinds[kind].n);
                let slot = free.pop().expect("a slot was freed above");
                // SAFETY: `slot` is off the free list, so no request in
                // flight writes it and no view of it is live; it holds
                // `words >= m*n` elements of either type; the ring
                // outlives the scope, which joins every request.
                let c = unsafe { ring.add(slot * words) };
                let deadline = t_inst + Duration::from_nanos(at + DEADLINE_NS);
                let submit = || match &ops[kind] {
                    Operands::F32 { a, b, .. } => {
                        // SAFETY: see `c` above.
                        let c = unsafe { MatMut::from_raw_parts(c.cast::<f32>(), m, n, n) };
                        let req =
                            GemmRequest::new(cfg, nn, nn, 1.0f32, a.as_ref(), b.as_ref(), 0.0, c);
                        scope.submit(req.with_deadline(deadline))
                    }
                    Operands::F64 { a, b, .. } => {
                        // SAFETY: see `c` above.
                        let c = unsafe { MatMut::from_raw_parts(c.cast::<f64>(), m, n, n) };
                        let req =
                            GemmRequest::new(cfg, nn, nn, 1.0f64, a.as_ref(), b.as_ref(), 0.0, c);
                        scope.submit(req.with_deadline(deadline))
                    }
                };
                let res = match spans.as_deref_mut() {
                    Some(sp) => {
                        let r = sp.time("service.submit", submit);
                        out.submit.record(sp.last_ns());
                        r
                    }
                    None => submit(),
                };
                match res {
                    Ok(done) => pending.push_back(Pending {
                        done,
                        kind,
                        slot,
                        at,
                        sent,
                    }),
                    Err(_) => {
                        free.push(slot);
                        out.rejected += 1;
                        out.record_lat(at, MISS_NS);
                    }
                }
            }
            while let Some(p) = pending.pop_front() {
                check(p, &mut out, &mut free, spans.as_deref_mut());
            }
        });
        out.wall_ns = now_ns() - base;
        svc.shutdown();
        out.stats = svc.stats();
        out
    }

    /// One ladder rung at `rate`: (p99 µs, passed, requests sent,
    /// bitwise mismatches). A rung passes when its p99 latency and its
    /// generator lag p99 (each windowed as in `PhaseOut::lat_q`) both meet
    /// `LIMIT_US` — a generator that falls behind means a growing backlog
    /// — no request failed, and the median queue depth is no deeper than
    /// one limit's worth of arrivals.
    fn rung(&mut self, seed: u64, id: u64, rate: f64) -> (f64, bool, u64, u64) {
        let out = self.phase(seed, id, rate, RUNG_NS, &[], None);
        let p99 = out.lat_q(0.99).max(out.lag_q(0.99)) / 1e3;
        let shallow = crate::stats::median(&out.depth) <= rate * LIMIT_US * 1e-6;
        let pass = p99 <= LIMIT_US && out.failed() == 0 && shallow;
        (p99, pass, out.sent, out.mismatched)
    }

    /// The rate ladder: coarse rungs from 64k to 362k rps (x sqrt 2 each),
    /// then three fine rungs (x 2^(1/8) each) above the highest passing
    /// coarse rung. Every coarse rung runs, so a host stall that fails a
    /// low rung does not end the ladder. `max_rps` is the highest passing
    /// rate, interpolated log-log towards the next rung at the limit so it
    /// is not snapped to a rung.
    /// Runs `LADDERS` independent ladders (see `ladder`) and returns the
    /// median `max_rps` with the summed counts. The service's capacity on
    /// a shared host moves by over 10% between 0.3 s samples; the median
    /// of several ladders damps that.
    pub fn ladders(&mut self, seed: u64) -> (f64, u64, u64) {
        let (mut est, mut attempted, mut failed) = (Vec::new(), 0, 0);
        for rep in 0..LADDERS {
            let (max_rps, a, f) = self.ladder(seed, 1000 * rep);
            est.push(max_rps);
            attempted += a;
            failed += f;
        }
        (crate::stats::median(&est), attempted, failed)
    }

    fn ladder(&mut self, seed: u64, id0: u64) -> (f64, u64, u64) {
        let (mut attempted, mut failed) = (0, 0);
        let mut rungs: Vec<(f64, f64, bool)> = Vec::new();
        let mut run = |s: &mut Self, id: u64, rate: f64, rungs: &mut Vec<(f64, f64, bool)>| {
            let (p99, pass, sent, mismatched) = s.rung(seed, id, rate);
            failed += mismatched;
            if pass {
                attempted += sent;
            }
            rungs.push((rate, p99, pass));
        };
        for i in 0..COARSE_RUNGS {
            let rate = LADDER_BASE_RPS * 2f64.powf(i as f64 / 2.0);
            run(self, id0 + 100 + i as u64, rate, &mut rungs);
        }
        if let Some(t) = rungs
            .iter()
            .rposition(|r| r.2)
            .filter(|&t| t + 1 < rungs.len())
        {
            let base = rungs[t].0;
            for j in 1..=3 {
                run(
                    self,
                    id0 + 200 + j,
                    base * 2f64.powf(j as f64 / 8.0),
                    &mut rungs,
                );
            }
        }
        rungs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let Some(top) = rungs.iter().rposition(|r| r.2) else {
            let (rate, p99, _) = rungs[0];
            return (rate * (LIMIT_US / p99).min(1.0), attempted, failed);
        };
        let (r0, p0, _) = rungs[top];
        let max_rps = match rungs.get(top + 1) {
            Some(&(r1, p1, _)) if p1 > LIMIT_US && p1 > p0 => {
                r0 * (r1 / r0).powf(((LIMIT_US / p0).ln() / (p1 / p0).ln()).clamp(0.0, 1.0))
            }
            // The next rung failed on another criterion: its p99 does
            // not locate the crossing, so take the geometric midpoint.
            Some(&(r1, _, _)) => (r0 * r1).sqrt(),
            None => r0,
        };
        (max_rps, attempted, failed)
    }
}

/// Digest of every generated input byte of `serve-open`.
#[cfg(test)]
pub fn input_digest(seed: u64) -> u64 {
    fn mat<T: shalom_matrix::Scalar>(d: &mut crate::gen::Digest, m: &Matrix<T>) {
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                d.bytes(&m.at(i, j).to_f64().to_le_bytes());
            }
        }
    }
    let w = Serve::setup(seed);
    let mut d = crate::gen::Digest::new();
    for o in &w.ops {
        match o {
            Operands::F32 { a, b, .. } => (mat(&mut d, a), mat(&mut d, b)),
            Operands::F64 { a, b, .. } => (mat(&mut d, a), mat(&mut d, b)),
        };
    }
    d.finish()
}
