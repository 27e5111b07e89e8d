//! The closed-loop workloads: one client issues the next operation when
//! the previous one returns.
//!
//! * `cp2k-f64` — DBCSR-style small f64 GEMMs, `C += A·B`, over an
//!   operand pool larger than L2, so call overhead and the 128-bit edge
//!   route dominate;
//! * `vgg-conv` — `Conv2d::forward` over the five full-size VGG16 layers
//!   at two threads: im2col, B packing, the wide kernels and the pool;
//! * `skinny-trans` — the Fig 9/10 tall-and-skinny shapes as NT and TN,
//!   where the transposed operand must be packed.

use crate::gen::{tag, Rng};
use crate::spans::Spans;
use crate::stats::{quantile, quantile_f64, Hist};
use shalom_core::{gemm_with, GemmConfig, Op};
use shalom_matrix::{im2col, reference, ConvShape, MatRef, Matrix, Scalar};
use shalom_nn::Conv2d;
use shalom_trace::now_ns;

/// A problem shape with the ops it runs under.
#[derive(Clone, Copy)]
pub struct Problem {
    pub op_a: Op,
    pub op_b: Op,
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub f64: bool,
    pub threads: usize,
}

impl Problem {
    pub fn nn(m: usize, n: usize, k: usize, f64: bool, threads: usize) -> Self {
        Problem {
            op_a: Op::NoTrans,
            op_b: Op::NoTrans,
            m,
            n,
            k,
            f64,
            threads,
        }
    }

    pub fn flops(&self) -> f64 {
        2.0 * (self.m * self.n * self.k) as f64
    }

    /// Bytes of A, B and C, computed from their sizes.
    pub fn bytes(&self) -> f64 {
        let elem = if self.f64 { 8 } else { 4 };
        (elem * (self.m * self.k + self.k * self.n + self.m * self.n)) as f64
    }
}

/// A closed-loop workload: a fixed, seed-ordered pass of operations that
/// `run_phase` repeats until its time is up.
pub trait Closed {
    /// Threads the workload's library calls use.
    const THREADS: usize;
    /// Whether the operation a user waits for is the whole pass (a stack
    /// of small multiplications) rather than one call.
    const STACKED: bool = false;
    /// The share of windows (see `STACK_WINDOW`) that may do worse than
    /// the reported figures: `gflops` is this quantile of the windows'
    /// rates, and a latency the `1 - SLOW_Q` quantile over windows of
    /// each window's quantile. The default, 0.5, gives medians.
    const SLOW_Q: f64 = 0.5;
    /// The distinct problems one pass runs (plan lookups, counts).
    fn problems(&self) -> Vec<Problem>;
    fn ops_per_pass(&self) -> usize;
    /// Useful flops of operation `i` of the pass.
    fn flops(&self, i: usize) -> f64;
    /// Operation `i`: the timed call.
    fn op(&mut self, i: usize);
    /// Operation `i` as the benchmark's own calls into each layer, each
    /// inside a span.
    fn op_traced(&mut self, i: usize, sp: &mut Spans);
    /// Untimed per-operation output check; returns whether it ran.
    fn check_op(&mut self, _i: usize) -> bool {
        false
    }
    /// Final output check after `passes` full passes; returns
    /// (operations attempted, operations failed).
    fn verify(&mut self, passes: u64) -> (u64, u64);
}

/// One timed phase of a closed loop.
pub struct Phase {
    pub passes: u64,
    pub ops: u64,
    /// Time of the whole phase, checks included, ns.
    pub wall_ns: u64,
    /// Every operation's latency.
    pub lat: Hist,
    /// (flops, ns inside operations) of each pass.
    pass_rates: Vec<(f64, u64)>,
    /// (p50, p90) operation latency of each pass, ns.
    pass_lat: Vec<(f64, f64)>,
    /// See `Closed::STACKED`.
    stacked: bool,
    /// See `Closed::SLOW_Q`.
    slow_q: f64,
}

/// Passes per window of a stacked workload: 30-45 ms of `cp2k-f64`
/// stacks, some 500 windows a 20 s run. Each pass of any other closed
/// loop is a window of its own.
const STACK_WINDOW: usize = 10;

/// The slow end the single-thread closed loops report (`Closed::SLOW_Q`).
/// On the reference host (2 vCPUs of a shared VM) single-thread
/// compute-bound code alternates between two speeds 30-40% apart in
/// spells of 0.5-10 s, and a 20 s run spent anywhere from none to 90%
/// of its time in the fast one. Medians followed that mix: over eight
/// seeds they spread (IQR/median) 0.18-0.21 on `skinny-trans` and
/// 0.22-0.43 on `cp2k-f64`. Every run held slow spells, so the tenth
/// percentile of the windows sits in the slow state: 0.04-0.05 on
/// `skinny-trans` and 0.07-0.09 on `cp2k-f64` over the same passes. A
/// slower program slows both states.
const SLOW_SINGLE: f64 = 0.1;

// A host stall or slow spell lengthens the passes it lands in; a
// quantile over windows puts a bound on how many of them it may take,
// where a figure over all operations of the run would move with them.
impl Phase {
    fn window(&self) -> usize {
        if self.stacked {
            STACK_WINDOW
        } else {
            1
        }
    }

    /// The `slow_q` quantile over windows of each window's GFLOP/s.
    pub fn gflops(&self) -> f64 {
        let per: Vec<f64> = self
            .pass_rates
            .chunks(self.window())
            .map(|w| {
                let (f, ns) = w.iter().fold((0.0, 0), |(f, ns), r| (f + r.0, ns + r.1));
                f / ns.max(1) as f64
            })
            .collect();
        quantile_f64(&per, self.slow_q)
    }

    /// Median operation latency, ns: see `lat`.
    pub fn lat_p50(&self) -> f64 {
        self.lat(0.5, |l| l.0)
    }

    /// p90 operation latency, ns: see `lat`.
    pub fn lat_p90(&self) -> f64 {
        self.lat(0.9, |l| l.1)
    }

    /// The `1 - slow_q` quantile over windows of each window's
    /// `q`-quantile latency: of its pass times for a stacked workload,
    /// else of its one pass's operations (`per_pass`).
    fn lat(&self, q: f64, per_pass: impl Fn(&(f64, f64)) -> f64) -> f64 {
        let per: Vec<f64> = if self.stacked {
            self.pass_rates
                .chunks(STACK_WINDOW)
                .map(|w| quantile(&mut w.iter().map(|r| r.1).collect::<Vec<_>>(), q))
                .collect()
        } else {
            self.pass_lat.iter().map(per_pass).collect()
        };
        quantile_f64(&per, 1.0 - self.slow_q)
    }
}

/// Repeats whole passes until `budget_ns` has passed. With `spans`, each
/// operation runs traced under a `bench.op` root span that also covers
/// the loop's bookkeeping, with its check under `bench.check`; each
/// pass's summary runs under `bench.pass`.
pub fn run_phase<W: Closed>(w: &mut W, budget_ns: u64, mut spans: Option<&mut Spans>) -> Phase {
    let n = w.ops_per_pass();
    let mut ph = Phase {
        passes: 0,
        ops: 0,
        wall_ns: 0,
        lat: Hist::new(),
        pass_rates: Vec::new(),
        pass_lat: Vec::new(),
        stacked: W::STACKED,
        slow_q: W::SLOW_Q,
    };
    let mut lat = Vec::with_capacity(n);
    let start = now_ns();
    while now_ns() - start < budget_ns || ph.passes == 0 {
        let (mut busy, mut flops) = (0u64, 0.0);
        lat.clear();
        let mut t0 = now_ns();
        for i in 0..n {
            match spans.as_deref_mut() {
                Some(sp) => {
                    sp.begin("bench.op");
                    w.op_traced(i, sp);
                }
                None => w.op(i),
            }
            let t1 = now_ns();
            ph.lat.record(t1 - t0);
            lat.push(t1 - t0);
            busy += t1 - t0;
            flops += w.flops(i);
            let checked = match spans.as_deref_mut() {
                Some(sp) => sp.time("bench.check", || w.check_op(i)),
                None => w.check_op(i),
            };
            t0 = if checked { now_ns() } else { t1 };
            if let Some(sp) = spans.as_deref_mut() {
                sp.end();
            }
        }
        let mut summarize = || {
            ph.passes += 1;
            ph.ops += n as u64;
            ph.pass_rates.push((flops, busy));
            ph.pass_lat
                .push((quantile(&mut lat, 0.5), quantile(&mut lat, 0.9)));
        };
        match spans.as_deref_mut() {
            Some(sp) => sp.time("bench.pass", summarize),
            None => summarize(),
        }
    }
    ph.wall_ns = now_ns() - start;
    ph
}

/// `|got - want| <= tol` for every element, where `tol` scales each
/// reference value. Inputs are non-negative, so a reference value is its
/// own sum of absolute terms.
fn all_close<T: Scalar>(got: MatRef<'_, T>, want: &Matrix<f64>, tol: impl Fn(f64) -> f64) -> bool {
    (0..want.rows()).all(|i| {
        (0..want.cols()).all(|j| {
            let (g, w) = (got.at(i, j).to_f64(), want.at(i, j));
            (g - w).abs() <= tol(w)
        })
    })
}

/// `op(A)·op(B)` in f64 by the reference GEMM, rows split over two
/// threads (the oracle is slow and runs outside the timed phase).
fn reference_product<T: Scalar>(p: &Problem, a: &Matrix<T>, b: &Matrix<T>) -> Matrix<f64> {
    let to64 = |x: &Matrix<T>| Matrix::from_fn(x.rows(), x.cols(), |i, j| x.at(i, j).to_f64());
    let (a, b) = (to64(a), to64(b));
    let half = p.m / 2;
    let rows = |i0: usize, rows: usize| {
        let ra = match p.op_a {
            Op::NoTrans => a.as_ref().submatrix(i0, 0, rows, p.k),
            Op::Trans => a.as_ref().submatrix(0, i0, p.k, rows),
        };
        let mut c = Matrix::<f64>::zeros(rows, p.n);
        reference::gemm(p.op_a, p.op_b, 1.0, ra, b.as_ref(), 0.0, c.as_mut());
        c
    };
    let (top, bottom) = std::thread::scope(|s| {
        let top = s.spawn(|| rows(0, half));
        let bottom = rows(half, p.m - half);
        (top.join().expect("reference thread"), bottom)
    });
    Matrix::from_fn(p.m, p.n, |i, j| {
        if i < half {
            top.at(i, j)
        } else {
            bottom.at(i - half, j)
        }
    })
}

// ---------------------------------------------------------------- cp2k-f64

/// Operand sets per CP2K shape; 5 shapes x 512 sets is about 15.6 MB of
/// operands, several times the 2 MiB per-core L2 of the reference host.
const CP2K_SETS: usize = 512;

struct Slot {
    shape: usize,
    a: Matrix<f64>,
    b: Matrix<f64>,
    c: Matrix<f64>,
    c0: Matrix<f64>,
}

pub struct Cp2k {
    cfg: GemmConfig,
    shapes: Vec<Problem>,
    slots: Vec<Slot>,
    /// The stream: slot indices in seed order, each slot once per pass.
    order: Vec<u32>,
    flops: Vec<f64>,
}

pub fn cp2k_shapes() -> Vec<(&'static str, Problem)> {
    shalom_workloads::cp2k_kernels()
        .into_iter()
        .map(|s| (s.label, Problem::nn(s.m, s.n, s.k, true, 1)))
        .collect()
}

impl Cp2k {
    /// Operands and stream order from the seed.
    fn generate(seed: u64) -> Self {
        let shapes: Vec<Problem> = cp2k_shapes().into_iter().map(|(_, p)| p).collect();
        let mut rng = Rng::new(seed, tag::OPERANDS);
        let mut slots = Vec::with_capacity(shapes.len() * CP2K_SETS);
        for _ in 0..CP2K_SETS {
            for (si, p) in shapes.iter().enumerate() {
                let c0 = Matrix::random(p.m, p.n, rng.seed());
                slots.push(Slot {
                    shape: si,
                    a: Matrix::random(p.m, p.k, rng.seed()),
                    b: Matrix::random(p.k, p.n, rng.seed()),
                    c: Matrix::from_fn(p.m, p.n, |i, j| c0.at(i, j)),
                    c0,
                });
            }
        }
        let mut order: Vec<u32> = (0..slots.len() as u32).collect();
        Rng::new(seed, tag::ORDER).shuffle(&mut order);
        let flops = order
            .iter()
            .map(|&s| shapes[slots[s as usize].shape].flops())
            .collect();
        Cp2k {
            cfg: GemmConfig::with_threads(1),
            shapes,
            slots,
            order,
            flops,
        }
    }

    pub fn setup(seed: u64) -> Self {
        let w = Self::generate(seed);
        // Warm the plan cache and the call path on scratch outputs.
        for p in &w.shapes {
            let (a, b) = (Matrix::<f64>::zeros(p.m, p.k), Matrix::zeros(p.k, p.n));
            let mut c = Matrix::zeros(p.m, p.n);
            gemm_with(
                &w.cfg,
                p.op_a,
                p.op_b,
                1.0,
                a.as_ref(),
                b.as_ref(),
                1.0,
                c.as_mut(),
            );
        }
        w
    }
}

impl Closed for Cp2k {
    const THREADS: usize = 1;
    /// A pass is one DBCSR-style stack: the caller waits for all of it.
    /// One call's latency would also mostly time cold-operand misses,
    /// which on a shared host moved its median by a third between runs.
    const STACKED: bool = true;
    const SLOW_Q: f64 = SLOW_SINGLE;

    fn problems(&self) -> Vec<Problem> {
        self.shapes.clone()
    }

    fn ops_per_pass(&self) -> usize {
        self.order.len()
    }

    fn flops(&self, i: usize) -> f64 {
        self.flops[i]
    }

    fn op(&mut self, i: usize) {
        let s = &mut self.slots[self.order[i] as usize];
        let op = Op::NoTrans;
        gemm_with(
            &self.cfg,
            op,
            op,
            1.0,
            s.a.as_ref(),
            s.b.as_ref(),
            1.0,
            s.c.as_mut(),
        );
    }

    fn op_traced(&mut self, i: usize, sp: &mut Spans) {
        sp.time("core.gemm_with", || self.op(i));
    }

    /// Each slot ran `passes` times: `C = C0 + passes·A·B`. Every step
    /// adds at most `K·eps·(A·B) + eps·|C|` of rounding, and the f64
    /// reference as much again, so the bound is
    /// `2·eps·passes·(K·(A·B) + C)` per element.
    fn verify(&mut self, passes: u64) -> (u64, u64) {
        let n = passes as f64;
        let eps = f64::EPSILON;
        let mut failed = 0;
        for s in &self.slots {
            let p = &self.shapes[s.shape];
            let prod = reference_product(p, &s.a, &s.b);
            let want = Matrix::from_fn(p.m, p.n, |i, j| s.c0.at(i, j) + n * prod.at(i, j));
            let ok = all_close(s.c.as_ref(), &want, |w| {
                2.0 * eps * n * (p.k as f64 * w + w) + 1e-300
            });
            if !ok {
                failed += passes;
            }
        }
        (passes * self.slots.len() as u64, failed)
    }
}

// ---------------------------------------------------------------- vgg-conv

/// Output entries checked per forward pass.
const VGG_SAMPLES: usize = 48;

pub struct VggLayer {
    pub shape: ConvShape,
    pub conv: Conv2d<f32>,
    pub weights: Matrix<f32>,
    pub input: Matrix<f32>,
    out: Option<Matrix<f32>>,
}

pub struct Vgg {
    pub cfg: GemmConfig,
    pub layers: Vec<VggLayer>,
    order: Vec<usize>,
    sampler: Rng,
    checked: u64,
    failed: u64,
}

/// The five Fig 15 layers as stride-1, 3x3, pad-1 convolutions whose
/// GEMMs are `shalom_workloads::vgg_layers`.
pub fn vgg_shapes() -> Vec<ConvShape> {
    shalom_workloads::vgg_layers()
        .into_iter()
        .map(|g| {
            let side = (g.n as f64).sqrt() as usize;
            let s = ConvShape {
                c_in: g.k / 9,
                c_out: g.m,
                h: side,
                w: side,
                kh: 3,
                kw: 3,
                pad: 1,
            };
            assert_eq!(s.gemm_dims(), (g.m, g.n, g.k), "VGG layer {}", g.label);
            s
        })
        .collect()
}

impl Vgg {
    /// Weights, images, layer order and check samples from the seed.
    fn generate(seed: u64) -> Self {
        let cfg = GemmConfig::with_threads(2);
        let mut rng = Rng::new(seed, tag::OPERANDS);
        let layers: Vec<VggLayer> = vgg_shapes()
            .into_iter()
            .map(|shape| {
                let (m, _, k) = shape.gemm_dims();
                let weights = Matrix::random(m, k, rng.seed());
                let input = Matrix::random(shape.c_in, shape.h * shape.w, rng.seed());
                let conv = Conv2d::new(shape, Matrix::from_fn(m, k, |i, j| weights.at(i, j)), cfg);
                VggLayer {
                    shape,
                    conv,
                    weights,
                    input,
                    out: None,
                }
            })
            .collect();
        let mut order: Vec<usize> = (0..layers.len()).collect();
        Rng::new(seed, tag::ORDER).shuffle(&mut order);
        Vgg {
            cfg,
            layers,
            order,
            sampler: Rng::new(seed, tag::SAMPLES),
            checked: 0,
            failed: 0,
        }
    }

    pub fn setup(seed: u64) -> Self {
        let v = Self::generate(seed);
        // Warm the pool, its workspaces and the plan cache.
        for l in &v.layers {
            drop(l.conv.forward(&l.input));
        }
        v
    }

    /// Output entry `(i, j)` of layer `l` as an f64 dot product straight
    /// from the convolution's definition.
    fn direct_entry(l: &VggLayer, i: usize, j: usize) -> f64 {
        let s = &l.shape;
        let (oy, ox) = (j / s.w_out(), j % s.w_out());
        let mut acc = 0.0;
        for c in 0..s.c_in {
            for dy in 0..s.kh {
                for dx in 0..s.kw {
                    let iy = (oy + dy) as isize - s.pad as isize;
                    let ix = (ox + dx) as isize - s.pad as isize;
                    if iy < 0 || ix < 0 || iy as usize >= s.h || ix as usize >= s.w {
                        continue;
                    }
                    let w = l.weights.at(i, (c * s.kh + dy) * s.kw + dx) as f64;
                    acc += w * l.input.at(c, iy as usize * s.w + ix as usize) as f64;
                }
            }
        }
        acc
    }
}

impl Closed for Vgg {
    const THREADS: usize = 2;

    fn problems(&self) -> Vec<Problem> {
        self.layers
            .iter()
            .map(|l| {
                let (m, n, k) = l.shape.gemm_dims();
                Problem::nn(m, n, k, false, Self::THREADS)
            })
            .collect()
    }

    fn ops_per_pass(&self) -> usize {
        self.order.len()
    }

    fn flops(&self, i: usize) -> f64 {
        let (m, n, k) = self.layers[self.order[i]].shape.gemm_dims();
        2.0 * (m * n * k) as f64
    }

    fn op(&mut self, i: usize) {
        let l = &mut self.layers[self.order[i]];
        l.out = Some(l.conv.forward(&l.input));
    }

    /// `Conv2d::forward`'s steps, each through its public call.
    fn op_traced(&mut self, i: usize, sp: &mut Spans) {
        let cfg = self.cfg;
        let l = &mut self.layers[self.order[i]];
        let (m, n, _) = l.shape.gemm_dims();
        let lowered = sp.time("matrix.im2col", || im2col(&l.shape, &l.input));
        let mut out = sp.time("nn.alloc", || Matrix::zeros(m, n));
        let op = Op::NoTrans;
        sp.time("core.gemm_with", || {
            gemm_with(
                &cfg,
                op,
                op,
                1.0,
                l.weights.as_ref(),
                lowered.as_ref(),
                0.0,
                out.as_mut(),
            )
        });
        sp.time("nn.alloc", || drop(lowered));
        l.out = Some(out);
    }

    /// Sampled entries against f64 dot products; the bound is
    /// `2·K·eps_f32·|entry|` (non-negative inputs).
    fn check_op(&mut self, i: usize) -> bool {
        let l = &mut self.layers[self.order[i]];
        let out = l.out.take().expect("op stored its output");
        let (m, n, k) = l.shape.gemm_dims();
        let ok = (0..VGG_SAMPLES).all(|_| {
            let (r, c) = (self.sampler.below(m), self.sampler.below(n));
            let want = Self::direct_entry(l, r, c);
            (out.at(r, c) as f64 - want).abs()
                <= 2.0 * k as f64 * f32::EPSILON as f64 * want + 1e-30
        });
        self.checked += 1;
        self.failed += u64::from(!ok);
        true
    }

    fn verify(&mut self, _passes: u64) -> (u64, u64) {
        (self.checked, self.failed)
    }
}

// ------------------------------------------------------------ skinny-trans

struct SkinnyProb {
    p: Problem,
    a: Matrix<f32>,
    b: Matrix<f32>,
    c: Matrix<f32>,
}

pub struct Skinny {
    cfg: GemmConfig,
    probs: Vec<SkinnyProb>,
    order: Vec<usize>,
}

/// Fig 9/10 shapes: M or N in {32, 128} against 4096 or 8192, K = 256,
/// in both orientations.
pub fn skinny_shapes() -> Vec<(usize, usize, usize)> {
    shalom_workloads::irregular_grid(&[32, 128], &[4096, 8192], 256, true)
        .into_iter()
        .map(|s| (s.m, s.n, s.k))
        .collect()
}

impl Skinny {
    /// Operands and problem order from the seed.
    fn generate(seed: u64) -> Self {
        let mut rng = Rng::new(seed, tag::OPERANDS);
        let mut probs = Vec::new();
        for (m, n, k) in skinny_shapes() {
            for (op_a, op_b) in [(Op::NoTrans, Op::Trans), (Op::Trans, Op::NoTrans)] {
                let (ar, ac) = if op_a == Op::NoTrans { (m, k) } else { (k, m) };
                let (br, bc) = if op_b == Op::NoTrans { (k, n) } else { (n, k) };
                probs.push(SkinnyProb {
                    p: Problem {
                        op_a,
                        op_b,
                        m,
                        n,
                        k,
                        f64: false,
                        threads: 1,
                    },
                    a: Matrix::random(ar, ac, rng.seed()),
                    b: Matrix::random(br, bc, rng.seed()),
                    c: Matrix::zeros(m, n),
                });
            }
        }
        let mut order: Vec<usize> = (0..probs.len()).collect();
        Rng::new(seed, tag::ORDER).shuffle(&mut order);
        Skinny {
            cfg: GemmConfig::with_threads(1),
            probs,
            order,
        }
    }

    pub fn setup(seed: u64) -> Self {
        let mut s = Self::generate(seed);
        for i in 0..s.order.len() {
            s.op(i);
        }
        s
    }
}

impl Closed for Skinny {
    const THREADS: usize = 1;
    const SLOW_Q: f64 = SLOW_SINGLE;

    fn problems(&self) -> Vec<Problem> {
        self.probs.iter().map(|p| p.p).collect()
    }

    fn ops_per_pass(&self) -> usize {
        self.order.len()
    }

    fn flops(&self, i: usize) -> f64 {
        self.probs[self.order[i]].p.flops()
    }

    fn op(&mut self, i: usize) {
        let q = &mut self.probs[self.order[i]];
        gemm_with(
            &self.cfg,
            q.p.op_a,
            q.p.op_b,
            1.0,
            q.a.as_ref(),
            q.b.as_ref(),
            0.0,
            q.c.as_mut(),
        );
    }

    fn op_traced(&mut self, i: usize, sp: &mut Spans) {
        sp.time("core.gemm_with", || self.op(i));
    }

    /// Full compare of every problem's output (beta = 0, so every pass
    /// wrote the same values) with the bound `2·K·eps_f32·|entry|`.
    fn verify(&mut self, passes: u64) -> (u64, u64) {
        let mut failed = 0;
        for q in &self.probs {
            let want = reference_product(&q.p, &q.a, &q.b);
            let tol = 2.0 * q.p.k as f64 * f32::EPSILON as f64;
            if !all_close(q.c.as_ref(), &want, |w| tol * w + 1e-30) {
                failed += passes;
            }
        }
        (passes * self.probs.len() as u64, failed)
    }
}

// ------------------------------------------------ reproducibility digests

#[cfg(test)]
fn digest_matrix<T: Scalar>(d: &mut crate::gen::Digest, m: &Matrix<T>) {
    for i in 0..m.rows() {
        for j in 0..m.cols() {
            d.bytes(&m.at(i, j).to_f64().to_le_bytes());
        }
    }
}

/// Digest of every generated input byte of `cp2k-f64`.
#[cfg(test)]
pub fn cp2k_input_digest(seed: u64) -> u64 {
    let w = Cp2k::generate(seed);
    let mut d = crate::gen::Digest::new();
    w.order.iter().for_each(|o| d.bytes(&o.to_le_bytes()));
    for s in &w.slots {
        digest_matrix(&mut d, &s.a);
        digest_matrix(&mut d, &s.b);
        digest_matrix(&mut d, &s.c0);
    }
    d.finish()
}

/// Digest of every generated input byte of `skinny-trans`.
#[cfg(test)]
pub fn skinny_input_digest(seed: u64) -> u64 {
    let w = Skinny::generate(seed);
    let mut d = crate::gen::Digest::new();
    w.order.iter().for_each(|&o| d.bytes(&o.to_le_bytes()));
    for q in &w.probs {
        digest_matrix(&mut d, &q.a);
        digest_matrix(&mut d, &q.b);
    }
    d.finish()
}

/// Digest of every generated input byte of `vgg-conv`, check samples
/// included.
#[cfg(test)]
pub fn vgg_input_digest(seed: u64) -> u64 {
    let mut w = Vgg::generate(seed);
    let mut d = crate::gen::Digest::new();
    w.order.iter().for_each(|&o| d.bytes(&o.to_le_bytes()));
    for l in &w.layers {
        digest_matrix(&mut d, &l.weights);
        digest_matrix(&mut d, &l.input);
    }
    (0..256).for_each(|_| d.bytes(&w.sampler.next_u64().to_le_bytes()));
    d.finish()
}
