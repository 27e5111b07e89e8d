//! The per-call record: the [`Route`] a root span carries, its tags, and
//! the [`DecisionRecord`] view [`crate::TraceSnapshot::decisions`] builds
//! from a routed span.

use crate::{shape_from_key, src, Phase, SpanRecord};
use shalom_simd::Isa;

tag_enum! {
    /// Workload shape class (mirror of `shalom_core::ShapeClass`, redefined
    /// here so the tracer sits below the core crate in the dependency
    /// graph).
    ShapeClassTag {
        /// M, N similar and LLC-resident.
        Small => "small",
        /// One of M / N much larger than the other (tall-and-skinny).
        Irregular => "irregular",
        /// Large and regular.
        Regular => "regular",
    }
}

tag_enum! {
    /// How the call's kernels consumed B (§4 plan, as executed).
    PlanTag {
        /// B read in place (`size(B) <= L1`, §4.2 regime 1, or `Never`).
        NoPack => "no-pack",
        /// Fused pack, `t = 0` (§4.2 regime 2 / NT Algorithm 3).
        FusedPack => "fused-pack",
        /// Fused pack with `t = 1` lookahead double-buffering (§4.2 regime 3).
        Lookahead => "fused-lookahead",
        /// Separate sequential pack phase (ablation, NT/TN transposes, and
        /// the wide kernel families' per-panel packing).
        SequentialPack => "sequential-pack",
    }
}

tag_enum! {
    /// How the call computed its edge tiles.
    EdgeTag {
        /// §5.4 edge kernels with software-pipelined loads (Figure 6b).
        Pipelined => "pipelined",
        /// §5.4 edge kernels with batched loads (Figure 6a).
        Batched => "batched",
        /// No edge kernel: the full-tile kernel runs on a zero-padded copy
        /// and the valid part is written back (the wide kernel families).
        Padded => "padded-tile",
    }
}

tag_enum! {
    /// Which dispatch layer a routed span belongs to, read off the spans
    /// enclosing it when it closes.
    PathTag {
        /// Single-threaded driver invoked directly.
        Serial => "serial",
        /// The §6 fork-join parent (one per parallel API call).
        Parallel => "parallel",
        /// One worker's sub-block inside a fork-join scope.
        ParallelWorker => "parallel-worker",
        /// One item of a `gemm_batch` (§7.4 batched small GEMM).
        Batch => "batch",
    }
}

impl PathTag {
    /// The path of a `phase` span closing with `outer` (a set of
    /// [`Phase::bit`]s) open around it.
    pub(crate) fn of(phase: Phase, outer: u32) -> PathTag {
        if phase == Phase::Parallel {
            PathTag::Parallel
        } else if outer & Phase::BatchItem.bit() != 0 {
            PathTag::Batch
        } else if outer & (Phase::Task.bit() | Phase::Parallel.bit()) != 0 {
            PathTag::ParallelWorker
        } else {
            PathTag::Serial
        }
    }
}

/// The route one GEMM call ran: the attributes of its root
/// `Serial`/`Parallel` span. The core crate builds it in one place from
/// the resolved plan; a span without a route has `isa: None`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Route {
    /// Instruction-set level the call's kernels ran at.
    pub isa: Option<Isa>,
    /// `b'N'` or `b'T'` for A.
    pub op_a: u8,
    /// `b'N'` or `b'T'` for B.
    pub op_b: u8,
    /// Element width: 32 (f32) or 64 (f64).
    pub elem_bits: u8,
    /// §2.1 shape class of the call's full problem.
    pub class: ShapeClassTag,
    /// How B was consumed.
    pub plan: PlanTag,
    /// How edge tiles were computed.
    pub edge: EdgeTag,
    /// Dispatch layer (filled in by the tracer).
    pub path: PathTag,
    /// Register-tile rows (`mr`).
    pub mr: u8,
    /// Register-tile columns (`nr`, in elements).
    pub nr: u8,
    /// §6 thread-grid rows (1 when serial).
    pub tm: u16,
    /// §6 thread-grid columns (1 when serial).
    pub tn: u16,
    /// Resolved worker count for the call.
    pub threads: u16,
    /// Per-thread workspace retained after the call, bytes (0 on a
    /// parallel parent: each worker reports its own).
    pub workspace_bytes: u64,
}

impl Route {
    /// Whether this is a real route (a root span), not the unset value.
    #[inline]
    pub fn is_set(&self) -> bool {
        self.isa.is_some()
    }

    /// The route as JSON object members (no braces), shared by the
    /// decision records and the Chrome export.
    pub fn json_members(&self) -> String {
        format!(
            concat!(
                "\"op\":\"{}{}\",\"elem\":\"f{}\",\"isa\":\"{}\",\"class\":\"{}\",",
                "\"plan\":\"{}\",\"edge\":\"{}\",\"path\":\"{}\",\"mr\":{},\"nr\":{},",
                "\"tm\":{},\"tn\":{},\"threads\":{},\"workspace_bytes\":{}"
            ),
            self.op_a as char,
            self.op_b as char,
            self.elem_bits,
            self.isa.map_or("none", Isa::label),
            self.class.as_str(),
            self.plan.as_str(),
            self.edge.as_str(),
            self.path.as_str(),
            self.mr,
            self.nr,
            self.tm,
            self.tn,
            self.threads,
            self.workspace_bytes,
        )
    }
}

/// One GEMM call as the tracer saw it: the shape and [`Route`] of a
/// root span plus the time it took.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecisionRecord {
    /// Position in the snapshot, ordered by close time.
    pub seq: u64,
    /// Output rows.
    pub m: usize,
    /// Output columns.
    pub n: usize,
    /// Contraction depth.
    pub k: usize,
    /// What ran.
    pub route: Route,
    /// Where the plan came from ([`src`] code).
    pub plan_source: u8,
    /// Nanoseconds in the call's own `PlanLookup` spans.
    pub plan_ns: u64,
    /// Nanoseconds in *sequential* packing (fused packing overlaps
    /// compute by design and is not separable); 0 on a parallel parent.
    pub pack_ns: u64,
    /// Wall nanoseconds for the whole call.
    pub total_ns: u64,
}

impl DecisionRecord {
    /// The record of a routed span whose `PlanLookup` children took
    /// `plan_ns`.
    pub(crate) fn from_span(s: &SpanRecord, plan_ns: u64) -> DecisionRecord {
        let (m, n, k) = shape_from_key(s.aux);
        DecisionRecord {
            seq: 0,
            m,
            n,
            k,
            route: s.route,
            plan_source: s.src,
            plan_ns,
            pack_ns: if s.phase() == Phase::Serial {
                s.extra
            } else {
                0
            },
            total_ns: s.duration_ns(),
        }
    }

    /// Floating-point operations of the call (`2*M*N*K`).
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }

    /// Achieved GFLOPS at the recorded wall time (0 when untimed).
    pub fn gflops(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.flops() / self.total_ns as f64
    }

    /// One JSON object, no trailing newline.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"seq\":{},\"m\":{},\"n\":{},\"k\":{},{},\"plan_source\":\"{}\",",
                "\"plan_ns\":{},\"pack_ns\":{},\"total_ns\":{},\"gflops\":{:.3}}}"
            ),
            self.seq,
            self.m,
            self.n,
            self.k,
            self.route.json_members(),
            src::as_str(self.plan_source),
            self.plan_ns,
            self.pack_ns,
            self.total_ns,
            self.gflops(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_ordered() {
        for (i, c) in ShapeClassTag::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, p) in PlanTag::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        for (i, p) in PathTag::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn json_contains_all_decisions() {
        let r = DecisionRecord {
            seq: 7,
            m: 64,
            n: 50176,
            k: 64,
            route: Route {
                isa: Some(Isa::Avx512W512),
                op_a: b'N',
                op_b: b'T',
                elem_bits: 32,
                class: ShapeClassTag::Irregular,
                plan: PlanTag::SequentialPack,
                edge: EdgeTag::Padded,
                path: PathTag::Parallel,
                mr: 15,
                nr: 16,
                tm: 1,
                tn: 4,
                threads: 4,
                workspace_bytes: 4096,
            },
            plan_source: src::CACHED,
            plan_ns: 120,
            pack_ns: 10,
            total_ns: 1000,
        };
        let j = r.to_json();
        for needle in [
            "\"op\":\"NT\"",
            "\"isa\":\"avx512\"",
            "\"class\":\"irregular\"",
            "\"plan\":\"sequential-pack\"",
            "\"edge\":\"padded-tile\"",
            "\"path\":\"parallel\"",
            "\"mr\":15",
            "\"tn\":4",
            "\"elem\":\"f32\"",
            "\"plan_source\":\"cached\"",
            "\"plan_ns\":120",
        ] {
            assert!(j.contains(needle), "{j} missing {needle}");
        }
        assert!(crate::json::parse(&j).is_ok(), "{j}");
    }

    #[test]
    fn gflops_math() {
        let r = DecisionRecord {
            m: 10,
            n: 10,
            k: 10,
            total_ns: 2000,
            ..Default::default()
        };
        assert_eq!(r.flops(), 2000.0);
        assert!((r.gflops() - 1.0).abs() < 1e-12);
        let untimed = DecisionRecord::default();
        assert_eq!(untimed.gflops(), 0.0);
    }
}
