//! Per-layer measurements: each times or counts the benchmark's own
//! calls into one layer's public functions, on the workload's own
//! requests.

use std::collections::BTreeMap;
use std::time::Instant;

use saris_bench::{geomean, power_of, CodeResult};
use saris_codegen::{compile, verify_kernel, Fidelity, Session, SessionStats, WorkloadSpec};
use saris_core::{reference, Grid};
use saris_scaleout::ScaleoutEstimate;
use saris_serve::ServeStats;

use crate::metrics::Metrics;
use crate::probe::{Probe, Tally};
use crate::req::Req;
use crate::stats::{mean, median};
use crate::trace::{self, Span};

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The paper's single-cluster and 256-core summary numbers.
const PAPER_SPEEDUP: f64 = 2.72;
const PAPER_FPU_UTIL: f64 = 0.81;
const PAPER_ENERGY_GAIN: f64 = 1.58;
const PAPER_SCALEOUT_SPEEDUP: f64 = 2.14;

/// The fig3a/fig3b/fig4/fig5 geomeans of tuned gallery outcomes, and
/// their distance from the paper's summary numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperGap {
    pub speedup: f64,
    pub fpu_util: f64,
    pub energy_gain: f64,
    pub scaleout_speedup: f64,
}

impl PaperGap {
    pub fn of(
        results: &[CodeResult],
        scaleouts: &[(ScaleoutEstimate, ScaleoutEstimate)],
    ) -> PaperGap {
        PaperGap {
            speedup: geomean(results.iter().map(CodeResult::speedup)),
            fpu_util: geomean(results.iter().map(|r| r.saris.expect_report().fpu_util())),
            energy_gain: geomean(results.iter().map(|r| {
                let (b, s) = power_of(r);
                saris_energy::efficiency_gain(&b, &s)
            })),
            scaleout_speedup: geomean(
                scaleouts
                    .iter()
                    .map(|(b, s)| b.total_cycles / s.total_cycles),
            ),
        }
    }

    pub fn put(&self, m: &mut Metrics) {
        m.set("speedup_err", (self.speedup / PAPER_SPEEDUP - 1.0).abs());
        m.set("fpu_util_err", (self.fpu_util - PAPER_FPU_UTIL).abs());
        m.set(
            "energy_gain_err",
            (self.energy_gain / PAPER_ENERGY_GAIN - 1.0).abs(),
        );
        m.set(
            "scaleout_speedup_err",
            (self.scaleout_speedup / PAPER_SCALEOUT_SPEEDUP - 1.0).abs(),
        );
    }

    pub fn describe(&self) -> String {
        format!(
            "geomean speedup {:.2}x (paper {PAPER_SPEEDUP}x), SARIS FPU util {:.2} (paper {PAPER_FPU_UTIL}), \
             efficiency gain {:.2}x (paper {PAPER_ENERGY_GAIN}x), 256-core speedup {:.2}x (paper {PAPER_SCALEOUT_SPEEDUP}x). \
             The model has no per-code RTL reference: the *_err metrics measure distance from the paper's \
             published summary numbers only.",
            self.speedup, self.fpu_util, self.energy_gain, self.scaleout_speedup
        )
    }
}

/// `energy.*` and `scaleout.*`: `EnergyModel::estimate` and
/// `saris_scaleout::estimate` on the tuned gallery outcomes.
pub fn energy_scaleout(
    m: &mut Metrics,
    results: &[CodeResult],
    scaleouts: &[(ScaleoutEstimate, ScaleoutEstimate)],
) {
    let powers: Vec<_> = results.iter().map(power_of).collect();
    m.set(
        "energy.pj_per_flop.base",
        geomean(
            results
                .iter()
                .zip(&powers)
                .map(|(r, (b, _))| b.pj_per_flop(r.base.expect_report().flops())),
        ),
    );
    m.set(
        "energy.pj_per_flop.saris",
        geomean(
            results
                .iter()
                .zip(&powers)
                .map(|(r, (_, s))| s.pj_per_flop(r.saris.expect_report().flops())),
        ),
    );
    m.set(
        "scaleout.fpu_util.saris",
        geomean(scaleouts.iter().map(|(_, s)| s.fpu_util)),
    );
    m.set(
        "scaleout.speedup",
        geomean(
            scaleouts
                .iter()
                .map(|(b, s)| b.total_cycles / s.total_cycles),
        ),
    );
}

/// `codegen.*` and `verify.*`: `compile` and `verify_kernel` on each
/// distinct kernel the workload's cycle-tier requests run.
pub fn codegen(m: &mut Metrics, reqs: &[Req]) {
    let mut kernels = BTreeMap::new();
    for r in reqs.iter().filter(|r| r.fidelity == Fidelity::Cycles) {
        kernels.entry(format!("{:?}", r.kernel_key())).or_insert(r);
    }
    let (mut compile_us, mut instrs, mut verify_us) = (Vec::new(), Vec::new(), Vec::new());
    for r in kernels.values() {
        let options = r.options();
        let t = Instant::now();
        let kernel = compile(&r.stencil, r.extent, &options).expect("benchmark kernels compile");
        compile_us.push(us(t));
        instrs.push(kernel.total_instrs() as f64);
        let t = Instant::now();
        let report = verify_kernel(&r.stencil, &kernel, &options);
        verify_us.push(us(t));
        std::hint::black_box(report);
    }
    m.set("codegen.compile_us", median(&compile_us));
    m.set("codegen.instrs", mean(&instrs));
    m.set("verify.kernel_us", median(&verify_us));
}

/// `golden.*`: `reference::apply` on the inputs of the workload's
/// grid-producing requests; bytes per point from the grid sizes.
pub fn golden(m: &mut Metrics, reqs: &[Req]) {
    let (mut points, mut seconds, mut bytes) = (0.0, 0.0, 0.0);
    for r in reqs
        .iter()
        .filter(|r| r.fidelity != Fidelity::Analytic)
        .take(200)
    {
        let inputs = r.inputs();
        let refs: Vec<&Grid> = inputs.iter().collect();
        let mut out = Grid::zeros(r.extent);
        let t = Instant::now();
        reference::apply(&r.stencil, &refs, &mut out);
        seconds += t.elapsed().as_secs_f64();
        std::hint::black_box(&out);
        let interior = r.stencil.interior(r.extent).len() as f64;
        points += interior;
        bytes += ((inputs.len() + 1) * r.extent.len() * 8) as f64;
    }
    m.set("golden.mpts_per_s", ratio(points, seconds) / 1e6);
    m.set("golden.bytes_per_pt", ratio(bytes, points));
}

/// `backend.*` and `sim.*` from what the forwarding wrappers saw.
pub fn backend_sim(m: &mut Metrics, t: &Tally) {
    m.set(
        "backend.analytic_us",
        ratio(t.analytic.ns as f64, t.analytic.items as f64) / 1e3,
    );
    m.set(
        "backend.golden_us",
        ratio(t.golden.ns as f64, t.golden.items as f64) / 1e3,
    );
    let cycles = t.cycles();
    m.set(
        "backend.cycles_ms",
        ratio(cycles.ns as f64, cycles.items as f64) / 1e6,
    );
    let (calls, items) = [t.analytic, t.golden, t.cycles_base, t.cycles_saris]
        .iter()
        .fold((0, 0), |(c, i), b| (c + b.calls, i + b.items));
    m.set("backend.batch_size", ratio(items as f64, calls as f64));
    m.set(
        "sim.ns_per_cycle.base",
        ratio(t.cycles_base.cpu_ns as f64, t.cycles_base.cycles as f64),
    );
    m.set(
        "sim.ns_per_cycle.saris",
        ratio(t.cycles_saris.cpu_ns as f64, t.cycles_saris.cycles as f64),
    );
    m.set(
        "sim.ns_per_instr",
        ratio(cycles.cpu_ns as f64, cycles.retired as f64),
    );
    m.set(
        "sim.ff_frac",
        ratio(cycles.ff_cycles as f64, cycles.cycles as f64),
    );
    m.set(
        "sim.cycles",
        ratio(cycles.cycles as f64, cycles.items as f64),
    );
    for (name, b) in [("base", &t.cycles_base), ("saris", &t.cycles_saris)] {
        m.set(
            &format!("sim.fpu_util.{name}"),
            ratio(b.fpu_util_sum, b.items as f64),
        );
        m.set(&format!("sim.ipc.{name}"), ratio(b.ipc_sum, b.items as f64));
    }
    m.set(
        "sim.tcdm_conflict_rate",
        ratio(cycles.tcdm_conflicts as f64, cycles.tcdm_accesses as f64),
    );
    m.set(
        "sim.stream_accesses",
        ratio(cycles.stream_accesses as f64, cycles.items as f64),
    );
}

/// `session.*`: `Session::submit` on up to `n` of the workload's requests
/// per tier, through a session whose backends report to `probe`;
/// overhead is submit time minus the backend time linked to it.
pub fn session_submit(m: &mut Metrics, session: &Session, probe: &Probe, reqs: &[Req], n: usize) {
    let mut overhead = Vec::new();
    for (tier, name) in [
        (Fidelity::Analytic, "session.submit_us.analytic"),
        (Fidelity::Golden, "session.submit_us.golden"),
        (Fidelity::Cycles, "session.submit_us.cycles"),
    ] {
        let specs: Vec<WorkloadSpec> = reqs
            .iter()
            .filter(|r| r.fidelity == tier)
            .take(n)
            .map(Req::freeze)
            .collect();
        let mut times = Vec::new();
        for spec in &specs {
            let before = probe.snapshot().total_ns();
            let t = Instant::now();
            let outcome = session.submit(spec);
            let elapsed = us(t);
            let busy = (probe.snapshot().total_ns() - before) as f64 / 1e3;
            std::hint::black_box(outcome.is_ok());
            times.push(elapsed);
            overhead.push(elapsed - busy);
        }
        m.set(name, median(&times));
    }
    m.set("session.overhead_us", median(&overhead));
}

/// `session.kernel_hit_rate` and `session.cluster_reuse_rate`: what the
/// sessions under test counted between the `before` and `after`
/// snapshots.
pub fn session_stats(m: &mut Metrics, before: &[SessionStats], after: &[SessionStats]) {
    let sum = |f: fn(&SessionStats) -> u64| {
        after
            .iter()
            .zip(before)
            .map(|(a, b)| f(a) - f(b))
            .sum::<u64>() as f64
    };
    m.set(
        "session.kernel_hit_rate",
        ratio(sum(|s| s.cache_hits), sum(|s| s.cache_hits + s.compiles)),
    );
    m.set(
        "session.cluster_reuse_rate",
        ratio(sum(|s| s.clusters_reused), sum(|s| s.runs_cycles)),
    );
}

/// `serve.*` counters of the servers under test between two snapshots.
pub fn serve_stats(m: &mut Metrics, before: &[ServeStats], after: &[ServeStats]) {
    let sum = |f: fn(&ServeStats) -> u64| {
        after
            .iter()
            .zip(before)
            .map(|(a, b)| f(a) - f(b))
            .sum::<u64>() as f64
    };
    let requests = sum(|s| s.requests);
    m.set(
        "serve.cache_hit_rate",
        ratio(sum(|s| s.cache_hits), requests),
    );
    m.set(
        "serve.coalesced_rate",
        ratio(sum(|s| s.coalesced), requests),
    );
    m.set("serve.batches_formed", sum(|s| s.batches_formed));
    m.set("serve.compiles_saved", sum(|s| s.compiles_saved));
    m.set("serve.deadline_exceeded", sum(|s| s.deadline_exceeded));
    m.set("serve.retries", sum(|s| s.retries));
    m.set("serve.degraded", sum(|s| s.degraded));
    m.set("serve.errors", sum(|s| s.errors));
}

/// `unattributed_ms`: mean end-to-end time per request that no stage
/// span claims.
pub fn unattributed(m: &mut Metrics, spans: &[Span]) {
    let gaps: Vec<f64> = trace::unattributed(spans)
        .into_iter()
        .map(|ns| ns as f64 / 1e6)
        .collect();
    m.set("unattributed_ms", mean(&gaps));
}

/// Median duration of the spans named `name`, in `scale` ns units.
pub fn span_median(spans: &[Span], name: &str, scale: f64) -> f64 {
    let v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64 / scale)
        .collect();
    median(&v)
}
