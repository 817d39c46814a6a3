//! `sim_gallery`: the ten gallery codes in both variants at the paper
//! tiles, plus `jacobi_2d` SARIS with concurrent DMA, in a closed loop
//! through one warm `Session`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use saris_bench::{evaluate_all_in, scaleout_of_in, CodeResult};
use saris_codegen::{Fidelity, Session, Variant};
use saris_scaleout::ScaleoutEstimate;

use crate::layers::{self, PaperGap};
use crate::probe::{self, Probe};
use crate::req::{report_digest, Answer, Oracle, Req, FNV_SEED};
use crate::rng::Rng;
use crate::stats::{mean, median, percentile, sorted};
use crate::trace::{self, Tracer};
use crate::{Ctx, Run};

struct Setup {
    session: Session,
    probe: Arc<Probe>,
    results: Vec<CodeResult>,
    scaleouts: Vec<(ScaleoutEstimate, ScaleoutEstimate)>,
    /// The 21 timed requests, each at the unroll its tuned run chose.
    reqs: Vec<Req>,
}

fn setup(seed: u64, tracer: &Arc<Tracer>) -> Setup {
    let probe = Probe::new(Arc::clone(tracer));
    let session = probe::session(&probe);
    // Tuning, compiling and verifying happen here, through the same
    // calls `fig3a`..`fig5` make.
    let results = evaluate_all_in(&session);
    let scaleouts = results
        .iter()
        .map(|r| scaleout_of_in(&session, r))
        .collect();
    let mut rng = Rng::fork(seed, 1);
    let mut reqs = Vec::new();
    for r in &results {
        for (variant, outcome) in [(Variant::Base, &r.base), (Variant::Saris, &r.saris)] {
            let mut req = Req::new(
                &r.stencil,
                r.tile,
                rng.next_u64(),
                variant,
                Fidelity::Cycles,
            );
            req.unroll = outcome
                .unroll()
                .expect("cycle-tier outcomes carry their kernel");
            reqs.push(req);
        }
    }
    let mut dma = reqs[1].clone();
    dma.dma = true;
    dma.seed = rng.next_u64();
    reqs.push(dma);
    // Warm the kernel cache and cluster pool for exactly these requests.
    for req in &reqs {
        session.submit(&req.freeze()).expect("gallery requests run");
    }
    probe.reset();
    Setup {
        session,
        probe,
        results,
        scaleouts,
        reqs,
    }
}

/// What one closed-loop phase measured.
struct Loop {
    latency_ms: Vec<f64>,
    /// Per pass: the median request latency, ms.
    pass_p50_ms: Vec<f64>,
    /// Time spent in requests, s.
    busy_s: f64,
    digests: Vec<u64>,
    cycles_per_pass: u64,
    attempted: usize,
    mismatches: Vec<String>,
    spans: Vec<trace::Span>,
}

/// Whole passes over the 21 requests until `seconds` have elapsed; the
/// oracle checks each pass after it, outside the timed calls.
fn closed_loop(s: &Setup, seconds: f64, tracer: &Tracer) -> Loop {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let keys: Vec<Option<u64>> = s
        .reqs
        .iter()
        .map(|r| tracer.enabled().then(|| r.exec_key()))
        .collect();
    let mut oracle = Oracle::default();
    let mut out = Loop {
        latency_ms: Vec::new(),
        pass_p50_ms: Vec::new(),
        busy_s: 0.0,
        digests: Vec::new(),
        cycles_per_pass: 0,
        attempted: 0,
        mismatches: Vec::new(),
        spans: Vec::new(),
    };
    let mut id = 1u64;
    while out.digests.is_empty() || Instant::now() < deadline {
        let mut cycles = 0;
        let mut digest = FNV_SEED;
        let mut answers = Vec::with_capacity(s.reqs.len());
        let mut pass_ms = Vec::with_capacity(s.reqs.len());
        for (req, key) in s.reqs.iter().zip(&keys) {
            let t0 = Instant::now();
            let root = tracer.open("request", id, None, t0);
            let spec = req.freeze();
            let t1 = Instant::now();
            tracer.record("workload.freeze", id, root, t0, t1);
            let submit = tracer.open("session.submit", id, root, t1);
            if let Some(key) = *key {
                s.probe.expect(key, id, submit);
            }
            let result = s.session.submit(&spec);
            let t2 = Instant::now();
            tracer.close(submit, t2);
            tracer.close(root, t2);
            if let Some(key) = *key {
                s.probe.done(key, id);
            }
            id += 1;
            pass_ms.push((t2 - t0).as_secs_f64() * 1e3);
            out.busy_s += (t2 - t0).as_secs_f64();
            answers.push(result.map(|o| {
                cycles += o.total_cycles();
                digest = report_digest(&o.reports, digest);
                Answer::of(req, &o)
            }));
        }
        out.attempted += answers.len();
        for (req, answer) in s.reqs.iter().zip(&answers) {
            let checked = match answer {
                Ok(a) => oracle.check(req, a),
                Err(e) => Err(e.to_string()),
            };
            if let Err(e) = checked {
                out.mismatches
                    .push(format!("{} {}: {e}", req.stencil.name(), req.variant));
            }
        }
        out.pass_p50_ms.push(median(&pass_ms));
        out.latency_ms.extend(pass_ms);
        out.cycles_per_pass = cycles;
        out.digests.push(digest);
    }
    if out.digests.iter().any(|d| *d != out.digests[0]) {
        out.mismatches
            .push("simulated statistics differ between passes over the same requests".into());
    }
    out.spans = tracer.take();
    out
}

pub fn run(ctx: &Ctx) -> Run {
    let mut run = Run::default();
    let off = Arc::new(Tracer::new(false));
    if !ctx.trace {
        let t = Instant::now();
        let s = setup(ctx.seed, &off);
        let first_setup = t.elapsed().as_secs_f64();
        let l = closed_loop(&s, ctx.seconds, &off);
        let m = &mut run.metrics;
        let [cps_base, cps_saris] = s.probe.snapshot().sim_cps();
        m.set("sim_cps.base", cps_base);
        m.set("sim_cps.saris", cps_saris);
        PaperGap::of(&s.results, &s.scaleouts).put(m);
        // Means over the whole run: host speed drifts within a run on
        // shared machines, and a mean moves with the share of time spent
        // slow where a quantile jumps between the fast and the slow mode.
        m.set("p50_ms", mean(&l.pass_p50_ms));
        m.set("p99_ms", percentile(&sorted(&l.latency_ms), 0.99));
        m.set("max_rps", l.attempted as f64 / l.busy_s);
        run.notes
            .push(PaperGap::of(&s.results, &s.scaleouts).describe());
        run.notes.push(format!(
            "closed loop, 1 client: {} passes, {} requests; p99 over {} samples",
            l.digests.len(),
            l.attempted,
            l.latency_ms.len()
        ));
        run.notes.push(format!(
            "sim.cycles {} per pass, RunReport digest {:016x}",
            l.cycles_per_pass, l.digests[0]
        ));
        run.attempted = l.attempted;
        run.mismatches = l.mismatches;
        run.metrics.set("peak_rss_mb", crate::peak_rss_mb());
        drop(s);
        run.metrics.set(
            "setup_s",
            crate::setup_seconds(first_setup, || setup(ctx.seed, &off)),
        );
        return run;
    }

    // Traced run: an untraced half, then a traced half over the same
    // requests on a fresh setup; the difference is the tracing overhead.
    let half = ctx.seconds / 2.0;
    let untraced = {
        let s = setup(ctx.seed, &off);
        closed_loop(&s, half, &off)
    };
    let s = setup(ctx.seed, &ctx.tracer);
    ctx.tracer.take();
    let session_before = s.session.stats();
    let traced = closed_loop(&s, half, &ctx.tracer);
    let session_after = s.session.stats();
    let m = &mut run.metrics;
    m.set(
        "workload.freeze_us",
        layers::span_median(&traced.spans, "workload.freeze", 1e3),
    );
    // The closed loop runs the cycle tier only; replaying its requests at
    // the other two tiers adds theirs to the backend tally.
    layers::session_submit(m, &s.session, &s.probe, &with_tiers(&s.reqs), 21);
    let tally = s.probe.snapshot();
    m.set(
        "session.submit_us.cycles",
        layers::span_median(&traced.spans, "session.submit", 1e3),
    );
    let selfs = trace::self_times(&traced.spans);
    let overhead: Vec<f64> = traced
        .spans
        .iter()
        .zip(&selfs)
        .filter(|(sp, _)| sp.name == "session.submit")
        .map(|(_, ns)| *ns as f64 / 1e3)
        .collect();
    m.set("session.overhead_us", median(&overhead));
    layers::session_stats(m, &[session_before], &[session_after]);
    layers::backend_sim(m, &tally);
    layers::codegen(m, &s.reqs);
    layers::golden(m, &s.reqs);
    layers::energy_scaleout(m, &s.results, &s.scaleouts);
    layers::unattributed(m, &traced.spans);
    m.set(
        "trace.overhead_frac",
        median(&traced.latency_ms) / median(&untraced.latency_ms) - 1.0,
    );
    run.notes.push(format!(
        "sim.cycles {} per pass, RunReport digest {:016x}",
        traced.cycles_per_pass, traced.digests[0]
    ));
    run.attempted = untraced.attempted + traced.attempted;
    run.mismatches = untraced.mismatches;
    run.mismatches.extend(traced.mismatches);
    if traced.digests[0] != untraced.digests[0] {
        run.mismatches
            .push("traced and untraced runs simulated different statistics".into());
    }
    run.spans = traced.spans;
    run
}

/// The timed requests again at the analytic and golden tiers, for the
/// session layer's per-tier submit times.
fn with_tiers(reqs: &[Req]) -> Vec<Req> {
    let mut out = Vec::new();
    for tier in [Fidelity::Analytic, Fidelity::Golden] {
        out.extend(reqs.iter().filter(|r| !r.dma).map(|r| Req {
            fidelity: tier,
            ..r.clone()
        }));
    }
    out
}
