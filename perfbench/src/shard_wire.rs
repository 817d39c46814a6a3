//! `shard_wire`: a `Coordinator` over two loopback `ShardWorker`s, each a
//! single-worker `Server`, fed by a seeded open-loop schedule through two
//! sender threads. Requests are cheap and mostly unique, so the wire,
//! the transport and shard routing dominate.

use std::sync::Arc;
use std::time::Instant;

use saris_bench::{paper_workload, scaleout_from, CodeResult};
use saris_codegen::{
    decode_outcome, decode_spec, encode_outcome, encode_spec, Fidelity, Variant, Workload,
};
use saris_core::{gallery, Extent};
use saris_scaleout::ScaleoutEstimate;
use saris_serve::{ServeConfig, Server};
use saris_shard::{Coordinator, ShardWorker};

use crate::layers;
use crate::metrics::Metrics;
use crate::openloop::{
    self, pattern, Arrivals, Counters, Ids, OpenLoop, Phase, Record, Schedule, Timed,
};
use crate::probe::{self, Probe, Tally};
use crate::req::{Answer, Req};
use crate::rng::Rng;
use crate::stats::{self, median};
use crate::trace::{Span, Tracer};
use crate::{Ctx, Run};

const SHARDS: usize = 2;
const SENDERS: usize = 2;
/// A loopback round trip whose transport takes longer than this has
/// stalled: unstalled ones take well under a millisecond.
const STALL_MS: f64 = 10.0;
/// Requests of the traced phase replayed through the wire codec.
const REPLAYS: usize = 200;

/// Analytic requests use codes that no cycle-tier request runs, so the
/// live calibration store never changes an estimate mid-run and every
/// answer can be compared bit for bit.
const ANALYTIC_CODES: [&str; 4] = ["jacobi_2d", "j2d5pt", "box2d1r", "j2d9pt"];
const CYCLE_CODES: [&str; 2] = ["j2d9pt_gol", "star2d3r"];
/// The cycle-tier kernels, taken in turn.
const CYCLE_KINDS: [(&str, Variant); 3] = [
    ("star2d3r", Variant::Base),
    ("star2d3r", Variant::Saris),
    ("j2d9pt_gol", Variant::Saris),
];
const TILE: usize = 16;
/// The second request of a pair follows the first this many seconds
/// later. Sent that soon on the same shard's connection, it meets the
/// transport's ~40 ms delayed-ACK stall; a pair's first request follows
/// over 100 ms of quiet and does not.
const PAIR_GAP_S: f64 = 0.005;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Repeat,
    Analytic,
    Golden,
    Cycles,
}

/// Cheap, mostly unique requests at 16^2: per 20, 2 repeats of a recent
/// spec, 8 analytic, 8 golden and 2 cycle-tier, spread evenly.
pub struct Mix {
    pattern: Vec<Class>,
    n: usize,
    drawn: [usize; 4],
    analytic: Vec<Arc<saris_core::Stencil>>,
    golden: Vec<Arc<saris_core::Stencil>>,
    cycles: Vec<(Arc<saris_core::Stencil>, Variant)>,
    history: Vec<Req>,
}

fn stencils(names: &[&str]) -> Vec<Arc<saris_core::Stencil>> {
    names
        .iter()
        .map(|n| Arc::new(gallery::by_name(n).expect("gallery code")))
        .collect()
}

fn cycle_kinds() -> Vec<(Arc<saris_core::Stencil>, Variant)> {
    CYCLE_KINDS
        .iter()
        .map(|&(name, variant)| (stencils(&[name]).remove(0), variant))
        .collect()
}

impl openloop::Mix for Mix {
    fn new() -> Mix {
        use Class::*;
        let mut golden = ANALYTIC_CODES.to_vec();
        golden.extend(CYCLE_CODES);
        Mix {
            pattern: pattern(&[(Repeat, 2), (Analytic, 8), (Golden, 8), (Cycles, 2)]),
            n: 0,
            drawn: [0; 4],
            analytic: stencils(&ANALYTIC_CODES),
            golden: stencils(&golden),
            cycles: cycle_kinds(),
            history: Vec::new(),
        }
    }

    fn next(&mut self, rng: &mut Rng) -> Req {
        let class = self.pattern[self.n % self.pattern.len()];
        self.n += 1;
        if class == Class::Repeat && !self.history.is_empty() {
            let back = 1 + rng.below(self.history.len().min(64));
            return self.history[self.history.len() - back].clone();
        }
        let k = self.drawn[class as usize];
        self.drawn[class as usize] += 1;
        let req = if class == Class::Cycles {
            let (stencil, variant) = &self.cycles[k % self.cycles.len()];
            Req::new(
                stencil,
                Extent::new_2d(TILE, TILE),
                rng.next_u64(),
                *variant,
                Fidelity::Cycles,
            )
        } else {
            let (from, fidelity) = match class {
                Class::Golden => (&self.golden, Fidelity::Golden),
                _ => (&self.analytic, Fidelity::Analytic),
            };
            let variant = if (k / from.len()).is_multiple_of(2) {
                Variant::Base
            } else {
                Variant::Saris
            };
            Req::new(
                &from[k % from.len()],
                Extent::new_2d(TILE, TILE),
                rng.next_u64(),
                variant,
                fidelity,
            )
        };
        self.history.push(req.clone());
        req
    }
}

/// The system under test: a coordinator over loopback shard workers,
/// whose sessions all report to one probe.
pub struct ShardWire {
    // Field order is drop order: the coordinator hangs up before the
    // workers shut down.
    coordinator: Coordinator,
    workers: Vec<ShardWorker>,
    probe: Arc<Probe>,
    results: Vec<CodeResult>,
    scaleouts: Vec<(ScaleoutEstimate, ScaleoutEstimate)>,
}

fn build(seed: u64, tracer: &Arc<Tracer>) -> ShardWire {
    let probe = Probe::new(Arc::clone(tracer));
    let workers: Vec<ShardWorker> = (0..SHARDS)
        .map(|_| {
            let server = Server::over(
                probe::session(&probe),
                ServeConfig {
                    workers: 1,
                    ..ServeConfig::default()
                },
            )
            .expect("shard server starts");
            ShardWorker::spawn(server).expect("shard worker listens")
        })
        .collect();
    let coordinator = Coordinator::over(&workers).expect("coordinator connects");
    // The tuned paper gallery and the DMA probes, answered over the wire.
    let submit = |spec| {
        coordinator
            .submit(&spec)
            .map(|o| (*o).clone())
            .expect("paper workloads are answered")
    };
    let mut results = Vec::new();
    for stencil in gallery::all().into_iter().map(Arc::new) {
        let base = submit(paper_workload(&stencil, Variant::Base));
        let saris = submit(paper_workload(&stencil, Variant::Saris));
        results.push(CodeResult {
            tile: saris_bench::paper_tile(&stencil),
            stencil,
            base,
            saris,
        });
    }
    let scaleouts = results
        .iter()
        .map(|r| {
            let probe = Workload::dma_probe(r.tile)
                .freeze()
                .expect("probe workloads are valid");
            let util = submit(probe)
                .dma_utilization
                .expect("probes measure utilization");
            (
                scaleout_from(r, &r.base, util),
                scaleout_from(r, &r.saris, util),
            )
        })
        .collect();
    // Warm every shard's kernel cache and cluster pool for the cycle-tier
    // kernels, whichever shard the ring routes each request to.
    let mut rng = Rng::fork(seed, 2);
    for worker in &workers {
        for (s, variant) in cycle_kinds() {
            let req = Req::new(
                &s,
                Extent::new_2d(TILE, TILE),
                rng.next_u64(),
                variant,
                Fidelity::Cycles,
            );
            worker
                .server()
                .submit(&req.freeze())
                .expect("warm-up requests succeed");
        }
    }
    probe.reset();
    ShardWire {
        coordinator,
        workers,
        probe,
        results,
        scaleouts,
    }
}

impl OpenLoop for ShardWire {
    const NOMINAL_RPS: f64 = 15.0;
    const ARRIVALS: Arrivals = Arrivals::Pairs {
        within: PAIR_GAP_S,
        jitter: 0.2,
    };
    const LIMIT_MS: f64 = 250.0;
    const STEP: f64 = 2.0;
    const RUNGS: usize = 2;
    const RUNG_S: f64 = 1.75;
    const NOMINAL_SHARE: f64 = 0.8;
    const SIM_CPS_WITH_LADDER: bool = true;
    type Mix = Mix;

    fn setup(seed: u64, tracer: &Arc<Tracer>) -> ShardWire {
        build(seed, tracer)
    }

    fn probe(&self) -> &Arc<Probe> {
        &self.probe
    }

    fn paper(&self) -> (&[CodeResult], &[(ScaleoutEstimate, ScaleoutEstimate)]) {
        (&self.results, &self.scaleouts)
    }

    fn drive(&self, schedule: &Schedule, tracer: &Arc<Tracer>, ids: &Ids) -> Vec<Record> {
        openloop::run_coordinator(
            &self.coordinator,
            SHARDS,
            &self.probe,
            schedule,
            SENDERS,
            tracer,
            ids,
        )
    }

    fn counters(&self) -> Counters {
        Counters {
            serve: self.workers.iter().map(|w| w.server().stats()).collect(),
            session: self
                .workers
                .iter()
                .map(|w| w.server().session().stats())
                .collect(),
        }
    }

    /// Every answer must equal, bit for bit, what the worker's own
    /// in-process `Server` answers for the same spec.
    fn cross_check(&self, schedule: &Schedule, records: &[Record]) -> Vec<String> {
        let mut out = Vec::new();
        for ((_, req), record) in schedule.iter().zip(records) {
            let Ok(wire) = &record.answer else { continue };
            let spec = req.freeze();
            let shard = self
                .coordinator
                .route(spec.fingerprint())
                .expect("a live shard");
            match self.workers[shard].server().submit(&spec) {
                Ok(o) if Answer::of(req, &o).digest == wire.digest => {}
                _ => out.push(format!(
                    "{} {:?}: wire answer differs from in-process Server",
                    req.stencil.name(),
                    req.fidelity
                )),
            }
        }
        out
    }

    /// A sender is busy for the whole submit call: that is the service
    /// time that bounds what the senders can carry.
    fn capacity(&self, phase: &Phase) -> (usize, f64) {
        (SENDERS, phase.mean_service_s)
    }

    fn layers(&self, run: &mut Run, traced: &Timed, spans: &[Span], _tally: &Tally) {
        let m = &mut run.metrics;
        m.set(
            "shard.route_us",
            layers::span_median(spans, "shard.route", 1e3),
        );
        m.set(
            "shard.submit_ms",
            layers::span_median(spans, "shard.submit", 1e6),
        );
        let cstats = self.coordinator.stats();
        let routed: Vec<f64> = cstats.routed.iter().map(|&r| r as f64).collect();
        m.set(
            "shard.skew",
            routed.iter().copied().fold(0.0, f64::max) / stats::mean(&routed).max(1.0),
        );
        m.set("shard.retries", cstats.retries as f64);
        m.set("shard.rehashes", cstats.rehashes as f64);
        let reqs: Vec<Req> = traced.schedule.iter().map(|(_, r)| r.clone()).collect();
        let fixed_ms = wire(m, self, &reqs);
        let transport = net(m, spans, fixed_ms);
        run.notes.push(format!(
            "traced p50 {:.3} ms; net.transport_ms {transport:.3} ms is {:.0}% of it",
            traced.phase.p50(),
            100.0 * transport / traced.phase.p50()
        ));
    }
}

pub fn run(ctx: &Ctx) -> Run {
    openloop::run::<ShardWire>(ctx)
}

/// `wire.*`: `encode_spec`/`decode_spec` on the traced phase's specs and
/// `encode_outcome`/`decode_outcome` on their outcomes, as the worker's
/// in-process `Server::submit` returns them (a response-cache hit).
/// Returns the median in-process submit plus codec time, ms: the part of
/// a round trip that is neither transport nor execution.
fn wire(m: &mut Metrics, s: &ShardWire, reqs: &[Req]) -> f64 {
    let (mut spec_us, mut outcome_us, mut spec_b, mut outcome_b, mut fixed_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for req in reqs.iter().take(REPLAYS) {
        let spec = req.freeze();
        let t = Instant::now();
        let text = encode_spec(&spec);
        let back = decode_spec(&text).expect("specs decode");
        let spec_t = t.elapsed().as_secs_f64() * 1e6;
        std::hint::black_box(back);
        let shard = s
            .coordinator
            .route(spec.fingerprint())
            .expect("a live shard");
        let t = Instant::now();
        let local = s.workers[shard].server().submit(&spec);
        let local_us = t.elapsed().as_secs_f64() * 1e6;
        let Ok(outcome) = local else { continue };
        let t = Instant::now();
        let text_o = encode_outcome(&outcome);
        let back = decode_outcome(&text_o).expect("outcomes decode");
        let outcome_t = t.elapsed().as_secs_f64() * 1e6;
        std::hint::black_box(back);
        spec_us.push(spec_t);
        outcome_us.push(outcome_t);
        spec_b.push(text.len() as f64);
        outcome_b.push(text_o.len() as f64);
        fixed_ms.push((spec_t + local_us + outcome_t) / 1e3);
    }
    m.set("wire.spec_us", median(&spec_us));
    m.set("wire.outcome_us", median(&outcome_us));
    m.set("wire.spec_bytes", stats::mean(&spec_b));
    m.set("wire.outcome_bytes", stats::mean(&outcome_b));
    median(&fixed_ms)
}

/// `net.*` and `shard.wait_ms` on the traced requests themselves. Per
/// request, `shard.wait_ms` is the wait for the shard's connection
/// (`shard.turn`); the round trip is the rest of `shard.submit`, i.e. the
/// `NetClient::submit` the coordinator makes; the transport is that
/// round trip less the linked backend execution and `fixed_ms`;
/// `net.stalled_frac` is the share of transports over [`STALL_MS`].
/// Returns the median transport, ms.
fn net(m: &mut Metrics, spans: &[Span], fixed_ms: f64) -> f64 {
    let (mut turn, mut exec) = (vec![0u64; spans.len()], vec![0u64; spans.len()]);
    for sp in spans {
        match (sp.parent, sp.name) {
            (Some(p), "shard.turn") => turn[p] += sp.dur(),
            (Some(p), name) if name.starts_with("backend.") => exec[p] += sp.dur(),
            _ => {}
        }
    }
    let (mut wait, mut rtt, mut transport) = (Vec::new(), Vec::new(), Vec::new());
    for (i, sp) in spans
        .iter()
        .enumerate()
        .filter(|(_, sp)| sp.name == "shard.submit")
    {
        let round_trip = sp.dur().saturating_sub(turn[i]) as f64 / 1e6;
        wait.push(turn[i] as f64 / 1e6);
        rtt.push(round_trip);
        transport.push(round_trip - exec[i] as f64 / 1e6 - fixed_ms);
    }
    m.set("shard.wait_ms", median(&wait));
    m.set("net.rtt_ms", median(&rtt));
    m.set("net.transport_ms", median(&transport));
    let stalled = transport.iter().filter(|&&t| t > STALL_MS).count();
    m.set(
        "net.stalled_frac",
        stalled as f64 / transport.len().max(1) as f64,
    );
    median(&transport)
}
