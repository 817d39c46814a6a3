//! Open-loop load: a seeded schedule, sent on time whatever the
//! system's state, with each request timed from when it was due; and the
//! run shared by the open-loop workloads (a nominal phase, a rate ladder
//! for `max_rps`, and the traced run with its per-layer metrics).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use saris_bench::CodeResult;
use saris_codegen::{Fidelity, SessionStats};
use saris_scaleout::ScaleoutEstimate;
use saris_serve::{ServeResult, ServeStats, Server};
use saris_shard::Coordinator;

use crate::layers::{self, PaperGap};
use crate::probe::{self, Probe, Tally};
use crate::req::{Answer, Oracle, Req};
use crate::rng::Rng;
use crate::stats::{self, Rung};
use crate::trace::{Span, Tracer};
use crate::{Ctx, Run};

/// Requests with their due offsets (seconds from the phase start).
pub type Schedule = Vec<(f64, Req)>;

/// How the requests of a schedule arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Exponential gaps: bursts and lulls.
    Poisson,
    /// Requests in pairs, the second `within` seconds after the first,
    /// and the pairs paced: gaps between pairs uniform within `jitter` (a
    /// share) of their mean, `2 / rate - within`.
    Pairs { within: f64, jitter: f64 },
}

/// A seeded schedule of `rate` requests/s over `seconds`, drawing each
/// request from `next`.
fn schedule(
    rng: &mut Rng,
    arrivals: Arrivals,
    rate: f64,
    seconds: f64,
    mut next: impl FnMut(&mut Rng) -> Req,
) -> Schedule {
    let gap = |rng: &mut Rng, n: usize| match arrivals {
        Arrivals::Poisson => rng.exp_gap(rate),
        Arrivals::Pairs { within, .. } if n % 2 == 1 => within,
        Arrivals::Pairs { within, jitter } => {
            (1.0 + jitter * (2.0 * rng.unit() - 1.0)) * (2.0 / rate - within)
        }
    };
    let mut out = Vec::new();
    let mut t = gap(rng, 0);
    while t < seconds {
        out.push((t, next(rng)));
        t += gap(rng, out.len());
    }
    out
}

/// One completed request.
#[derive(Debug, Clone)]
pub struct Record {
    pub due: Instant,
    /// When the request could first be sent: its due time, or later when
    /// every sender was still busy with an earlier request. `sent -
    /// ready` is the generator's own lateness, not the system's queueing.
    pub ready: Instant,
    pub sent: Instant,
    pub done: Instant,
    /// Time the sender spent in the system's submit call.
    pub service: Duration,
    pub answer: Result<Answer, String>,
}

impl Record {
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }

    pub fn lateness_ms(&self) -> f64 {
        self.sent
            .saturating_duration_since(self.ready)
            .as_secs_f64()
            * 1e3
    }
}

/// How long before a due time a sender stops sleeping and spins. A sleep
/// overshoots by tens of microseconds, more on a busy host; spinning the
/// last stretch sends on time, so that overshoot is not timed as the
/// system's latency.
const SPIN: Duration = Duration::from_micros(250);

fn wait_until(due: Instant) {
    let now = Instant::now();
    if now + SPIN < due {
        std::thread::sleep(due - SPIN - now);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn answer_of(req: &Req, result: &ServeResult) -> Result<Answer, String> {
    match result {
        Ok(outcome) => Ok(Answer::of(req, outcome)),
        Err(e) => Err(e.to_string()),
    }
}

struct Slots {
    records: Mutex<Vec<Option<Record>>>,
    remaining: Mutex<usize>,
    all_done: Condvar,
}

/// Request ids of a phase start here, so ids stay unique across phases.
pub struct Ids(AtomicUsize);

impl Ids {
    pub fn new() -> Ids {
        Ids(AtomicUsize::new(1))
    }

    fn take(&self, n: usize) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed) as u64
    }
}

/// Drives `server` from one generator thread through `submit_async`. The
/// generator never blocks on the server, so any lateness is its own.
/// Traced, each request gets `client.wait`, `workload.freeze` and
/// `serve.request` (`submit_async` to completion, around `serve.admit`),
/// and `probe` links the backend executions that answer it.
pub fn run_server(
    server: &Server,
    probe: &Arc<Probe>,
    schedule: &Schedule,
    tracer: &Arc<Tracer>,
    ids: &Ids,
) -> Vec<Record> {
    let n = schedule.len();
    let first_id = ids.take(n);
    let slots = Arc::new(Slots {
        records: Mutex::new(vec![None; n]),
        remaining: Mutex::new(n),
        all_done: Condvar::new(),
    });
    let t0 = Instant::now() + Duration::from_millis(2);
    for (i, (offset, req)) in schedule.iter().enumerate() {
        let id = first_id + i as u64;
        let key = tracer.enabled().then(|| req.exec_key());
        let due = t0 + Duration::from_secs_f64(*offset);
        wait_until(due);
        let sent = Instant::now();
        let root = tracer.open("request", id, None, due);
        tracer.record("client.wait", id, root, due, sent);
        let spec = req.freeze();
        let frozen = Instant::now();
        tracer.record("workload.freeze", id, root, sent, frozen);
        let serve = tracer.open("serve.request", id, root, frozen);
        if let Some(key) = key {
            probe.expect(key, id, serve);
        }
        let handle = server.submit_async(&spec);
        let admitted = Instant::now();
        tracer.record("serve.admit", id, serve, frozen, admitted);
        let (slots, tracer, probe, req) = (
            Arc::clone(&slots),
            Arc::clone(tracer),
            Arc::clone(probe),
            req.clone(),
        );
        handle.on_complete(move |result| {
            let done = Instant::now();
            tracer.close(serve, done);
            tracer.close(root, done);
            if let Some(key) = key {
                probe.done(key, id);
            }
            let record = Record {
                due,
                ready: due,
                sent,
                done,
                service: admitted - frozen,
                answer: answer_of(&req, &result),
            };
            slots.records.lock().expect("record slots poisoned")[i] = Some(record);
            let mut remaining = slots.remaining.lock().expect("record count poisoned");
            *remaining -= 1;
            if *remaining == 0 {
                slots.all_done.notify_all();
            }
        });
    }
    let remaining = slots.remaining.lock().expect("record count poisoned");
    let (remaining, _) = slots
        .all_done
        .wait_timeout_while(remaining, Duration::from_secs(60), |r| *r > 0)
        .expect("record count poisoned");
    let lost = *remaining;
    drop(remaining);
    let records = std::mem::take(&mut *slots.records.lock().expect("record slots poisoned"));
    let now = Instant::now();
    records
        .into_iter()
        .map(|r| {
            r.unwrap_or(Record {
                due: now,
                ready: now,
                sent: now,
                done: now,
                service: Duration::ZERO,
                answer: Err(format!("no answer within 60 s ({lost} outstanding)")),
            })
        })
        .collect()
}

/// Drives `coordinator` from `senders` threads, each sending the next due
/// request and waiting for its answer. Traced, each request gets
/// `client.wait`, `workload.freeze`, `shard.route` and `shard.submit`
/// (around `shard.turn`, the wait for the shard's connection), and
/// `probe` links the shard's backend executions that answer it.
pub fn run_coordinator(
    coordinator: &Coordinator,
    shards: usize,
    probe: &Probe,
    schedule: &Schedule,
    senders: usize,
    tracer: &Arc<Tracer>,
    ids: &Ids,
) -> Vec<Record> {
    let n = schedule.len();
    let first_id = ids.take(n);
    let next = AtomicUsize::new(0);
    // The coordinator already serializes requests per shard; taking the
    // same turn here first changes no ordering and times the wait.
    let turns: Vec<Mutex<()>> = (0..shards).map(|_| Mutex::new(())).collect();
    let records = Mutex::new(vec![None; n]);
    let t0 = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|scope| {
        for _ in 0..senders {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let picked = Instant::now();
                let Some((offset, req)) = schedule.get(i) else {
                    break;
                };
                let id = first_id + i as u64;
                let key = tracer.enabled().then(|| req.exec_key());
                let due = t0 + Duration::from_secs_f64(*offset);
                wait_until(due);
                let sent = Instant::now();
                let root = tracer.open("request", id, None, due);
                tracer.record("client.wait", id, root, due, sent);
                let spec = req.freeze();
                let frozen = Instant::now();
                tracer.record("workload.freeze", id, root, sent, frozen);
                let (result, start, end) = if let Some(key) = key {
                    let shard = coordinator.route(spec.fingerprint());
                    let routed = Instant::now();
                    tracer.record("shard.route", id, root, frozen, routed);
                    let start = Instant::now();
                    let submit = tracer.open("shard.submit", id, root, start);
                    let _turn = shard.map(|k| turns[k].lock().expect("shard turn poisoned"));
                    tracer.record("shard.turn", id, submit, start, Instant::now());
                    probe.expect(key, id, submit);
                    let result = coordinator.submit(&spec);
                    let end = Instant::now();
                    tracer.close(submit, end);
                    probe.done(key, id);
                    (result, start, end)
                } else {
                    let start = Instant::now();
                    let result = coordinator.submit(&spec);
                    (result, start, Instant::now())
                };
                tracer.close(root, end);
                let record = Record {
                    due,
                    ready: due.max(picked),
                    sent,
                    done: end,
                    service: end - start,
                    answer: answer_of(req, &result),
                };
                records.lock().expect("record slots poisoned")[i] = Some(record);
            });
        }
    });
    records
        .into_inner()
        .expect("record slots poisoned")
        .into_iter()
        .map(|r| r.expect("every scheduled request is sent"))
        .collect()
}

/// What one timed phase measured.
#[derive(Debug, Clone)]
pub struct Phase {
    pub rate: f64,
    pub attempted: usize,
    pub failed: usize,
    /// Latencies of answered requests, ascending, ms.
    pub latency_ms: Vec<f64>,
    /// p99 of the generator's own lateness, ms.
    pub lateness_p99_ms: f64,
    /// Mean time a sender spent inside the submit call, s.
    pub mean_service_s: f64,
    /// Backend busy time of the phase's requests, s.
    pub busy_s: f64,
    /// The rate the workers could carry at their measured service time.
    pub capacity_rps: f64,
    pub mismatches: Vec<String>,
}

impl Phase {
    /// Summarizes `records` of `schedule` and checks every answer.
    pub fn of(rate: f64, schedule: &Schedule, records: &[Record], oracle: &mut Oracle) -> Phase {
        let mut mismatches = Vec::new();
        let mut latency = Vec::new();
        for ((_, req), r) in schedule.iter().zip(records) {
            match &r.answer {
                Ok(a) => match oracle.check(req, a) {
                    Ok(()) => latency.push(r.latency_ms()),
                    Err(e) => {
                        mismatches.push(format!("{} {:?}: {e}", req.stencil.name(), req.fidelity))
                    }
                },
                Err(e) => {
                    mismatches.push(format!("{} {:?}: {e}", req.stencil.name(), req.fidelity))
                }
            }
        }
        let lateness: Vec<f64> = records.iter().map(Record::lateness_ms).collect();
        Phase {
            rate,
            attempted: records.len(),
            failed: mismatches.len(),
            latency_ms: stats::sorted(&latency),
            lateness_p99_ms: stats::percentile(&stats::sorted(&lateness), 0.99),
            mean_service_s: stats::mean(
                &records
                    .iter()
                    .map(|r| r.service.as_secs_f64())
                    .collect::<Vec<_>>(),
            ),
            busy_s: 0.0,
            capacity_rps: f64::INFINITY,
            mismatches,
        }
    }

    pub fn p50(&self) -> f64 {
        stats::percentile(&self.latency_ms, 0.5)
    }

    /// The reported tail: p99, or below 1000 answered requests the
    /// highest lower percentile with ten samples beyond it. Returns the
    /// percentile and its latency.
    pub fn tail(&self) -> (f64, f64) {
        let q = stats::tail_quantile(self.latency_ms.len())
            .unwrap_or(0.5)
            .min(0.99);
        (q, stats::percentile(&self.latency_ms, q))
    }

    /// The highest percentile with ten answered samples beyond it, capped
    /// at p99; failed requests count as beyond any limit.
    pub fn tail_ms(&self) -> f64 {
        if self.failed * 100 > self.attempted {
            return f64::INFINITY;
        }
        let q = stats::tail_quantile(self.attempted)
            .unwrap_or(1.0)
            .min(0.99);
        let mut all = self.latency_ms.clone();
        all.extend(std::iter::repeat_n(f64::INFINITY, self.failed));
        stats::percentile(&all, q)
    }

    /// A ladder step: its tail latency, healthy when at most 1% failed,
    /// and the rate its workers could carry. Latency counts from the due
    /// time, so a growing backlog and a generator that falls behind both
    /// show in the tail.
    pub fn rung(&self) -> Rung {
        Rung {
            rate: self.rate,
            tail_ms: self.tail_ms(),
            healthy: self.failed * 100 <= self.attempted,
            capacity: self.capacity_rps,
        }
    }
}

/// The rate ladder for `max_rps`: rungs at `rungs` fixed rates above the
/// measured `first` phase, growing by `step`, visited in ascending order
/// round and round until `budget_s` is spent. Fixed rates keep one noisy
/// rung from steering the search, and each rate's tail is the geometric
/// mean over its visits, so host-speed drift during the run averages
/// out. Returns one rung per rate, ascending, and every phase run.
fn ladder(
    first: &Phase,
    step: f64,
    rungs: usize,
    rung_s: f64,
    budget_s: f64,
    mut run: impl FnMut(f64, f64) -> Phase,
) -> (Vec<Rung>, Vec<Phase>) {
    let deadline = Instant::now() + Duration::from_secs_f64(budget_s);
    let rates: Vec<f64> = (1..=rungs)
        .map(|k| first.rate * step.powi(k as i32))
        .collect();
    let mut visits: Vec<Vec<Rung>> = vec![Vec::new(); rungs];
    let mut phases = Vec::new();
    for k in (0..rungs).cycle() {
        if Instant::now() + Duration::from_secs_f64(rung_s) > deadline {
            break;
        }
        let phase = run(rates[k], rung_s);
        visits[k].push(phase.rung());
        phases.push(phase);
    }
    let mut out = vec![first.rung()];
    out.extend(
        visits
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| merge_visits(v)),
    );
    (out, phases)
}

/// One rung from several visits at the same rate: healthy only if every
/// visit was, with the geometric mean of their tails.
fn merge_visits(visits: &[Rung]) -> Rung {
    let log_mean =
        visits.iter().map(|r| r.tail_ms.max(1e-9).ln()).sum::<f64>() / visits.len() as f64;
    // Workers over their mean service time across the visits.
    let capacity = visits.len() as f64 / visits.iter().map(|r| 1.0 / r.capacity).sum::<f64>();
    Rung {
        rate: visits[0].rate,
        tail_ms: log_mean.exp(),
        healthy: visits.iter().all(|r| r.healthy),
        capacity,
    }
}

/// A cycle of request classes, `counts` of each, spread evenly over the
/// cycle. Mixes walk it in order, so every seed offers the same work; the
/// seed varies inputs, arrival times and which earlier specs repeat.
pub fn pattern<C: Copy>(counts: &[(C, usize)]) -> Vec<C> {
    let total: usize = counts.iter().map(|(_, n)| n).sum();
    let mut slots: Vec<(f64, usize, C)> = Vec::with_capacity(total);
    for (k, &(class, n)) in counts.iter().enumerate() {
        for i in 0..n {
            slots.push(((i as f64 + 0.5) * total as f64 / n as f64, k, class));
        }
    }
    slots.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    slots.into_iter().map(|(_, _, c)| c).collect()
}

/// Notes on the nominal phase and on each phase of the ladder with its
/// workers' mean service time.
fn describe_open_loop<W: OpenLoop>(w: &W, run: &mut Run, n: &Phase, phases: &[&Phase]) {
    let (q, tail) = n.tail();
    let at = |q: f64| stats::percentile(&n.latency_ms, q);
    run.notes.push(format!(
        "nominal latency p25/p50/p75/p90/p95/p99/max: {:.3}/{:.3}/{:.3}/{:.3}/{:.3}/{:.3}/{:.3} ms",
        at(0.25),
        at(0.5),
        at(0.75),
        at(0.9),
        at(0.95),
        at(0.99),
        at(1.0)
    ));
    run.notes.push(format!(
        "nominal {:.0} req/s: {} requests, p50 {:.3} ms, p{} {:.3} ms ({} beyond it; reported as p99_ms), \
         generator lateness p99 {:.3} ms",
        n.rate,
        n.attempted,
        n.p50(),
        100.0 * q,
        tail,
        stats::beyond(n.latency_ms.len(), q),
        n.lateness_p99_ms
    ));
    let mut phases = phases.to_vec();
    phases.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    for p in phases {
        let r = p.rung();
        let (workers, service_s) = w.capacity(p);
        run.notes.push(format!(
            "rung {:.1} req/s: tail {:.3} ms, healthy {}, passes {}, {workers} in parallel at {:.3} ms mean service",
            r.rate,
            r.tail_ms,
            r.healthy,
            r.passes(W::LIMIT_MS),
            service_s * 1e3
        ));
    }
}

/// The run-validity check: the generator must send a phase at the
/// nominal rate on time, within a tenth of the latency limit at p99.
fn generator_check(n: &Phase, limit_ms: f64) -> Option<String> {
    (n.lateness_p99_ms > limit_ms / 10.0).then(|| {
        format!(
            "generator lateness p99 {:.3} ms exceeds {:.1} ms",
            n.lateness_p99_ms,
            limit_ms / 10.0
        )
    })
}

/// The request mix of an open-loop workload.
pub trait Mix {
    fn new() -> Self;
    fn next(&mut self, rng: &mut Rng) -> Req;
}

/// The servers' and sessions' counters of a workload's system.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub serve: Vec<ServeStats>,
    pub session: Vec<SessionStats>,
}

/// An open-loop workload: its system, its mix, and how requests reach it.
pub trait OpenLoop: Sized {
    /// Offered rate of the nominal phase, requests/s.
    const NOMINAL_RPS: f64;
    const ARRIVALS: Arrivals;
    /// The p99 latency limit, ms.
    const LIMIT_MS: f64;
    /// Ladder: growth factor between rates, number of rates, and the
    /// length of one visit, s.
    const STEP: f64;
    const RUNGS: usize;
    const RUNG_S: f64;
    /// Share of the run spent at the nominal rate; the ladder gets the rest.
    const NOMINAL_SHARE: f64;
    /// Whether `sim_cps` also counts the ladder's cycle-tier executions:
    /// only where the ladder does not crowd the cores the workers run on.
    const SIM_CPS_WITH_LADDER: bool;
    type Mix: Mix;

    /// Builds the system: `setup_s` times this.
    fn setup(seed: u64, tracer: &Arc<Tracer>) -> Self;
    /// The wrapper every backend of the system reports to.
    fn probe(&self) -> &Arc<Probe>;
    /// The tuned paper gallery as the system answered it in set-up.
    fn paper(&self) -> (&[CodeResult], &[(ScaleoutEstimate, ScaleoutEstimate)]);
    fn drive(&self, schedule: &Schedule, tracer: &Arc<Tracer>, ids: &Ids) -> Vec<Record>;
    fn counters(&self) -> Counters;
    /// Checks beyond the output oracle; the counters are read before.
    fn cross_check(&self, _schedule: &Schedule, _records: &[Record]) -> Vec<String> {
        Vec::new()
    }
    /// Workers and their mean service time per request in `phase`, s,
    /// for the plausibility bound.
    fn capacity(&self, phase: &Phase) -> (usize, f64);
    /// Whether a traced answer must equal the untraced one bit for bit.
    fn repeatable(_req: &Req) -> bool {
        true
    }
    /// The workload's own per-layer metrics of its traced phase.
    fn layers(&self, run: &mut Run, traced: &Timed, spans: &[Span], tally: &Tally);
}

/// The request stream of one run: what is sent next, and the checks its
/// answers get. Position and history carry across the phases of a run.
struct Load<M> {
    mix: M,
    rng: Rng,
    ids: Ids,
    oracle: Oracle,
}

impl<M: Mix> Load<M> {
    fn new(seed: u64) -> Load<M> {
        Load {
            mix: M::new(),
            rng: Rng::fork(seed, 10),
            ids: Ids::new(),
            oracle: Oracle::default(),
        }
    }
}

/// One timed phase, its requests and what they measured.
pub struct Timed {
    pub schedule: Schedule,
    pub records: Vec<Record>,
    pub phase: Phase,
    /// The system's counters when the phase ended, before any check.
    pub counters: Counters,
}

fn phase<W: OpenLoop>(
    w: &W,
    load: &mut Load<W::Mix>,
    rate: f64,
    seconds: f64,
    tracer: &Arc<Tracer>,
) -> Timed {
    let Load {
        mix,
        rng,
        ids,
        oracle,
    } = load;
    let schedule = schedule(rng, W::ARRIVALS, rate, seconds, |r| mix.next(r));
    let busy_before = w.probe().snapshot().total_ns();
    let records = w.drive(&schedule, tracer, ids);
    let busy_ns = w.probe().snapshot().total_ns() - busy_before;
    let counters = w.counters();
    let mut phase = Phase::of(rate, &schedule, &records, oracle);
    phase.busy_s = busy_ns as f64 / 1e9;
    let (workers, service_s) = w.capacity(&phase);
    if service_s > 0.0 {
        phase.capacity_rps = workers as f64 / service_s;
    }
    let extra = w.cross_check(&schedule, &records);
    phase.failed += extra.len();
    phase.mismatches.extend(extra);
    Timed {
        schedule,
        records,
        phase,
        counters,
    }
}

/// Runs an open-loop workload: the end-to-end metrics untraced, or with
/// `--trace 1` the per-layer metrics.
pub fn run<W: OpenLoop>(ctx: &Ctx) -> Run {
    if ctx.trace {
        traced::<W>(ctx)
    } else {
        untraced::<W>(ctx)
    }
}

fn untraced<W: OpenLoop>(ctx: &Ctx) -> Run {
    let mut run = Run::default();
    let off = Arc::new(Tracer::new(false));
    let t = Instant::now();
    let w = W::setup(ctx.seed, &off);
    let first_setup = t.elapsed().as_secs_f64();
    let mut load = Load::new(ctx.seed);
    let nominal = phase(
        &w,
        &mut load,
        W::NOMINAL_RPS,
        ctx.seconds * W::NOMINAL_SHARE,
        &off,
    );
    let nominal_tally = w.probe().snapshot();
    let (rungs, ladder) = ladder(
        &nominal.phase,
        W::STEP,
        W::RUNGS,
        W::RUNG_S,
        ctx.seconds * (1.0 - W::NOMINAL_SHARE),
        |rate, seconds| phase(&w, &mut load, rate, seconds, &off).phase,
    );
    let n = &nominal.phase;
    let m = &mut run.metrics;
    let [cps_base, cps_saris] = if W::SIM_CPS_WITH_LADDER {
        w.probe().snapshot().sim_cps()
    } else {
        nominal_tally.sim_cps()
    };
    m.set("sim_cps.base", cps_base);
    m.set("sim_cps.saris", cps_saris);
    let (results, scaleouts) = w.paper();
    let gap = PaperGap::of(results, scaleouts);
    gap.put(m);
    m.set("p50_ms", n.p50());
    m.set("p99_ms", n.tail().1);
    let max_rps = stats::max_rps(&rungs, W::LIMIT_MS);
    m.set("max_rps", max_rps);
    run.notes.push(gap.describe());
    let phases: Vec<&Phase> = std::iter::once(n).chain(&ladder).collect();
    describe_open_loop(&w, &mut run, n, &phases);
    run.invalid.extend(generator_check(n, W::LIMIT_MS));
    // The bound at the fastest passing rung, with the service time its
    // own requests took: batching and coalescing make a request cheaper
    // under load, so another phase's service time does not bound it.
    let knee = phases
        .iter()
        .filter(|p| p.rung().passes(W::LIMIT_MS))
        .max_by(|a, b| a.rate.total_cmp(&b.rate));
    if let Some(knee) = knee {
        let (workers, service_s) = w.capacity(knee);
        if !stats::plausible_rps(max_rps, workers, service_s) {
            run.implausible.push(format!(
                "max_rps {max_rps:.1} exceeds {workers} workers / {:.3} ms mean service x 1.1",
                service_s * 1e3
            ));
        }
    }
    for p in &phases {
        run.attempted += p.attempted;
        run.mismatches.extend(p.mismatches.iter().cloned());
    }
    run.metrics.set("peak_rss_mb", crate::peak_rss_mb());
    drop(w);
    run.metrics.set(
        "setup_s",
        crate::setup_seconds(first_setup, || W::setup(ctx.seed, &off)),
    );
    run
}

/// The nominal phase untraced, then traced on a fresh system over the
/// same requests; the difference is the tracing overhead.
fn traced<W: OpenLoop>(ctx: &Ctx) -> Run {
    let mut run = Run::default();
    let off = Arc::new(Tracer::new(false));
    let half = ctx.seconds / 2.0;
    let untraced = {
        let w = W::setup(ctx.seed, &off);
        phase(&w, &mut Load::new(ctx.seed), W::NOMINAL_RPS, half, &off)
    };
    let w = W::setup(ctx.seed, &ctx.tracer);
    ctx.tracer.take();
    w.probe().reset();
    let before = w.counters();
    let traced = phase(
        &w,
        &mut Load::new(ctx.seed),
        W::NOMINAL_RPS,
        half,
        &ctx.tracer,
    );
    let tally = w.probe().snapshot();
    let spans = ctx.tracer.take();
    let reqs: Vec<Req> = traced.schedule.iter().map(|(_, r)| r.clone()).collect();
    let m = &mut run.metrics;
    m.set(
        "workload.freeze_us",
        layers::span_median(&spans, "workload.freeze", 1e3),
    );
    m.set(
        "client.wait_ms",
        layers::span_median(&spans, "client.wait", 1e6),
    );
    layers::serve_stats(m, &before.serve, &traced.counters.serve);
    let private = Probe::new(Arc::clone(&off));
    layers::session_submit(m, &probe::session(&private), &private, &reqs, 30);
    layers::session_stats(m, &before.session, &traced.counters.session);
    layers::backend_sim(m, &tally);
    layers::codegen(m, &reqs);
    layers::golden(m, &reqs);
    let (results, scaleouts) = w.paper();
    layers::energy_scaleout(m, results, scaleouts);
    layers::unattributed(m, &spans);
    m.set("gen.lateness_p99_ms", traced.phase.lateness_p99_ms);
    m.set(
        "trace.overhead_frac",
        traced.phase.p50() / untraced.phase.p50() - 1.0,
    );
    w.layers(&mut run, &traced, &spans, &tally);
    for p in [&untraced.phase, &traced.phase] {
        run.attempted += p.attempted;
        run.mismatches.extend(p.mismatches.iter().cloned());
        run.invalid.extend(generator_check(p, W::LIMIT_MS));
    }
    for (((_, req), a), b) in traced
        .schedule
        .iter()
        .zip(&untraced.records)
        .zip(&traced.records)
    {
        if let (Ok(a), Ok(b)) = (&a.answer, &b.answer) {
            if W::repeatable(req) && a.digest != b.digest {
                run.mismatches.push(format!(
                    "{} {:?}: traced output differs from untraced",
                    req.stencil.name(),
                    req.fidelity
                ));
            }
        }
    }
    run.spans = spans;
    run
}

/// Analytic estimates follow the live calibration store, whose updates
/// depend on execution order: only their shape repeats across runs.
pub fn measured(req: &Req) -> bool {
    req.fidelity != Fidelity::Analytic
}

#[cfg(test)]
mod tests {
    use super::*;
    use saris_codegen::Variant;
    use saris_core::{gallery, Extent};

    fn phase_of(rows: &[(Instant, Instant, Instant)]) -> Phase {
        let stencil = Arc::new(gallery::by_name("jacobi_2d").expect("gallery code"));
        let req = Req::new(
            &stencil,
            Extent::new_2d(16, 16),
            1,
            Variant::Base,
            Fidelity::Analytic,
        );
        let schedule: Schedule = rows.iter().map(|_| (0.0, req.clone())).collect();
        let records: Vec<Record> = rows
            .iter()
            .map(|&(due, ready, sent)| Record {
                due,
                ready,
                sent,
                done: sent + Duration::from_millis(1),
                service: Duration::from_millis(1),
                answer: Err("not checked here".into()),
            })
            .collect();
        Phase::of(1000.0, &schedule, &records, &mut Oracle::default())
    }

    #[test]
    fn a_generator_that_falls_behind_makes_the_run_invalid() {
        let t0 = Instant::now();
        let ms = |x: f64| Duration::from_secs_f64(x / 1e3);
        // Due every millisecond; an on-time generator sends within 50 us.
        let on_time: Vec<_> = (0..200)
            .map(|i| {
                let due = t0 + ms(f64::from(i));
                (due, due, due + ms(0.05))
            })
            .collect();
        assert!(generator_check(&phase_of(&on_time), 100.0).is_none());
        // A generator that needs 1.5 ms per request falls further behind
        // with each one: its lateness, not the server's, grows.
        let behind: Vec<_> = (0..200)
            .map(|i| {
                let due = t0 + ms(f64::from(i));
                (due, due, t0 + ms(1.5 * f64::from(i)))
            })
            .collect();
        let p = phase_of(&behind);
        assert!(p.lateness_p99_ms > 90.0, "{}", p.lateness_p99_ms);
        assert!(generator_check(&p, 100.0).is_some());
    }

    #[test]
    fn paired_arrivals_keep_their_gaps_within_the_jitter() {
        let stencil = Arc::new(gallery::by_name("jacobi_2d").expect("gallery code"));
        let req = Req::new(
            &stencil,
            Extent::new_2d(16, 16),
            1,
            Variant::Base,
            Fidelity::Analytic,
        );
        let mut rng = Rng::new(5);
        let s = schedule(
            &mut rng,
            Arrivals::Pairs {
                within: 0.01,
                jitter: 0.4,
            },
            10.0,
            100.0,
            |_| req.clone(),
        );
        assert!((950..=1050).contains(&s.len()), "{}", s.len());
        // Within a pair 10 ms; between pairs within 40% of 190 ms.
        for (i, w) in s.windows(2).enumerate() {
            let gap = w[1].0 - w[0].0;
            if i % 2 == 0 {
                assert!((gap - 0.01).abs() < 1e-9, "{gap}");
            } else {
                assert!((0.114..=0.266).contains(&gap), "{gap}");
            }
        }
    }

    #[test]
    fn ladder_visits_merge_to_one_rung_per_rate() {
        let rung = |tail_ms, healthy| Rung {
            rate: 600.0,
            tail_ms,
            healthy,
            capacity: f64::INFINITY,
        };
        let merged = merge_visits(&[rung(20.0, true), rung(80.0, true)]);
        assert!((merged.tail_ms - 40.0).abs() < 1e-9);
        assert!(merged.healthy);
        let merged = merge_visits(&[rung(20.0, true), rung(f64::INFINITY, false)]);
        assert!(!merged.healthy && !merged.passes(1e9));
    }

    #[test]
    fn a_busy_sender_is_queueing_not_generator_lateness() {
        let t0 = Instant::now();
        let ms = |x: f64| Duration::from_secs_f64(x / 1e3);
        // Every sender was busy until 30 ms past the due time and then
        // sent at once: the request queued, the generator was on time.
        let rows: Vec<_> = (0..200)
            .map(|i| {
                let due = t0 + ms(f64::from(i));
                (due, due + ms(30.0), due + ms(30.02))
            })
            .collect();
        let p = phase_of(&rows);
        assert!(p.lateness_p99_ms < 0.1, "{}", p.lateness_p99_ms);
        assert!(generator_check(&p, 100.0).is_none());
    }
}
