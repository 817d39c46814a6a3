//! `serve_mixed`: an open loop into one in-process `Server` (default
//! configuration) through `submit_async`, with a seeded Poisson schedule
//! over a mix of analytic, golden and cycle-tier requests, fresh compile
//! fingerprints, and repeats that reach past the response cache.

use std::sync::Arc;

use saris_bench::{evaluate_all_served, scaleout_of_served, CodeResult};
use saris_codegen::{Fidelity, Variant, WorkloadSpec};
use saris_core::{gallery, Extent, Space, Stencil};
use saris_scaleout::ScaleoutEstimate;
use saris_serve::{ServeConfig, Server};

use crate::layers;
use crate::openloop::{
    self, pattern, Arrivals, Counters, Ids, OpenLoop, Phase, Record, Schedule, Timed,
};
use crate::probe::{self, Probe, Tally};
use crate::req::Req;
use crate::rng::Rng;
use crate::stats::mean;
use crate::trace::{Span, Tracer};
use crate::{Ctx, Run};

/// The 3D codes of the head-of-line-blocking tail. Their SARIS kernels
/// cost nearly the same (~14k cycles), so the latency tail is set by how
/// the server schedules them rather than by which code came up.
const HOL_CODES: [&str; 2] = ["box3d1r", "j3d27pt"];
/// Repeat distances are log-uniform up to this many requests back, past
/// the 1024-entry response cache.
const MAX_DISTANCE: f64 = 8192.0;

fn codes(space: Space) -> Vec<Arc<Stencil>> {
    gallery::all()
        .into_iter()
        .filter(|s| s.space() == space)
        .map(Arc::new)
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// An earlier spec again.
    Repeat,
    /// Analytic estimate at the paper tile.
    Analytic,
    /// Golden run at a 16^2..64^2 tile.
    Golden,
    /// Cycle-tier run of a 2D code at 16^2.
    Cycles2d,
    /// Cycle-tier SARIS run of a [`HOL_CODES`] code at the paper tile:
    /// the head-of-line-blocking tail.
    Cycles3d,
    /// Cycle-tier run at a tile shape not compiled before in the run,
    /// verified: compile and verify on the request path.
    Fresh,
}

/// The request mix. Position, history and the fresh tile shapes carry
/// across the phases of one run.
pub struct Mix {
    pattern: Vec<Class>,
    n: usize,
    /// Requests drawn per class so far (round-robin over codes,
    /// variants and tiles).
    drawn: [usize; 6],
    all: Vec<Arc<Stencil>>,
    d2: Vec<Arc<Stencil>>,
    d3: Vec<Arc<Stencil>>,
    history: Vec<Req>,
}

impl openloop::Mix for Mix {
    fn new() -> Mix {
        use Class::*;
        Mix {
            pattern: pattern(&[
                (Repeat, 30),
                (Analytic, 24),
                (Golden, 30),
                (Cycles2d, 10),
                (Cycles3d, 5),
                (Fresh, 1),
            ]),
            n: 0,
            drawn: [0; 6],
            all: gallery::all().into_iter().map(Arc::new).collect(),
            d2: codes(Space::Dim2),
            d3: HOL_CODES
                .iter()
                .map(|n| Arc::new(gallery::by_name(n).expect("gallery code")))
                .collect(),
            history: Vec::new(),
        }
    }

    fn next(&mut self, rng: &mut Rng) -> Req {
        let class = self.pattern[self.n % self.pattern.len()];
        self.n += 1;
        if class == Class::Repeat && !self.history.is_empty() {
            // Log-uniform over the distances the history has, so early
            // repeats do not all fall back onto the first spec.
            let reach = MAX_DISTANCE.min(self.history.len() as f64);
            let distance = (reach.powf(rng.unit()) as usize).clamp(1, self.history.len());
            return self.history[self.history.len() - distance].clone();
        }
        let k = self.drawn[class as usize];
        self.drawn[class as usize] += 1;
        let pick = |from: &[Arc<Stencil>]| Arc::clone(&from[k % from.len()]);
        let variant = |period: usize| {
            if (k / period).is_multiple_of(2) {
                Variant::Base
            } else {
                Variant::Saris
            }
        };
        let seed = rng.next_u64();
        let req = match class {
            Class::Repeat | Class::Analytic => {
                let s = pick(&self.all);
                Req::new(
                    &s,
                    saris_bench::paper_tile(&s),
                    seed,
                    variant(self.all.len()),
                    Fidelity::Analytic,
                )
            }
            Class::Golden => {
                let n = [16, 24, 32, 48, 64][k / self.d2.len() % 5];
                Req::new(
                    &pick(&self.d2),
                    Extent::new_2d(n, n),
                    seed,
                    variant(5 * self.d2.len()),
                    Fidelity::Golden,
                )
            }
            Class::Cycles2d => Req::new(
                &pick(&self.d2),
                Extent::new_2d(16, 16),
                seed,
                variant(self.d2.len()),
                Fidelity::Cycles,
            ),
            Class::Cycles3d => {
                let s = pick(&self.d3);
                Req::new(
                    &s,
                    saris_bench::paper_tile(&s),
                    seed,
                    Variant::Saris,
                    Fidelity::Cycles,
                )
            }
            Class::Fresh => {
                // 17..=48 squared gives 1024 shapes, far more than a run
                // draws; stepping by a unit coprime to 1024 visits each
                // once.
                let shape = k * 389 % 1024;
                let extent = Extent::new_2d(17 + shape % 32, 17 + shape / 32);
                let mut req = Req::new(
                    &pick(&self.d2),
                    extent,
                    seed,
                    variant(self.d2.len()),
                    Fidelity::Cycles,
                );
                req.verify = true;
                req
            }
        };
        self.history.push(req.clone());
        req
    }
}

/// The system under test: one `Server` over a probed session.
pub struct ServeMixed {
    server: Server,
    probe: Arc<Probe>,
    results: Vec<CodeResult>,
    scaleouts: Vec<(ScaleoutEstimate, ScaleoutEstimate)>,
}

fn build(seed: u64, tracer: &Arc<Tracer>) -> ServeMixed {
    let probe = Probe::new(Arc::clone(tracer));
    let server =
        Server::over(probe::session(&probe), ServeConfig::default()).expect("server starts");
    let results = evaluate_all_served(&server);
    let scaleouts = results
        .iter()
        .map(|r| scaleout_of_served(&server, r))
        .collect();
    // Warm the kernel cache for the mix's cycle-tier kernels.
    let mut rng = Rng::fork(seed, 2);
    let mix = <Mix as openloop::Mix>::new();
    let mut warm: Vec<WorkloadSpec> = Vec::new();
    for variant in [Variant::Base, Variant::Saris] {
        for s in &mix.d2 {
            warm.push(
                Req::new(
                    s,
                    Extent::new_2d(16, 16),
                    rng.next_u64(),
                    variant,
                    Fidelity::Cycles,
                )
                .freeze(),
            );
        }
    }
    for s in &mix.d3 {
        let tile = saris_bench::paper_tile(s);
        warm.push(Req::new(s, tile, rng.next_u64(), Variant::Saris, Fidelity::Cycles).freeze());
    }
    for result in server.submit_all(&warm) {
        result.expect("warm-up requests succeed");
    }
    probe.reset();
    ServeMixed {
        server,
        probe,
        results,
        scaleouts,
    }
}

impl OpenLoop for ServeMixed {
    const NOMINAL_RPS: f64 = 400.0;
    const ARRIVALS: Arrivals = Arrivals::Poisson;
    const LIMIT_MS: f64 = 100.0;
    const STEP: f64 = 1.5;
    const RUNGS: usize = 4;
    const RUNG_S: f64 = 2.0;
    const NOMINAL_SHARE: f64 = 0.4;
    const SIM_CPS_WITH_LADDER: bool = false;
    type Mix = Mix;

    fn setup(seed: u64, tracer: &Arc<Tracer>) -> ServeMixed {
        build(seed, tracer)
    }

    fn probe(&self) -> &Arc<Probe> {
        &self.probe
    }

    fn paper(&self) -> (&[CodeResult], &[(ScaleoutEstimate, ScaleoutEstimate)]) {
        (&self.results, &self.scaleouts)
    }

    fn drive(&self, schedule: &Schedule, tracer: &Arc<Tracer>, ids: &Ids) -> Vec<Record> {
        openloop::run_server(&self.server, &self.probe, schedule, tracer, ids)
    }

    fn counters(&self) -> Counters {
        Counters {
            serve: vec![self.server.stats()],
            session: vec![self.server.session().stats()],
        }
    }

    /// The server's workers, busy for the backend time per request.
    fn capacity(&self, phase: &Phase) -> (usize, f64) {
        let workers = match self.server.config().workers {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            w => w,
        };
        (workers, phase.busy_s / phase.attempted.max(1) as f64)
    }

    fn repeatable(req: &Req) -> bool {
        openloop::measured(req)
    }

    fn layers(&self, run: &mut Run, traced: &Timed, spans: &[Span], tally: &Tally) {
        let m = &mut run.metrics;
        m.set(
            "serve.admit_us",
            layers::span_median(spans, "serve.admit", 1e3),
        );
        let latency: Vec<f64> = traced.records.iter().map(Record::latency_ms).collect();
        m.set(
            "serve.wait_ms",
            mean(&latency) - tally.total_ns() as f64 / 1e6 / latency.len().max(1) as f64,
        );
    }
}

pub fn run(ctx: &Ctx) -> Run {
    openloop::run::<ServeMixed>(ctx)
}
