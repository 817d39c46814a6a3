//! Serving-layer throughput benchmark: requests per wall second through
//! the `saris-serve` stack, against truly uncached submissions.
//!
//! Up to seven experiments, emitted into `BENCH_serve_throughput.json`:
//!
//! 1. **Duplication sweep** — request streams with 0% / 50% / 90%
//!    duplicate specs, answered three ways: *uncached* (a session with
//!    kernel cache and cluster pool disabled — every submission
//!    recompiles and reconstructs, the pre-engine cost of a request),
//!    *served without a response cache* (kernel cache + pool +
//!    single-flight only), and the full *served* stack (response cache
//!    included). Both served measurements are driven by several
//!    concurrent producer threads, so the 0% row measures the server's
//!    worker pool rather than a single submitting client. The headline
//!    number is the full stack's speedup over uncached submissions at
//!    each duplication ratio, plus a bit-identity check that a
//!    cache-answered duplicate equals a fresh execution.
//! 2. **Analytic tier** — the paper's twenty `(code, variant)` estimate
//!    requests answered by the roofline backend versus tuned cycle-level
//!    simulation: wall-time speedup and whether the analytic tier
//!    preserves every kernel's memory-/compute-bound classification
//!    through the Figure 5 scaleout path.
//! 3. **Adaptive fidelity** (`--adaptive`) — `Fidelity::Auto` requests
//!    for stencils the calibration store has never seen, served twice:
//!    *cold* (every request escalates to tuned cycle-level simulation,
//!    feeding the store) and *warmed* (differently seeded requests for
//!    the same stencils, answered analytically from the live store).
//!    Reports the cold/warmed requests-per-second split, the serve-level
//!    `auto_*` counters, and whether every warmed estimate landed within
//!    the accuracy budget of its cold measurement.
//! 4. **Golden sweep** (`--golden-sweep`) — gallery-wide
//!    `Fidelity::Golden` throughput: the same requests answered by the
//!    pre-batch golden tier (the scalar reference executor, one spec at
//!    a time) versus `Session::submit_all` through the batched
//!    data-parallel path (`NativeBackend::execute_batch`: SIMD row
//!    sweeps, arena-pooled grids, worker-pool fan-out), with every
//!    batched output grid checked bit-identical to the scalar oracle's.
//! 5. **Mixed traffic** (`--mixed`) — the scheduler benchmark: one
//!    unique-heavy stream mixing deadline-free bulk golden sweeps,
//!    tuned cycle-level sweep *tenants* (each tenant a distinct
//!    `(code, cluster shape)` configuration with its own staggered
//!    deadline budget, members arriving interleaved), a
//!    kernel-compiling family sharing one compile fingerprint, and
//!    paced interactive analytic requests with tight deadlines from
//!    concurrent producer threads, served twice through identical
//!    single-worker servers with a bounded kernel cache and cluster
//!    pool — once under [`SchedPolicy::CostAware`] (slack-plus-cost
//!    ordering serves tenants back to back: one auto-tune, one
//!    compile, one cluster construction each; compile-aware batch
//!    formation) and once under a [`SchedPolicy::Fifo`] control that
//!    re-pays tune + compile + construction on nearly every
//!    interleaved request. Reports throughput, the interactive
//!    deadline hit-rate on both policies, the `batches_formed` /
//!    `compiles_saved` counters, and a bit-identity check of scheduled
//!    outcomes against serial execution.
//! 6. **Chaos storm** (`--chaos`) — the same serving stack over a
//!    fault-injecting cycle tier (seeded [`FaultPlan`]: panics,
//!    transient errors, delays) with retry, analytic degradation and
//!    quarantine active: proves the fault-tolerance machinery holds up
//!    under a realistic mixed-fault request storm and reports what it
//!    cost — retries, recovered flights, degraded answers, quarantined
//!    specs — plus whether the server still serves cleanly afterwards.
//! 7. **Sharded serving** (`--sharded`) — the same duplicate-light
//!    cycle-tier stream driven by concurrent producers through a
//!    `saris-shard` [`Coordinator`] over single-worker
//!    [`ShardWorker`] processes-in-spirit (each a full `saris-serve`
//!    stack behind the length-prefixed TCP protocol), measured warmed
//!    at one shard and again at four: consistent-hash fingerprint
//!    affinity keeps every shard's kernel and response caches hot, so
//!    warmed requests-per-second scale with the shard count up to the
//!    host's cores. Scaling above `min(4, available_parallelism) × 1.1`
//!    cannot come from work and exits 1 as a measurement artifact. A
//!    sample of stream specs plus one golden request is checked
//!    bit-identical against a single-process reference server.
//!
//! Usage: `serve_throughput [--subset] [--adaptive] [--golden-sweep]
//! [--mixed] [--chaos] [--sharded] [--baseline PATH] [--out PATH]
//! [--export-calibration PATH] [--import-calibration PATH]`
//!
//! `--subset` shrinks the experiments to a CI-sized configuration.
//! `--baseline PATH` reads a previously committed artifact and fails the
//! run (exit 1, after writing the fresh artifact) when a gated headline
//! — the golden-sweep speedup, the adaptive warmed-vs-cold speedup,
//! the mixed-traffic speedup over the FIFO control, or the sharded
//! four-vs-one shard scaling — regresses more
//! than 20% below the committed value: the CI regression gate. A gated
//! scenario whose section is missing from the baseline is a hard error
//! (exit 1), never a silent skip. When a `--subset` run is gated
//! against a committed full-size artifact (the shape fields differ),
//! the gate takes an extra 20% of slack for the structurally slower
//! subset mix.
//! `--export-calibration PATH` re-measures the gallery calibration on
//! the cycle tier (tuned paper workloads; the session's feedback loop
//! fills its store) and writes the store's JSON to PATH — the same
//! format the baked seed in
//! `saris-codegen/src/calibration/gallery.json` ships in, and the same
//! file `--import-calibration` loads to warm-start the analytic tier of
//! the benchmark runs.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use saris_bench::{
    adaptive_workload, custom_stencil_family, paper_estimate_workload, paper_tile, paper_workload,
    scaleout_from, PAPER_SEED,
};
use saris_codegen::{
    Backend, BackendRegistry, CalibrationStore, FaultInjectingBackend, FaultKind, FaultPlan,
    Fidelity, RooflineBackend, RunOptions, Session, SessionConfig, SimBackend, Tune, Variant,
    Workload, WorkloadSpec,
};
use saris_core::{gallery, reference, Extent, Grid, Stencil};
use saris_serve::{ResponseHandle, SchedPolicy, ServeConfig, ServeResult, Server};
use saris_shard::{Coordinator, ShardWorker};
use snitch_sim::ClusterConfig;

/// The codes the duplication sweep draws its unique specs from: cheap
/// 2D tiles so the benchmark measures serving overheads, not tile size.
const SWEEP_CODES: [&str; 3] = ["jacobi_2d", "j2d5pt", "box2d1r"];
const SWEEP_TILE: usize = 16;

/// Duplication ratios measured (fraction of the stream that repeats an
/// earlier request).
const DUP_RATIOS: [f64; 3] = [0.0, 0.5, 0.9];

fn sweep_spec(code: &str, seed: u64) -> WorkloadSpec {
    let stencil = gallery::by_name(code).expect("sweep code");
    Workload::new(stencil)
        .extent(Extent::new_2d(SWEEP_TILE, SWEEP_TILE))
        .input_seed(PAPER_SEED + seed)
        .variant(Variant::Saris)
        .freeze()
        .expect("sweep specs are valid")
}

/// A request stream of `len` specs in which `1 - dup_ratio` of the
/// requests are unique and the rest repeat earlier requests, duplicates
/// interleaved round-robin so they arrive while their originals are
/// hot (and sometimes still in flight).
fn stream(len: usize, dup_ratio: f64) -> Vec<WorkloadSpec> {
    let unique = (((len as f64) * (1.0 - dup_ratio)).round() as usize).max(1);
    let pool: Vec<WorkloadSpec> = (0..unique)
        .map(|i| {
            sweep_spec(
                SWEEP_CODES[i % SWEEP_CODES.len()],
                (i / SWEEP_CODES.len()) as u64,
            )
        })
        .collect();
    (0..len).map(|i| pool[i % unique].clone()).collect()
}

/// How many client threads drive the served sweep measurements: a
/// single submitting thread is itself the bottleneck at dup_ratio 0.00
/// (every request executes, and one caller cannot keep a per-CPU worker
/// pool fed), so each server is driven from several producers — the row
/// then measures the server, not the client.
const SWEEP_PRODUCERS: usize = 4;

/// Drives `specs` through `server` from [`SWEEP_PRODUCERS`] concurrent
/// producer threads (round-robin split, so interleaved duplicates stay
/// interleaved within each producer's slice) and reassembles the
/// outcomes in spec order. Each producer submits its whole slice
/// asynchronously before waiting on any handle, preserving the
/// pipelining `submit_all` gives a single client. Returns the outcomes
/// and the wall seconds from first submission to last result.
fn serve_stream(server: &Server, specs: &[WorkloadSpec]) -> (Vec<ServeResult>, f64) {
    let start = Instant::now();
    let collected: Vec<(usize, ServeResult)> = std::thread::scope(|scope| {
        let producers: Vec<_> = (0..SWEEP_PRODUCERS)
            .map(|p| {
                scope.spawn(move || {
                    let handles: Vec<(usize, ResponseHandle)> = specs
                        .iter()
                        .enumerate()
                        .skip(p)
                        .step_by(SWEEP_PRODUCERS)
                        .map(|(i, spec)| (i, server.submit_async(spec)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|(i, handle)| (i, handle.wait()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        producers
            .into_iter()
            .flat_map(|producer| producer.join().expect("producer thread"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut outcomes: Vec<Option<ServeResult>> = specs.iter().map(|_| None).collect();
    for (i, result) in collected {
        outcomes[i] = Some(result);
    }
    let outcomes = outcomes
        .into_iter()
        .map(|slot| slot.expect("every spec index is served"))
        .collect();
    (outcomes, wall)
}

struct SweepRow {
    dup_ratio: f64,
    requests: usize,
    unique: usize,
    uncached_rps: f64,
    served_nocache_rps: f64,
    served_rps: f64,
}

impl SweepRow {
    fn speedup(&self) -> f64 {
        self.served_rps / self.uncached_rps
    }
}

fn run_sweep(len: usize) -> (Vec<SweepRow>, bool) {
    let mut rows = Vec::new();
    let mut bit_identical = true;
    for dup_ratio in DUP_RATIOS {
        let specs = stream(len, dup_ratio);
        let unique = (((len as f64) * (1.0 - dup_ratio)).round() as usize).max(1);

        // Uncached: no kernel cache, no cluster pool, no response cache —
        // every submission recompiles its kernel and reconstructs a
        // cluster, which is what answering a request cost before the
        // engine and serving layers existed.
        let uncached = Session::with_config(SessionConfig {
            max_cached_kernels: 0,
            max_pooled_clusters: 0,
            ..SessionConfig::default()
        });
        let start = Instant::now();
        for spec in &specs {
            uncached.submit(spec).expect("sweep spec runs");
        }
        let uncached_rps = len as f64 / start.elapsed().as_secs_f64();

        // The served measurements are *steady state*: a long-lived
        // server has its kernel cache and cluster pool warm, so the
        // engine-level warmup (submitted via the raw session, which
        // bypasses the response cache) is excluded from the timed
        // window. Every unique spec in the stream still *executes* a
        // full simulation inside the window — only duplicates are
        // answered by the response cache and single-flight layers.
        let warm = |server: &Server| {
            for spec in &specs[..unique] {
                server.session().submit(spec).expect("warmup runs");
            }
        };

        // Served, response cache off: kernel cache + pool + queue +
        // single-flight only.
        let nocache = Server::with_config(ServeConfig {
            max_cached_responses: 0,
            ..ServeConfig::default()
        })
        .expect("spawn serve workers");
        warm(&nocache);
        let (nocache_outcomes, nocache_wall) = serve_stream(&nocache, &specs);
        for result in &nocache_outcomes {
            result.as_ref().expect("sweep spec serves");
        }
        let served_nocache_rps = len as f64 / nocache_wall;

        // The full stack.
        let served = Server::new().expect("spawn serve workers");
        warm(&served);
        let (outcomes, served_wall) = serve_stream(&served, &specs);
        let served_rps = len as f64 / served_wall;

        // Cached duplicates must be bit-identical to a fresh execution.
        if dup_ratio > 0.0 {
            let dup_index = unique; // first repeat of spec 0
            let cached = outcomes[dup_index].as_ref().expect("duplicate serves");
            let fresh = Session::new().submit(&specs[dup_index]).expect("fresh run");
            let same_grids = cached.grids.len() == fresh.grids.len()
                && cached.grids.iter().zip(&fresh.grids).all(|(c, f)| {
                    c.as_slice()
                        .iter()
                        .zip(f.as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits())
                });
            bit_identical &= same_grids && cached.reports == fresh.reports;
        }

        rows.push(SweepRow {
            dup_ratio,
            requests: len,
            unique,
            uncached_rps,
            served_nocache_rps,
            served_rps,
        });
    }
    (rows, bit_identical)
}

struct TierRow {
    name: String,
    sim_cycles: u64,
    est_cycles: u64,
    sim_memory_bound: bool,
    est_memory_bound: bool,
}

impl TierRow {
    fn agree(&self) -> bool {
        self.sim_memory_bound == self.est_memory_bound
    }
}

struct TierResult {
    rows: Vec<TierRow>,
    cycles_wall: f64,
    analytic_wall: f64,
    requests: usize,
}

/// Answers every gallery estimate request on both tiers: tuned
/// cycle-level simulation versus the analytic roofline backend, timing
/// the answer and comparing the Figure 5 bound classification each
/// implies (SARIS variant, as the paper plots).
fn run_tiers(codes: &[&str], session: &Session) -> TierResult {
    let stencils: Vec<Arc<Stencil>> = codes
        .iter()
        .map(|name| Arc::new(gallery::by_name(name).expect("gallery code")))
        .collect();
    // One probe per tile shape, shared by both sides of the comparison.
    let dma_util_of = |stencil: &Stencil| {
        session
            .submit(
                &Workload::dma_probe(paper_tile(stencil))
                    .freeze()
                    .expect("probe is valid"),
            )
            .expect("probe runs")
            .dma_utilization
            .expect("probes measure")
    };
    let dma_2d = dma_util_of(&gallery::jacobi_2d());
    let dma_3d = dma_util_of(&gallery::j3d27pt());

    let variants = [Variant::Base, Variant::Saris];
    let cycle_specs: Vec<WorkloadSpec> = stencils
        .iter()
        .flat_map(|s| variants.map(|v| paper_workload(s, v)))
        .collect();
    let estimate_specs: Vec<WorkloadSpec> = stencils
        .iter()
        .flat_map(|s| variants.map(|v| paper_estimate_workload(s, v)))
        .collect();

    // The analytic pass runs FIRST: the session feeds every cycle-tier
    // outcome back into its calibration store, so estimating after the
    // simulations would compare the store against the very measurements
    // that just filled it — always-equal by construction, and blind to
    // a stale seed table. Estimating first keeps the experiment honest:
    // it compares the seed (baked or imported) against fresh simulation.
    let start = Instant::now();
    let estimate_outcomes: Vec<_> = estimate_specs
        .iter()
        .map(|spec| session.submit(spec).expect("estimate spec runs"))
        .collect();
    let analytic_wall = start.elapsed().as_secs_f64();

    // Warm the kernel cache and cluster pool so the timed cycle-tier
    // pass measures simulation (what every repeat request pays), not
    // one-time compilation.
    for spec in &cycle_specs {
        session.submit(spec).expect("cycle spec runs");
    }
    let start = Instant::now();
    let cycle_outcomes: Vec<_> = cycle_specs
        .iter()
        .map(|spec| session.submit(spec).expect("cycle spec runs"))
        .collect();
    let cycles_wall = start.elapsed().as_secs_f64();

    // Classification: feed both outcomes through the same scaleout path
    // (SARIS variant — the regime Figure 5 annotates).
    let rows = stencils
        .iter()
        .enumerate()
        .map(|(i, stencil)| {
            let saris_idx = 2 * i + 1;
            let sim = &cycle_outcomes[saris_idx];
            let est = &estimate_outcomes[saris_idx];
            assert!(est.telemetry.estimated, "analytic outcomes are flagged");
            assert!(!sim.telemetry.estimated, "sim outcomes are measurements");
            let result = saris_bench::CodeResult {
                tile: paper_tile(stencil),
                stencil: Arc::clone(stencil),
                base: (cycle_outcomes[2 * i]).clone(),
                saris: sim.clone(),
            };
            let dma = if paper_tile(stencil).nz == 1 {
                dma_2d
            } else {
                dma_3d
            };
            TierRow {
                name: stencil.name().to_string(),
                sim_cycles: sim.expect_report().cycles,
                est_cycles: est.expect_report().cycles,
                sim_memory_bound: scaleout_from(&result, sim, dma).memory_bound,
                est_memory_bound: scaleout_from(&result, est, dma).memory_bound,
            }
        })
        .collect();
    TierResult {
        rows,
        cycles_wall,
        analytic_wall,
        requests: cycle_specs.len(),
    }
}

/// Re-measures the gallery calibration (tuned paper workloads on the
/// cycle tier — the session's feedback loop records each measurement in
/// its store) and writes the resulting store as JSON: the export half of
/// the `--export-calibration` / `--import-calibration` pair, and the
/// regeneration path for the baked seed in
/// `saris-codegen/src/calibration/gallery.json`.
fn export_calibration(path: &str) {
    let session = Session::new();
    for name in gallery::NAMES {
        let stencil = Arc::new(gallery::by_name(name).expect("gallery code"));
        for variant in [Variant::Base, Variant::Saris] {
            session
                .submit(&paper_workload(&stencil, variant))
                .expect("calibration run");
        }
    }
    let store = session
        .calibration()
        .expect("standard registry has a store");
    std::fs::write(path, store.to_json()).expect("write calibration export");
    println!("wrote {} calibration entries to {path}", store.len());
}

/// A simulator-default session whose analytic tier answers from (and
/// whose feedback loop feeds) the given store.
fn session_over(store: &Arc<CalibrationStore>) -> Session {
    session_with(store, SessionConfig::default())
}

/// [`session_over`] with an explicit session configuration (the mixed
/// scenario bounds the kernel cache and cluster pool).
fn session_with(store: &Arc<CalibrationStore>, config: SessionConfig) -> Session {
    let mut registry = BackendRegistry::standard();
    registry.register(Arc::new(RooflineBackend::with_store(Arc::clone(store))));
    Session::with_registry(registry, Fidelity::Cycles, config)
}

struct AdaptiveResult {
    stencils: usize,
    accuracy_budget: f64,
    cold_wall: f64,
    warmed_wall: f64,
    auto_escalated: u64,
    auto_answered_analytic: u64,
    /// Worst warmed-estimate relative error vs. the cold measurement
    /// (`None` when the store arrived pre-warmed and nothing escalated).
    max_rel_error: Option<f64>,
}

impl AdaptiveResult {
    fn cold_rps(&self) -> f64 {
        self.stencils as f64 / self.cold_wall
    }

    fn warmed_rps(&self) -> f64 {
        self.stencils as f64 / self.warmed_wall
    }

    fn within_budget(&self) -> bool {
        self.max_rel_error.is_none_or(|e| e <= self.accuracy_budget)
    }
}

/// The adaptive-fidelity scenario: `Fidelity::Auto` requests for
/// non-gallery stencils served cold (the store has never seen them, so
/// each escalates to tuned simulation and feeds the store) and then
/// warmed (same stencils, different input seeds — distinct specs, so the
/// response cache cannot answer — all served analytically from the live
/// store).
fn run_adaptive(n_stencils: usize, store: &Arc<CalibrationStore>) -> AdaptiveResult {
    const BUDGET: f64 = Fidelity::DEFAULT_ACCURACY_BUDGET;
    let server =
        Server::over(session_over(store), ServeConfig::default()).expect("spawn serve workers");
    let stencils: Vec<Arc<Stencil>> = custom_stencil_family(n_stencils)
        .into_iter()
        .map(Arc::new)
        .collect();
    let spec_round = |seed: u64| -> Vec<WorkloadSpec> {
        stencils
            .iter()
            .map(|s| adaptive_workload(s, Variant::Saris, seed, BUDGET))
            .collect()
    };

    let cold_specs = spec_round(0);
    let start = Instant::now();
    let cold = server.submit_all(&cold_specs);
    let cold_wall = start.elapsed().as_secs_f64();

    let warmed_specs = spec_round(1);
    let start = Instant::now();
    let warmed = server.submit_all(&warmed_specs);
    let warmed_wall = start.elapsed().as_secs_f64();

    let max_rel_error = cold
        .iter()
        .zip(&warmed)
        .filter_map(|(c, w)| {
            let (c, w) = (
                c.as_ref().expect("cold runs"),
                w.as_ref().expect("warm runs"),
            );
            // Accuracy is only measurable where cold actually simulated
            // and warmed actually estimated (an imported pre-warmed
            // store can answer the "cold" pass analytically too).
            if c.telemetry.answered_by != Some(Fidelity::Cycles)
                || w.telemetry.answered_by != Some(Fidelity::Analytic)
            {
                return None;
            }
            let (sim, est) = (
                c.expect_report().cycles as f64,
                w.expect_report().cycles as f64,
            );
            Some((est - sim).abs() / sim)
        })
        .fold(None, |acc: Option<f64>, e| {
            Some(acc.map_or(e, |a| a.max(e)))
        });

    let stats = server.stats();
    AdaptiveResult {
        stencils: n_stencils,
        accuracy_budget: BUDGET,
        cold_wall,
        warmed_wall,
        auto_escalated: stats.auto_escalated,
        auto_answered_analytic: stats.auto_answered_analytic,
        max_rel_error,
    }
}

struct GoldenResult {
    requests: usize,
    codes: usize,
    scalar_wall: f64,
    batched_wall: f64,
    bit_identical: bool,
}

impl GoldenResult {
    fn scalar_rps(&self) -> f64 {
        self.requests as f64 / self.scalar_wall
    }

    fn batched_rps(&self) -> f64 {
        self.requests as f64 / self.batched_wall
    }

    fn speedup(&self) -> f64 {
        self.batched_rps() / self.scalar_rps()
    }
}

/// The golden-sweep scenario: `repeats` differently seeded
/// `Fidelity::Golden` requests per gallery code at the paper tiles, with
/// explicit input grids so the scalar baseline executes byte-identical
/// work. The baseline is the pre-batch golden tier — the scalar
/// reference executor, one point and one spec at a time; the measured
/// path is `Session::submit_all`, which batches the whole sweep through
/// `NativeBackend::execute_batch`. Every batched output grid is compared
/// bit-for-bit against the scalar oracle's.
fn run_golden_sweep(codes: &[&str], repeats: usize) -> GoldenResult {
    let mut entries: Vec<(Arc<Stencil>, Extent, Arc<Vec<Grid>>)> = Vec::new();
    for (ci, name) in codes.iter().enumerate() {
        let stencil = Arc::new(gallery::by_name(name).expect("gallery code"));
        let tile = paper_tile(&stencil);
        for r in 0..repeats {
            let inputs: Vec<Grid> = stencil
                .input_arrays()
                .enumerate()
                .map(|(k, _)| {
                    Grid::pseudo_random(tile, PAPER_SEED + ((ci * repeats + r) * 31 + k) as u64)
                })
                .collect();
            entries.push((Arc::clone(&stencil), tile, Arc::new(inputs)));
        }
    }

    let specs: Vec<WorkloadSpec> = entries
        .iter()
        .map(|(stencil, tile, inputs)| {
            Workload::new(Arc::clone(stencil))
                .extent(*tile)
                .shared_inputs(Arc::clone(inputs))
                .fidelity(Fidelity::Golden)
                .freeze()
                .expect("golden sweep specs are valid")
        })
        .collect();
    let session = Session::native();

    // One untimed warm-up pass of each path: first-touch page faults,
    // allocator growth and thread-pool spin-up land here, so the timed
    // passes below compare steady-state executors — the regime the
    // serving layer actually runs in — instead of cold allocators. This
    // matters most for the CI-sized subset, where a handful of requests
    // cannot amortize one-time costs.
    for (stencil, tile, inputs) in &entries {
        let refs: Vec<&Grid> = inputs.iter().collect();
        std::hint::black_box(reference::apply_scalar_to_new(stencil, &refs, *tile));
    }
    std::hint::black_box(session.submit_all(&specs));

    // Best-of-five timed passes per path (minimum wall): the sweep is
    // short enough that a single scheduler preemption would dominate one
    // pass, and the minimum is the standard noise-resistant estimator
    // for deterministic work.
    const PASSES: usize = 5;

    // Scalar baseline.
    let mut scalar_wall = f64::INFINITY;
    let mut scalar_outputs = Vec::new();
    for _ in 0..PASSES {
        let start = Instant::now();
        let outputs: Vec<Grid> = entries
            .iter()
            .map(|(stencil, tile, inputs)| {
                let refs: Vec<&Grid> = inputs.iter().collect();
                reference::apply_scalar_to_new(stencil, &refs, *tile)
            })
            .collect();
        scalar_wall = scalar_wall.min(start.elapsed().as_secs_f64());
        scalar_outputs = outputs;
    }

    // Batched data-parallel path, same requests.
    let mut batched_wall = f64::INFINITY;
    let mut outcomes = Vec::new();
    for _ in 0..PASSES {
        let start = Instant::now();
        let batch = session.submit_all(&specs);
        batched_wall = batched_wall.min(start.elapsed().as_secs_f64());
        outcomes = batch;
    }

    let bit_identical = outcomes
        .iter()
        .zip(&scalar_outputs)
        .all(|(outcome, oracle)| {
            let grid = outcome
                .as_ref()
                .expect("golden sweep spec runs")
                .expect_output();
            grid.as_slice()
                .iter()
                .zip(oracle.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits())
        });

    GoldenResult {
        requests: entries.len(),
        codes: codes.len(),
        scalar_wall,
        batched_wall,
        bit_identical,
    }
}

/// One policy's pass over the mixed-traffic stream.
struct MixedRun {
    wall: f64,
    interactive_hits: usize,
    batches_formed: u64,
    compiles_saved: u64,
}

struct MixedResult {
    golden_requests: usize,
    sweep_families: usize,
    cycle_requests: usize,
    interactive_requests: usize,
    interactive_deadline: Duration,
    cost_aware: MixedRun,
    fifo: MixedRun,
    bit_identical: bool,
}

impl MixedResult {
    fn requests(&self) -> usize {
        self.golden_requests + self.cycle_requests + self.interactive_requests
    }

    fn rps(&self, run: &MixedRun) -> f64 {
        self.requests() as f64 / run.wall
    }

    fn hit_rate(&self, run: &MixedRun) -> f64 {
        run.interactive_hits as f64 / self.interactive_requests as f64
    }

    fn speedup_vs_fifo(&self) -> f64 {
        self.fifo.wall / self.cost_aware.wall
    }
}

/// Bulk golden work for the mixed stream: unique seeds (nothing for the
/// response cache), 32x32 tiles — small enough that per-request serving
/// overhead dominates a solo dispatch (the cost batch formation
/// amortizes), numerous enough to add a real deadline-free backlog in
/// front of the interactive traffic.
fn mixed_golden_spec(i: usize) -> WorkloadSpec {
    let stencil = gallery::by_name(SWEEP_CODES[i % SWEEP_CODES.len()]).expect("sweep code");
    Workload::new(stencil)
        .extent(Extent::new_2d(32, 32))
        .input_seed(PAPER_SEED + 5_000 + i as u64)
        .fidelity(Fidelity::Golden)
        .freeze()
        .expect("mixed golden specs are valid")
}

/// The 2D gallery codes the mixed sweep tenants draw from.
const MIXED_SWEEP_CODES: [&str; 6] = [
    "jacobi_2d",
    "j2d5pt",
    "box2d1r",
    "j2d9pt",
    "j2d9pt_gol",
    "star2d3r",
];

/// One member of a mixed-stream sweep "tenant": tuned cycle-level
/// simulation of a per-tenant `(code, cluster shape)` configuration.
/// Every tenant carries a *distinct* `ClusterConfig` (core count and
/// TCDM capacity vary — the paper's scaleout dimensions), so on a
/// session with a bounded kernel cache and a single-slot cluster pool,
/// serving order decides everything: tenant-consecutive execution pays
/// one auto-tune sweep and one cluster construction per tenant, while
/// an interleaved order re-tunes, recompiles, and reconstructs on
/// nearly every request.
fn mixed_sweep_spec(family: usize, member: u64) -> WorkloadSpec {
    let code = MIXED_SWEEP_CODES[family % MIXED_SWEEP_CODES.len()];
    let mut options = RunOptions::new(Variant::Saris);
    options.cluster = ClusterConfig {
        n_cores: [2, 4, 8][family % 3],
        tcdm_bytes: (128 * 1024) << (family % 4),
        ..ClusterConfig::snitch()
    };
    // 8x8 tiles: small enough that the order-dependent fixed costs
    // (cluster construction, auto-tune, compile) dominate the
    // order-independent simulation time.
    Workload::new(gallery::by_name(code).expect("sweep code"))
        .extent(Extent::new_2d(8, 8))
        .input_seed(PAPER_SEED + 7_000 + (family as u64) * 100 + member)
        .options(options)
        .variant(Variant::Saris)
        .tune(Tune::Auto)
        .fidelity(Fidelity::Cycles)
        .freeze()
        .expect("mixed sweep specs are valid")
}

/// Kernel-compiling bulk work for the mixed stream: distinct input
/// seeds over one `(stencil, extent, options)` fingerprint, so every
/// member shares one compile — the case compile-aware batch formation
/// pays for.
fn mixed_compile_spec(i: usize) -> WorkloadSpec {
    let stencil = gallery::by_name(SWEEP_CODES[0]).expect("sweep code");
    Workload::new(stencil)
        .extent(Extent::new_2d(SWEEP_TILE, SWEEP_TILE))
        .input_seed(PAPER_SEED + 8_000 + i as u64)
        .variant(Variant::Saris)
        .fidelity(Fidelity::Cycles)
        .freeze()
        .expect("mixed compile-family specs are valid")
}

/// Interactive traffic for the mixed stream: unique analytic estimate
/// requests, each carrying a tight deadline.
fn mixed_interactive_spec(i: usize) -> WorkloadSpec {
    let stencil = gallery::by_name(SWEEP_CODES[i % SWEEP_CODES.len()]).expect("sweep code");
    Workload::new(stencil)
        .extent(Extent::new_2d(SWEEP_TILE, SWEEP_TILE))
        .input_seed(PAPER_SEED + 9_000 + i as u64)
        .variant(Variant::Saris)
        .fidelity(Fidelity::Analytic)
        .freeze()
        .expect("mixed interactive specs are valid")
}

/// Serves the mixed stream through one single-worker server under the
/// given policy: all bulk work (golden sweep, interleaved sweep
/// tenants, the compile family) is admitted asynchronously up front —
/// deadline-free or with its generous per-tenant budget — then
/// producer threads trickle in deadline-carrying interactive requests
/// while the worker drains the backlog. Returns the run's metrics plus
/// the bulk outcomes in `bulk` order for the bit-identity check.
fn run_mixed_policy(
    policy: SchedPolicy,
    store: &Arc<CalibrationStore>,
    bulk: &[(WorkloadSpec, Option<Duration>)],
    interactive: &[WorkloadSpec],
    deadline: Duration,
) -> (MixedRun, Vec<ServeResult>) {
    /// Producer threads generating the interactive stream.
    const PRODUCERS: usize = 2;
    /// Gap between one producer's submissions: paced admission, so
    /// interactive requests keep arriving while bulk work drains
    /// instead of landing as one burst.
    const PACE: Duration = Duration::from_micros(100);

    let server = Server::over(
        session_with(
            store,
            SessionConfig {
                // A production cache sized for a handful of hot
                // kernels, not the whole tenant census: order decides
                // whether it hits. Holds one tenant's auto-tune
                // candidates with room to spare, but far fewer than
                // the stream's distinct fingerprints.
                max_cached_kernels: 4,
                // The single worker only ever runs one cluster at a
                // time, so a deeper pool would just hoard memory —
                // but a single slot makes every cluster-shape switch
                // a reconstruction.
                max_pooled_clusters: 1,
                ..SessionConfig::default()
            },
        ),
        ServeConfig {
            // One worker makes the two policies differ only in *order*
            // and batch formation: with a pool, idle workers would hide
            // most of FIFO's head-of-line blocking on this stream size.
            workers: 1,
            // Deep enough that admission never blocks a producer; the
            // experiment measures scheduling, not back-pressure.
            queue_depth: 4096,
            // The widest batch the golden tier's data-parallel executor
            // accepts in one call.
            max_batch: 64,
            policy,
            ..ServeConfig::default()
        },
    )
    .expect("spawn serve workers");

    let start = Instant::now();
    let bulk_handles: Vec<ResponseHandle> = bulk
        .iter()
        .map(|(spec, budget)| match budget {
            Some(budget) => server.submit_async_with_deadline(spec, *budget),
            None => server.submit_async(spec),
        })
        .collect();
    let interactive_results: Vec<ServeResult> = std::thread::scope(|scope| {
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let server = &server;
                scope.spawn(move || {
                    let handles: Vec<ResponseHandle> = interactive
                        .iter()
                        .skip(p)
                        .step_by(PRODUCERS)
                        .map(|spec| {
                            let handle = server.submit_async_with_deadline(spec, deadline);
                            std::thread::sleep(PACE);
                            handle
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(ResponseHandle::wait)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        producers
            .into_iter()
            .flat_map(|producer| producer.join().expect("producer thread"))
            .collect()
    });
    let bulk_results: Vec<ServeResult> =
        bulk_handles.into_iter().map(ResponseHandle::wait).collect();
    let wall = start.elapsed().as_secs_f64();

    for result in &bulk_results {
        result.as_ref().expect("bulk mixed specs serve");
    }
    // An interactive hit answered its deadline with a real (undegraded)
    // outcome; expiry surfaces as `telemetry.degraded` or
    // `ServeError::DeadlineExceeded`, both misses.
    let interactive_hits = interactive_results
        .iter()
        .filter(|result| {
            result
                .as_ref()
                .is_ok_and(|outcome| !outcome.telemetry.degraded)
        })
        .count();

    let stats = server.stats();
    (
        MixedRun {
            wall,
            interactive_hits,
            batches_formed: stats.batches_formed,
            compiles_saved: stats.compiles_saved,
        },
        bulk_results,
    )
}

/// The mixed-traffic scenario: the same unique-heavy stream — bulk
/// golden sweeps, tuned cycle-level sweep *tenants* with distinct
/// cluster shapes whose members arrive interleaved, a
/// shared-fingerprint compile family, and paced interactive analytic
/// requests under a tight deadline — served under
/// [`SchedPolicy::CostAware`] and under a [`SchedPolicy::Fifo`]
/// control, on otherwise identical single-worker servers with a
/// bounded kernel cache and cluster pool. Cost-aware scheduling wins
/// twice on this stream: each sweep tenant carries its own generous
/// deadline budget (staggered tenant by tenant), so slack ordering
/// executes tenants consecutively — one auto-tune, one compile, one
/// cluster construction per tenant — where arrival-order FIFO re-pays
/// all three on nearly every request (throughput); and interactive
/// requests overtake the queued backlog (deadline hit-rate). The
/// compile family additionally dispatches as one
/// fingerprint-precompiled group (`compiles_saved`).
fn run_mixed(_subset: bool, store: &Arc<CalibrationStore>) -> MixedResult {
    const INTERACTIVE_DEADLINE: Duration = Duration::from_millis(20);
    /// Distinct sweep tenants (per-tenant code + cluster shape).
    const SWEEP_FAMILIES: usize = 12;
    /// Differently seeded members per sweep tenant.
    const FAMILY_MEMBERS: usize = 16;
    /// The deadline budget of the first sweep tenant — far beyond
    /// either policy's full drain time, so no bulk deadline ever
    /// expires and the budgets act purely as scheduling priorities.
    const FAMILY_BASE_BUDGET: Duration = Duration::from_secs(3);
    /// The budget stagger between consecutive tenants: large enough to
    /// dominate aging and cost differences, so cost-aware slack
    /// ordering serves whole tenants back to back.
    const FAMILY_BUDGET_STEP: Duration = Duration::from_millis(250);
    // The mixed stream is NOT shrunk under `--subset`: the whole
    // scenario runs in about a second, and the regime under test —
    // a bulk backlog that outlasts the interactive deadline, sweep
    // tenants numerous enough to overflow the bounded kernel cache —
    // only exists at full size. A smaller stream would measure a
    // different (and trivially easy) schedule, and would trip the
    // shape slack in the CI baseline gate for no time saved.
    let n_golden = 180;
    let n_interactive = 120;

    // Bulk arrival order: golden first, then sweep-tenant members
    // member-major (tenant A member 0, tenant B member 0, ... tenant A
    // member 1, ...) — the worst case for cache affinity, and exactly
    // how concurrent tenants interleave in practice — then the compile
    // family. FIFO serves this order verbatim.
    let mut bulk: Vec<(WorkloadSpec, Option<Duration>)> = (0..n_golden)
        .map(|i| (mixed_golden_spec(i), None))
        .collect();
    for member in 0..FAMILY_MEMBERS {
        for family in 0..SWEEP_FAMILIES {
            bulk.push((
                mixed_sweep_spec(family, member as u64),
                Some(FAMILY_BASE_BUDGET + FAMILY_BUDGET_STEP * family as u32),
            ));
        }
    }
    let n_compile = SWEEP_FAMILIES;
    bulk.extend((0..n_compile).map(|i| (mixed_compile_spec(i), None)));
    let n_cycle = SWEEP_FAMILIES * FAMILY_MEMBERS + n_compile;
    let interactive: Vec<WorkloadSpec> = (0..n_interactive).map(mixed_interactive_spec).collect();

    // Each policy gets two passes (fresh server each) and keeps the
    // faster one: the whole scenario is sub-second, so a single
    // scheduler hiccup on a shared machine would otherwise dominate
    // the headline ratio the CI baseline gate watches.
    let best_of = |policy: SchedPolicy| {
        let first = run_mixed_policy(policy, store, &bulk, &interactive, INTERACTIVE_DEADLINE);
        let second = run_mixed_policy(policy, store, &bulk, &interactive, INTERACTIVE_DEADLINE);
        if first.0.wall <= second.0.wall {
            first
        } else {
            second
        }
    };
    let (fifo, _) = best_of(SchedPolicy::Fifo);
    let (cost_aware, bulk_results) = best_of(SchedPolicy::CostAware);

    // Scheduled outcomes must be bit-identical to serial execution:
    // re-run a stride of the bulk specs (golden grids went through
    // `Session::submit_all`, sweep tenants through the bounded-cache
    // tuning path, the compile family through a group-precompiled
    // kernel) one at a time on a fresh default-config session.
    let serial = Session::new();
    let mut sample = bulk
        .iter()
        .zip(&bulk_results)
        .step_by(bulk.len().div_ceil(8).max(1));
    let bit_identical = sample.all(|((spec, _), served)| {
        let served = served.as_ref().expect("bulk mixed specs serve");
        let fresh = serial.submit(spec).expect("serial mixed run");
        served.reports == fresh.reports
            && served.grids.len() == fresh.grids.len()
            && served.grids.iter().zip(&fresh.grids).all(|(s, f)| {
                s.as_slice()
                    .iter()
                    .zip(f.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            })
    });

    MixedResult {
        golden_requests: n_golden,
        sweep_families: SWEEP_FAMILIES,
        cycle_requests: n_cycle,
        interactive_requests: n_interactive,
        interactive_deadline: INTERACTIVE_DEADLINE,
        cost_aware,
        fifo,
        bit_identical,
    }
}

struct ChaosResult {
    requests: usize,
    wall: f64,
    failed: usize,
    injected_errors: u64,
    injected_panics: u64,
    injected_delays: u64,
    retries: u64,
    recovered: u64,
    degraded: u64,
    panics: u64,
    quarantine_rejections: u64,
    healthy_after: bool,
}

impl ChaosResult {
    fn rps(&self) -> f64 {
        self.requests as f64 / self.wall
    }
}

/// The chaos scenario: the full serving stack over a cycle tier wrapped
/// in seeded fault injection (panics, transient errors, delays), with
/// retry, analytic degradation, and per-spec quarantine active. A storm
/// of unique requests is followed by repeated submissions of a
/// known-always-panicking spec (found by scanning the pure fault
/// schedules) until quarantine rejects it, and finally a clean request
/// proving the server still serves. The circuit breaker is disabled
/// here: its consecutive-failure count depends on cross-worker
/// completion order, and the artifact's counters should not churn from
/// run to run.
fn run_chaos(n_requests: usize, store: &Arc<CalibrationStore>) -> ChaosResult {
    const QUARANTINE_AFTER: u32 = 3;
    let mut plan = FaultPlan::seeded(0xC4A05);
    plan.panic_rate = 0.05;
    plan.error_rate = 0.20;
    plan.delay_rate = 0.05;
    plan.delay = Duration::from_millis(1);
    let chaos = Arc::new(FaultInjectingBackend::new(Arc::new(SimBackend), plan));
    let mut registry = BackendRegistry::standard();
    registry.register(Arc::new(RooflineBackend::with_store(Arc::clone(store))));
    registry.register(Arc::clone(&chaos) as Arc<dyn Backend>);
    let session = Session::with_registry(registry, Fidelity::Cycles, SessionConfig::default());
    let server = Server::over(
        session,
        ServeConfig {
            breaker_threshold: 0,
            quarantine_threshold: QUARANTINE_AFTER,
            ..ServeConfig::default()
        },
    )
    .expect("spawn serve workers");

    // The storm: unique cycle-tier specs, every fault decided purely by
    // the plan's hash of (spec key, attempt).
    let specs: Vec<WorkloadSpec> = (0..n_requests)
        .map(|i| {
            sweep_spec(
                SWEEP_CODES[i % SWEEP_CODES.len()],
                1000 + (i / SWEEP_CODES.len()) as u64,
            )
        })
        .collect();
    let start = Instant::now();
    let outcomes = server.submit_all(&specs);
    let wall = start.elapsed().as_secs_f64();
    let failed = outcomes.iter().filter(|r| r.is_err()).count();

    // A spec whose first attempts all panic gets struck out: each
    // submission is answered by analytic degradation, but the strikes
    // accumulate and quarantine rejects it at admission.
    let poison = (100_000u64..)
        .map(|seed| sweep_spec(SWEEP_CODES[0], seed))
        .find(|s| {
            chaos
                .schedule(s, u64::from(QUARANTINE_AFTER))
                .expect("sweep specs have keys")
                .iter()
                .all(|f| *f == Some(FaultKind::Panic))
        })
        .expect("an always-panicking seed exists");
    for _ in 0..QUARANTINE_AFTER {
        let degraded = server.submit(&poison).expect("degradation answers");
        assert!(degraded.telemetry.degraded, "panics degrade to analytic");
    }
    let quarantined = server.submit(&poison).is_err();
    assert!(quarantined, "the poison spec must be quarantined");

    // The server survives: a clean analytic request still serves.
    let probe = Workload::new(gallery::by_name(SWEEP_CODES[0]).expect("sweep code"))
        .extent(Extent::new_2d(SWEEP_TILE, SWEEP_TILE))
        .input_seed(PAPER_SEED)
        .fidelity(Fidelity::Analytic)
        .freeze()
        .expect("probe spec is valid");
    let healthy_after = server.submit(&probe).is_ok();

    let stats = server.stats();
    let injected = chaos.injected();
    ChaosResult {
        requests: n_requests,
        wall,
        failed,
        injected_errors: injected.errors,
        injected_panics: injected.panics,
        injected_delays: injected.delays,
        retries: stats.retries,
        recovered: stats.recovered,
        degraded: stats.degraded,
        panics: stats.panics,
        quarantine_rejections: stats.quarantine_rejections,
        healthy_after,
    }
}

/// Producer threads driving the sharded coordinator: well above the
/// shard fan, because the coordinator serializes requests per shard —
/// a producer blocked on a busy shard contributes nothing to an idle
/// one, so spare producers are what keep every shard's pipeline full.
const SHARD_PRODUCERS: usize = 16;

/// The shard count the scaling headline is measured at.
const SHARD_FAN: usize = 4;

struct ShardedResult {
    requests: usize,
    threads: usize,
    wall_one: f64,
    wall_fan: f64,
    bit_identical: bool,
}

impl ShardedResult {
    fn rps_one(&self) -> f64 {
        self.requests as f64 / self.wall_one
    }
    fn rps_fan(&self) -> f64 {
        self.requests as f64 / self.wall_fan
    }
    fn scaling(&self) -> f64 {
        self.rps_fan() / self.rps_one()
    }
}

/// A duplicate-light request stream: mostly unique cycle-tier specs,
/// with every eighth slot repeating an earlier spec — fingerprint
/// affinity routes the repeat back to the shard whose response cache
/// already holds its answer.
fn sharded_stream(n: usize, seed_base: u64) -> Vec<WorkloadSpec> {
    (0..n)
        .map(|i| {
            let slot = if i % 8 == 7 { i - 3 } else { i };
            sweep_spec(
                SWEEP_CODES[slot % SWEEP_CODES.len()],
                seed_base + (slot / SWEEP_CODES.len()) as u64,
            )
        })
        .collect()
}

/// One shard: a full single-worker `saris-serve` stack over its own
/// gallery-seeded calibration store, listening on a loopback socket.
fn shard_worker() -> ShardWorker {
    let store = Arc::new(CalibrationStore::with_gallery());
    let server = Server::over(
        session_over(&store),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .expect("spawn shard worker");
    ShardWorker::spawn(server).expect("shard worker socket")
}

/// Drives every spec through the coordinator from `threads` concurrent
/// producers (strided split, so duplicates land after their originals).
fn submit_all_sharded(coordinator: &Coordinator, specs: &[WorkloadSpec], threads: usize) {
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                for spec in specs.iter().skip(t).step_by(threads) {
                    coordinator
                        .submit(spec)
                        .expect("sharded request must serve");
                }
            });
        }
    });
}

/// The sharded scenario: the duplicate-light stream measured through a
/// one-shard and a [`SHARD_FAN`]-shard coordinator, each warmed first by
/// an unmeasured same-shape pass (compiling every kernel on the shard
/// that owns it), plus a sampled bit-identity check of sharded answers
/// against a single-process reference server.
fn run_sharded(n_requests: usize, threads: usize) -> ShardedResult {
    let specs = sharded_stream(n_requests, 2000);
    let warm = sharded_stream(n_requests, 5000);

    let wall_one = {
        let workers = vec![shard_worker()];
        let coordinator = Coordinator::over(&workers).expect("coordinator");
        submit_all_sharded(&coordinator, &warm, threads);
        let start = Instant::now();
        submit_all_sharded(&coordinator, &specs, threads);
        start.elapsed().as_secs_f64()
    };

    let workers: Vec<ShardWorker> = (0..SHARD_FAN).map(|_| shard_worker()).collect();
    let coordinator = Coordinator::over(&workers).expect("coordinator");
    submit_all_sharded(&coordinator, &warm, threads);
    let start = Instant::now();
    submit_all_sharded(&coordinator, &specs, threads);
    let wall_fan = start.elapsed().as_secs_f64();

    // Sampled bit-identity: a spread of stream specs plus one golden
    // request, answered by the live deployment and by a single-process
    // reference server over an identical session.
    let reference_store = Arc::new(CalibrationStore::with_gallery());
    let reference = Server::over(
        session_over(&reference_store),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .expect("reference server");
    let golden = Workload::new(gallery::by_name(SWEEP_CODES[0]).expect("sweep code"))
        .extent(Extent::new_2d(SWEEP_TILE, SWEEP_TILE))
        .input_seed(PAPER_SEED + 77)
        .fidelity(Fidelity::Golden)
        .freeze()
        .expect("golden sample spec");
    let samples: Vec<&WorkloadSpec> = specs
        .iter()
        .step_by((n_requests / 4).max(1))
        .chain(std::iter::once(&golden))
        .collect();
    let bit_identical = samples.iter().all(|spec| {
        let sharded = coordinator.submit(spec).expect("sharded sample");
        let local = reference.submit(spec).expect("reference sample");
        sharded.fingerprint == local.fingerprint
            && sharded
                .reports
                .iter()
                .map(|r| r.cycles)
                .eq(local.reports.iter().map(|r| r.cycles))
            && sharded.grids.len() == local.grids.len()
            && sharded.grids.iter().zip(&local.grids).all(|(a, b)| {
                a.extent() == b.extent()
                    && a.as_slice()
                        .iter()
                        .zip(b.as_slice())
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            })
    });

    ShardedResult {
        requests: n_requests,
        threads,
        wall_one,
        wall_fan,
        bit_identical,
    }
}

/// Extracts a numeric field from one named section of a committed
/// artifact with a plain string scan (the artifact is hand-rolled JSON;
/// there is no JSON parser in-tree). `None` when the artifact predates
/// the section or lacks the field.
fn baseline_field(json: &str, section: &str, field: &str) -> Option<f64> {
    let section = json.split(&format!("\"{section}\"")).nth(1)?;
    let tail = section.split(&format!("\"{field}\":")).nth(1)?;
    let num: String = tail
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

/// One gated headline from the committed baseline: the speedup the
/// fresh run must stay within 20% of, plus the shape field (codes /
/// stencils / requests) it was measured over — the gate takes extra
/// slack when a subset run is compared against a full-size baseline.
struct BaselineGate {
    section: &'static str,
    speedup: f64,
    shape: Option<f64>,
}

/// Loads one gated section from the baseline artifact, exiting with an
/// error when the section or its speedup field is missing — a silently
/// skipped gate would let a real regression through as a green run.
fn load_gate(
    json: &str,
    path: &str,
    section: &'static str,
    speedup_field: &str,
    shape_field: &str,
) -> BaselineGate {
    match baseline_field(json, section, speedup_field) {
        Some(speedup) => BaselineGate {
            section,
            speedup,
            shape: baseline_field(json, section, shape_field),
        },
        None => {
            eprintln!(
                "error: baseline artifact `{path}` has no `{section}` section with a \
                 `{speedup_field}` field; the regression gate has nothing to compare \
                 against (re-generate the artifact with the matching scenario flag)"
            );
            std::process::exit(1);
        }
    }
}

/// Applies one regression gate: exits 1 when the fresh speedup falls
/// below 80% of the committed value (64% when the fresh shape differs
/// from the baseline's — a CI subset measured against a committed
/// full-size artifact is structurally a bit slower).
fn apply_gate(gate: &BaselineGate, fresh_speedup: f64, fresh_shape: f64) {
    let same_shape = gate.shape.is_none_or(|shape| shape == fresh_shape);
    let (factor, label) = if same_shape {
        (0.8, "80%")
    } else {
        (0.64, "64%, subset vs full-size baseline")
    };
    let floor = factor * gate.speedup;
    if fresh_speedup < floor {
        eprintln!(
            "{} regression: {fresh_speedup:.2}x is below {label} of the committed {:.2}x",
            gate.section, gate.speedup
        );
        std::process::exit(1);
    }
    println!(
        "{} vs committed baseline: {fresh_speedup:.2}x >= {floor:.2}x ({label} of {:.2}x)",
        gate.section, gate.speedup
    );
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    sweep: &[SweepRow],
    bit_identical: bool,
    tiers: &TierResult,
    adaptive: Option<&AdaptiveResult>,
    golden: Option<&GoldenResult>,
    mixed: Option<&MixedResult>,
    chaos: Option<&ChaosResult>,
    sharded: Option<&ShardedResult>,
    subset: bool,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"serve_throughput\",");
    let _ = writeln!(out, "  \"subset\": {subset},");
    let _ = writeln!(out, "  \"cached_outcomes_bit_identical\": {bit_identical},");
    out.push_str("  \"duplication_sweep\": [\n");
    for (i, r) in sweep.iter().enumerate() {
        let comma = if i + 1 == sweep.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"dup_ratio\": {:.2}, \"requests\": {}, \"unique_specs\": {}, \
             \"uncached_rps\": {:.1}, \"served_nocache_rps\": {:.1}, \
             \"served_rps\": {:.1}, \"speedup_vs_uncached\": {:.2}}}{comma}",
            r.dup_ratio,
            r.requests,
            r.unique,
            r.uncached_rps,
            r.served_nocache_rps,
            r.served_rps,
            r.speedup(),
        );
    }
    out.push_str("  ],\n");
    let analytic_speedup = tiers.cycles_wall / tiers.analytic_wall;
    let all_agree = tiers.rows.iter().all(TierRow::agree);
    let _ = writeln!(out, "  \"analytic_tier\": {{");
    let _ = writeln!(out, "    \"estimate_requests\": {},", tiers.requests);
    let _ = writeln!(
        out,
        "    \"cycles_tier_wall_seconds\": {:.6},",
        tiers.cycles_wall
    );
    let _ = writeln!(
        out,
        "    \"analytic_tier_wall_seconds\": {:.6},",
        tiers.analytic_wall
    );
    let _ = writeln!(out, "    \"speedup_vs_cycles\": {analytic_speedup:.1},");
    let _ = writeln!(out, "    \"bound_classification_preserved\": {all_agree},");
    out.push_str("    \"kernels\": [\n");
    for (i, r) in tiers.rows.iter().enumerate() {
        let comma = if i + 1 == tiers.rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "      {{\"name\": \"{}\", \"sim_cycles\": {}, \"est_cycles\": {}, \
             \"sim_bound\": \"{}\", \"est_bound\": \"{}\", \"agree\": {}}}{comma}",
            json_escape(&r.name),
            r.sim_cycles,
            r.est_cycles,
            if r.sim_memory_bound {
                "memory"
            } else {
                "compute"
            },
            if r.est_memory_bound {
                "memory"
            } else {
                "compute"
            },
            r.agree(),
        );
    }
    if adaptive.is_some()
        || golden.is_some()
        || mixed.is_some()
        || chaos.is_some()
        || sharded.is_some()
    {
        out.push_str("    ]\n  },\n");
    } else {
        out.push_str("    ]\n  }\n");
    }
    if let Some(a) = adaptive {
        let _ = writeln!(out, "  \"adaptive\": {{");
        let _ = writeln!(out, "    \"stencils\": {},", a.stencils);
        let _ = writeln!(out, "    \"accuracy_budget\": {},", a.accuracy_budget);
        let _ = writeln!(out, "    \"cold_wall_seconds\": {:.6},", a.cold_wall);
        let _ = writeln!(out, "    \"warmed_wall_seconds\": {:.6},", a.warmed_wall);
        let _ = writeln!(out, "    \"cold_rps\": {:.1},", a.cold_rps());
        let _ = writeln!(out, "    \"warmed_rps\": {:.1},", a.warmed_rps());
        let _ = writeln!(
            out,
            "    \"speedup_warmed_vs_cold\": {:.1},",
            a.warmed_rps() / a.cold_rps()
        );
        let _ = writeln!(out, "    \"auto_escalated\": {},", a.auto_escalated);
        let _ = writeln!(
            out,
            "    \"auto_answered_analytic\": {},",
            a.auto_answered_analytic
        );
        let _ = writeln!(
            out,
            "    \"max_estimate_rel_error\": {},",
            a.max_rel_error
                .map_or("null".to_string(), |e| format!("{e:.6}"))
        );
        let _ = writeln!(out, "    \"within_budget\": {}", a.within_budget());
        out.push_str(
            if golden.is_some() || mixed.is_some() || chaos.is_some() || sharded.is_some() {
                "  },\n"
            } else {
                "  }\n"
            },
        );
    }
    if let Some(g) = golden {
        let _ = writeln!(out, "  \"golden_sweep\": {{");
        let _ = writeln!(out, "    \"requests\": {},", g.requests);
        let _ = writeln!(out, "    \"codes\": {},", g.codes);
        let _ = writeln!(out, "    \"scalar_wall_seconds\": {:.6},", g.scalar_wall);
        let _ = writeln!(out, "    \"batched_wall_seconds\": {:.6},", g.batched_wall);
        let _ = writeln!(out, "    \"scalar_rps\": {:.1},", g.scalar_rps());
        let _ = writeln!(out, "    \"batched_rps\": {:.1},", g.batched_rps());
        let _ = writeln!(out, "    \"speedup_vs_scalar\": {:.2},", g.speedup());
        let _ = writeln!(out, "    \"grids_bit_identical\": {}", g.bit_identical);
        out.push_str(if mixed.is_some() || chaos.is_some() || sharded.is_some() {
            "  },\n"
        } else {
            "  }\n"
        });
    }
    if let Some(m) = mixed {
        let _ = writeln!(out, "  \"mixed\": {{");
        let _ = writeln!(out, "    \"requests\": {},", m.requests());
        let _ = writeln!(out, "    \"golden_requests\": {},", m.golden_requests);
        let _ = writeln!(out, "    \"sweep_families\": {},", m.sweep_families);
        let _ = writeln!(out, "    \"cycle_requests\": {},", m.cycle_requests);
        let _ = writeln!(
            out,
            "    \"interactive_requests\": {},",
            m.interactive_requests
        );
        let _ = writeln!(
            out,
            "    \"interactive_deadline_ms\": {},",
            m.interactive_deadline.as_millis()
        );
        let _ = writeln!(
            out,
            "    \"costaware_wall_seconds\": {:.6},",
            m.cost_aware.wall
        );
        let _ = writeln!(out, "    \"fifo_wall_seconds\": {:.6},", m.fifo.wall);
        let _ = writeln!(out, "    \"costaware_rps\": {:.1},", m.rps(&m.cost_aware));
        let _ = writeln!(out, "    \"fifo_rps\": {:.1},", m.rps(&m.fifo));
        let _ = writeln!(out, "    \"speedup_vs_fifo\": {:.2},", m.speedup_vs_fifo());
        let _ = writeln!(
            out,
            "    \"costaware_deadline_hit_rate\": {:.4},",
            m.hit_rate(&m.cost_aware)
        );
        let _ = writeln!(
            out,
            "    \"fifo_deadline_hit_rate\": {:.4},",
            m.hit_rate(&m.fifo)
        );
        let _ = writeln!(
            out,
            "    \"batches_formed\": {},",
            m.cost_aware.batches_formed
        );
        let _ = writeln!(
            out,
            "    \"compiles_saved\": {},",
            m.cost_aware.compiles_saved
        );
        let _ = writeln!(out, "    \"bulk_bit_identical\": {}", m.bit_identical);
        out.push_str(if chaos.is_some() || sharded.is_some() {
            "  },\n"
        } else {
            "  }\n"
        });
    }
    if let Some(c) = chaos {
        let _ = writeln!(out, "  \"chaos\": {{");
        let _ = writeln!(out, "    \"requests\": {},", c.requests);
        let _ = writeln!(out, "    \"wall_seconds\": {:.6},", c.wall);
        let _ = writeln!(out, "    \"rps\": {:.1},", c.rps());
        let _ = writeln!(out, "    \"injected_errors\": {},", c.injected_errors);
        let _ = writeln!(out, "    \"injected_panics\": {},", c.injected_panics);
        let _ = writeln!(out, "    \"injected_delays\": {},", c.injected_delays);
        let _ = writeln!(out, "    \"retries\": {},", c.retries);
        let _ = writeln!(out, "    \"recovered\": {},", c.recovered);
        let _ = writeln!(out, "    \"degraded\": {},", c.degraded);
        let _ = writeln!(out, "    \"panics_isolated\": {},", c.panics);
        let _ = writeln!(
            out,
            "    \"quarantine_rejections\": {},",
            c.quarantine_rejections
        );
        let _ = writeln!(out, "    \"failed_requests\": {},", c.failed);
        let _ = writeln!(out, "    \"healthy_after\": {}", c.healthy_after);
        out.push_str(if sharded.is_some() { "  },\n" } else { "  }\n" });
    }
    if let Some(sh) = sharded {
        let _ = writeln!(out, "  \"sharded\": {{");
        let _ = writeln!(out, "    \"requests\": {},", sh.requests);
        let _ = writeln!(out, "    \"producer_threads\": {},", sh.threads);
        let _ = writeln!(out, "    \"shard_fan\": {SHARD_FAN},");
        let _ = writeln!(out, "    \"wall_seconds_1shard\": {:.6},", sh.wall_one);
        let _ = writeln!(out, "    \"wall_seconds_4shard\": {:.6},", sh.wall_fan);
        let _ = writeln!(out, "    \"rps_1shard\": {:.1},", sh.rps_one());
        let _ = writeln!(out, "    \"rps_4shard\": {:.1},", sh.rps_fan());
        let _ = writeln!(out, "    \"scaling_4x_vs_1\": {:.2},", sh.scaling());
        let _ = writeln!(out, "    \"sampled_bit_identical\": {}", sh.bit_identical);
        out.push_str("  }\n");
    }
    out.push_str("}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let subset = args.iter().any(|a| a == "--subset");
    let adaptive = args.iter().any(|a| a == "--adaptive");
    let golden_sweep = args.iter().any(|a| a == "--golden-sweep");
    let mixed = args.iter().any(|a| a == "--mixed");
    let chaos = args.iter().any(|a| a == "--chaos");
    let sharded = args.iter().any(|a| a == "--sharded");
    let mut out_path = "BENCH_serve_throughput.json".to_string();
    let mut import_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out takes a path").clone(),
            "--baseline" => {
                baseline_path = Some(it.next().expect("--baseline takes a path").clone());
            }
            "--export-calibration" => {
                let path = it.next().expect("--export-calibration takes a path");
                export_calibration(path);
                return;
            }
            "--import-calibration" => {
                import_path = Some(
                    it.next()
                        .expect("--import-calibration takes a path")
                        .clone(),
                );
            }
            "--subset" | "--adaptive" | "--golden-sweep" | "--mixed" | "--chaos" | "--sharded" => {}
            other => panic!("unknown argument {other}"),
        }
    }
    // Read the committed baseline up front: the regression gates compare
    // against it *after* the fresh artifact overwrites the same path.
    // Every gated scenario this run measures must have its section in
    // the baseline — a missing section is a hard error, because
    // silently skipping a gate would let a real regression through as a
    // green run.
    let baseline = baseline_path.as_ref().map(|path| {
        if !(golden_sweep || adaptive || mixed || sharded) {
            eprintln!(
                "error: --baseline requires a gated scenario (--golden-sweep, --adaptive, \
                 --mixed, or --sharded); nothing is measured to gate"
            );
            std::process::exit(1);
        }
        let json = match std::fs::read_to_string(path) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("error: cannot read baseline artifact `{path}`: {e}");
                std::process::exit(1);
            }
        };
        let golden_gate = golden_sweep
            .then(|| load_gate(&json, path, "golden_sweep", "speedup_vs_scalar", "codes"));
        let adaptive_gate = adaptive.then(|| {
            load_gate(
                &json,
                path,
                "adaptive",
                "speedup_warmed_vs_cold",
                "stencils",
            )
        });
        let mixed_gate =
            mixed.then(|| load_gate(&json, path, "mixed", "speedup_vs_fifo", "requests"));
        let sharded_gate =
            sharded.then(|| load_gate(&json, path, "sharded", "scaling_4x_vs_1", "requests"));
        (golden_gate, adaptive_gate, mixed_gate, sharded_gate)
    });
    // The analytic tier of every run answers from (and every cycle-tier
    // run feeds) one shared store: imported when requested, the baked
    // gallery seed otherwise.
    let store: Arc<CalibrationStore> = match &import_path {
        Some(path) => {
            let json = std::fs::read_to_string(path).expect("read calibration import");
            let store = CalibrationStore::from_json(&json).expect("parse calibration import");
            println!("imported {} calibration entries from {path}\n", store.len());
            Arc::new(store)
        }
        None => Arc::new(CalibrationStore::with_gallery()),
    };

    println!("serve_throughput: requests per wall second through the serving stack\n");
    let stream_len = if subset { 24 } else { 120 };
    let (sweep, bit_identical) = run_sweep(stream_len);
    println!(
        "{:>10} {:>9} {:>8} {:>13} {:>15} {:>12} {:>9}",
        "dup ratio", "requests", "unique", "uncached r/s", "no-rcache r/s", "served r/s", "speedup"
    );
    for r in &sweep {
        println!(
            "{:>10.2} {:>9} {:>8} {:>13.1} {:>15.1} {:>12.1} {:>8.2}x",
            r.dup_ratio,
            r.requests,
            r.unique,
            r.uncached_rps,
            r.served_nocache_rps,
            r.served_rps,
            r.speedup()
        );
    }
    println!("cached outcomes bit-identical to fresh executions: {bit_identical}");

    let codes: Vec<&str> = if subset {
        vec!["jacobi_2d", "star3d2r", "j3d27pt"]
    } else {
        gallery::NAMES.to_vec()
    };
    let tiers = run_tiers(&codes, &session_over(&store));
    println!(
        "\nanalytic tier: {} estimate requests in {:.4}s vs {:.4}s simulated ({:.0}x)",
        tiers.requests,
        tiers.analytic_wall,
        tiers.cycles_wall,
        tiers.cycles_wall / tiers.analytic_wall
    );
    println!(
        "{:>12} {:>12} {:>12} {:>9} {:>9} {:>6}",
        "kernel", "sim cycles", "est cycles", "sim", "est", "agree"
    );
    for r in &tiers.rows {
        println!(
            "{:>12} {:>12} {:>12} {:>9} {:>9} {:>6}",
            r.name,
            r.sim_cycles,
            r.est_cycles,
            if r.sim_memory_bound {
                "memory"
            } else {
                "compute"
            },
            if r.est_memory_bound {
                "memory"
            } else {
                "compute"
            },
            r.agree()
        );
    }
    println!(
        "bound classification preserved on every kernel: {}",
        tiers.rows.iter().all(TierRow::agree)
    );

    let adaptive_result = adaptive.then(|| {
        let n = if subset { 3 } else { 6 };
        let a = run_adaptive(n, &store);
        println!(
            "\nadaptive fidelity ({} custom stencils, budget {}): cold {:.1} r/s -> \
             warmed {:.1} r/s ({:.0}x)",
            a.stencils,
            a.accuracy_budget,
            a.cold_rps(),
            a.warmed_rps(),
            a.warmed_rps() / a.cold_rps()
        );
        println!(
            "auto_escalated {}, auto_answered_analytic {}, max estimate error {} \
             (within budget: {})",
            a.auto_escalated,
            a.auto_answered_analytic,
            a.max_rel_error
                .map_or("n/a".to_string(), |e| format!("{e:.4}")),
            a.within_budget()
        );
        a
    });

    let golden_result = golden_sweep.then(|| {
        // The subset keeps full-sized repeats: the gate below compares
        // a CI subset run against the committed full-run speedup, so the
        // per-code request count must match for the ratio to be fair.
        let repeats = 6;
        let g = run_golden_sweep(&codes, repeats);
        println!(
            "\ngolden sweep ({} codes x {} seeds at the paper tiles): scalar {:.1} r/s -> \
             batched {:.1} r/s ({:.2}x)",
            g.codes,
            repeats,
            g.scalar_rps(),
            g.batched_rps(),
            g.speedup()
        );
        println!(
            "batched grids bit-identical to the scalar oracle: {}",
            g.bit_identical
        );
        assert!(
            g.bit_identical,
            "golden sweep outputs diverged from the scalar oracle"
        );
        g
    });

    let mixed_result = mixed.then(|| {
        let m = run_mixed(subset, &store);
        println!(
            "\nmixed traffic ({} requests: {} golden + {} cycle across {} tenants + {} \
             interactive @ {}ms deadlines): fifo {:.1} r/s -> cost-aware {:.1} r/s ({:.2}x)",
            m.requests(),
            m.golden_requests,
            m.cycle_requests,
            m.sweep_families,
            m.interactive_requests,
            m.interactive_deadline.as_millis(),
            m.rps(&m.fifo),
            m.rps(&m.cost_aware),
            m.speedup_vs_fifo()
        );
        println!(
            "interactive deadline hit-rate: cost-aware {:.1}% vs fifo {:.1}%; batches formed \
             {}, compiles saved {}; bulk outcomes bit-identical to serial: {}",
            100.0 * m.hit_rate(&m.cost_aware),
            100.0 * m.hit_rate(&m.fifo),
            m.cost_aware.batches_formed,
            m.cost_aware.compiles_saved,
            m.bit_identical
        );
        assert!(
            m.bit_identical,
            "mixed bulk outcomes diverged from serial execution"
        );
        assert!(
            m.cost_aware.compiles_saved > 0,
            "the cost-aware run formed no kernel-compile groups"
        );
        m
    });

    let chaos_result = chaos.then(|| {
        let n = if subset { 24 } else { 60 };
        let c = run_chaos(n, &store);
        println!(
            "\nchaos storm ({} requests, seeded faults): {:.1} r/s; injected {} errors / \
             {} panics / {} delays",
            c.requests,
            c.rps(),
            c.injected_errors,
            c.injected_panics,
            c.injected_delays
        );
        println!(
            "retried {}, recovered {}, degraded {}, panics isolated {}, quarantined {}, \
             failed {}; healthy after: {}",
            c.retries,
            c.recovered,
            c.degraded,
            c.panics,
            c.quarantine_rejections,
            c.failed,
            c.healthy_after
        );
        assert!(c.healthy_after, "server did not survive the chaos storm");
        c
    });

    let sharded_result = sharded.then(|| {
        let n = if subset { 24 } else { 96 };
        let r = run_sharded(n, SHARD_PRODUCERS);
        println!(
            "\nsharded serving ({} requests, {} producers): 1 shard {:.1} r/s -> {} shards \
             {:.1} r/s ({:.2}x)",
            r.requests,
            r.threads,
            r.rps_one(),
            SHARD_FAN,
            r.rps_fan(),
            r.scaling()
        );
        println!(
            "sampled sharded outcomes bit-identical to single-process execution: {}",
            r.bit_identical
        );
        assert!(
            r.bit_identical,
            "sharded outcomes diverged from single-process execution"
        );
        r
    });

    let json = render_json(
        &sweep,
        bit_identical,
        &tiers,
        adaptive_result.as_ref(),
        golden_result.as_ref(),
        mixed_result.as_ref(),
        chaos_result.as_ref(),
        sharded_result.as_ref(),
        subset,
    );
    std::fs::write(&out_path, json).expect("write benchmark artifact");
    println!("\nwrote {out_path}");

    // Plausibility bound (checked after writing, so the artifact still
    // uploads): N shards on fewer cores cannot scale past the core
    // count. A ratio above it means the one-shard baseline was slowed by
    // something other than work — a stall in the transport — and is a
    // measurement artifact, not a speedup.
    if let Some(r) = &sharded_result {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let bound = SHARD_FAN.min(cores) as f64 * 1.1;
        if r.scaling() > bound {
            eprintln!(
                "sharded scaling {:.2}x exceeds min({SHARD_FAN} shards, {cores} cores) x 1.1 = \
                 {bound:.2}x: the one-shard baseline is stalled, not slower",
                r.scaling()
            );
            std::process::exit(1);
        }
    }

    // The CI regression gates: fail (after writing the artifact, so the
    // upload still happens) when any gated headline falls more than 20%
    // below its committed baseline. When the shapes differ — a CI
    // subset measured against a committed full-size artifact — the
    // smaller mix is structurally a bit slower, so the gate takes a
    // further 20% of slack; a real regression (the golden tier falling
    // back to scalar execution, `Auto` routing losing its analytic
    // fast path, the scheduler degenerating to FIFO) lands far below
    // either bar.
    if let Some((golden_gate, adaptive_gate, mixed_gate, sharded_gate)) = baseline {
        if let (Some(gate), Some(g)) = (&golden_gate, &golden_result) {
            apply_gate(gate, g.speedup(), g.codes as f64);
        }
        if let (Some(gate), Some(a)) = (&adaptive_gate, &adaptive_result) {
            apply_gate(gate, a.warmed_rps() / a.cold_rps(), a.stencils as f64);
        }
        if let (Some(gate), Some(m)) = (&mixed_gate, &mixed_result) {
            apply_gate(gate, m.speedup_vs_fifo(), m.requests() as f64);
        }
        if let (Some(gate), Some(r)) = (&sharded_gate, &sharded_result) {
            apply_gate(gate, r.scaling(), r.requests as f64);
        }
    }
}
