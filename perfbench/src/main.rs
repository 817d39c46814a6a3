//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim_gallery|serve_mixed|shard_wire> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1`
//! runs the workload's nominal phase untraced and traced and reports the
//! per-layer metrics, writing the spans to `perfbench/out/`. The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The command exits non-zero when
//! any output fails its oracle or a measurement is implausible.

mod layers;
mod metrics;
mod openloop;
mod probe;
mod req;
mod rng;
mod serve_mixed;
mod shard_wire;
mod sim_gallery;
mod stats;
mod trace;

use std::sync::Arc;
use std::time::Instant;

use metrics::{Metrics, END_TO_END, PER_LAYER};
use trace::Tracer;

/// Set-ups per run: at least `MIN_SETUPS`, more while they have taken
/// less than `SETUP_BUDGET_S` together, at most `MAX_SETUPS`. A cheap
/// set-up is repeated more often, so its median spans more of the run.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 3.0;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// `setup_s`: the median time of several builds of a workload's system,
/// the first of which (`first` seconds, built at process start) ran the
/// timed phases. The further builds follow those phases, so the peak
/// resident set read before them is the measured system's.
pub fn setup_seconds<T>(first: f64, mut setup: impl FnMut() -> T) -> f64 {
    let mut seconds = vec![first];
    while seconds.len() < MAX_SETUPS
        && (seconds.len() < MIN_SETUPS || seconds.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let t = Instant::now();
        let built = setup();
        seconds.push(t.elapsed().as_secs_f64());
        drop(built);
    }
    stats::median(&seconds)
}

/// What a workload is run with.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tracer: Arc<Tracer>,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Run {
    pub metrics: Metrics,
    pub attempted: usize,
    pub mismatches: Vec<String>,
    pub notes: Vec<String>,
    /// A measurement that cannot be trusted (exit 1).
    pub implausible: Vec<String>,
    /// The run is valid but its open-loop generator fell behind.
    pub invalid: Vec<String>,
    pub spans: Vec<trace::Span>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <sim_gallery|serve_mixed|shard_wire> \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Ctx) {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10.0_f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value == "1",
            _ => usage(),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        usage();
    }
    let workload = workload.unwrap_or_else(|| usage());
    (
        workload,
        Ctx {
            seed,
            seconds,
            trace,
            tracer: Arc::new(Tracer::new(trace)),
        },
    )
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn host_block() -> String {
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let parallelism = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "host: nproc {nproc}, available_parallelism {parallelism}, cpu \"{cpu}\", {}",
        env!("PERFBENCH_RUSTC")
    )
}

fn main() {
    let started = Instant::now();
    let (workload, ctx) = parse_args();
    println!(
        "perfbench {workload} seed {} seconds {} trace {}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    println!("{}", host_block());
    let mut run = match workload.as_str() {
        "sim_gallery" => sim_gallery::run(&ctx),
        "serve_mixed" => serve_mixed::run(&ctx),
        "shard_wire" => shard_wire::run(&ctx),
        _ => usage(),
    };
    let failed = run.mismatches.len();
    if !ctx.trace {
        run.metrics
            .set("ok_frac", 1.0 - failed as f64 / run.attempted.max(1) as f64);
    }
    for note in &run.notes {
        println!("note: {note}");
    }
    for m in run.mismatches.iter().take(20) {
        println!("oracle: {m}");
    }
    for m in &run.implausible {
        println!("implausible: {m}");
    }
    for m in &run.invalid {
        println!("invalid run: {m}");
    }
    println!("run valid: {}", run.invalid.is_empty());
    if ctx.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{workload}.seed{}.spans.jsonl", ctx.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::to_jsonl(&run.spans)));
        match written {
            Ok(()) => println!("spans: {} written to {}", run.spans.len(), path.display()),
            Err(e) => println!("spans: not written ({e})"),
        }
    }
    println!("wall {:.1} s; metrics:", started.elapsed().as_secs_f64());
    let list: &[(&str, &str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    let correct = failed == 0;
    metrics::emit(list, &run.metrics, correct, run.attempted.max(1), failed);
    if !correct || !run.implausible.is_empty() {
        std::process::exit(1);
    }
}
