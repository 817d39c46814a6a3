//! A forwarding wrapper around each registered `Backend`: it times every
//! `execute`/`execute_batch` call and reads the simulator's `RunReport`,
//! and forwards `name`, `fidelity`, `needs_kernel` and
//! `calibration_store` unchanged.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use saris_codegen::{
    Backend, BackendRegistry, CalibrationStore, CodegenError, ExecOutcome, ExecRequest, Fidelity,
    Session, SessionConfig, Variant,
};
use saris_core::Grid;

use crate::req::{fnv, FNV_SEED};
use crate::trace::Tracer;

/// Busy time and simulated activity of one tier (cycles: one variant).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Busy {
    /// Backend calls (`execute` or `execute_batch`).
    pub calls: u64,
    /// Requests those calls answered.
    pub items: u64,
    pub ns: u64,
    /// CPU time of the threads that ran the calls, ns (cycle tier only).
    pub cpu_ns: u64,
    pub cycles: u64,
    pub ff_cycles: u64,
    pub retired: u64,
    pub fpu_util_sum: f64,
    pub ipc_sum: f64,
    pub tcdm_accesses: u64,
    pub tcdm_conflicts: u64,
    pub stream_accesses: u64,
}

impl Busy {
    fn add_report(&mut self, report: &snitch_sim::RunReport) {
        self.cycles += report.cycles;
        self.ff_cycles += report.cycles_fast_forwarded;
        self.retired += report.cores.iter().map(|c| c.retired()).sum::<u64>();
        self.fpu_util_sum += report.fpu_util();
        self.ipc_sum += report.ipc();
        self.tcdm_accesses += report.tcdm_accesses;
        self.tcdm_conflicts += report.tcdm_conflicts;
        self.stream_accesses += report
            .cores
            .iter()
            .flat_map(|c| c.streamers.iter())
            .map(|s| s.elems + s.idx_fetches)
            .sum::<u64>();
    }

    pub fn merge(&mut self, o: &Busy) {
        self.calls += o.calls;
        self.items += o.items;
        self.ns += o.ns;
        self.cpu_ns += o.cpu_ns;
        self.cycles += o.cycles;
        self.ff_cycles += o.ff_cycles;
        self.retired += o.retired;
        self.fpu_util_sum += o.fpu_util_sum;
        self.ipc_sum += o.ipc_sum;
        self.tcdm_accesses += o.tcdm_accesses;
        self.tcdm_conflicts += o.tcdm_conflicts;
        self.stream_accesses += o.stream_accesses;
    }
}

/// What the wrappers of one registry saw, by slot.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub analytic: Busy,
    pub golden: Busy,
    pub cycles_base: Busy,
    pub cycles_saris: Busy,
}

impl Tally {
    pub fn cycles(&self) -> Busy {
        let mut b = self.cycles_base;
        b.merge(&self.cycles_saris);
        b
    }

    fn slot(&mut self, fidelity: Fidelity, variant: Variant) -> &mut Busy {
        match (fidelity, variant) {
            (Fidelity::Analytic, _) => &mut self.analytic,
            (Fidelity::Golden, _) => &mut self.golden,
            (_, Variant::Base) => &mut self.cycles_base,
            (_, Variant::Saris) => &mut self.cycles_saris,
        }
    }

    pub fn total_ns(&self) -> u64 {
        self.analytic.ns + self.golden.ns + self.cycles_base.ns + self.cycles_saris.ns
    }

    /// `sim_cps`: simulated cycles per second of host CPU time in the
    /// cycle-tier backend, `[base, saris]`, over every execution this
    /// tally saw. CPU time leaves out the time the executing thread
    /// waited for a core while the benchmark's other threads ran.
    pub fn sim_cps(&self) -> [f64; 2] {
        [&self.cycles_base, &self.cycles_saris].map(|b| {
            if b.cpu_ns == 0 {
                0.0
            } else {
                b.cycles as f64 / (b.cpu_ns as f64 / 1e9)
            }
        })
    }
}

/// Identifies one execution's request from what a backend sees: tier,
/// stencil, variant, and the first input grid's tile and leading values
/// (which follow from the input seed). Repeats of one spec share a key, so
/// an execution is linked to every request waiting on it.
pub fn exec_key(fidelity: Fidelity, stencil: &str, variant: Variant, first_input: &Grid) -> u64 {
    let head = format!(
        "{fidelity:?} {stencil} {variant:?} {:?}",
        first_input.extent()
    );
    let values = first_input.as_slice();
    values[..values.len().min(4)]
        .iter()
        .fold(fnv(head.as_bytes(), FNV_SEED), |h, v| {
            fnv(&v.to_bits().to_le_bytes(), h)
        })
}

/// A request waiting for an execution: its id and the span the
/// execution's span goes under.
type Waiter = (u64, Option<usize>);

/// Shared by the three wrappers of one registry.
#[derive(Debug)]
pub struct Probe {
    tally: Mutex<Tally>,
    /// Requests waiting for an execution, by [`exec_key`]: each backend
    /// call records one span per waiting request, under its parent span.
    waiting: Mutex<HashMap<u64, Vec<Waiter>>>,
    tracer: Arc<Tracer>,
}

impl Probe {
    pub fn new(tracer: Arc<Tracer>) -> Arc<Probe> {
        Arc::new(Probe {
            tally: Mutex::new(Tally::default()),
            waiting: Mutex::new(HashMap::new()),
            tracer,
        })
    }

    /// Links later executions of `key` to request `req` (and `parent`)
    /// until [`Probe::done`]. Does nothing when tracing is off.
    pub fn expect(&self, key: u64, req: u64, parent: Option<usize>) {
        if self.tracer.enabled() {
            self.waiting
                .lock()
                .expect("probe links poisoned")
                .entry(key)
                .or_default()
                .push((req, parent));
        }
    }

    /// Request `req` has its answer.
    pub fn done(&self, key: u64, req: u64) {
        if self.tracer.enabled() {
            let mut waiting = self.waiting.lock().expect("probe links poisoned");
            if let Some(list) = waiting.get_mut(&key) {
                list.retain(|(r, _)| *r != req);
                if list.is_empty() {
                    waiting.remove(&key);
                }
            }
        }
    }

    pub fn snapshot(&self) -> Tally {
        *self.tally.lock().expect("probe tally poisoned")
    }

    pub fn reset(&self) {
        *self.tally.lock().expect("probe tally poisoned") = Tally::default();
    }

    fn account(
        &self,
        fidelity: Fidelity,
        reqs: &[ExecRequest<'_>],
        results: &[Result<ExecOutcome, CodegenError>],
        (start, end): (Instant, Instant),
        cpu_ns: u64,
    ) {
        let ns = end.saturating_duration_since(start).as_nanos() as u64;
        if self.tracer.enabled() {
            let name = match fidelity {
                Fidelity::Analytic => "backend.analytic",
                Fidelity::Golden => "backend.golden",
                _ => "backend.cycles",
            };
            let waiting = self.waiting.lock().expect("probe links poisoned");
            for r in reqs {
                let Some(first) = r.inputs.first() else {
                    continue;
                };
                let key = exec_key(fidelity, r.stencil.name(), r.options.variant, first);
                for &(req, parent) in waiting.get(&key).into_iter().flatten() {
                    self.tracer.record(name, req, parent, start, end);
                }
            }
        }
        let mut t = self.tally.lock().expect("probe tally poisoned");
        let per_item = ns / reqs.len().max(1) as u64;
        let cpu_per_item = cpu_ns / reqs.len().max(1) as u64;
        for (i, (req, result)) in reqs.iter().zip(results).enumerate() {
            let busy = t.slot(fidelity, req.options.variant);
            busy.calls += u64::from(i == 0);
            busy.items += 1;
            busy.ns += per_item;
            busy.cpu_ns += cpu_per_item;
            if let Ok(ExecOutcome {
                report: Some(report),
                ..
            }) = result
            {
                if fidelity == Fidelity::Cycles {
                    busy.add_report(report);
                }
            }
        }
    }
}

struct Timed {
    inner: Arc<dyn Backend>,
    probe: Arc<Probe>,
}

impl Timed {
    /// Runs `call` and returns its wall-clock interval and, for the cycle
    /// tier, the CPU time it took (reading that clock is a system call,
    /// too dear for microsecond-scale tiers).
    fn timed<T>(&self, call: impl FnOnce() -> T) -> (T, (Instant, Instant), u64) {
        let cycles = self.inner.fidelity() == Fidelity::Cycles;
        let cpu_start = if cycles { thread_cpu_ns() } else { 0 };
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        let cpu_ns = if cycles {
            thread_cpu_ns().saturating_sub(cpu_start)
        } else {
            0
        };
        (out, (start, end), cpu_ns)
    }
}

/// CPU time the calling thread has used, ns (Linux
/// `CLOCK_THREAD_CPUTIME_ID`; the benchmark reads `/proc` too).
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` writes one `timespec` (two 64-bit fields on
    // 64-bit Linux) through a pointer to a live local.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is readable");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

impl Backend for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn fidelity(&self) -> Fidelity {
        self.inner.fidelity()
    }

    fn needs_kernel(&self) -> bool {
        self.inner.needs_kernel()
    }

    fn calibration_store(&self) -> Option<Arc<CalibrationStore>> {
        self.inner.calibration_store()
    }

    fn execute(&self, req: &ExecRequest<'_>) -> Result<ExecOutcome, CodegenError> {
        let (result, wall, cpu_ns) = self.timed(|| self.inner.execute(req));
        self.probe.account(
            self.inner.fidelity(),
            std::slice::from_ref(req),
            std::slice::from_ref(&result),
            wall,
            cpu_ns,
        );
        result
    }

    fn execute_batch(&self, reqs: &[ExecRequest<'_>]) -> Vec<Result<ExecOutcome, CodegenError>> {
        let (results, wall, cpu_ns) = self.timed(|| self.inner.execute_batch(reqs));
        self.probe
            .account(self.inner.fidelity(), reqs, &results, wall, cpu_ns);
        results
    }
}

/// The standard registry with every slot wrapped by `probe`.
pub fn registry(probe: &Arc<Probe>) -> BackendRegistry {
    let standard = BackendRegistry::standard();
    let mut wrapped = standard.clone();
    for fidelity in [Fidelity::Analytic, Fidelity::Cycles, Fidelity::Golden] {
        wrapped.register(Arc::new(Timed {
            inner: Arc::clone(standard.get(fidelity)),
            probe: Arc::clone(probe),
        }));
    }
    wrapped
}

/// A `Session::new()` equivalent whose backends report to `probe`.
pub fn session(probe: &Arc<Probe>) -> Session {
    Session::with_registry(registry(probe), Fidelity::Cycles, SessionConfig::default())
}
