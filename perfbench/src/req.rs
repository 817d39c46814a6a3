//! One benchmark request, the reference answer for it, and the output
//! oracle every timed phase is checked with.

use std::collections::HashMap;
use std::sync::Arc;

use saris_bench::PAPER_TOLERANCE;
use saris_codegen::{Fidelity, Outcome, RunOptions, Variant, Workload, WorkloadSpec};
use saris_core::{reference, Extent, Grid, Stencil};

/// Everything that defines a request; the spec is frozen from it on the
/// request path, and the oracle recomputes its answer from it.
#[derive(Debug, Clone)]
pub struct Req {
    pub stencil: Arc<Stencil>,
    pub extent: Extent,
    pub seed: u64,
    pub variant: Variant,
    pub unroll: usize,
    pub fidelity: Fidelity,
    pub dma: bool,
    /// Ask the session to verify the output against the reference.
    pub verify: bool,
}

impl Req {
    pub fn new(
        stencil: &Arc<Stencil>,
        extent: Extent,
        seed: u64,
        variant: Variant,
        fidelity: Fidelity,
    ) -> Req {
        Req {
            stencil: Arc::clone(stencil),
            extent,
            seed,
            variant,
            unroll: 1,
            fidelity,
            dma: false,
            verify: false,
        }
    }

    pub fn options(&self) -> RunOptions {
        let options = RunOptions::new(self.variant).with_unroll(self.unroll);
        if self.dma {
            options.with_concurrent_dma()
        } else {
            options
        }
    }

    pub fn builder(&self) -> Workload {
        let w = Workload::new(Arc::clone(&self.stencil))
            .extent(self.extent)
            .input_seed(self.seed)
            .options(self.options())
            .fidelity(self.fidelity);
        if self.verify {
            w.verify(PAPER_TOLERANCE)
        } else {
            w
        }
    }

    pub fn freeze(&self) -> WorkloadSpec {
        self.builder()
            .freeze()
            .expect("benchmark requests are valid workloads")
    }

    pub fn inputs(&self) -> Vec<Grid> {
        self.stencil
            .input_arrays()
            .enumerate()
            .map(|(i, _)| Grid::pseudo_random(self.extent, self.seed.wrapping_add(i as u64)))
            .collect()
    }

    /// The scalar oracle's output for this request.
    pub fn reference(&self) -> Grid {
        let inputs = self.inputs();
        let refs: Vec<&Grid> = inputs.iter().collect();
        reference::apply_scalar_to_new(&self.stencil, &refs, self.extent)
    }

    /// Identifies the compiled kernel.
    pub fn kernel_key(&self) -> (&str, Extent, Variant, usize, bool) {
        (
            self.stencil.name(),
            self.extent,
            self.variant,
            self.unroll,
            self.dma,
        )
    }

    /// The key a backend sees this request's execution under
    /// ([`crate::probe::exec_key`]).
    pub fn exec_key(&self) -> u64 {
        crate::probe::exec_key(
            self.fidelity,
            self.stencil.name(),
            self.variant,
            &self.inputs()[0],
        )
    }

    /// Identifies the answer: requests with equal keys must get equal
    /// outputs.
    pub fn key(&self) -> (String, Extent, u64, Variant, usize, bool) {
        (
            self.stencil.name().to_string(),
            self.extent,
            self.seed,
            self.variant,
            self.unroll,
            self.dma,
        )
    }
}

/// FNV-1a, stable across toolchains (unlike `DefaultHasher`).
pub fn fnv(bytes: &[u8], mut h: u64) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

pub fn grid_digest(grids: &[Grid], mut h: u64) -> u64 {
    for g in grids {
        for v in g.as_slice() {
            h = fnv(&v.to_bits().to_le_bytes(), h);
        }
    }
    h
}

/// A digest of every simulated statistic of the reports. The
/// fast-forward count is left out: it records how the simulator skipped
/// idle cycles, not what the modelled hardware did.
pub fn report_digest(reports: &[snitch_sim::RunReport], mut h: u64) -> u64 {
    for r in reports {
        let mut r = r.clone();
        r.cycles_fast_forwarded = 0;
        h = fnv(format!("{r:?}").as_bytes(), h);
    }
    h
}

/// What a completed request left for the oracle: the digest of its
/// grids and reports, and the output grid itself when a tolerance (not
/// bit identity) decides.
#[derive(Debug, Clone)]
pub struct Answer {
    pub digest: u64,
    pub grid_digest: u64,
    pub n_grids: usize,
    pub n_reports: usize,
    pub estimated: bool,
    pub degraded: bool,
    pub output: Option<Grid>,
}

impl Answer {
    pub fn of(req: &Req, outcome: &Outcome) -> Answer {
        let grid_digest = grid_digest(&outcome.grids, FNV_SEED);
        Answer {
            digest: report_digest(&outcome.reports, grid_digest),
            grid_digest,
            n_grids: outcome.grids.len(),
            n_reports: outcome.reports.len(),
            estimated: outcome.telemetry.estimated,
            degraded: outcome.telemetry.degraded,
            output: (req.fidelity == Fidelity::Cycles)
                .then(|| outcome.grids.first().cloned())
                .flatten(),
        }
    }
}

type Key = (String, Extent, u64, Variant, usize, bool);

/// Reference answers, computed once per distinct request: the digest of
/// a golden reference, the grid of a cycle-tier one.
#[derive(Debug, Default)]
pub struct Oracle {
    golden: HashMap<Key, u64>,
    cycles: HashMap<Key, Grid>,
    dma: HashMap<Key, u64>,
}

impl Oracle {
    /// Checks one answer: golden outputs bit-identical to the scalar
    /// reference, cycle-tier outputs within the paper tolerance, analytic
    /// answers estimate-shaped, and nothing degraded.
    pub fn check(&mut self, req: &Req, answer: &Answer) -> Result<(), String> {
        if answer.degraded {
            return Err("degraded answer".into());
        }
        let measured = !answer.estimated && answer.n_grids == 1;
        match req.fidelity {
            Fidelity::Analytic
                if answer.n_grids == 0 && answer.n_reports > 0 && answer.estimated =>
            {
                Ok(())
            }
            Fidelity::Analytic => Err("analytic answer is not an estimate".into()),
            Fidelity::Golden => {
                let digest = self.golden.entry(req.key()).or_insert_with(|| {
                    grid_digest(std::slice::from_ref(&req.reference()), FNV_SEED)
                });
                if measured && answer.grid_digest == *digest {
                    Ok(())
                } else {
                    Err("golden output differs from the scalar reference".into())
                }
            }
            // Concurrent tile DMA streams the next input tile into the
            // arena while the kernel runs, so the output is not the
            // stencil's; the same request must still repeat bit for bit.
            _ if req.dma => {
                let first = self.dma.entry(req.key()).or_insert(answer.digest);
                if measured && answer.n_reports > 0 && *first == answer.digest {
                    Ok(())
                } else {
                    Err("DMA run is not reproducible".into())
                }
            }
            _ => {
                let reference = self
                    .cycles
                    .entry(req.key())
                    .or_insert_with(|| req.reference());
                match &answer.output {
                    Some(out) if measured && answer.n_reports > 0 => {
                        let err = out.max_abs_diff_interior(reference, req.stencil.halo());
                        if err <= PAPER_TOLERANCE {
                            Ok(())
                        } else {
                            Err(format!("cycle-tier output off by {err:e}"))
                        }
                    }
                    _ => Err("cycle-tier answer is not a measurement".into()),
                }
            }
        }
    }
}
