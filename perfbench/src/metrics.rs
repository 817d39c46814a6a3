//! Metric names, units and directions, in the order `BENCHMARK.json`
//! lists them.

/// `(name, unit, better)` of every end-to-end metric.
pub const END_TO_END: [(&str, &str, &str); 12] = [
    ("setup_s", "s", "lower"),
    ("sim_cps.base", "cycles/s", "higher"),
    ("sim_cps.saris", "cycles/s", "higher"),
    ("speedup_err", "ratio", "lower"),
    ("fpu_util_err", "abs", "lower"),
    ("energy_gain_err", "ratio", "lower"),
    ("scaleout_speedup_err", "ratio", "lower"),
    ("p50_ms", "ms", "lower"),
    ("p99_ms", "ms", "lower"),
    ("max_rps", "req/s", "higher"),
    ("ok_frac", "share", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric of the traced run.
pub const PER_LAYER: [(&str, &str, &str); 58] = [
    ("workload.freeze_us", "us", "lower"),
    ("codegen.compile_us", "us", "lower"),
    ("codegen.instrs", "count", "lower"),
    ("verify.kernel_us", "us", "lower"),
    ("session.submit_us.analytic", "us", "lower"),
    ("session.submit_us.golden", "us", "lower"),
    ("session.submit_us.cycles", "us", "lower"),
    ("session.overhead_us", "us", "lower"),
    ("session.kernel_hit_rate", "share", "higher"),
    ("session.cluster_reuse_rate", "share", "higher"),
    ("backend.analytic_us", "us", "lower"),
    ("backend.golden_us", "us", "lower"),
    ("backend.cycles_ms", "ms", "lower"),
    ("backend.batch_size", "count", "higher"),
    ("sim.ns_per_cycle.base", "ns", "lower"),
    ("sim.ns_per_cycle.saris", "ns", "lower"),
    ("sim.ns_per_instr", "ns", "lower"),
    ("sim.ff_frac", "share", "higher"),
    ("sim.cycles", "count", "lower"),
    ("sim.fpu_util.base", "share", "higher"),
    ("sim.fpu_util.saris", "share", "higher"),
    ("sim.ipc.base", "instr/cycle", "higher"),
    ("sim.ipc.saris", "instr/cycle", "higher"),
    ("sim.tcdm_conflict_rate", "share", "lower"),
    ("sim.stream_accesses", "count", "higher"),
    ("golden.mpts_per_s", "Mpt/s", "higher"),
    ("golden.bytes_per_pt", "B", "lower"),
    ("energy.pj_per_flop.base", "pJ", "lower"),
    ("energy.pj_per_flop.saris", "pJ", "lower"),
    ("scaleout.fpu_util.saris", "share", "higher"),
    ("scaleout.speedup", "ratio", "higher"),
    ("serve.admit_us", "us", "lower"),
    ("serve.wait_ms", "ms", "lower"),
    ("serve.cache_hit_rate", "share", "higher"),
    ("serve.coalesced_rate", "share", "higher"),
    ("serve.batches_formed", "count", "higher"),
    ("serve.compiles_saved", "count", "higher"),
    ("serve.deadline_exceeded", "count", "lower"),
    ("serve.retries", "count", "lower"),
    ("serve.degraded", "count", "lower"),
    ("serve.errors", "count", "lower"),
    ("wire.spec_us", "us", "lower"),
    ("wire.outcome_us", "us", "lower"),
    ("wire.spec_bytes", "B", "lower"),
    ("wire.outcome_bytes", "B", "lower"),
    ("net.rtt_ms", "ms", "lower"),
    ("net.transport_ms", "ms", "lower"),
    ("net.stalled_frac", "share", "lower"),
    ("shard.route_us", "us", "lower"),
    ("shard.submit_ms", "ms", "lower"),
    ("shard.wait_ms", "ms", "lower"),
    ("shard.skew", "ratio", "lower"),
    ("shard.retries", "count", "lower"),
    ("shard.rehashes", "count", "lower"),
    ("client.wait_ms", "ms", "lower"),
    ("gen.lateness_p99_ms", "ms", "lower"),
    ("unattributed_ms", "ms", "lower"),
    ("trace.overhead_frac", "share", "lower"),
];

/// Metric values by name; names absent at the end are layers the
/// workload does not exercise.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _, _)| *n == name)
        .map_or("", |(_, u, _)| u)
}

/// Formats a number as JSON (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Prints every metric of `list` by name and unit, then the result line.
/// A layer the workload does not exercise prints as absent and reports 0.
pub fn emit(
    list: &[(&str, &str, &str)],
    m: &Metrics,
    correct: bool,
    attempted: usize,
    failed: usize,
) {
    let mut fields = Vec::new();
    for (name, unit, better) in list {
        let value = m.get(name);
        match value {
            Some(v) => println!("  {name:<28} {v:>16.6} {unit:<12} ({better} is better)"),
            None => println!(
                "  {name:<28} {:>16} {unit:<12} (layer not exercised)",
                "absent"
            ),
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            num(value.unwrap_or(0.0)),
            unit_of(name)
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_metric_once() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits next to perfbench/");
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert_eq!(json.matches(&entry).count(), 1, "{entry}");
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
