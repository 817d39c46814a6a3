//! Dependency-free wire codec for shipping workloads and outcomes
//! between processes.
//!
//! `saris-shard` runs one coordinator in front of N worker processes,
//! each hosting a full `saris-serve` stack. The coordinator serializes a
//! [`WorkloadSpec`] here, frames it onto a TCP stream with
//! [`write_frame`], and decodes the worker's [`Outcome`] reply with
//! [`decode_outcome`].
//!
//! # One definition per type
//!
//! Every type that crosses the wire has exactly one JSON form, defined
//! once in this module on the shared [`crate::json`] writer and reader:
//! each record's field list and each enum's tag table is written a
//! single time, in a macro that generates both directions, so encoder
//! and decoder cannot drift apart. The calibration store and the
//! `saris-serve` network protocol reuse these impls, and every `f64`
//! crosses bit-exactly by the one rule in [`crate::json`].
//!
//! # Framing
//!
//! A frame is a little-endian `u32` payload length followed by that many
//! bytes of UTF-8 JSON, sent with one write. [`read_frame`] rejects
//! frames longer than the caller's limit (use [`MAX_FRAME_LEN`]) with
//! [`std::io::ErrorKind::InvalidData`], so a garbage length prefix
//! cannot trigger an unbounded allocation.
//!
//! # Decode semantics
//!
//! Frames are untrusted: every decode failure is an error, never a
//! panic, and every extent goes through the checked [`json::extent`].
//! [`decode_spec`] does not deserialize a [`WorkloadSpec`]
//! field-by-field: it replays the stencil through [`StencilBuilder`] and
//! the workload through the [`Workload`] builder, then calls
//! [`Workload::freeze`]. A decoded spec therefore passed the same
//! validation as a locally built one, and its fingerprint is recomputed,
//! never trusted from the wire. [`decode_outcome`] rebuilds the
//! [`Outcome`] directly; its `kernel` (shared with the executing
//! session's cache) never crosses the wire and decodes as `None`.

use std::io::{self, Read, Write};
use std::sync::Arc;

use saris_core::method::CoeffStrategy;
use saris_core::stencil::{ArrayRole, BinKind, Operand, PointOp};
use saris_core::{InterleavePlan, Offset, SarisOptions, Space, Stencil, StencilBuilder};
use saris_isa::IndexWidth;
use snitch_sim::core::IntStats;
use snitch_sim::fpu::FpuStats;
use snitch_sim::ssr::StreamerStats;
use snitch_sim::{ClusterConfig, CoreReport, DmaStats, RunReport};

use crate::backends::Fidelity;
use crate::error::CodegenError;
use crate::json::{self, field, Codec, Decimal, Json, JsonError, Map, Value, Writer};
use crate::runtime::{BufferRotation, RunOptions, Variant};
use crate::tuner::{Tune, TuningDecision};
use crate::workload::{
    InputSpec, Outcome, Workload, WorkloadKind, WorkloadSpec, WorkloadTelemetry,
};
use crate::{json_array, json_object, json_tags};

/// Upper bound on a single frame's payload, in bytes (64 MiB).
///
/// Large enough for an [`Outcome`] carrying several full-resolution
/// grids at the paper's problem sizes; small enough that a corrupted
/// length prefix fails fast instead of exhausting memory.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Writes one length-prefixed frame: a little-endian `u32` byte count
/// followed by `payload`, in a single write so the prefix never sits in
/// a socket buffer waiting for the payload's ACK.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame payload exceeds u32"))?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one length-prefixed frame, rejecting payloads longer than
/// `max_len` with [`io::ErrorKind::InvalidData`].
///
/// A clean EOF before the length prefix surfaces as
/// [`io::ErrorKind::UnexpectedEof`] — the peer hung up.
pub fn read_frame(r: &mut impl Read, max_len: usize) -> io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > max_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} B exceeds the {max_len} B limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

fn wire(e: JsonError) -> CodegenError {
    CodegenError::Wire { reason: e.reason }
}

// ---------------------------------------------------------------------------
// Tag tables
// ---------------------------------------------------------------------------

json_tags! { Variant, "variant" { Base => "base", Saris => "saris" } }
json_tags! { IndexWidth, "index width" { U8 => "u8", U16 => "u16", U32 => "u32" } }
json_tags! { CoeffStrategy, "coeff strategy" { Hybrid => "hybrid", StreamSr1 => "stream_sr1" } }
json_tags! { BufferRotation, "rotation" { Alternating => "alternating", Leapfrog => "leapfrog" } }
json_tags! { Space, "space" { Dim2 => "2d", Dim3 => "3d" } }
json_tags! { ArrayRole, "array role" { Input => "input", Output => "output" } }
json_tags! { BinKind, "op kind" { Add => "add", Sub => "sub", Mul => "mul" } }
json_tags! {
    Fidelity, "fidelity" { Analytic => "analytic", Cycles => "cycles", Golden => "golden" }
    else "auto" => budget in Auto { accuracy_budget: budget }
}
json_tags! {
    Tune, "tune mode" { Fixed => "fixed", Auto => "auto" }
    else "candidates" => list in Candidates(list)
}

json_tags! {
    /// The two shapes of a serialized [`WorkloadSpec`].
    enum Kind, "workload kind" { Probe => "probe", Stencil => "stencil" }
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

json_object! {
    ClusterConfig;
    n_cores, tcdm_banks, tcdm_bytes, main_mem_bytes, main_mem_latency,
    main_mem_bytes_per_cycle, stream_fifo_depth, launch_queue_depth, index_fifo_depth,
    fpu_latency_add, fpu_latency_mul, fpu_latency_fma, fpu_latency_div, fpu_latency_misc,
    fp_load_latency, offload_queue_depth, sequencer_depth, branch_taken_penalty,
    icache_lines, icache_line_bytes, icache_miss_penalty, dma_beat_bytes, freq_hz,
    fast_forward,
}

json_object! {
    RunOptions = RunOptions::new(Variant::Saris);
    variant, unroll, interleave, cluster, saris, max_cycles, concurrent_dma, reassociate,
    base_allow_spill,
}

json_object! { SarisOptions; coeff_reg_budget, index_width, coeff_strategy }

/// `[px, py]`, both non-zero.
impl Json for InterleavePlan {
    fn write(&self, w: &mut Writer) {
        [self.px(), self.py()].write(w);
    }
    fn read(v: &Value) -> Result<InterleavePlan, JsonError> {
        match <[usize; 2]>::read(v)? {
            [px, py] if px > 0 && py > 0 => Ok(InterleavePlan::new(px, py)),
            _ => Err(json::error("interleave: px and py must be non-zero")),
        }
    }
}

// ---------------------------------------------------------------------------
// Stencils
// ---------------------------------------------------------------------------

json_tags! {
    /// The kinds of [`Operand`].
    enum OperandKind, "operand kind" { Tap => "tap", Coeff => "coeff", Tmp => "tmp" }
}

/// `[kind, index]`.
impl Json for Operand {
    fn write(&self, w: &mut Writer) {
        match *self {
            Operand::Tap(i) => (OperandKind::Tap, i),
            Operand::Coeff(i) => (OperandKind::Coeff, i),
            Operand::Tmp(i) => (OperandKind::Tmp, i),
        }
        .write(w);
    }
    fn read(v: &Value) -> Result<Operand, JsonError> {
        let (kind, i) = Json::read(v)?;
        Ok(match kind {
            OperandKind::Tap => Operand::Tap(i),
            OperandKind::Coeff => Operand::Coeff(i),
            OperandKind::Tmp => Operand::Tmp(i),
        })
    }
}

const FMA: &str = "fma";

/// `[kind, a, b]` for binary ops, `["fma", a, b, c]` for fused
/// multiply-adds.
impl Json for PointOp {
    fn write(&self, w: &mut Writer) {
        w.array(|w| {
            match self {
                PointOp::Bin { kind, .. } => kind.write(w),
                PointOp::Fma { .. } => w.str(FMA),
            }
            for operand in self.operands() {
                operand.write(w);
            }
        });
    }
    fn read(v: &Value) -> Result<PointOp, JsonError> {
        match v.as_array("op")? {
            [Value::String(tag), a, b, c] if tag == FMA => Ok(PointOp::Fma {
                a: Json::read(a)?,
                b: Json::read(b)?,
                c: Json::read(c)?,
            }),
            [kind, a, b] => Ok(PointOp::Bin {
                kind: Json::read(kind)?,
                a: Json::read(a)?,
                b: Json::read(b)?,
            }),
            _ => Err(json::error(
                "op: expected [kind, a, b] or [\"fma\", a, b, c]",
            )),
        }
    }
}

/// A stencil declaration `{"name": name, key: value}` (arrays, coeffs).
fn write_decl<T: Json>(w: &mut Writer, name: &str, key: &str, value: &T) {
    w.object(|w| {
        w.key("name");
        w.str(name);
        w.field(key, value);
    });
}

/// The declarations listed under `list`, as written by [`write_decl`].
fn read_decls<T: Json>(o: &Map, list: &str, key: &str) -> Result<Vec<(String, T)>, JsonError> {
    let decls = json::get(o, list)?.as_array(list)?;
    decls
        .iter()
        .map(|d| {
            let d = d.as_object(list)?;
            Ok((field(d, "name")?, field(d, key)?))
        })
        .collect()
}

/// Written from the stencil's accessors, in declaration order; read by
/// replaying the document through [`StencilBuilder`], so decode re-runs
/// the builder's full validation (`finish`). A tap is `[array, dx, dy,
/// dz]`.
impl Json for Stencil {
    fn write(&self, w: &mut Writer) {
        w.object(|w| {
            w.key("name");
            w.str(self.name());
            w.field("space", &self.space());
            w.key("arrays");
            w.array(|w| {
                for a in self.arrays() {
                    write_decl(w, a.name(), "role", &a.role());
                }
            });
            w.key("coeffs");
            w.array(|w| {
                for c in self.coeffs() {
                    write_decl(w, c.name(), "value", &c.value());
                }
            });
            w.key("taps");
            w.array(|w| {
                for t in self.taps() {
                    let Offset { dx, dy, dz } = t.offset;
                    [t.array.index() as i32, dx, dy, dz].write(w);
                }
            });
            w.key("ops");
            w.items(self.ops());
            w.field("result", &self.result());
        });
    }
    fn read(v: &Value) -> Result<Stencil, JsonError> {
        let o = v.as_object("stencil")?;
        let mut sb = StencilBuilder::new(field::<String>(o, "name")?, field(o, "space")?);
        let arrays: Vec<_> = read_decls(o, "arrays", "role")?
            .into_iter()
            .map(|(name, role)| match role {
                ArrayRole::Input => sb.input(name),
                ArrayRole::Output => sb.output(name),
            })
            .collect();
        for (name, value) in read_decls::<f64>(o, "coeffs", "value")? {
            sb.coeff(name, value);
        }
        for [array, dx, dy, dz] in field::<Vec<[i32; 4]>>(o, "taps")? {
            let id = usize::try_from(array)
                .ok()
                .and_then(|i| arrays.get(i))
                .ok_or_else(|| json::error(&format!("tap references unknown array {array}")))?;
            sb.tap(*id, Offset { dx, dy, dz });
        }
        for op in field::<Vec<PointOp>>(o, "ops")? {
            match op {
                PointOp::Bin { kind, a, b } => match kind {
                    BinKind::Add => sb.add(a, b),
                    BinKind::Sub => sb.sub(a, b),
                    BinKind::Mul => sb.mul(a, b),
                },
                PointOp::Fma { a, b, c } => sb.fma(a, b, c),
            };
        }
        sb.store(field(o, "result")?);
        sb.finish()
            .map_err(|e| json::error(&format!("stencil replay rejected: {e}")))
    }
}

// ---------------------------------------------------------------------------
// WorkloadSpec
// ---------------------------------------------------------------------------

/// `{"seed": "<decimal>"}` or `{"grids": [...]}`.
impl Json for InputSpec {
    fn write(&self, w: &mut Writer) {
        w.object(|w| match self {
            InputSpec::Seeded(seed) => w.field_as::<Decimal, _>("seed", seed),
            InputSpec::Grids(grids) => w.field("grids", grids),
        });
    }
    fn read(v: &Value) -> Result<InputSpec, JsonError> {
        let o = v.as_object("inputs")?;
        Ok(match json::field_as::<Decimal, Option<u64>>(o, "seed")? {
            Some(seed) => InputSpec::Seeded(seed),
            None => InputSpec::Grids(field(o, "grids")?),
        })
    }
}

/// Written from the frozen spec; read by replaying it through the
/// [`Workload`] builder and re-freezing (see [`decode_spec`]).
impl Json for WorkloadSpec {
    fn write(&self, w: &mut Writer) {
        w.object(|w| match self.kind() {
            WorkloadKind::DmaProbe { extent, cluster } => {
                w.field("kind", &Kind::Probe);
                w.field("extent", extent);
                w.field("cluster", cluster);
            }
            WorkloadKind::Stencil(s) => {
                w.field("kind", &Kind::Stencil);
                w.field("stencil", &s.stencil);
                w.field("extent", &s.extent);
                w.field("inputs", &s.inputs);
                w.field("options", &s.options);
                w.field("tune", &s.tune);
                w.field("time_steps", &s.time_steps);
                w.field("rotation", &s.rotation);
                w.field("verify", &s.verify);
                w.field("fidelity", &s.fidelity);
            }
        });
    }
    fn read(v: &Value) -> Result<WorkloadSpec, JsonError> {
        replay(v)?
            .freeze()
            .map_err(|e| json::error(&format!("workload rejected: {e}")))
    }
}

fn replay(v: &Value) -> Result<Workload, JsonError> {
    let o = v.as_object("workload spec")?;
    Ok(match field(o, "kind")? {
        Kind::Probe => {
            let probe = Workload::dma_probe(field(o, "extent")?);
            let mut options = RunOptions::new(Variant::Saris);
            options.cluster = field(o, "cluster")?;
            probe.options(options)
        }
        Kind::Stencil => {
            let stencil: Arc<Stencil> = field(o, "stencil")?;
            let mut w = Workload::new(stencil)
                .extent(field(o, "extent")?)
                .options(field(o, "options")?)
                .tune(field(o, "tune")?)
                .time_steps(field(o, "time_steps")?);
            w = match field(o, "inputs")? {
                InputSpec::Seeded(seed) => w.input_seed(seed),
                InputSpec::Grids(grids) => w.shared_inputs(grids),
            };
            if let Some(rotation) = field(o, "rotation")? {
                w = w.rotation(rotation);
            }
            if let Some(tolerance) = field(o, "verify")? {
                w = w.verify(tolerance);
            }
            if let Some(fidelity) = field(o, "fidelity")? {
                w = w.fidelity(fidelity);
            }
            w
        }
    })
}

/// Serializes a frozen [`WorkloadSpec`] to its wire JSON.
pub fn encode_spec(spec: &WorkloadSpec) -> String {
    json::to_string(spec)
}

/// Decodes a wire JSON document back into a [`WorkloadSpec`].
///
/// The document is replayed through the [`Workload`] builder (and its
/// stencil through [`StencilBuilder`]) and re-frozen, so a decoded spec
/// passed the same validation as a locally built one and its
/// fingerprint is recomputed rather than trusted from the wire.
/// Malformed JSON or unknown tags surface as [`CodegenError::Wire`];
/// semantic rejections from [`Workload::freeze`] surface as their
/// original error variants.
pub fn decode_spec(text: &str) -> Result<WorkloadSpec, CodegenError> {
    json::parse(text)
        .and_then(|v| replay(&v))
        .map_err(wire)?
        .freeze()
}

// ---------------------------------------------------------------------------
// Outcome
// ---------------------------------------------------------------------------

/// The backend names an [`Outcome`] may legitimately carry; decode
/// rejects anything else (the field is `&'static str`).
const BACKEND_NAMES: [&str; 4] = ["sim", "native", "roofline", "chaos"];

/// [`Outcome::backend`]: a string from [`BACKEND_NAMES`].
struct BackendName;

impl Codec<&'static str> for BackendName {
    fn write(v: &&'static str, w: &mut Writer) {
        w.str(v);
    }
    fn read(v: &Value) -> Result<&'static str, JsonError> {
        let name = v.as_str("backend")?;
        BACKEND_NAMES
            .into_iter()
            .find(|n| *n == name)
            .ok_or_else(|| json::error(&format!("unknown backend `{name}`")))
    }
}

json_object! {
    Outcome;
    "fingerprint": fingerprint as Decimal,
    backend as BackendName,
    grids, reports, tuning, verify_error, dma_utilization, telemetry,
}

json_object! {
    RunReport;
    cycles, cycles_fast_forwarded, tcdm_accesses, tcdm_conflicts, icache_hits, icache_misses,
    dma, freq_hz, cores,
}

json_array! { DmaStats; bytes, busy_cycles, descriptors, latency_cycles }

json_object! { CoreReport; halted_at, tcdm_wait_cycles, "int": int_stats, fpu, streamers }

json_array! {
    IntStats;
    retired, stalls.offload_full, stalls.launch_full, stalls.lsu, stalls.icache,
    stalls.branch, stalls.drain, stalls.multi_issue,
}

json_array! {
    FpuStats;
    retired, offloaded, arith, flops, loads, stores, stream_pops, stream_pushes,
    stalls.dependency, stalls.stream_empty, stalls.stream_full, stalls.lsu_busy, stalls.idle,
}

json_array! { StreamerStats; elems, idx_fetches, jobs, idle_full_cycles }

json_object! {
    WorkloadTelemetry;
    runs, compiles, cache_hits, clusters_reused, cycles_fast_forwarded, estimated,
    answered_by, degraded, deadline_capped, mix_counts,
}

json_object! { TuningDecision; unroll, measured }

/// Serializes an [`Outcome`] to its wire JSON.
///
/// The `kernel` field (shared with the executing session's cache) does
/// not cross the wire; the decoded outcome carries `kernel: None`.
pub fn encode_outcome(outcome: &Outcome) -> String {
    json::to_string(outcome)
}

/// Decodes a wire JSON document back into an [`Outcome`].
///
/// Grid data, reports and telemetry are restored bit-exactly; the
/// `kernel` field always decodes as `None` (compiled kernels never
/// cross the wire). Malformed documents surface as
/// [`CodegenError::Wire`].
pub fn decode_outcome(text: &str) -> Result<Outcome, CodegenError> {
    json::from_str(text).map_err(wire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use saris_core::{gallery, Extent, Grid};

    fn round_trip(spec: &WorkloadSpec) -> WorkloadSpec {
        let text = encode_spec(spec);
        decode_spec(&text).expect("decode")
    }

    /// Every gallery code × fidelity × tuning mode, at a 16-point cube.
    fn gallery_specs() -> Vec<WorkloadSpec> {
        let mut specs = Vec::new();
        let fidelities = [
            None,
            Some(Fidelity::Analytic),
            Some(Fidelity::Cycles),
            Some(Fidelity::Golden),
            Some(Fidelity::Auto {
                accuracy_budget: 0.05,
            }),
        ];
        let tunes = [Tune::Fixed, Tune::Auto, Tune::Candidates(vec![1, 2, 4])];
        for stencil in gallery::all() {
            let extent = Extent::cube(stencil.space(), 16);
            for fidelity in fidelities {
                for tune in &tunes {
                    let mut w = Workload::new(stencil.clone())
                        .extent(extent)
                        .input_seed(7)
                        .tune(tune.clone());
                    if let Some(f) = fidelity {
                        w = w.fidelity(f);
                    }
                    specs.push(w.freeze().expect("freeze"));
                }
            }
        }
        specs
    }

    #[test]
    fn gallery_specs_round_trip_across_fidelities_and_tunes() {
        for spec in gallery_specs() {
            let decoded = round_trip(&spec);
            let name = spec.stencil().expect("stencil spec").name();
            assert_eq!(decoded, spec, "{name} round trip");
            assert_eq!(decoded.fingerprint(), spec.fingerprint());
        }
    }

    /// Multi-step + rotation + verification + non-default options;
    /// explicit grids with NaN payloads; a DMA probe.
    fn extra_specs() -> Vec<WorkloadSpec> {
        let mut options = RunOptions::new(Variant::Base);
        options.unroll = 3;
        options.interleave = InterleavePlan::new(2, 4);
        options.cluster.n_cores = 4;
        options.cluster.fast_forward = true;
        options.saris.index_width = IndexWidth::U32;
        options.saris.coeff_strategy = CoeffStrategy::StreamSr1;
        options.max_cycles = 123_456;
        options.concurrent_dma = true;
        options.reassociate = 1;
        options.base_allow_spill = true;
        let stepped = Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(24, 24))
            .input_seed(11)
            .options(options)
            .time_steps(3)
            .verify(1e-9)
            .freeze()
            .expect("freeze");

        // Explicit input grids carrying NaN payloads and -0.0 must cross
        // the wire bit-exactly (InputSpec equality compares to_bits).
        let extent = Extent::new_2d(8, 8);
        let mut data = vec![0.25f64; extent.len()];
        data[0] = f64::from_bits(0x7ff8_0000_dead_beef); // NaN payload
        data[1] = -0.0;
        data[2] = f64::INFINITY;
        data[3] = f64::MIN_POSITIVE / 2.0; // subnormal
        let grids = Workload::new(gallery::j2d5pt())
            .extent(extent)
            .inputs(vec![Grid::from_raw(extent, data)])
            .freeze()
            .expect("freeze");

        let probe = Workload::dma_probe(Extent::new_3d(16, 16, 16))
            .freeze()
            .expect("freeze probe");
        vec![stepped, grids, probe]
    }

    #[test]
    fn spec_extras_round_trip() {
        for spec in extra_specs() {
            let decoded = round_trip(&spec);
            assert_eq!(decoded, spec);
            assert_eq!(decoded.fingerprint(), spec.fingerprint());
        }
    }

    /// A cycle-tier outcome with a NaN-carrying grid, a full core
    /// report, tuning and telemetry.
    fn sample_outcome() -> Outcome {
        let extent = Extent::new_2d(4, 4);
        let mut data = vec![1.5f64; extent.len()];
        data[0] = f64::from_bits(0x7ff8_0000_0000_0042);
        data[1] = f64::NEG_INFINITY;
        data[2] = -0.0;
        let mut report = RunReport {
            cycles: 4242,
            cycles_fast_forwarded: 17,
            cores: Vec::new(),
            tcdm_accesses: 999,
            tcdm_conflicts: 3,
            icache_hits: 888,
            icache_misses: 7,
            dma: DmaStats {
                bytes: 2048,
                busy_cycles: 100,
                descriptors: 4,
                latency_cycles: 25,
            },
            freq_hz: 1.0e9,
        };
        let mut core = CoreReport {
            halted_at: 4000,
            int_stats: IntStats::default(),
            fpu: FpuStats::default(),
            streamers: [StreamerStats::default(); 3],
            tcdm_wait_cycles: 55,
        };
        core.int_stats.retired = 1234;
        core.int_stats.stalls.lsu = 9;
        core.fpu.retired = 777;
        core.fpu.flops = 1542;
        core.fpu.stalls.dependency = 31;
        core.streamers[1].elems = 640;
        report.cores.push(core);
        Outcome {
            fingerprint: 0xdead_beef_cafe_f00d,
            backend: "sim",
            grids: vec![Grid::from_raw(extent, data)],
            reports: vec![report],
            kernel: None,
            tuning: Some(TuningDecision {
                unroll: 2,
                measured: vec![(1, 5000), (2, 4242)],
            }),
            verify_error: Some(3.5e-13),
            dma_utilization: None,
            telemetry: WorkloadTelemetry {
                runs: 3,
                compiles: 1,
                cache_hits: 2,
                clusters_reused: 2,
                cycles_fast_forwarded: 17,
                estimated: false,
                answered_by: Some(Fidelity::Cycles),
                degraded: false,
                deadline_capped: true,
                mix_counts: [9, 8, 7, 6, 5, 4],
            },
        }
    }

    #[test]
    fn outcome_round_trips_bit_identically() {
        let outcome = sample_outcome();
        let decoded = decode_outcome(&encode_outcome(&outcome)).expect("decode");
        assert_eq!(decoded.fingerprint, outcome.fingerprint);
        assert_eq!(decoded.backend, outcome.backend);
        assert_eq!(decoded.grids.len(), 1);
        for (a, b) in decoded.grids[0]
            .as_slice()
            .iter()
            .zip(outcome.grids[0].as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(decoded.reports, outcome.reports);
        assert!(decoded.kernel.is_none());
        assert_eq!(decoded.tuning, outcome.tuning);
        assert_eq!(decoded.verify_error, outcome.verify_error);
        assert_eq!(decoded.dma_utilization, outcome.dma_utilization);
        assert_eq!(decoded.telemetry, outcome.telemetry);
    }

    #[test]
    fn garbage_and_truncated_frames_are_rejected() {
        // Truncated payload: length prefix promises more than arrives.
        let mut frame = Vec::new();
        write_frame(&mut frame, b"{\"kind\": \"stencil\"}").expect("write");
        frame.truncate(frame.len() - 4);
        let err = read_frame(&mut frame.as_slice(), MAX_FRAME_LEN).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // Oversized length prefix fails fast without allocating.
        let huge = (MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        let err = read_frame(&mut huge.as_slice(), MAX_FRAME_LEN).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Garbage payloads decode to Wire errors, not panics.
        for garbage in [
            "",
            "not json",
            "{\"kind\": \"sorcery\"}",
            "{\"kind\": \"stencil\"}",
            "{\"kind\": \"probe\", \"extent\": [16, 16]}",
        ] {
            let err = decode_spec(garbage).unwrap_err();
            assert!(
                matches!(err, CodegenError::Wire { .. }),
                "`{garbage}` should fail as a wire error, got: {err}"
            );
        }
        assert!(matches!(
            decode_outcome("{\"backend\": \"warp-drive\"}").unwrap_err(),
            CodegenError::Wire { .. }
        ));

        // Extents `Extent` itself would assert on: a zero dimension, and
        // a point count that overflows `usize`.
        let probe = encode_spec(
            &Workload::dma_probe(Extent::new_3d(16, 16, 16))
                .freeze()
                .unwrap(),
        );
        for zero in [
            r#"{"kind": "probe", "extent": [0, 16, 1], "cluster": {}}"#.to_string(),
            probe.replace("[16, 16, 16]", "[0, 16, 1]"),
        ] {
            let err = decode_spec(&zero).unwrap_err();
            assert!(matches!(err, CodegenError::Wire { .. }), "{zero}: {err}");
        }
        let huge = encode_outcome(&sample_outcome()).replace(
            "\"extent\": [4, 4, 1]",
            "\"extent\": [4294967296, 4294967296, 4294967296]",
        );
        assert!(huge.contains("4294967296"));
        assert!(matches!(
            decode_outcome(&huge).unwrap_err(),
            CodegenError::Wire { .. }
        ));

        // A structurally valid document whose stencil fails builder
        // validation is rejected by the replay, not accepted blindly.
        let spec = Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(16, 16))
            .input_seed(1)
            .freeze()
            .expect("freeze");
        let tampered =
            encode_spec(&spec).replace("\"result\": [\"tmp\", ", "\"result\": [\"tmp\", 9");
        assert!(decode_spec(&tampered).is_err());
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let spec = Workload::new(gallery::star3d2r())
            .extent(Extent::new_3d(16, 16, 16))
            .input_seed(3)
            .freeze()
            .expect("freeze");
        let payload = encode_spec(&spec);
        let mut buf = Vec::new();
        write_frame(&mut buf, payload.as_bytes()).expect("write");
        let read = read_frame(&mut buf.as_slice(), MAX_FRAME_LEN).expect("read");
        let decoded = decode_spec(std::str::from_utf8(&read).expect("utf8")).expect("decode");
        assert_eq!(decoded, spec);
    }

    /// The wire text of two specs, captured before the codec moved onto
    /// the shared writer: a refactor of the codec must not change a byte.
    #[test]
    fn spec_wire_text_is_pinned() {
        let extent = Extent::new_2d(4, 4);
        let mut data = vec![0.5f64; extent.len()];
        data[0] = f64::from_bits(0x7ff8_0000_dead_beef);
        data[5] = -0.0;
        data[7] = 1.0 / 3.0;
        let stencil = Workload::new(gallery::jacobi_2d())
            .inputs(vec![Grid::from_raw(extent, data)])
            .tune(Tune::Candidates(vec![1, 2]))
            .fidelity(Fidelity::Auto {
                accuracy_budget: 0.05,
            })
            .time_steps(2)
            .rotation(BufferRotation::Alternating)
            .verify(1e-9)
            .freeze()
            .expect("freeze");
        assert_eq!(
            encode_spec(&stencil),
            r#"{"kind": "stencil", "stencil": {"name": "jacobi_2d", "space": "2d", "arrays": [{"name": "inp", "role": "input"}, {"name": "out", "role": "output"}], "coeffs": [{"name": "k", "value": 0.2}], "taps": [[0, 0, 0, 0], [0, -1, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 1, 0]], "ops": [["add", ["tap", 1], ["tap", 2]], ["add", ["tap", 3], ["tap", 4]], ["add", ["tmp", 0], ["tmp", 1]], ["add", ["tmp", 2], ["tap", 0]], ["mul", ["coeff", 0], ["tmp", 3]]], "result": ["tmp", 4]}, "extent": [4, 4, 1], "inputs": {"grids": [{"extent": [4, 4, 1], "data": ["0x7ff80000deadbeef", 0.5, 0.5, 0.5, 0.5, -0.0, 0.5, 0.3333333333333333, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]}]}, "options": {"variant": "saris", "unroll": 1, "interleave": [4, 2], "cluster": {"n_cores": 8, "tcdm_banks": 32, "tcdm_bytes": 131072, "main_mem_bytes": 16777216, "main_mem_latency": 40, "main_mem_bytes_per_cycle": 64, "stream_fifo_depth": 4, "launch_queue_depth": 2, "index_fifo_depth": 8, "fpu_latency_add": 3, "fpu_latency_mul": 3, "fpu_latency_fma": 4, "fpu_latency_div": 12, "fpu_latency_misc": 2, "fp_load_latency": 1, "offload_queue_depth": 4, "sequencer_depth": 128, "branch_taken_penalty": 1, "icache_lines": 128, "icache_line_bytes": 64, "icache_miss_penalty": 8, "dma_beat_bytes": 64, "freq_hz": 1000000000.0, "fast_forward": true}, "saris": {"coeff_reg_budget": 24, "index_width": "u16", "coeff_strategy": "hybrid"}, "max_cycles": 0, "concurrent_dma": false, "reassociate": 2, "base_allow_spill": false}, "tune": {"candidates": [1, 2]}, "time_steps": 2, "rotation": "alternating", "verify": 1e-9, "fidelity": {"auto": 0.05}}"#
        );
        let probe = Workload::dma_probe(Extent::new_3d(16, 16, 16))
            .freeze()
            .expect("freeze probe");
        assert_eq!(
            encode_spec(&probe),
            r#"{"kind": "probe", "extent": [16, 16, 16], "cluster": {"n_cores": 8, "tcdm_banks": 32, "tcdm_bytes": 131072, "main_mem_bytes": 16777216, "main_mem_latency": 40, "main_mem_bytes_per_cycle": 64, "stream_fifo_depth": 4, "launch_queue_depth": 2, "index_fifo_depth": 8, "fpu_latency_add": 3, "fpu_latency_mul": 3, "fpu_latency_fma": 4, "fpu_latency_div": 12, "fpu_latency_misc": 2, "fp_load_latency": 1, "offload_queue_depth": 4, "sequencer_depth": 128, "branch_taken_penalty": 1, "icache_lines": 128, "icache_line_bytes": 64, "icache_miss_penalty": 8, "dma_beat_bytes": 64, "freq_hz": 1000000000.0, "fast_forward": true}}"#
        );
    }

    /// Seeded mutations of the round-trip corpus: bit flips, truncations,
    /// cross-document splices, and digits swapped for `0` or `2^32` (the
    /// bounds and products of extents, indices and counts). The decoders
    /// must never panic, and a
    /// spec they accept must re-encode to a document that decodes to the
    /// same spec, fingerprint included.
    #[test]
    fn mutated_frames_never_panic_the_decoders() {
        const SEED: u64 = 0x5a71_0f22;
        const ITERATIONS: u64 = 20_000;
        let mut corpus: Vec<String> = gallery_specs()
            .iter()
            .chain(&extra_specs())
            .map(encode_spec)
            .collect();
        corpus.push(encode_outcome(&sample_outcome()));
        let mut counter = SEED;
        let mut draw = |n: usize| {
            counter += 1;
            (crate::chaos::splitmix64(counter) % n.max(1) as u64) as usize
        };
        let mut accepted = 0;
        for _ in 0..ITERATIONS {
            let doc = corpus[draw(corpus.len())].as_bytes();
            let mutated = match draw(4) {
                0 => {
                    let mut bytes = doc.to_vec();
                    for _ in 0..=draw(3) {
                        bytes[draw(doc.len())] ^= 1 << draw(8);
                    }
                    bytes
                }
                1 => doc[..draw(doc.len())].to_vec(),
                2 => {
                    let digits: Vec<usize> = (0..doc.len())
                        .filter(|&i| doc[i].is_ascii_digit())
                        .collect();
                    let at = digits[draw(digits.len())];
                    let with: &[u8] = [&b"0"[..], b"4294967296"][draw(2)];
                    [&doc[..at], with, &doc[at + 1..]].concat()
                }
                _ => {
                    let other = corpus[draw(corpus.len())].as_bytes();
                    [&doc[..draw(doc.len())], &other[draw(other.len())..]].concat()
                }
            };
            let text = String::from_utf8_lossy(&mutated);
            let _ = decode_outcome(&text);
            if let Ok(spec) = decode_spec(&text) {
                accepted += 1;
                let again = decode_spec(&encode_spec(&spec)).expect("accepted specs re-decode");
                assert_eq!(encode_spec(&again), encode_spec(&spec));
                assert_eq!(again.fingerprint(), spec.fingerprint());
            }
        }
        // Some mutations (a flipped digit, a spliced-in sibling spec)
        // stay valid, so the re-encode oracle is exercised.
        assert!(accepted > 0);
    }
}
