//! The benchmark's metric catalogue and its JSON result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names and
//! units; a test keeps the two in step.

use std::fmt::Write as _;

use crate::probe::site_index;
use crate::workload::{self, Named, Workload};
use crate::{calib, Args, RepTimes, Run};

/// End-to-end metrics, printed by `--trace 0` on every workload.
/// `host` metrics are calibration-normalised medians over reps; `sim_*`
/// metrics are modeled and repeat exactly for a seed.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("host_ns_per_op", "ns"),
    ("peak_rss_mb", "MB"),
    ("sim_malloc_p999_cycles", "cycles"),
    ("sim_malloc_mean_cycles", "cycles"),
    ("sim_finish_ms", "ms"),
    ("sim_frag_peak", "ratio"),
    ("sim_req_p999_ms", "ms"),
    ("sim_achieved_krps", "krps"),
];

/// Per-layer metrics, printed by `--trace 1` on every workload. A
/// layer a workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.calibration_ns", "ns"),
    ("bench.raw_ns_per_op", "ns"),
    ("bench.harness_ns_per_op", "ns"),
    ("bench.trace_overhead_ns_per_op", "ns"),
    ("trace.synthesize_s", "s"),
    ("trace.replay_self_ns_per_op", "ns"),
    ("core.init_s", "s"),
    ("core.malloc_ns_p50", "ns"),
    ("core.malloc_ns_p99", "ns"),
    ("core.free_ns_p50", "ns"),
    ("core.free_ns_p99", "ns"),
    ("core.malloc_hit_ns", "ns"),
    ("core.malloc_refill_ns", "ns"),
    ("core.malloc_bypass_ns", "ns"),
    ("core.malloc_transfer_ns", "ns"),
    ("core.malloc_central_ns", "ns"),
    ("core.class_hit_rate", "ratio"),
    ("core.refill_frac", "ratio"),
    ("core.bypass_frac", "ratio"),
    ("core.transfer_hit_frac", "ratio"),
    ("core.central_hit_frac", "ratio"),
    ("core.remote_free_frac", "ratio"),
    ("core.transfer_flushes_per_kop", "count"),
    ("core.central_demotes", "count"),
    ("core.spans_returned", "count"),
    ("core.backend_latency_frac", "ratio"),
    ("core.meta.accesses_per_op", "count"),
    ("core.meta.hit_rate", "ratio"),
    ("core.meta.dram_bytes_per_op", "B"),
    ("sim.buddy_cache.hit_rate", "ratio"),
    ("sim.buddy_cache.evictions_per_op", "count"),
    ("sim.buddy_cache.writebacks_per_op", "count"),
    ("sim.run_frac", "ratio"),
    ("sim.busy_wait_frac", "ratio"),
    ("sim.idle_mem_frac", "ratio"),
    ("sim.idle_etc_frac", "ratio"),
    ("sim.instrs_per_op", "count"),
    ("sim.dma_transfers_per_op", "count"),
    ("sim.dma_bytes_per_op", "B"),
    ("sim.malloc_p50_cycles", "cycles"),
    ("sim.req_p50_ms", "ms"),
    ("serving.calibrate_s", "s"),
    ("serving.serve_ns_per_req", "ns"),
    ("serving.peak_in_flight", "count"),
    ("serving.push_calls", "count"),
    ("serving.push_ms", "ms"),
    ("failed_op_frac", "ratio"),
];

/// Median of `v` (mean of the middle two for an even count), 0 when
/// empty.
fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn modeled(run: &Run, name: &str) -> Option<f64> {
    run.modeled
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
}

fn median_of(reps: &[&RepTimes], f: impl Fn(&RepTimes) -> f64) -> f64 {
    median(reps.iter().map(|r| f(r)).collect())
}

/// The `--trace 0` metrics.
pub fn end_to_end(run: &Run, peak_rss_mb: f64) -> Result<Vec<Named>, String> {
    let reps: Vec<&RepTimes> = run.reps.iter().collect();
    END_TO_END
        .iter()
        .map(|&(name, _)| {
            let v = match name {
                "setup_s" => median_of(&reps, RepTimes::setup_s),
                "host_ns_per_op" => median_of(&reps, RepTimes::host_ns_per_op),
                "peak_rss_mb" => peak_rss_mb,
                _ => modeled(run, name).ok_or_else(|| format!("no modeled value {name}"))?,
            };
            Ok((name, v))
        })
        .collect()
}

/// The `--trace 1` metrics: host time per layer from the traced reps,
/// the normaliser and harness from the untraced reps, and the modeled
/// per-layer counts.
pub fn per_layer(run: &mut Run) -> Vec<Named> {
    let plain: Vec<&RepTimes> = run.reps.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&RepTimes> = run.reps.iter().filter(|r| r.traced).collect();
    let all: Vec<&RepTimes> = run.reps.iter().collect();
    let is_serve = modeled(run, "serving.peak_in_flight").is_some();
    let mut out = Vec::new();
    let mut probe = run.probe.take();
    let mut calls = probe.as_mut().map(|p| &mut p.calls);
    let mut q = |which: &str, quantile: f64| -> f64 {
        let Some(calls) = calls.as_deref_mut().filter(|_| !is_serve) else {
            return 0.0;
        };
        match which {
            "malloc" => calls.malloc.quantile(quantile),
            "free" => calls.free.quantile(quantile),
            site => calls.by_site[site_index(site)].quantile(quantile),
        }
    };
    for &(name, _) in PER_LAYER {
        let v = match name {
            "bench.calibration_ns" => median(run.kernel_ns.iter().map(|&ns| ns as f64).collect()),
            "bench.raw_ns_per_op" => median_of(&plain, RepTimes::raw_ns_per_op),
            "bench.harness_ns_per_op" => {
                median_of(&plain, |r| r.run.harness_ns as f64 / r.ops as f64)
            }
            "bench.trace_overhead_ns_per_op" => {
                median_of(&traced, RepTimes::host_ns_per_op)
                    - median_of(&plain, RepTimes::host_ns_per_op)
            }
            "trace.synthesize_s" => median_of(&all, |r| r.setup.generate_ns as f64 * 1e-9),
            "trace.replay_self_ns_per_op" if !is_serve => median_of(&traced, |r| {
                (r.run.call_ns - r.alloc_call_ns) as f64 / r.ops as f64
            }),
            "core.init_s" => median_of(&all, |r| r.setup.init_ns as f64 * 1e-9),
            "core.malloc_ns_p50" => q("malloc", 0.5),
            "core.malloc_ns_p99" => q("malloc", 0.99),
            "core.free_ns_p50" => q("free", 0.5),
            "core.free_ns_p99" => q("free", 0.99),
            "core.malloc_hit_ns" => q("hit", 0.5),
            "core.malloc_refill_ns" => q("refill", 0.5),
            "core.malloc_bypass_ns" => q("bypass", 0.5),
            "core.malloc_transfer_ns" => q("transfer", 0.5),
            "core.malloc_central_ns" => q("central", 0.5),
            "sim.malloc_p50_cycles" => modeled(run, "sim_malloc_p50_cycles").unwrap_or(0.0),
            "sim.req_p50_ms" => modeled(run, "sim_req_p50_ms").unwrap_or(0.0),
            "serving.calibrate_s" => median_of(&all, |r| r.setup.calibrate_ns as f64 * 1e-9),
            "serving.serve_ns_per_req" if is_serve => {
                median_of(&traced, |r| r.run.call_ns as f64 / r.ops as f64)
            }
            _ => modeled(run, name).unwrap_or(0.0),
        };
        out.push((name, v));
    }
    run.probe = probe;
    out
}

/// Context printed above the result line: rep counts, the normaliser,
/// latency sample counts and the serving rate.
pub fn notes(args: &Args, run: &Run) -> Vec<String> {
    let calib: Vec<f64> = run.kernel_ns.iter().map(|&ns| ns as f64).collect();
    let mut lines = vec![
        format!(
            "workload {} seed {}: {} measured reps ({} traced) after warm-up, modeled outputs bit-identical across reps: {}",
            args.workload.name(),
            args.seed,
            run.reps.len(),
            run.reps.iter().filter(|r| r.traced).count(),
            !run.errors.iter().any(|e| e.contains("modeled")),
        ),
        format!(
            "calibration kernel: {} runs of {} xorshift read-modify-writes over 4 MB, median {:.0} ns, nominal {:.0} ns",
            calib.len(),
            calib::ITERS,
            median(calib),
            calib::NOMINAL_NS
        ),
    ];
    if let Some(n) = modeled(run, "sim_malloc_samples") {
        let rank = (0.999 * n).ceil();
        let source = if args.workload == Workload::Serve {
            "class calibration replays"
        } else {
            "replayed mallocs"
        };
        lines.push(format!(
            "sim_malloc_*: {n} samples from the {source}, {} beyond p99.9",
            n - rank
        ));
    }
    if let Some(krps) = modeled(run, "serving.offered_krps") {
        lines.push(format!(
            "serve: offered {krps:.3} krps = {} x calibrated capacity, bursty arrivals, {} latency samples",
            workload::SERVE_LOAD,
            modeled(run, "serving.latency_samples").unwrap_or(0.0)
        ));
    }
    lines
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, values: &[Named]) -> String {
    let units = END_TO_END.iter().chain(PER_LAYER);
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, v)) in values.iter().enumerate() {
        let unit = units
            .clone()
            .find(|(n, _)| n == name)
            .map_or("", |(_, u)| u);
        // JSON has no NaN or infinity; the caller fails such a run.
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i > 0 { ", " } else { "" };
        write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    s.push_str("}}");
    s
}
