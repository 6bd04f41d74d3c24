//! The repository's benchmark: replays one seeded workload through the
//! public entry points of `pim_trace`, `pim_malloc`, `pim_sim` and
//! `pim_serving`, checks the outputs, and prints its metrics as one JSON
//! line.
//!
//! ```text
//! perfbench --workload <class-churn|bypass-churn|remote-mixed|serve>
//!           --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! A run repeats reps until `--seconds` have passed. Every rep starts
//! from scratch: it generates the input from the seed, builds a fresh
//! `DpuSim` and allocator (SW thread caches prepopulated by
//! `PimMalloc::init`, the hardware buddy cache empty), replays, and is
//! followed by the calibration kernel. The first rep is a host warm-up
//! and is left out of the host metrics.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` alternates
//! untraced reps with reps run through the span recorder and the
//! allocator timing wrapper, prints the per-layer metrics, and writes
//! the spans as Chrome trace-event JSON to `--trace-out`.
//!
//! Modeled outputs (simulated cycles, ms, fragmentation, counts) must
//! repeat bit for bit in every rep, traced or not; host metrics are
//! normalised by the calibration kernel. The process exits with 1 when
//! any check fails, and with 2 on bad arguments.

mod calib;
mod metrics;
mod probe;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calib::Calibration;
use probe::Probe;
use workload::{Named, RunTimes, Scale, SetupTimes, Workload};

/// Reps every run makes at least, warm-up included.
const MIN_REPS: u32 = 3;
/// Reps a run makes at most.
const MAX_REPS: u32 = 10_000;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        trace_out,
    })
}

/// Host measurements of one rep.
#[derive(Debug, Clone, Copy)]
struct RepTimes {
    traced: bool,
    setup: SetupTimes,
    run: RunTimes,
    /// Host operations of the rep's timed calls.
    ops: u64,
    /// Traced reps: raw host ns inside wrapped allocator calls.
    alloc_call_ns: u64,
}

impl RepTimes {
    fn host_ns_per_op(&self) -> f64 {
        self.run.normalised_ns / self.ops as f64
    }

    fn raw_ns_per_op(&self) -> f64 {
        (self.run.call_ns + self.run.harness_ns) as f64 / self.ops as f64
    }

    fn setup_s(&self) -> f64 {
        self.setup.normalised_ns * 1e-9
    }
}

/// Everything a run measured.
struct Run {
    reps: Vec<RepTimes>,
    modeled: Vec<Named>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    probe: Option<Probe>,
    /// Wall time of every calibration kernel run, ns.
    kernel_ns: Vec<u64>,
}

fn bench(args: &Args, scale: Scale) -> Run {
    let mut cal = Calibration::new();
    let mut probe = args.trace.then(Probe::new);
    let mut run = Run {
        reps: Vec::new(),
        modeled: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        probe: None,
        kernel_ns: Vec::new(),
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut rep: u32 = 0;
    // A traced run alternates untraced and traced reps, each kind with
    // its own warm-up.
    let warmup = if args.trace { 2 } else { 1 };
    while rep < MAX_REPS && (rep < MIN_REPS.max(warmup + 2) || start.elapsed() < budget) {
        let traced = args.trace && rep % 2 == 1;
        let mut p = if traced { probe.as_mut() } else { None };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let root = p.as_mut().map(|p| {
                p.begin_rep(rep, rep >= warmup);
                p.enter("bench.rep")
            });
            let (prepared, setup) =
                workload::prepare(args.workload, args.seed, scale, p.as_deref_mut(), &mut cal);
            let (out, times) = workload::run(prepared, p.as_deref_mut(), &mut cal);
            if let (Some(p), Some(root)) = (p.as_mut(), root) {
                p.exit(root);
            }
            (out, setup, times)
        }));
        let (out, setup, run_times) = match outcome {
            Ok(v) => v,
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                run.errors.push(format!("rep {rep} panicked: {msg}"));
                break;
            }
        };
        run.errors
            .extend(out.errors.iter().map(|e| format!("rep {rep}: {e}")));
        if run.modeled.is_empty() {
            run.modeled = out.modeled.clone();
        } else if let Some(diff) = first_difference(&run.modeled, &out.modeled) {
            let kind = if traced { "traced" } else { "untraced" };
            run.errors.push(format!(
                "rep {rep} ({kind}): modeled {diff} differs from rep 0"
            ));
        }
        let mut times = RepTimes {
            traced,
            setup,
            run: run_times,
            ops: out.ops.max(1),
            alloc_call_ns: 0,
        };
        if let Some(p) = p {
            times.alloc_call_ns = p.calls.rep_call_ns;
            check_traced_rep(p, rep, &out, args.workload, &mut run.errors);
        }
        if rep >= warmup {
            run.attempted += out.attempted;
            run.failed += out.failed;
            run.reps.push(times);
        }
        rep += 1;
    }
    run.probe = probe;
    run.kernel_ns = cal.kernel_ns;
    run
}

/// The traced-run self-tests of one rep: the wrapper saw exactly the
/// replayed operations, no non-OOM allocator error, and the layers'
/// self times are non-negative and sum to the rep's span.
fn check_traced_rep(
    p: &mut Probe,
    rep: u32,
    out: &workload::RepOutput,
    w: Workload,
    errors: &mut Vec<String>,
) {
    for e in p.calls.errors.drain(..) {
        errors.push(format!("rep {rep}: allocator error {e}"));
    }
    if w != Workload::Serve && p.calls.rep_calls != out.ops {
        errors.push(format!(
            "rep {rep}: wrapper saw {} allocator calls, the trace has {}",
            p.calls.rep_calls, out.ops
        ));
    }
    let selfs = p.self_times(rep);
    let root = p
        .spans()
        .iter()
        .find(|s| s.rep == rep && s.parent.is_none())
        .map(|s| s.dur_ns() as i64);
    let sum: i64 = selfs.iter().map(|(_, ns)| ns).sum();
    if selfs.iter().any(|(_, ns)| *ns < 0) || Some(sum) != root {
        errors.push(format!(
            "rep {rep}: layer self times {selfs:?} do not sum to the rep span {root:?}"
        ));
    }
}

/// The first modeled value that is not bit-identical, if any.
fn first_difference(a: &[Named], b: &[Named]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("value count {} vs {}", a.len(), b.len()));
    }
    a.iter()
        .zip(b)
        .find(|(x, y)| x.0 != y.0 || x.1.to_bits() != y.1.to_bits())
        .map(|(x, y)| format!("{} ({} vs {})", x.0, x.1, y.1))
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut run = bench(&args, Scale::of(args.workload));
    let values = if args.trace {
        Ok(metrics::per_layer(&mut run))
    } else {
        metrics::end_to_end(&run, peak_rss_mb())
    };
    if let (Some(p), Some(path)) = (&run.probe, &args.trace_out) {
        if let Err(e) = std::fs::write(path, p.chrome_json()) {
            run.errors.push(format!("writing {}: {e}", path.display()));
        }
    }
    let values = values.unwrap_or_else(|e| {
        run.errors.push(e);
        Vec::new()
    });
    for (name, v) in &values {
        if !v.is_finite() {
            run.errors.push(format!("{name} is {v}"));
        }
    }
    for line in metrics::notes(&args, &run) {
        println!("# {line}");
    }
    for e in &run.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = run.errors.is_empty();
    println!(
        "{}",
        metrics::result_json(correct, run.attempted.max(1), run.failed, &values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    //! The benchmark's self-tests, at a small scale: seed handling,
    //! tracing that perturbs no modeled value, layer self times that sum
    //! to the rep, and a metric catalogue that matches `BENCHMARK.json`.

    use super::*;

    /// The seed the benchmark is tuned on, and one held out from tuning.
    const DEFAULT_SEED: u64 = 1;
    const HELD_OUT_SEED: u64 = 0x5EED_0FF5;

    fn small() -> Scale {
        Scale {
            dpus: 2,
            mallocs_per_tasklet: 300,
            serve_requests: 20_000,
        }
    }

    fn run(w: Workload, seed: u64, trace: bool) -> Run {
        let args = Args {
            workload: w,
            seed,
            seconds: 0.001,
            trace,
            trace_out: None,
        };
        let run = bench(&args, small());
        assert!(
            run.errors.is_empty(),
            "{} seed {seed}: {:?}",
            w.name(),
            run.errors
        );
        run
    }

    fn sim(run: &Run) -> Vec<(&'static str, u64)> {
        run.modeled
            .iter()
            .filter(|(n, _)| n.starts_with("sim_"))
            .map(|&(n, v)| (n, v.to_bits()))
            .collect()
    }

    #[test]
    fn seeds_reach_the_generator_and_repeat_exactly() {
        for w in Workload::ALL {
            let a = run(w, DEFAULT_SEED, false);
            let again = run(w, DEFAULT_SEED, false);
            let held_out = run(w, HELD_OUT_SEED, false);
            assert_eq!(a.modeled.len(), again.modeled.len());
            for (x, y) in a.modeled.iter().zip(&again.modeled) {
                assert_eq!((x.0, x.1.to_bits()), (y.0, y.1.to_bits()), "{}", w.name());
            }
            assert_ne!(
                sim(&a),
                sim(&held_out),
                "{}: the seed must move sim_* values",
                w.name()
            );
            assert!(
                a.attempted > 0 && a.failed == 0 && held_out.failed == 0,
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn tracing_changes_no_modeled_value() {
        for w in Workload::ALL {
            let plain = run(w, DEFAULT_SEED, false);
            let traced = run(w, DEFAULT_SEED, true);
            assert!(traced.reps.iter().any(|r| r.traced), "{}", w.name());
            assert_eq!(
                first_difference(&plain.modeled, &traced.modeled),
                None,
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn layer_self_times_sum_to_the_traced_rep() {
        for w in Workload::ALL {
            let traced = run(w, DEFAULT_SEED, true);
            let probe = traced.probe.as_ref().expect("traced runs keep their probe");
            let reps: Vec<u32> = probe
                .spans()
                .iter()
                .filter(|s| s.parent.is_none())
                .map(|s| s.rep)
                .collect();
            assert!(!reps.is_empty());
            for rep in reps {
                let root = probe
                    .spans()
                    .iter()
                    .find(|s| s.rep == rep && s.parent.is_none())
                    .expect("every traced rep has a root span");
                let selfs = probe.self_times(rep);
                assert!(selfs.iter().all(|(_, ns)| *ns >= 0), "{selfs:?}");
                assert_eq!(
                    selfs.iter().map(|(_, ns)| ns).sum::<i64>(),
                    root.dur_ns() as i64
                );
                if w != Workload::Serve {
                    assert!(selfs
                        .iter()
                        .any(|(n, ns)| *n == "core.alloc_calls" && *ns > 0));
                }
            }
            let json = probe.chrome_json();
            assert!(serde_json::from_str(&json).is_ok(), "trace JSON parses");
        }
    }

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let all: Vec<&(&str, &str)> = metrics::END_TO_END
            .iter()
            .chain(metrics::PER_LAYER)
            .collect();
        for (name, unit) in &all {
            assert!(
                name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
            assert_eq!(
                all.iter().filter(|(n, _)| n == name).count(),
                1,
                "{name} listed once"
            );
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [
            ("end_to_end", metrics::END_TO_END),
            ("per_layer", metrics::PER_LAYER),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(|v| v.as_str())
                            .expect("name and unit")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|v| v.as_str())
                    .expect("workload name")
            })
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }
}
