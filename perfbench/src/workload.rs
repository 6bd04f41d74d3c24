//! The four benchmark workloads: how each one's input is generated from
//! the seed, how a rep sets up fresh simulators and allocators, what a
//! rep runs, which outputs it checks, and which modeled values it
//! yields.

use std::time::Instant;

use pim_malloc::{AllocGeometry, PimAllocator, PimMalloc};
use pim_serving::{estimated_capacity_rps, serve, ArrivalProcess, RequestClass, ServeConfig};
use pim_sim::{CostModel, DpuConfig, DpuSim, LatencyRecorder};
use pim_trace::{replay, AllocTrace, ReplayResult, SizeLaw, SynthConfig, TemporalShape, TraceOp};
use pim_workloads::requests::standard_mix;

use crate::calib::Calibration;
use crate::probe::{Probe, Timed};

/// Tasklets per replay DPU (the paper's common operating point).
const TASKLETS: usize = 16;
/// Heap of every replay allocator, bytes (the paper's 32 MB bank heap).
const HEAP_BYTES: u32 = 32 << 20;
/// Compute cycles between a tasklet's requests.
const COMPUTE_GAP: u64 = 200;
/// DPUs in the serving fleet (the paper-scale 40-rank system).
const SERVE_DPUS: usize = 2560;
/// Offered load of the serving rep, as a share of the calibrated
/// capacity: just below the knee, so queueing shows in the tail.
pub const SERVE_LOAD: f64 = 0.9;
/// Requests per arrival burst in the serving rep.
const SERVE_BURST: usize = 32;
/// Requests in one serving rep.
const SERVE_REQUESTS: usize = 1_000_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Size-class churn on PIM-malloc-SW: the thread-cache frontend.
    ClassChurn,
    /// Above-class churn on PIM-malloc-SW: the buddy backend.
    BypassChurn,
    /// Producer-consumer remote frees on PIM-malloc-HW/SW: the middle
    /// tiers and the hardware buddy cache.
    RemoteMixed,
    /// The open-loop serving event loop on the 2560-DPU fleet.
    Serve,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ClassChurn,
        Workload::BypassChurn,
        Workload::RemoteMixed,
        Workload::Serve,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClassChurn => "class-churn",
            Workload::BypassChurn => "bypass-churn",
            Workload::RemoteMixed => "remote-mixed",
            Workload::Serve => "serve",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The trace generator of a replay workload (`None` for `serve`).
    pub fn synth_config(self, seed: u64, mallocs_per_tasklet: usize) -> Option<SynthConfig> {
        let steady = TemporalShape::Steady {
            compute: COMPUTE_GAP,
        };
        let (size_law, shape, live_window) = match self {
            Workload::ClassChurn => (
                SizeLaw::Zipf {
                    min: 16,
                    max: 2048,
                    exponent: 1.1,
                },
                steady,
                32,
            ),
            Workload::BypassChurn => (
                SizeLaw::Uniform {
                    min: 4096,
                    max: 32 << 10,
                },
                steady,
                16,
            ),
            // exp(6.0 + 1.4 z) exceeds the 2 KB class bound for
            // z > 1.16, about one request in eight.
            Workload::RemoteMixed => (
                SizeLaw::LogNormal {
                    mu: 6.0,
                    sigma: 1.4,
                    min: 16,
                    max: 16 << 10,
                },
                TemporalShape::ProducerConsumer {
                    compute: COMPUTE_GAP,
                },
                32,
            ),
            Workload::Serve => return None,
        };
        Some(SynthConfig {
            n_tasklets: TASKLETS,
            mallocs_per_tasklet,
            live_window,
            size_law,
            shape,
            heap_size: HEAP_BYTES,
            seed,
        })
    }

    fn geometry(self) -> AllocGeometry {
        match self {
            Workload::RemoteMixed => AllocGeometry::hw_sw(TASKLETS),
            _ => AllocGeometry::sw(TASKLETS),
        }
        .with_heap_size(HEAP_BYTES)
    }
}

/// Sizes of one rep; [`Scale::of`] gives the benchmark's, tests shrink
/// them.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Independent DPUs a replay rep runs, each on its own trace.
    pub dpus: usize,
    /// `Malloc` events per tasklet of a replay workload.
    pub mallocs_per_tasklet: usize,
    /// Requests of a serving rep.
    pub serve_requests: usize,
}

impl Scale {
    /// The benchmark's size for workload `w`: enough independent DPUs
    /// that the modeled outputs of different seeds agree within a few
    /// percent, at about a second of host time per rep.
    pub fn of(w: Workload) -> Scale {
        let (dpus, mallocs_per_tasklet) = match w {
            Workload::ClassChurn => (8, 10_000),
            Workload::BypassChurn => (8, 2_500),
            // A producer-consumer DPU's peak fragmentation is its
            // prepopulated reserve over the peak of a small live set; it
            // varies by a third between DPUs, so the mean needs many.
            Workload::RemoteMixed => (128, 625),
            Workload::Serve => (0, 0),
        };
        Scale {
            dpus,
            mallocs_per_tasklet,
            serve_requests: SERVE_REQUESTS,
        }
    }
}

/// Host time of one rep's set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Input generation, raw ns: trace synthesis or the class mix.
    pub generate_ns: u64,
    /// `DpuSim::new` plus `PimMalloc::init`, thread-cache
    /// prepopulation included, raw ns (replay workloads).
    pub init_ns: u64,
    /// Class calibration and capacity estimate, raw ns (`serve`).
    pub calibrate_ns: u64,
    /// All of the above, calibration-normalised ns.
    pub normalised_ns: f64,
}

/// Host time of one rep after set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunTimes {
    /// The `replay` or `serve` calls, raw ns.
    pub call_ns: u64,
    /// Result checks, summaries and teardown, raw ns.
    pub harness_ns: u64,
    /// Calls plus harness, calibration-normalised ns.
    pub normalised_ns: f64,
}

/// A rep after set-up, ready to run. One exists at a time, so the size
/// difference between the variants costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Prepared {
    /// A replay workload: per DPU, its trace, a fresh `DpuSim` and a
    /// fresh allocator.
    Replay(Vec<Tile>),
    /// The serving workload: the classes, the run's configuration and
    /// the allocator model of the class calibration.
    Serve {
        /// The request-class mix.
        classes: Vec<RequestClass>,
        /// The serving configuration, arrival rate included.
        cfg: ServeConfig,
        /// Modeled allocator outputs of the calibration replays.
        calibration: Vec<Named>,
        /// Calibration replays that disagreed with `service_ns`.
        errors: Vec<String>,
    },
}

/// One DPU of a replay rep.
pub struct Tile {
    trace: AllocTrace,
    dpu: DpuSim,
    alloc: Box<PimMalloc>,
}

/// The trace seed of DPU `k` of a rep: a SplitMix64 finaliser over the
/// workload seed, so DPUs draw unrelated streams.
fn tile_seed(seed: u64, k: usize) -> u64 {
    let mut z = seed.wrapping_add((k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A named modeled value. Modeled values must repeat bit for bit
/// between reps of one seed.
pub type Named = (&'static str, f64);

/// What one rep produced besides its host time.
pub struct RepOutput {
    /// Modeled outputs and counts, in a fixed order.
    pub modeled: Vec<Named>,
    /// Host operations the rep's timed calls performed: `pim_malloc`
    /// and `pim_free` calls for a replay, requests for `serve`.
    pub ops: u64,
    /// Operations attempted, for `failed_op_frac`: replayed mallocs plus
    /// remote frees, or offered requests.
    pub attempted: u64,
    /// Attempted operations that failed: OOM mallocs plus dropped
    /// remote frees, or dropped requests.
    pub failed: u64,
    /// Output checks that failed, empty when the rep is correct.
    pub errors: Vec<String>,
}

fn sw_build(dpu: &mut DpuSim, tasklets: usize, heap: u32) -> Box<dyn PimAllocator> {
    let cfg = AllocGeometry::sw(tasklets).with_heap_size(heap).build();
    Box::new(PimMalloc::init(dpu, cfg).expect("calibration allocator initialises"))
}

/// Times `f`, as a span named `name` when tracing, and books its time
/// with the normaliser. Returns `f`'s value and its raw host ns.
fn timed<T>(
    probe: &mut Option<&mut Probe>,
    cal: &mut Calibration,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, u64) {
    let (v, ns) = match probe.as_deref_mut() {
        Some(p) => {
            let id = p.enter(name);
            let v = f();
            (v, p.exit(id))
        }
        None => {
            let start = Instant::now();
            let v = f();
            (v, start.elapsed().as_nanos() as u64)
        }
    };
    cal.charge(ns, probe.as_deref_mut());
    (v, ns)
}

/// Sets up one rep from scratch: generates the input and builds fresh
/// simulators and allocators (or calibrates the serving classes).
pub fn prepare(
    w: Workload,
    seed: u64,
    scale: Scale,
    mut probe: Option<&mut Probe>,
    cal: &mut Calibration,
) -> (Prepared, SetupTimes) {
    let mut t = SetupTimes::default();
    let prepared = if w == Workload::Serve {
        let (classes, ns) = timed(&mut probe, cal, "trace.synthesize", standard_mix);
        t.generate_ns = ns;
        let ((capacity, (calibration, errors)), ns) =
            timed(&mut probe, cal, "serving.calibrate", || {
                (
                    estimated_capacity_rps(&classes, &sw_build, SERVE_DPUS),
                    calibration_model(&classes),
                )
            });
        t.calibrate_ns = ns;
        let base = ServeConfig::default();
        let cfg = ServeConfig {
            n_dpus: SERVE_DPUS,
            n_requests: scale.serve_requests,
            arrival: ArrivalProcess::Bursty {
                rps: SERVE_LOAD * capacity,
                burst: SERVE_BURST,
            },
            ctx: base.ctx.with_seed(seed),
            ..base
        };
        Prepared::Serve {
            classes,
            cfg,
            calibration,
            errors,
        }
    } else {
        let mut tiles = Vec::with_capacity(scale.dpus);
        for k in 0..scale.dpus {
            let synth = w
                .synth_config(tile_seed(seed, k), scale.mallocs_per_tasklet)
                .expect("replay workloads have a generator");
            let (trace, ns) = timed(&mut probe, cal, "trace.synthesize", || {
                pim_trace::synthesize(&synth)
            });
            t.generate_ns += ns;
            let ((dpu, alloc), ns) = timed(&mut probe, cal, "core.init", || {
                let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(TASKLETS));
                let alloc = PimMalloc::init(&mut dpu, w.geometry().build())
                    .expect("replay allocator initialises");
                (dpu, Box::new(alloc))
            });
            t.init_ns += ns;
            tiles.push(Tile { trace, dpu, alloc });
        }
        Prepared::Replay(tiles)
    };
    t.normalised_ns = cal.take(probe);
    (prepared, t)
}

/// Replays every class fragment exactly as `RequestClass::service_ns`
/// does (a fresh default DPU, a fresh SW allocator) and returns the
/// allocator model of those replays, plus an error for every class
/// whose replay disagrees with `service_ns`.
fn calibration_model(classes: &[RequestClass]) -> (Vec<Named>, Vec<String>) {
    let mut latencies = LatencyRecorder::new();
    let mut frag_peak = 0.0f64;
    let mut counts = AllocCounts::default();
    let mut sim = SimCounts::default();
    let mut errors = Vec::new();
    for class in classes {
        let n = class.trace.n_tasklets;
        let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(n));
        let cfg = AllocGeometry::sw(n)
            .with_heap_size(class.trace.heap_size)
            .build();
        let mut alloc = PimMalloc::init(&mut dpu, cfg).expect("calibration allocator initialises");
        let r = replay(&mut dpu, &mut alloc, &class.trace);
        let ns = ((r.finish.as_micros(CostModel::default().clock_mhz) * 1e3).round() as u64).max(1);
        let calibrated = class.service_ns(&sw_build);
        if ns != calibrated {
            errors.push(format!(
                "class {}: replayed service time {ns} ns != service_ns {calibrated} ns",
                class.name
            ));
        }
        latencies.extend_from(&r.malloc_latencies);
        frag_peak = frag_peak.max(alloc.frag().peak_ratio());
        counts.add(&alloc);
        sim.add(&dpu, &class.trace);
    }
    let mut out = latency_model(&latencies, false);
    out.push(("sim_frag_peak", frag_peak));
    let ops = sim.ops.max(1);
    out.extend(counts.named(latencies.len() as u64, ops));
    out.extend(sim.named(ops));
    (out, errors)
}

/// Runs one prepared rep, through `probe` when tracing.
pub fn run(
    prepared: Prepared,
    mut probe: Option<&mut Probe>,
    cal: &mut Calibration,
) -> (RepOutput, RunTimes) {
    let mut t = RunTimes::default();
    let out = match prepared {
        Prepared::Replay(mut tiles) => {
            let mut results = Vec::with_capacity(tiles.len());
            for tile in &mut tiles {
                let (r, ns) = match probe.as_deref_mut() {
                    Some(p) => {
                        let id = p.enter("trace.replay");
                        let r = replay(
                            &mut tile.dpu,
                            &mut Timed::new(tile.alloc.as_mut(), p),
                            &tile.trace,
                        );
                        (r, p.exit(id))
                    }
                    None => {
                        let start = Instant::now();
                        let r = replay(&mut tile.dpu, tile.alloc.as_mut(), &tile.trace);
                        (r, start.elapsed().as_nanos() as u64)
                    }
                };
                cal.charge(ns, probe.as_deref_mut());
                t.call_ns += ns;
                results.push(r);
            }
            let (out, ns) = timed(&mut probe, cal, "bench.harness", || {
                replay_output(tiles, &results)
            });
            t.harness_ns = ns;
            out
        }
        Prepared::Serve {
            classes,
            cfg,
            calibration,
            errors,
        } => {
            let (report, ns) = timed(&mut probe, cal, "serving.serve", || {
                serve(&cfg, &classes, &sw_build)
            });
            t.call_ns = ns;
            let (out, ns) = timed(&mut probe, cal, "bench.harness", || {
                let offered = cfg.n_requests as u64;
                let mut errors = errors;
                if report.admitted + report.dropped != offered {
                    errors.push(format!(
                        "serve: admitted {} + dropped {} != offered {offered}",
                        report.admitted, report.dropped
                    ));
                }
                let mut modeled = vec![
                    ("sim_req_p50_ms", report.p50_ms()),
                    ("sim_req_p999_ms", report.p999_ms()),
                    ("sim_achieved_krps", report.achieved_rps / 1e3),
                    ("sim_finish_ms", report.makespan_secs * 1e3),
                    ("failed_op_frac", report.drop_frac()),
                    ("serving.offered_krps", report.offered_rps / 1e3),
                    ("serving.peak_in_flight", report.peak_in_flight as f64),
                    ("serving.push_calls", report.push_calls as f64),
                    ("serving.push_ms", report.push_secs * 1e3),
                    ("serving.latency_samples", report.latency.count as f64),
                ];
                modeled.extend(calibration);
                RepOutput {
                    modeled,
                    ops: offered,
                    attempted: offered,
                    failed: report.dropped,
                    errors,
                }
            });
            t.harness_ns = ns;
            out
        }
    };
    t.normalised_ns = cal.take(probe);
    (out, t)
}

/// `sim_malloc_*` from a latency recorder, sorting once. With
/// `requests`, also `sim_req_*`: a replay's request is one `pim_malloc`
/// call.
fn latency_model(latencies: &LatencyRecorder, requests: bool) -> Vec<Named> {
    let mut sorted: Vec<u64> = latencies.samples().iter().map(|c| c.0).collect();
    sorted.sort_unstable();
    let n = sorted.len();
    // Nearest rank, as `LatencyRecorder::percentile`.
    let at = |q: f64| {
        sorted
            .get(((q * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1)
            .copied()
            .unwrap_or(0)
    };
    let sum: u64 = sorted.iter().sum();
    let ms = |c: u64| c as f64 / (CostModel::default().clock_mhz as f64 * 1e3);
    let mut out = vec![
        ("sim_malloc_p50_cycles", at(0.5) as f64),
        ("sim_malloc_p999_cycles", at(0.999) as f64),
        ("sim_malloc_mean_cycles", sum as f64 / n.max(1) as f64),
        ("sim_malloc_samples", n as f64),
    ];
    if requests {
        out.push(("sim_req_p50_ms", ms(at(0.5))));
        out.push(("sim_req_p999_ms", ms(at(0.999))));
    }
    out
}

fn replay_output(tiles: Vec<Tile>, results: &[ReplayResult]) -> RepOutput {
    let clock = CostModel::default().clock_mhz;
    let mut errors = Vec::new();
    let mut latencies = LatencyRecorder::new();
    let mut counts = AllocCounts::default();
    let mut sim = SimCounts::default();
    let (mut attempted, mut failed, mut finish_ms, mut frag_sum) = (0, 0, 0.0, 0.0);
    for (k, (tile, r)) in tiles.iter().zip(results).enumerate() {
        let (trace, dpu, alloc) = (&tile.trace, &tile.dpu, &tile.alloc);
        let stats = alloc.alloc_stats();
        let served = r.malloc_latencies.len() as u64;
        if stats.total_mallocs() != served {
            errors.push(format!(
                "DPU {k}: AllocStats closure: hits {} + refills {} + bypass {} + transfer {} + central {} != replayed mallocs {served}",
                stats.frontend_hits, stats.frontend_refills, stats.bypass, stats.transfer_hits, stats.central_hits
            ));
        }
        let mallocs = trace.malloc_count() as u64;
        if served + r.oom_count != mallocs {
            errors.push(format!(
                "DPU {k}: {served} served + {} OOM != {mallocs} trace mallocs",
                r.oom_count
            ));
        }
        for tid in 0..dpu.config().n_tasklets {
            let s = dpu.tasklet_stats(tid);
            if s.run + s.busy_wait + s.idle_mem + s.idle_etc != dpu.clock(tid) {
                errors.push(format!(
                    "DPU {k}: TaskletStats closure on tasklet {tid}: {s:?} != clock {}",
                    dpu.clock(tid).0
                ));
            }
        }
        attempted += mallocs + remote_frees(trace);
        failed += r.oom_count + r.dropped_frees;
        finish_ms += r.finish.as_millis(clock);
        frag_sum += alloc.frag().peak_ratio();
        latencies.extend_from(&r.malloc_latencies);
        counts.add(alloc);
        sim.add(dpu, trace);
    }
    let n = tiles.len().max(1) as f64;
    let served = latencies.len() as u64;
    let ops = sim.ops.max(1);
    let mut modeled = latency_model(&latencies, true);
    // Each DPU is one kernel run on its own trace: means over DPUs.
    modeled.push(("sim_finish_ms", finish_ms / n));
    modeled.push(("sim_frag_peak", frag_sum / n));
    modeled.push((
        "sim_achieved_krps",
        served as f64 / (finish_ms * 1e-3) / 1e3,
    ));
    modeled.push(("failed_op_frac", failed as f64 / attempted.max(1) as f64));
    modeled.extend(counts.named(served, ops));
    modeled.extend(sim.named(ops));
    RepOutput {
        modeled,
        ops,
        attempted,
        failed,
        errors,
    }
}

fn remote_frees(trace: &AllocTrace) -> u64 {
    trace
        .streams
        .iter()
        .flatten()
        .filter(|op| matches!(op, TraceOp::RemoteFree { .. }))
        .count() as u64
}

/// Host operations a trace replays: every `Malloc`, `Free` and
/// `RemoteFree` (the generators never shadow a live slot).
fn trace_ops(trace: &AllocTrace) -> u64 {
    trace
        .streams
        .iter()
        .flatten()
        .filter(|op| !matches!(op, TraceOp::Compute { .. }))
        .count() as u64
}

/// Allocator counters summed over one or more allocators.
#[derive(Default)]
struct AllocCounts {
    hits: u64,
    refills: u64,
    bypass: u64,
    transfer_hits: u64,
    central_hits: u64,
    remote_frees: u64,
    transfer_flushes: u64,
    central_demotes: u64,
    spans_returned: u64,
    cycles_frontend: u64,
    cycles_backend: u64,
    meta_hits: u64,
    meta_misses: u64,
    meta_bytes: u64,
    bc_hits: u64,
    bc_misses: u64,
    bc_evictions: u64,
    bc_writebacks: u64,
}

impl AllocCounts {
    fn add(&mut self, alloc: &PimMalloc) {
        let s = alloc.alloc_stats();
        self.hits += s.frontend_hits;
        self.refills += s.frontend_refills;
        self.bypass += s.bypass;
        self.transfer_hits += s.transfer_hits;
        self.central_hits += s.central_hits;
        self.remote_frees += s.frees_remote_transfer + s.frees_remote_global;
        self.transfer_flushes += s.transfer_flushes;
        self.central_demotes += s.central_demotes;
        self.spans_returned += s.spans_returned;
        self.cycles_frontend += s.cycles_frontend.0;
        self.cycles_backend += s.cycles_backend.0;
        let m = alloc.metadata_stats();
        self.meta_hits += m.hits;
        self.meta_misses += m.misses;
        self.meta_bytes += m.total_bytes();
        if let Some(b) = alloc.buddy_cache_stats() {
            self.bc_hits += b.hits;
            self.bc_misses += b.misses;
            self.bc_evictions += b.evictions;
            self.bc_writebacks += b.writebacks;
        }
    }

    /// Per-malloc shares and per-op counts; `mallocs` served mallocs,
    /// `ops` host operations.
    fn named(&self, mallocs: u64, ops: u64) -> Vec<Named> {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let per_malloc = |n: u64| ratio(n, mallocs);
        let per_op = |n: u64| ratio(n, ops);
        let class_hits = self.hits + self.transfer_hits + self.central_hits;
        let meta = self.meta_hits + self.meta_misses;
        vec![
            (
                "core.class_hit_rate",
                ratio(class_hits, class_hits + self.refills),
            ),
            ("core.refill_frac", per_malloc(self.refills)),
            ("core.bypass_frac", per_malloc(self.bypass)),
            ("core.transfer_hit_frac", per_malloc(self.transfer_hits)),
            ("core.central_hit_frac", per_malloc(self.central_hits)),
            ("core.remote_free_frac", per_malloc(self.remote_frees)),
            (
                "core.transfer_flushes_per_kop",
                per_op(self.transfer_flushes) * 1e3,
            ),
            ("core.central_demotes", self.central_demotes as f64),
            ("core.spans_returned", self.spans_returned as f64),
            (
                "core.backend_latency_frac",
                ratio(
                    self.cycles_backend,
                    self.cycles_frontend + self.cycles_backend,
                ),
            ),
            ("core.meta.accesses_per_op", per_op(meta)),
            ("core.meta.hit_rate", ratio(self.meta_hits, meta)),
            ("core.meta.dram_bytes_per_op", per_op(self.meta_bytes)),
            (
                "sim.buddy_cache.hit_rate",
                ratio(self.bc_hits, self.bc_hits + self.bc_misses),
            ),
            (
                "sim.buddy_cache.evictions_per_op",
                per_op(self.bc_evictions),
            ),
            (
                "sim.buddy_cache.writebacks_per_op",
                per_op(self.bc_writebacks),
            ),
        ]
    }
}

/// Simulator counters summed over one or more DPUs.
#[derive(Default)]
struct SimCounts {
    ops: u64,
    run: u64,
    busy_wait: u64,
    idle_mem: u64,
    idle_etc: u64,
    instrs: u64,
    dma_transfers: u64,
    dma_bytes: u64,
}

impl SimCounts {
    fn add(&mut self, dpu: &DpuSim, trace: &AllocTrace) {
        let s = dpu.total_stats();
        self.ops += trace_ops(trace);
        self.run += s.run.0;
        self.busy_wait += s.busy_wait.0;
        self.idle_mem += s.idle_mem.0;
        self.idle_etc += s.idle_etc.0;
        self.instrs += s.instrs;
        let t = dpu.traffic();
        self.dma_transfers += t.transfers;
        self.dma_bytes += t.total_bytes();
    }

    fn named(&self, ops: u64) -> Vec<Named> {
        let total = (self.run + self.busy_wait + self.idle_mem + self.idle_etc).max(1) as f64;
        let per_op = |n: u64| n as f64 / ops as f64;
        vec![
            ("sim.run_frac", self.run as f64 / total),
            ("sim.busy_wait_frac", self.busy_wait as f64 / total),
            ("sim.idle_mem_frac", self.idle_mem as f64 / total),
            ("sim.idle_etc_frac", self.idle_etc as f64 / total),
            ("sim.instrs_per_op", per_op(self.instrs)),
            ("sim.dma_transfers_per_op", per_op(self.dma_transfers)),
            ("sim.dma_bytes_per_op", per_op(self.dma_bytes)),
        ]
    }
}
