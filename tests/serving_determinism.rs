//! End-to-end serving-frontend contract: the open-loop report — tail
//! percentiles, drops, queue timeline, saturation knee — must be
//! byte-identical across every execution policy (and, via the CI
//! matrix, every `PIM_EXEC_WORKERS` setting), and its SLO metrics must
//! behave like a queueing system: ordered percentiles, drop-free light
//! load, load shedding past saturation.
//!
//! `slo_floors_hold_at_256_dpus` pins absolute SLO floors on a
//! 256-DPU fleet serving 50,000 Poisson requests at 60% of calibrated
//! capacity.

use pim_malloc::PimAllocator;
use pim_serving::{estimated_capacity_rps, saturation_sweep, serve, ArrivalProcess, ServeConfig};
use pim_sim::{DpuSim, ExecPolicy, SimContext};
use pim_workloads::requests::standard_mix;
use pim_workloads::AllocatorKind;

fn build(dpu: &mut DpuSim, tasklets: usize, heap: u32) -> Box<dyn PimAllocator> {
    AllocatorKind::Sw.build(dpu, tasklets, heap)
}

fn base() -> ServeConfig {
    ServeConfig {
        n_dpus: 128,
        n_requests: 10_000,
        arrival: ArrivalProcess::Bursty {
            rps: 1.0, // rescaled per sweep point
            burst: 16,
        },
        // Tight enough that a 10k-request stream can overflow it: the
        // default 64-deep queues would buffer the whole test stream.
        queue_cap: 16,
        ctx: SimContext::sweep_default(),
        ..ServeConfig::default()
    }
}

#[test]
fn sweep_is_engine_invariant() {
    // The knee-finding sweep fans serve runs over the topology-aware
    // executor; every policy must reproduce the serial ladder exactly
    // (ServeReport derives PartialEq — f64 equality, not tolerance).
    let classes = standard_mix();
    let run = |exec: ExecPolicy| {
        let cfg = ServeConfig {
            ctx: base().ctx.with_exec(exec),
            ..base()
        };
        saturation_sweep(&cfg, &classes, &build, &[0.5, 1.0, 2.0])
    };
    let reference = run(ExecPolicy::Serial);
    for policy in [
        ExecPolicy::Oblivious,
        ExecPolicy::Sticky,
        ExecPolicy::StickySteal,
    ] {
        assert_eq!(run(policy), reference, "{policy:?} diverged");
    }
    assert!(reference.knee_rps > 0.0);
    assert!(reference.saturation_rps > 0.0);
}

#[test]
fn slo_metrics_behave_like_a_queue() {
    let classes = standard_mix();
    let sweep = saturation_sweep(&base(), &classes, &build, &[0.4, 3.0]);
    let light = &sweep.points[0].report;
    let heavy = &sweep.points[1].report;

    // Percentile ordering on a real report.
    for r in [light, heavy] {
        assert!(r.latency.p50 <= r.latency.p95);
        assert!(r.latency.p95 <= r.latency.p99);
        assert!(r.latency.p99 <= r.latency.p999);
        assert!(r.latency.p999 <= r.latency.max);
        assert_eq!(r.admitted + r.dropped, 10_000);
        assert_eq!(r.latency.count, r.admitted);
        assert!(!r.queue_depth.is_empty());
    }

    // Light load serves everything; 3x capacity sheds and saturates.
    assert_eq!(light.dropped, 0, "0.4x capacity must not shed");
    assert!(heavy.drop_frac() > 0.05, "3x capacity must shed");
    assert!(
        heavy.p99_ms() > light.p99_ms(),
        "overload inflates the tail"
    );
    assert!(
        heavy.achieved_rps < 0.95 * heavy.offered_rps,
        "achieved must fall behind offered past saturation"
    );
    assert!(heavy.peak_in_flight > light.peak_in_flight);
}

#[test]
fn arrival_shapes_share_the_mean_but_not_the_tail() {
    // Same mean rate, same fleet: burstier shapes queue deeper. The
    // mean-throughput story stays within a few percent across shapes.
    let classes = standard_mix();
    let cap = pim_serving::estimated_capacity_rps(&classes, &build, 128);
    let rate = 0.6 * cap;
    let run = |arrival| serve(&base().with_arrival(arrival), &classes, &build);
    let poisson = run(ArrivalProcess::Poisson { rps: rate });
    let bursty = run(ArrivalProcess::Bursty {
        rps: rate,
        burst: 64,
    });
    assert_eq!(poisson.dropped, 0);
    assert_eq!(bursty.dropped, 0);
    assert!(
        (poisson.achieved_rps - bursty.achieved_rps).abs() < 0.1 * rate,
        "same mean load: {} vs {}",
        poisson.achieved_rps,
        bursty.achieved_rps
    );
    assert!(
        bursty.peak_in_flight > poisson.peak_in_flight,
        "64-deep bursts must queue deeper than Poisson: {} vs {}",
        bursty.peak_in_flight,
        poisson.peak_in_flight
    );
}

#[test]
fn slo_floors_hold_at_256_dpus() {
    const N_DPUS: usize = 256;
    let classes = standard_mix();
    let rps = 0.6 * estimated_capacity_rps(&classes, &build, N_DPUS);
    let cfg = ServeConfig {
        n_dpus: N_DPUS,
        n_requests: 50_000,
        arrival: ArrivalProcess::Poisson { rps },
        ctx: SimContext::sweep_default(),
        ..ServeConfig::default()
    };
    let r = serve(&cfg, &classes, &build);
    assert!(r.p50_ms() > 0.0);
    assert!(r.p50_ms() <= r.p99_ms());
    assert!(r.p99_ms() <= r.p999_ms());
    assert!(r.drop_frac() < 0.01, "drop frac {}", r.drop_frac());
    assert!(r.p99_ms() < 100.0, "p99 {} ms", r.p99_ms());

    let sweep = saturation_sweep(&cfg, &classes, &build, &[0.5, 1.0, 2.0]);
    assert!(sweep.knee_rps > 0.0);
    assert!(
        sweep.saturation_rps > 1000.0,
        "saturation {} rps",
        sweep.saturation_rps
    );
}
