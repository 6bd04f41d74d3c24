//! Exact work-counter gates: fixed, seeded workloads must reproduce
//! their modeled work — cycles, instructions, metadata accesses, DRAM
//! traffic — to the unit. Host-speed changes to the buddy walk, the
//! metadata stores or the replay loop must not move any of these, so a
//! change that does more (or different) modeled work fails here on any
//! machine, however fast or noisy.
//!
//! The expected constants were captured from the implementation before
//! the buddy walk was made generic over its store; update them only
//! together with a deliberate change to the cost model.

use pim_malloc::{
    AllocGeometry, BuddyAllocator, BuddyGeometry, DescentPolicy, MetadataBackend, PimMalloc,
};
use pim_sim::{BuddyCacheConfig, DpuConfig, DpuSim};
use pim_trace::{replay, synthesize, SizeLaw, SynthConfig, TemporalShape};

/// One backend × policy run: `[clock, instrs, run, busy_wait,
/// idle_mem, idle_etc, meta hits, meta misses, meta bytes read, meta
/// bytes written, DRAM bytes read, DRAM bytes written, DMA transfers]`.
type Counters = [u64; 13];

fn backends(geometry: &BuddyGeometry) -> Vec<(&'static str, MetadataBackend)> {
    vec![
        ("wram", MetadataBackend::wram(geometry)),
        ("coarse", MetadataBackend::coarse(geometry, 0, 2048)),
        ("fine-lru", MetadataBackend::fine_lru(geometry, 0, 64, 8)),
        (
            "hw-cache",
            MetadataBackend::hw_cache(geometry, 0, BuddyCacheConfig::default()),
        ),
        (
            "line-cache",
            MetadataBackend::line_cache(geometry, 0, 1024, 64),
        ),
    ]
}

/// A fixed alloc/free sequence from a 64-bit LCG: 300 steps, each an
/// allocation of 1 B–8 KB or (one step in three) a free of a live
/// block chosen by the generator.
fn run_buddy(backend: MetadataBackend, policy: DescentPolicy) -> Counters {
    let geometry = BuddyGeometry::new(0, 1 << 20, 32);
    // Sixteen tasklets on the DPU, so issue-slot sharing shows up as
    // idle cycles; the sequence runs on tasklet 0.
    let mut dpu = DpuSim::new(DpuConfig::default());
    let mut tree = BuddyAllocator::new(geometry, backend).with_policy(policy);
    tree.reset(&mut dpu.ctx(0));
    let mut state = 0x5EED_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let mut live: Vec<u32> = Vec::new();
    for _ in 0..300 {
        let r = next();
        let mut ctx = dpu.ctx(0);
        if r % 3 == 0 && !live.is_empty() {
            let addr = live.swap_remove((next() as usize) % live.len());
            tree.free(&mut ctx, addr).expect("live block frees");
        } else if let Ok(addr) = tree.alloc(&mut ctx, 1 + (next() % 8192) as u32) {
            live.push(addr);
        }
    }
    tree.check_invariants();
    let s = dpu.tasklet_stats(0);
    let m = tree.store().stats();
    let t = dpu.traffic();
    [
        dpu.clock(0).0,
        s.instrs,
        s.run.0,
        s.busy_wait.0,
        s.idle_mem.0,
        s.idle_etc.0,
        m.hits,
        m.misses,
        m.bytes_read,
        m.bytes_written,
        t.bytes_read,
        t.bytes_written,
        t.transfers,
    ]
}

#[test]
fn buddy_walk_work_is_exact_on_every_backend_and_policy() {
    let expected: [(&str, DescentPolicy, Counters); 10] = [
        (
            "wram",
            DescentPolicy::FullMarks,
            [
                3045920, 190370, 2094070, 0, 0, 951850, 12482, 0, 0, 0, 0, 0, 0,
            ],
        ),
        (
            "coarse",
            DescentPolicy::FullMarks,
            [
                10568506, 656905, 7225955, 0, 58026, 3284525, 12455, 27, 55296, 45056, 55296,
                61440, 57,
            ],
        ),
        (
            "fine-lru",
            DescentPolicy::FullMarks,
            [
                20043995, 1251877, 13770647, 0, 13963, 6259385, 12459, 23, 184, 0, 184, 16384, 31,
            ],
        ),
        (
            "hw-cache",
            DescentPolicy::FullMarks,
            [
                7520290, 466821, 5135031, 0, 51154, 2334105, 12387, 95, 760, 600, 760, 16984, 178,
            ],
        ),
        (
            "line-cache",
            DescentPolicy::FullMarks,
            [
                7422400, 463254, 5095794, 0, 10336, 2316270, 12474, 8, 512, 0, 512, 16384, 16,
            ],
        ),
        (
            "wram",
            DescentPolicy::ThreeState,
            [
                4944960, 309060, 3399660, 0, 0, 1545300, 22287, 0, 0, 0, 0, 0, 0,
            ],
        ),
        (
            "coarse",
            DescentPolicy::ThreeState,
            [
                18241926, 1137130, 12508430, 0, 47846, 5685650, 22265, 22, 45056, 34816, 45056,
                51200, 47,
            ],
        ),
        (
            "fine-lru",
            DescentPolicy::ThreeState,
            [
                35370507, 2209784, 24307624, 0, 13963, 11048920, 22264, 23, 184, 0, 184, 16384, 31,
            ],
        ),
        (
            "hw-cache",
            DescentPolicy::ThreeState,
            [
                13000386, 806797, 8874767, 0, 91634, 4033985, 22056, 231, 1848, 792, 1848, 17176,
                338,
            ],
        ),
        (
            "line-cache",
            DescentPolicy::ThreeState,
            [
                12772800, 797654, 8774194, 0, 10336, 3988270, 22279, 8, 512, 0, 512, 16384, 16,
            ],
        ),
    ];
    let geometry = BuddyGeometry::new(0, 1 << 20, 32);
    let mut got = Vec::new();
    for policy in [DescentPolicy::FullMarks, DescentPolicy::ThreeState] {
        for (name, backend) in backends(&geometry) {
            got.push((name, policy, run_buddy(backend, policy)));
        }
    }
    assert_eq!(got, expected);
}

/// Replay counters of one synthesized trace on PIM-malloc-SW: `[ops,
/// mallocs, metadata accesses, instrs, DMA transfers, finish cycles]`.
fn run_replay(size_law: SizeLaw, mallocs_per_tasklet: usize, live_window: usize) -> [u64; 6] {
    const TASKLETS: usize = 16;
    const HEAP: u32 = 32 << 20;
    let trace = synthesize(&SynthConfig {
        n_tasklets: TASKLETS,
        mallocs_per_tasklet,
        live_window,
        size_law,
        shape: TemporalShape::Steady { compute: 200 },
        heap_size: HEAP,
        seed: 1,
    });
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(TASKLETS));
    let mut alloc = PimMalloc::init(
        &mut dpu,
        AllocGeometry::sw(TASKLETS).with_heap_size(HEAP).build(),
    )
    .expect("init");
    let before = (
        alloc.metadata_stats(),
        dpu.total_stats().instrs,
        dpu.traffic().transfers,
    );
    let result = replay(&mut dpu, &mut alloc, &trace);
    assert_eq!(result.oom_count, 0);
    let meta = alloc.metadata_stats();
    let accesses = meta.hits + meta.misses - before.0.hits - before.0.misses;
    [
        trace.streams.iter().map(|s| s.len() as u64).sum(),
        result.malloc_latencies.len() as u64,
        accesses,
        dpu.total_stats().instrs - before.1,
        dpu.traffic().transfers - before.2,
        result.finish.0,
    ]
}

#[test]
fn bypass_replay_work_per_op_is_exact() {
    let got = run_replay(
        SizeLaw::Uniform {
            min: 4096,
            max: 32 << 10,
        },
        64,
        16,
    );
    assert_eq!(got, [2816, 1024, 59861, 3211595, 770, 50904418]);
}

#[test]
fn class_replay_work_per_op_is_exact() {
    let got = run_replay(
        SizeLaw::Zipf {
            min: 16,
            max: 2048,
            exponent: 1.1,
        },
        256,
        32,
    );
    assert_eq!(got, [11776, 4096, 1085, 1464805, 3863, 7965481]);
}
