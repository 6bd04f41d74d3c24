//! Calibration-normalised host timing.
//!
//! Host wall time of identical work drifts by tens of percent on a
//! shared machine, within a process and between processes. The benchmark
//! therefore runs a fixed calibration kernel right after every chunk of
//! about [`CHUNK_NS`] of timed work and divides the chunk's time by the
//! kernel's: the ratio cancels how fast the machine was at that moment.
//! Multiplying by [`NOMINAL_NS`], the kernel's time on the reference
//! machine, keeps the result in nanoseconds.
//!
//! The kernel calls no repository code, so a change to the program
//! cannot move it: a xorshift-indexed read-modify-write over a 4 MB
//! table, which like the simulator is bound by cache and memory
//! latency rather than arithmetic.

use std::hint::black_box;
use std::time::Instant;

use crate::probe::Probe;

/// Table size in `u32` words (4 MB).
const TABLE_WORDS: usize = 1 << 20;
/// Read-modify-writes per kernel run.
pub const ITERS: u64 = 2_000_000;
/// Median wall time of one kernel run on the reference machine
/// (2-core x86-64 VM, rustc 1.95 release build), ns. Normalised
/// timings read as if measured there.
pub const NOMINAL_NS: f64 = 10_000_000.0;
/// Timed work between two kernel runs, ns.
const CHUNK_NS: u64 = 40_000_000;

/// The calibration kernel and the normaliser built on it.
pub struct Calibration {
    table: Vec<u32>,
    /// Raw ns of timed work not yet followed by a kernel run.
    pending_ns: u64,
    /// Normalised ns of the work since the last [`Calibration::take`].
    normalised_ns: f64,
    /// Wall time of every kernel run, ns.
    pub kernel_ns: Vec<u64>,
}

impl Calibration {
    /// Allocates the table and runs the kernel once so that page faults
    /// stay out of every timed run.
    pub fn new() -> Self {
        let mut c = Calibration {
            table: (0..TABLE_WORDS as u32)
                .map(|i| i.wrapping_mul(0x9E37_79B9))
                .collect(),
            pending_ns: 0,
            normalised_ns: 0.0,
            kernel_ns: Vec::new(),
        };
        c.kernel();
        c
    }

    /// Runs the kernel once and returns its wall time in ns. Every run
    /// visits the same index sequence.
    fn kernel(&mut self) -> u64 {
        let start = Instant::now();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut acc: u32 = 0;
        for _ in 0..ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[(x as usize) & (TABLE_WORDS - 1)];
            *slot = slot.wrapping_add(acc ^ x as u32);
            acc = acc.wrapping_add(*slot);
        }
        black_box(acc);
        start.elapsed().as_nanos() as u64
    }

    /// Books `raw_ns` of timed work; runs the kernel once a chunk's
    /// worth is pending.
    pub fn charge(&mut self, raw_ns: u64, probe: Option<&mut Probe>) {
        self.pending_ns += raw_ns;
        if self.pending_ns >= CHUNK_NS {
            self.flush(probe);
        }
    }

    /// Normalises the pending work against a fresh kernel run.
    fn flush(&mut self, probe: Option<&mut Probe>) {
        if self.pending_ns == 0 {
            return;
        }
        let kernel_ns = match probe {
            Some(p) => {
                let id = p.enter("bench.calibrate");
                let ns = self.kernel();
                p.exit(id);
                ns
            }
            None => self.kernel(),
        };
        self.kernel_ns.push(kernel_ns);
        self.normalised_ns += self.pending_ns as f64 * NOMINAL_NS / kernel_ns as f64;
        self.pending_ns = 0;
    }

    /// Normalised ns of all work booked since the last call.
    pub fn take(&mut self, probe: Option<&mut Probe>) -> f64 {
        self.flush(probe);
        std::mem::take(&mut self.normalised_ns)
    }
}
