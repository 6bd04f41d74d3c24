//! Virtual-time scheduling over per-tasklet logical clocks.
//!
//! Workload drivers and trace replayers interleave per-tasklet streams
//! in **virtual-time order** — always advancing the tasklet with the
//! smallest logical clock — so mutex hand-offs and DMA queueing between
//! tasklets stay causally consistent. [`VirtualTimeQueue`] is that
//! scheduler; it lives in the simulator crate because both
//! `pim-workloads` (the request driver) and `pim-trace` (the trace
//! replayer) drive [`DpuSim`]s through it.

use std::collections::BinaryHeap;

use crate::dpu::DpuSim;

/// A virtual-time scheduler over per-tasklet logical clocks.
///
/// Each queued tasklet keeps the clock it was queued at as its key;
/// `pop` scans the keys for the smallest `(clock, tasklet id)`. A DPU
/// has at most 24 tasklets, so one pass over a flat key array is
/// cheaper than keeping a heap ordered. Ties break on the smaller
/// tasklet id, the first-minimum rule of `(0..n).min_by_key(clock)`,
/// so request interleavings — and therefore every latency-ordering
/// result — are identical to that scan's.
///
/// Usage: `pop` the next tasklet, execute one of its requests (which
/// advances only that tasklet's clock), then `push` it back while it
/// has requests left. A tasklet is queued at most once: pushing a
/// queued tasklet re-keys it.
#[derive(Debug)]
pub struct VirtualTimeQueue {
    /// Clock each tasklet was queued at; [`NOT_QUEUED`] when it is not
    /// in the queue.
    keys: Vec<u64>,
}

/// Key of a tasklet that is not queued (no clock reaches it).
const NOT_QUEUED: u64 = u64::MAX;

impl VirtualTimeQueue {
    /// Creates a queue holding `tasklets`, each keyed at its current
    /// clock on `dpu`.
    pub fn new(dpu: &DpuSim, tasklets: impl IntoIterator<Item = usize>) -> Self {
        let mut queue = VirtualTimeQueue {
            keys: vec![NOT_QUEUED; dpu.config().n_tasklets],
        };
        for tid in tasklets {
            queue.push(dpu, tid);
        }
        queue
    }

    /// Removes and returns the queued tasklet with the smallest clock
    /// (smallest id on ties), or `None` when the queue is empty.
    ///
    /// A tasklet whose clock advanced since it was queued is re-keyed
    /// at its current clock and the scan repeats, rather than trusting
    /// the stale key.
    pub fn pop(&mut self, dpu: &DpuSim) -> Option<usize> {
        loop {
            let (mut tid, mut key) = (0, NOT_QUEUED);
            for (t, &k) in self.keys.iter().enumerate() {
                if k < key {
                    (tid, key) = (t, k);
                }
            }
            if key == NOT_QUEUED {
                return None;
            }
            let now = dpu.clock(tid).0;
            if now == key {
                self.keys[tid] = NOT_QUEUED;
                return Some(tid);
            }
            self.keys[tid] = now;
        }
    }

    /// Queues `tid` at its current clock (call after executing one of
    /// its requests, while it has more).
    pub fn push(&mut self, dpu: &DpuSim, tid: usize) {
        self.keys[tid] = dpu.clock(tid).0;
    }
}

/// A deterministic discrete-event queue over an arbitrary virtual
/// timeline: events pop in ascending time order, ties breaking on
/// insertion order (FIFO), so two runs that push the same events pop
/// them in the same order regardless of heap internals.
///
/// [`VirtualTimeQueue`] schedules *tasklets by their clocks*; this
/// queue schedules *arbitrary payloads at explicit times* — arrivals,
/// dispatches, and completions in the serving frontend's event loop.
///
/// ```
/// use pim_sim::EventQueue;
/// let mut q = EventQueue::new();
/// q.push(20, "late");
/// q.push(10, "early");
/// q.push(10, "early-tie");
/// assert_eq!(q.pop(), Some((10, "early")));
/// assert_eq!(q.pop(), Some((10, "early-tie")));
/// assert_eq!(q.pop(), Some((20, "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Event<T>>,
    seq: u64,
}

#[derive(Debug)]
struct Event<T> {
    at: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Event<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<T> Eq for Event<T> {}

impl<T> PartialOrd for Event<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Event<T> {
    /// Max-heap order inverted: the smallest `(at, seq)` is the
    /// greatest element, so `BinaryHeap::pop` yields earliest-first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `payload` at virtual time `at`.
    pub fn push(&mut self, at: u64, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Event { at, seq, payload });
    }

    /// Removes and returns the earliest event as `(time, payload)`;
    /// equal times pop in insertion order.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }

    /// The earliest scheduled time, if any event is pending.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpu::DpuConfig;

    #[test]
    fn queue_selection_is_identical_to_linear_scan() {
        // The queue must replicate the `(0..n).min_by_key(clock)`
        // selection exactly, including smallest-id tie-breaking, so
        // latency orderings stay byte-identical. 24 tasklets (the
        // UPMEM maximum) stepping 1–3 instructions collide often.
        const N: usize = 24;
        let run = |use_queue: bool, nudge: bool| -> Vec<usize> {
            let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(N));
            // Uneven head start so clocks collide and diverge.
            dpu.ctx(4).instrs(2);
            let mut remaining: Vec<usize> = (0..N).map(|t| (t * 7 + 3) % 9).collect();
            let mut queue = use_queue
                .then(|| VirtualTimeQueue::new(&dpu, (0..N).filter(|&t| remaining[t] > 0)));
            let mut order = Vec::new();
            loop {
                let next = match &mut queue {
                    Some(q) => q.pop(&dpu),
                    None => (0..N)
                        .filter(|&t| remaining[t] > 0)
                        .min_by_key(|&t| dpu.clock(t)),
                };
                let Some(tid) = next else { break };
                order.push(tid);
                dpu.ctx(tid).instrs((tid as u64 % 3) + 1);
                if nudge {
                    // Advance another tasklet's clock while it is
                    // queued, so the queue holds a stale key for it.
                    let other = (tid + 5) % N;
                    if remaining[other] > 0 {
                        dpu.ctx(other).instrs(1);
                    }
                }
                remaining[tid] -= 1;
                if remaining[tid] > 0 {
                    if let Some(q) = &mut queue {
                        q.push(&dpu, tid);
                    }
                }
            }
            order
        };
        for nudge in [false, true] {
            let order = run(true, nudge);
            assert_eq!(order.len(), (0..N).map(|t| (t * 7 + 3) % 9).sum::<usize>());
            assert_eq!(order, run(false, nudge), "nudge {nudge}");
        }
    }

    #[test]
    fn empty_queue_pops_none() {
        let dpu = DpuSim::new(DpuConfig::default().with_tasklets(1));
        let mut q = VirtualTimeQueue::new(&dpu, std::iter::empty());
        assert!(q.pop(&dpu).is_none());
    }

    #[test]
    fn event_queue_orders_by_time_then_insertion() {
        let mut q = EventQueue::new();
        q.push(30, 'c');
        q.push(10, 'a');
        q.push(20, 'b');
        q.push(10, 'd'); // same time as 'a', inserted later
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(10));
        assert_eq!(q.pop(), Some((10, 'a')));
        assert_eq!(q.pop(), Some((10, 'd')));
        assert_eq!(q.pop(), Some((20, 'b')));
        assert_eq!(q.pop(), Some((30, 'c')));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn event_queue_interleaves_pushes_and_pops_deterministically() {
        let mut q = EventQueue::default();
        q.push(5, 0);
        q.push(1, 1);
        assert_eq!(q.pop(), Some((1, 1)));
        q.push(3, 2);
        q.push(3, 3);
        assert_eq!(q.pop(), Some((3, 2)));
        assert_eq!(q.pop(), Some((3, 3)));
        assert_eq!(q.pop(), Some((5, 0)));
    }
}
