//! The traced run's instruments: spans recorded in memory around the
//! calls into each layer, a timing wrapper around the allocator, and a
//! Chrome trace-event writer.
//!
//! Everything is timed from outside the layers, at their public entry
//! points. The probe only reads host clocks and allocator counters, so
//! a traced rep's modeled outputs equal an untraced rep's bit for bit;
//! every traced run checks this.

use std::any::Any;
use std::fmt::Write as _;
use std::time::Instant;

use pim_malloc::{AllocError, AllocStats, PimAllocator};
use pim_sim::TaskletCtx;

/// Every this many allocator calls, one also gets its own span.
const CALL_SPAN_EVERY: u64 = 1024;
/// Spans kept in memory at most; later sampled call spans are skipped.
const MAX_SPANS: usize = 200_000;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, for example `trace.replay`.
    pub name: &'static str,
    /// Start, ns since the probe was created.
    pub start_ns: u64,
    /// End, ns since the probe was created (0 while open).
    pub end_ns: u64,
    /// The enclosing span, `None` for a rep.
    pub parent: Option<usize>,
    /// The rep the span belongs to.
    pub rep: u32,
    /// A sampled allocator call: shown in the timeline, but its time is
    /// accounted through `call_ns` of its parent, not the span tree.
    pub sampled: bool,
    /// Host ns of the allocator calls wrapped directly inside the span.
    pub call_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Where a `pim_malloc` was served, from the `AllocStats` delta.
const SITES: [&str; 5] = ["hit", "refill", "bypass", "transfer", "central"];

fn site_counts(s: &AllocStats) -> [u64; 5] {
    [
        s.frontend_hits,
        s.frontend_refills,
        s.bypass,
        s.transfer_hits,
        s.central_hits,
    ]
}

/// Exact host-ns histogram: one bucket per ns up to 64 µs, larger
/// samples kept individually.
pub struct Histogram {
    buckets: Vec<u64>,
    overflow: Vec<u64>,
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; 1 << 16],
            overflow: Vec::new(),
            count: 0,
        }
    }
}

impl Histogram {
    fn record(&mut self, ns: u64) {
        match self.buckets.get_mut(ns as usize) {
            Some(b) => *b += 1,
            None => self.overflow.push(ns),
        }
        self.count += 1;
    }

    /// Nearest-rank `q`-quantile in ns, 0 when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (ns, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return ns as f64;
            }
        }
        self.overflow.sort_unstable();
        self.overflow[(rank - seen - 1) as usize] as f64
    }
}

/// Host time of every wrapped allocator call.
#[derive(Default)]
pub struct CallTimes {
    /// Every `pim_malloc`.
    pub malloc: Histogram,
    /// Every `pim_free`.
    pub free: Histogram,
    /// `pim_malloc` by service site, in [`SITES`] order.
    pub by_site: [Histogram; 5],
    /// Calls wrapped in the current rep.
    pub rep_calls: u64,
    /// Host ns inside wrapped calls in the current rep.
    pub rep_call_ns: u64,
    /// Allocator errors other than out-of-memory.
    pub errors: Vec<String>,
}

/// In-memory span recorder plus per-call host timings.
pub struct Probe {
    origin: Instant,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Host time of the wrapped allocator calls.
    pub calls: CallTimes,
    /// Whether call timings of the current rep are kept (the warm-up
    /// rep's are dropped).
    pub keep_calls: bool,
}

impl Probe {
    /// An empty probe whose clock starts now.
    pub fn new() -> Self {
        Probe {
            origin: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
            calls: CallTimes::default(),
            keep_calls: true,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Starts rep `rep`: later spans carry its id.
    pub fn begin_rep(&mut self, rep: u32, keep_calls: bool) {
        self.rep = rep;
        self.keep_calls = keep_calls;
        self.calls.rep_calls = 0;
        self.calls.rep_call_ns = 0;
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
            sampled: false,
            call_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its
    /// duration in ns.
    pub fn exit(&mut self, id: usize) -> u64 {
        let end = self.ns(Instant::now());
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.dur_ns()
    }

    /// Books one wrapped allocator call of `ns` host ns to the
    /// innermost open span; every [`CALL_SPAN_EVERY`]-th call of a rep
    /// also gets a span of its own.
    fn call(&mut self, name: &'static str, t0: Instant, t1: Instant, ns: u64) {
        let parent = self.open.last().copied();
        if let Some(p) = parent {
            self.spans[p].call_ns += ns;
        }
        if self.calls.rep_calls.is_multiple_of(CALL_SPAN_EVERY) && self.spans.len() < MAX_SPANS {
            self.spans.push(Span {
                name,
                start_ns: self.ns(t0),
                end_ns: self.ns(t1),
                parent,
                rep: self.rep,
                sampled: true,
                call_ns: 0,
            });
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every unsampled span of rep `rep`, ns: the span's
    /// duration minus its child spans and the allocator calls wrapped
    /// inside it. The calls are returned as one more layer,
    /// `core.alloc_calls`. A negative self time means children overran
    /// their parent.
    pub fn self_times(&self, rep: u32) -> Vec<(&'static str, i64)> {
        let ids: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].rep == rep && !self.spans[i].sampled)
            .collect();
        let mut out: Vec<(&'static str, i64)> = ids
            .iter()
            .map(|&i| {
                let span = &self.spans[i];
                let children: u64 = ids
                    .iter()
                    .filter(|&&c| self.spans[c].parent == Some(i))
                    .map(|&c| self.spans[c].dur_ns())
                    .sum();
                (
                    span.name,
                    span.dur_ns() as i64 - children as i64 - span.call_ns as i64,
                )
            })
            .collect();
        let call_ns: u64 = ids.iter().map(|&i| self.spans[i].call_ns).sum();
        if call_ns > 0 {
            out.push(("core.alloc_calls", call_ns as i64));
        }
        out
    }

    /// The spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto): complete events in µs, with span id, parent and rep in
    /// `args`.
    pub fn chrome_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = span.parent.map_or(-1, |p| p as i64);
            write!(
                s,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"rep\":{},\"sampled\":{}}}}}",
                span.name,
                span.name.split('.').next().unwrap_or(span.name),
                span.start_ns as f64 / 1e3,
                span.dur_ns() as f64 / 1e3,
                span.rep,
                span.sampled,
            )
            .expect("writing to a String cannot fail");
        }
        s.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        s
    }
}

/// A [`PimAllocator`] that forwards every call to `inner` and times it.
pub struct Timed<'a> {
    inner: &'a mut dyn PimAllocator,
    probe: &'a mut Probe,
}

impl<'a> Timed<'a> {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: &'a mut dyn PimAllocator, probe: &'a mut Probe) -> Self {
        Timed { inner, probe }
    }

    fn record(&mut self, name: &'static str, t0: Instant, t1: Instant) -> u64 {
        let ns = t1.duration_since(t0).as_nanos() as u64;
        let calls = &mut self.probe.calls;
        calls.rep_calls += 1;
        calls.rep_call_ns += ns;
        self.probe.call(name, t0, t1, ns);
        ns
    }

    fn check<T>(&mut self, r: &Result<T, AllocError>) {
        if let Err(e) = r {
            if !matches!(e, AllocError::OutOfMemory { .. }) {
                self.probe.calls.errors.push(e.to_string());
            }
        }
    }
}

impl PimAllocator for Timed<'_> {
    fn pim_malloc(&mut self, ctx: &mut TaskletCtx<'_>, size: u32) -> Result<u32, AllocError> {
        let before = site_counts(self.inner.alloc_stats());
        let t0 = Instant::now();
        let r = self.inner.pim_malloc(ctx, size);
        let t1 = Instant::now();
        let ns = self.record("core.pim_malloc", t0, t1);
        let after = site_counts(self.inner.alloc_stats());
        if self.probe.keep_calls {
            let calls = &mut self.probe.calls;
            calls.malloc.record(ns);
            if let Some(site) = (0..SITES.len()).find(|&i| after[i] != before[i]) {
                calls.by_site[site].record(ns);
            }
        }
        self.check(&r);
        r
    }

    fn pim_free(&mut self, ctx: &mut TaskletCtx<'_>, addr: u32) -> Result<(), AllocError> {
        let t0 = Instant::now();
        let r = self.inner.pim_free(ctx, addr);
        let t1 = Instant::now();
        let ns = self.record("core.pim_free", t0, t1);
        if self.probe.keep_calls {
            self.probe.calls.free.record(ns);
        }
        self.check(&r);
        r
    }

    fn alloc_stats(&self) -> &AllocStats {
        self.inner.alloc_stats()
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}

/// Index of a service site's histogram in [`CallTimes::by_site`].
pub fn site_index(site: &str) -> usize {
    SITES
        .iter()
        .position(|s| *s == site)
        .expect("known service site")
}
