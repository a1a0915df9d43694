//! The traced run's plumbing: in-memory spans recorded around the
//! benchmark's own calls into each layer, self time (span time minus the
//! time its child spans cover), and a counting global allocator that
//! only counts while a traced run has switched it on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The process allocator: the system allocator, plus a per-thread count
/// of allocations while counting is on.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised,
// non-allocating thread local, so counting never re-enters the
// allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[inline]
fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

/// Switches allocation counting on or off for the whole process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted on the calling thread so far.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span: a named interval on the tracer's clock, the span
/// that was open when it started, and the allocations made on this
/// thread while it was open.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same run, or [`ROOT`].
    pub parent: u32,
    /// Which traced pass recorded the span.
    pub run: u32,
    pub allocs: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Each span's self time: its duration minus the durations of its direct
/// children (children nest inside their parent, so they never overlap
/// each other on one thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(slot) = child.get_mut(s.parent as usize) {
            *slot += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Per-name totals over many spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub allocs: u64,
}

impl Aggregate {
    /// Mean span duration in nanoseconds (0 with no spans).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Records spans while enabled; a disabled tracer costs one branch per
/// call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Totals by span name over every finished pass.
    pub totals: BTreeMap<&'static str, Aggregate>,
    /// Root and first-level spans of every finished pass, kept for the
    /// trace file (the per-frame spans are folded into `totals`).
    pub kept: Vec<Span>,
}

/// Upper bound on spans written to the trace file.
const KEPT_CAP: usize = 20_000;

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            totals: BTreeMap::new(),
            kept: Vec::new(),
        }
    }

    /// Opens a span; its name is given when it closes, so a call can be
    /// classified by what it did.
    #[inline]
    pub fn open(&mut self) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name: "",
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(ROOT),
            run: self.run,
            allocs: thread_allocs(),
        });
        self.stack.push(idx);
        idx
    }

    #[inline]
    pub fn close(&mut self, idx: u32, name: &'static str) {
        if !self.enabled {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans close in LIFO order");
        let span = &mut self.spans[idx as usize];
        span.name = name;
        span.end_ns = end_ns;
        span.allocs = thread_allocs() - span.allocs;
    }

    /// Runs `f` inside a span called `name`.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = self.open();
        let out = f();
        self.close(idx, name);
        out
    }

    /// Folds the finished pass's spans into `totals`, keeps its root and
    /// first-level spans, and starts the next pass.
    pub fn end_pass(&mut self) {
        debug_assert!(self.stack.is_empty(), "pass ended with open spans");
        let selfs = self_times(&self.spans);
        for (s, &self_ns) in self.spans.iter().zip(&selfs) {
            let agg = self.totals.entry(s.name).or_default();
            agg.count += 1;
            agg.total_ns += s.duration_ns();
            agg.self_ns += self_ns;
            agg.allocs += s.allocs;
        }
        let mut remap = vec![ROOT; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            let shallow = s.parent == ROOT || self.spans[s.parent as usize].parent == ROOT;
            if shallow && self.kept.len() < KEPT_CAP {
                remap[i] = self.kept.len() as u32;
                let parent = if s.parent == ROOT {
                    ROOT
                } else {
                    remap[s.parent as usize]
                };
                self.kept.push(Span { parent, ..*s });
            }
        }
        self.spans.clear();
        self.run += 1;
    }

    /// Totals for one span name (zero when it never ran).
    pub fn total(&self, name: &str) -> Aggregate {
        self.totals.get(name).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("pass", 0, 100, ROOT),
            span("observe", 10, 40, 0),
            span("inner", 15, 25, 1),
            span("link", 50, 70, 0),
        ];
        // pass: 100 - (30 + 20); observe: 30 - 10; leaves keep theirs.
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn tracer_nests_and_aggregates() {
        let mut t = Tracer::new(true);
        let pass = t.open();
        for _ in 0..3 {
            t.span("leaf", || std::hint::black_box(1 + 1));
        }
        t.close(pass, "pass");
        t.end_pass();
        let leaf = t.total("leaf");
        let root = t.total("pass");
        assert_eq!((leaf.count, root.count), (3, 1));
        assert_eq!(root.self_ns + leaf.total_ns, root.total_ns);
        assert_eq!(t.kept.len(), 4);
        assert!(t.kept[1..].iter().all(|s| s.parent == 0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("leaf", || 7), 7);
        t.end_pass();
        assert!(t.totals.is_empty() && t.kept.is_empty());
    }
}
