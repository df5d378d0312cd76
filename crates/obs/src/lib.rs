//! Dependency-free observability layer for the TimeKD reproduction.
//!
//! Three kinds of instrumentation, all gated behind a single global switch:
//!
//! * **Spans** ([`span`]) — nestable, monotonic-clock timers that aggregate
//!   into a per-thread trie keyed by span name. Entering the same span name
//!   under the same parent accumulates into one node (count + total time)
//!   instead of growing an unbounded event log, so a full training run stays
//!   O(distinct call paths) in memory.
//! * **Op counters** ([`count_op`]) — per-thread dispatch counts keyed by the
//!   `&'static str` op name that `Tensor::from_op` already records.
//! * **Global counters** ([`Counter`] statics) — lock-free atomics for
//!   cross-thread facts: worker-pool jobs/tasks/serial fallbacks/slot waits,
//!   per-worker busy time, FrozenLm cache hits/misses, and the
//!   serving layer's request/error/swap totals.
//! * **Histograms** ([`Histogram`] statics, in [`hist`]) — lock-free
//!   fixed log-bucket distributions for the serving layer's per-endpoint
//!   latencies.
//!
//! Recording is enabled by the `TIMEKD_TRACE` environment variable (any value
//! other than `0`, `false`, `off` or empty) or programmatically via
//! [`set_enabled`]. When disabled, every hook is a single relaxed atomic load
//! plus one predictable branch: no clock reads, no thread-local access, no
//! allocation. This is the contract the overhead-guard test enforces.
//!
//! Spans and op counts are thread-local by design: the autograd graph (and so
//! every instrumented phase) runs on one thread, while worker threads only
//! touch the atomic counters. Worker-loop code must never call [`span`] or
//! [`count_op`] — those can allocate — and `timekd-check` lints for this
//! (`no-span-in-worker`).

#![deny(
    unused_must_use,
    unused_imports,
    unused_variables,
    dead_code,
    unreachable_patterns,
    missing_debug_implementations
)]
#![warn(missing_docs)]

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

pub mod hist;
pub mod json;

pub use hist::{
    bucket_bound, bucket_of, Histogram, HistogramSnapshot, HIST_BUCKETS, SERVE_ADMIN_LATENCY,
    SERVE_FORECAST_LATENCY, SERVE_METRICS_LATENCY, SERVE_OBSERVE_LATENCY,
};

// ---------------------------------------------------------------------------
// Global enable gate
// ---------------------------------------------------------------------------

const GATE_UNINIT: u8 = 0;
const GATE_OFF: u8 = 1;
const GATE_ON: u8 = 2;

static GATE: AtomicU8 = AtomicU8::new(GATE_UNINIT);

/// Returns whether recording is enabled.
///
/// The first call reads `TIMEKD_TRACE` from the environment; after that (or
/// after [`set_enabled`]) this is a single relaxed atomic load and a branch —
/// cheap enough for per-op hot paths.
#[inline]
pub fn enabled() -> bool {
    match GATE.load(Ordering::Relaxed) {
        GATE_ON => true,
        GATE_OFF => false,
        _ => init_gate_from_env(),
    }
}

#[cold]
fn init_gate_from_env() -> bool {
    let on = match std::env::var("TIMEKD_TRACE") {
        Ok(v) => {
            let v = v.trim().to_ascii_lowercase();
            !(v.is_empty() || v == "0" || v == "false" || v == "off")
        }
        Err(_) => false,
    };
    GATE.store(if on { GATE_ON } else { GATE_OFF }, Ordering::Relaxed);
    on
}

/// Programmatically enables or disables recording, overriding `TIMEKD_TRACE`.
///
/// Affects all threads. Typically paired with [`reset`] so a measured region
/// starts from a clean slate.
pub fn set_enabled(on: bool) {
    GATE.store(if on { GATE_ON } else { GATE_OFF }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Monotonic clock
// ---------------------------------------------------------------------------

fn clock_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since an arbitrary process-local monotonic epoch.
///
/// This is the only clock the observability layer uses. It also lets
/// instrumented kernel files (e.g. the worker pool) measure busy time without
/// naming `Instant` directly, which the `no-instant-in-kernels` lint forbids.
pub fn now_ns() -> u64 {
    clock_epoch().elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Global counters (cross-thread, lock-free)
// ---------------------------------------------------------------------------

/// A named, global, lock-free event counter.
///
/// `add` is gated on [`enabled`] internally, so call sites stay branch-free.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// The counter's stable name as it appears in snapshots and reports.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` events if recording is enabled; otherwise a relaxed load + branch.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Jobs submitted to the worker pool (`parallel_for` / `par_row_blocks` parallel path).
pub static POOL_JOBS: Counter = Counter::new("pool.jobs");
/// Individual tasks (block ranges) executed across all pool jobs.
pub static POOL_TASKS: Counter = Counter::new("pool.tasks");
/// Pool entry points that degraded to the serial path (small size, one thread,
/// or a nested parallel region).
pub static POOL_SERIAL_FALLBACK: Counter = Counter::new("pool.serial_fallback");
/// Spin iterations the submitter spent waiting for a free job slot — a proxy
/// for queue depth / contention.
pub static POOL_SLOT_WAITS: Counter = Counter::new("pool.slot_waits");
/// FrozenLm embedding-cache hits (the same token sequence seen before).
pub static LM_CACHE_HITS: Counter = Counter::new("lm_cache.hits");
/// FrozenLm embedding-cache misses (recomputed through the LM).
pub static LM_CACHE_MISSES: Counter = Counter::new("lm_cache.misses");
/// Execution-plan compilations (cache misses in the core plan cache).
/// Epoch loops must reuse compiled plans, so this stays flat across epochs
/// of a fixed geometry — the plan-cache tests assert exactly that.
pub static PLAN_COMPILES: Counter = Counter::new("plan.compiles");
/// HTTP requests accepted by the serving layer (all endpoints).
pub static SERVE_REQUESTS: Counter = Counter::new("serve.requests");
/// Serving-layer requests answered with an error status (4xx/5xx).
pub static SERVE_ERRORS: Counter = Counter::new("serve.errors");
/// Successful model hot-swaps (`/admin/activate` accepted).
pub static SERVE_SWAPS: Counter = Counter::new("serve.swaps");
/// Rejected hot-swap attempts (registry fault; old version kept serving).
pub static SERVE_SWAP_REJECTS: Counter = Counter::new("serve.swap_rejects");

fn all_counters() -> [&'static Counter; 11] {
    [
        &POOL_JOBS,
        &POOL_TASKS,
        &POOL_SERIAL_FALLBACK,
        &POOL_SLOT_WAITS,
        &LM_CACHE_HITS,
        &LM_CACHE_MISSES,
        &PLAN_COMPILES,
        &SERVE_REQUESTS,
        &SERVE_ERRORS,
        &SERVE_SWAPS,
        &SERVE_SWAP_REJECTS,
    ]
}

/// Upper bound on tracked pool workers; busy time for workers past this is dropped.
pub const MAX_TRACKED_WORKERS: usize = 128;

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_U64: AtomicU64 = AtomicU64::new(0);
static WORKER_BUSY_NS: [AtomicU64; MAX_TRACKED_WORKERS] = [ZERO_U64; MAX_TRACKED_WORKERS];

/// Records `ns` nanoseconds of busy time for pool worker `worker`.
///
/// The caller is expected to have gated the surrounding clock reads on
/// [`enabled`]; this only performs the atomic add.
#[inline]
pub fn worker_busy_add(worker: usize, ns: u64) {
    if worker < MAX_TRACKED_WORKERS {
        WORKER_BUSY_NS[worker].fetch_add(ns, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Span recorder (thread-local aggregated trie)
// ---------------------------------------------------------------------------

struct TrieNode {
    name: &'static str,
    count: u64,
    total_ns: u64,
    children: Vec<usize>,
}

struct Recorder {
    nodes: Vec<TrieNode>,
    roots: Vec<usize>,
    stack: Vec<usize>,
    /// Bumped by [`reset`]; guards open [`SpanGuard`]s across a reset so a
    /// stale guard can never write into the rebuilt trie.
    generation: u64,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            nodes: Vec::new(),
            roots: Vec::new(),
            stack: Vec::new(),
            generation: 0,
        }
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let parent = self.stack.last().copied();
        let siblings: &[usize] = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        let existing = siblings
            .iter()
            .copied()
            .find(|&i| self.nodes[i].name == name);
        let idx = match existing {
            Some(i) => i,
            None => {
                let i = self.nodes.len();
                self.nodes.push(TrieNode {
                    name,
                    count: 0,
                    total_ns: 0,
                    children: Vec::new(),
                });
                match parent {
                    Some(p) => self.nodes[p].children.push(i),
                    None => self.roots.push(i),
                }
                i
            }
        };
        self.stack.push(idx);
        idx
    }

    fn exit(&mut self, node: usize, elapsed_ns: u64) {
        // Pop back to (and including) our frame. Tolerates out-of-order guard
        // drops rather than corrupting the stack.
        if let Some(pos) = self.stack.iter().rposition(|&i| i == node) {
            self.stack.truncate(pos);
        }
        let n = &mut self.nodes[node];
        n.count += 1;
        n.total_ns += elapsed_ns;
    }
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::new());
    static OP_COUNTS: RefCell<BTreeMap<&'static str, u64>> = const { RefCell::new(BTreeMap::new()) };
    static MUTED: Cell<u32> = const { Cell::new(0) };
}

/// True when spans and op counts record on this thread.
fn recording_here() -> bool {
    enabled() && MUTED.with(|m| m.get() == 0)
}

/// Runs `f` with this thread's spans and op counts switched off — for
/// bookkeeping that runs real ops but is not pipeline work (recording a
/// forward to compile a plan, which only happens on a plan-cache miss).
/// Global counters are unaffected.
pub fn muted<T>(f: impl FnOnce() -> T) -> T {
    MUTED.with(|m| m.set(m.get() + 1));
    // Restore the depth even if `f` panics.
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            MUTED.with(|m| m.set(m.get() - 1));
        }
    }
    let _guard = Guard;
    f()
}

/// RAII handle returned by [`span`]; records count + elapsed time on drop.
///
/// Deliberately `!Send`: spans aggregate into the creating thread's trie.
#[derive(Debug)]
pub struct SpanGuard {
    /// `(node index, recorder generation, start ns)`; `None` when recording
    /// was disabled at creation — drop is then a no-op.
    active: Option<(usize, u64, u64)>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((node, generation, started_ns)) = self.active.take() {
            let elapsed = now_ns().saturating_sub(started_ns);
            RECORDER.with(|r| {
                let mut r = r.borrow_mut();
                if r.generation == generation {
                    r.exit(node, elapsed);
                }
            });
        }
    }
}

/// Opens a named span. Time between this call and the guard's drop is
/// accumulated under the current thread's span path.
///
/// `name` must be a stable `'static` label (e.g. `"teacher.forward"`). When
/// recording is disabled this returns an inert guard after one relaxed load.
#[must_use = "the span ends when the returned guard is dropped"]
pub fn span(name: &'static str) -> SpanGuard {
    if !recording_here() {
        return SpanGuard {
            active: None,
            _not_send: PhantomData,
        };
    }
    let (node, generation) = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        (r.enter(name), r.generation)
    });
    SpanGuard {
        active: Some((node, generation, now_ns())),
        _not_send: PhantomData,
    }
}

/// Counts one dispatch of tensor op `op` on the current thread.
#[inline]
pub fn count_op(op: &'static str) {
    if recording_here() {
        OP_COUNTS.with(|c| {
            *c.borrow_mut().entry(op).or_insert(0) += 1;
        });
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// One aggregated span in a [`Snapshot`]: a name, how many times it completed,
/// total wall time, and its child spans.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Span name as passed to [`span`].
    pub name: String,
    /// Completed invocations at this path.
    pub count: u64,
    /// Total nanoseconds across all invocations.
    pub total_ns: u64,
    /// Child spans, in first-entered order.
    pub children: Vec<SpanNode>,
}

/// One tensor-op dispatch total.
#[derive(Debug, Clone, PartialEq)]
pub struct OpCount {
    /// Op name as recorded by `Tensor::from_op`.
    pub name: String,
    /// Dispatches on the snapshotting thread since the last [`reset`].
    pub count: u64,
}

/// One global counter value.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterValue {
    /// Counter name, e.g. `"pool.jobs"`.
    pub name: String,
    /// Value since the last [`reset`].
    pub value: u64,
}

/// Busy time of one pool worker.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerBusy {
    /// Worker index (spawn order).
    pub worker: usize,
    /// Nanoseconds spent executing tasks since the last [`reset`].
    pub busy_ns: u64,
}

/// A point-in-time copy of everything recorded: the calling thread's span trie
/// and op counts, plus the global counters and worker busy times.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Root spans of the calling thread, in first-entered order.
    pub spans: Vec<SpanNode>,
    /// Op dispatch totals, sorted by op name.
    pub ops: Vec<OpCount>,
    /// All global counters (including zero-valued ones), in registry order.
    pub counters: Vec<CounterValue>,
    /// Workers with nonzero busy time, by index.
    pub workers: Vec<WorkerBusy>,
    /// Histograms with at least one observation, in registry order.
    pub histograms: Vec<HistogramSnapshot>,
}

fn build_span_node(rec: &Recorder, idx: usize) -> SpanNode {
    let n = &rec.nodes[idx];
    SpanNode {
        name: n.name.to_string(),
        count: n.count,
        total_ns: n.total_ns,
        children: n
            .children
            .iter()
            .map(|&c| build_span_node(rec, c))
            .collect(),
    }
}

/// Captures a [`Snapshot`] of the current recording state.
///
/// Open spans are not included until their guards drop.
pub fn snapshot() -> Snapshot {
    let spans = RECORDER.with(|r| {
        let r = r.borrow();
        r.roots.iter().map(|&i| build_span_node(&r, i)).collect()
    });
    let ops = OP_COUNTS.with(|c| {
        c.borrow()
            .iter()
            .map(|(&name, &count)| OpCount {
                name: name.to_string(),
                count,
            })
            .collect()
    });
    let counters = all_counters()
        .iter()
        .map(|c| CounterValue {
            name: c.name().to_string(),
            value: c.get(),
        })
        .collect();
    let workers = WORKER_BUSY_NS
        .iter()
        .enumerate()
        .filter_map(|(i, ns)| {
            let busy_ns = ns.load(Ordering::Relaxed);
            (busy_ns > 0).then_some(WorkerBusy { worker: i, busy_ns })
        })
        .collect();
    let histograms = hist::all_histograms()
        .iter()
        .map(|h| h.snapshot())
        .filter(|s| s.count() > 0)
        .collect();
    Snapshot {
        spans,
        ops,
        counters,
        workers,
        histograms,
    }
}

/// Clears the calling thread's span trie and op counts, and zeroes all global
/// counters and worker busy times. Spans still open when this runs are
/// invalidated (their guards become no-ops) rather than corrupting the trie.
pub fn reset() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.nodes.clear();
        r.roots.clear();
        r.stack.clear();
        r.generation += 1;
    });
    OP_COUNTS.with(|c| c.borrow_mut().clear());
    for c in all_counters() {
        c.reset();
    }
    for w in WORKER_BUSY_NS.iter() {
        w.store(0, Ordering::Relaxed);
    }
    for h in hist::all_histograms() {
        h.reset();
    }
}

impl Snapshot {
    /// Depth-first search for the first span named `name`.
    pub fn find_span(&self, name: &str) -> Option<&SpanNode> {
        fn walk<'a>(nodes: &'a [SpanNode], name: &str) -> Option<&'a SpanNode> {
            for n in nodes {
                if n.name == name {
                    return Some(n);
                }
                if let Some(hit) = walk(&n.children, name) {
                    return Some(hit);
                }
            }
            None
        }
        walk(&self.spans, name)
    }

    /// Value of the global counter `name`, or 0 if unknown.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
            .unwrap_or(0)
    }

    /// Total op dispatches across all ops.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().map(|o| o.count).sum()
    }

    /// Renders a human-readable summary table: the span tree with counts and
    /// times, op-dispatch totals, global counters, and worker busy times.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<44} {:>8} {:>12} {:>12}\n",
            "span", "count", "total ms", "mean us"
        ));
        fn push_span(out: &mut String, n: &SpanNode, depth: usize) {
            let label = format!("{}{}", "  ".repeat(depth), n.name);
            let total_ms = n.total_ns as f64 / 1e6;
            let mean_us = if n.count > 0 {
                n.total_ns as f64 / n.count as f64 / 1e3
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<44} {:>8} {:>12.3} {:>12.1}\n",
                label, n.count, total_ms, mean_us
            ));
            for c in &n.children {
                push_span(out, c, depth + 1);
            }
        }
        if self.spans.is_empty() {
            out.push_str("(no spans recorded)\n");
        }
        for s in &self.spans {
            push_span(&mut out, s, 0);
        }
        let mut top: Vec<&OpCount> = self.ops.iter().collect();
        top.sort_by(|a, b| b.count.cmp(&a.count).then(a.name.cmp(&b.name)));
        let head: Vec<String> = top
            .iter()
            .take(8)
            .map(|o| format!("{}={}", o.name, o.count))
            .collect();
        out.push_str(&format!(
            "ops: {} dispatches across {} ops",
            self.total_ops(),
            self.ops.len()
        ));
        if !head.is_empty() {
            out.push_str(&format!(" (top: {})", head.join(" ")));
        }
        out.push('\n');
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|c| format!("{}={}", c.name, c.value))
            .collect();
        out.push_str(&format!("counters: {}\n", counters.join(" ")));
        if self.workers.is_empty() {
            out.push_str("workers: (no pool activity recorded)\n");
        } else {
            let cols: Vec<String> = self
                .workers
                .iter()
                .map(|w| format!("{}={:.1}ms", w.worker, w.busy_ns as f64 / 1e6))
                .collect();
            out.push_str(&format!("workers: {}\n", cols.join(" ")));
        }
        if !self.histograms.is_empty() {
            let cols: Vec<String> = self
                .histograms
                .iter()
                .map(|h| {
                    format!(
                        "{}: n={} p50={:.0} p99={:.0}",
                        h.name,
                        h.count(),
                        h.quantile(0.5),
                        h.quantile(0.99)
                    )
                })
                .collect();
            out.push_str(&format!("histograms: {}\n", cols.join(" | ")));
        }
        out
    }
}

/// Serializes tests that toggle the global gate or touch the global
/// counter/histogram state; shared by this crate's test modules.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        crate::test_lock()
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _g = locked();
        set_enabled(false);
        reset();
        {
            let _s = span("off.root");
            count_op("off_op");
            POOL_JOBS.add(3);
        }
        let snap = snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.ops.is_empty());
        assert_eq!(snap.counter("pool.jobs"), 0);
    }

    #[test]
    fn muted_work_records_no_spans_or_ops() {
        let _g = locked();
        set_enabled(true);
        reset();
        {
            let _outer = span("kept");
            muted(|| {
                let _s = span("hidden");
                count_op("hidden_op");
            });
            count_op("kept_op");
        }
        let snap = snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "kept");
        assert!(snap.spans[0].children.is_empty());
        set_enabled(false);
        let ops: Vec<(&str, u64)> = snap
            .ops
            .iter()
            .map(|o| (o.name.as_str(), o.count))
            .collect();
        assert_eq!(ops, [("kept_op", 1)]);
    }

    #[test]
    fn nested_spans_aggregate_by_path() {
        let _g = locked();
        set_enabled(true);
        reset();
        for _ in 0..3 {
            let _outer = span("outer");
            for _ in 0..2 {
                let _inner = span("inner");
            }
        }
        {
            // Same name at root level aggregates with prior roots.
            let _outer = span("outer");
        }
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.spans.len(), 1);
        let outer = &snap.spans[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.count, 4);
        assert_eq!(outer.children.len(), 1);
        assert_eq!(outer.children[0].name, "inner");
        assert_eq!(outer.children[0].count, 6);
        assert!(outer.total_ns >= outer.children[0].total_ns);
    }

    #[test]
    fn same_name_under_different_parents_is_distinct() {
        let _g = locked();
        set_enabled(true);
        reset();
        {
            let _a = span("a");
            let _s = span("shared");
        }
        {
            let _b = span("b");
            let _s = span("shared");
        }
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.spans[0].children[0].name, "shared");
        assert_eq!(snap.spans[1].children[0].name, "shared");
        assert_eq!(snap.find_span("shared").unwrap().count, 1);
    }

    #[test]
    fn op_counts_are_sorted_and_aggregated() {
        let _g = locked();
        set_enabled(true);
        reset();
        count_op("zmul");
        count_op("add");
        count_op("zmul");
        let snap = snapshot();
        set_enabled(false);
        let names: Vec<&str> = snap.ops.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, vec!["add", "zmul"]);
        assert_eq!(snap.ops[1].count, 2);
        assert_eq!(snap.total_ops(), 3);
    }

    #[test]
    fn counters_and_workers_roundtrip_through_reset() {
        let _g = locked();
        set_enabled(true);
        reset();
        POOL_JOBS.add(2);
        LM_CACHE_HITS.add(5);
        worker_busy_add(1, 1_000);
        worker_busy_add(MAX_TRACKED_WORKERS + 7, 99); // silently dropped
        let snap = snapshot();
        assert_eq!(snap.counter("pool.jobs"), 2);
        assert_eq!(snap.counter("lm_cache.hits"), 5);
        assert_eq!(
            snap.workers,
            vec![WorkerBusy {
                worker: 1,
                busy_ns: 1_000
            }]
        );
        reset();
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.counter("pool.jobs"), 0);
        assert!(snap.workers.is_empty());
    }

    #[test]
    fn guard_open_across_reset_is_inert() {
        let _g = locked();
        set_enabled(true);
        reset();
        let stale = span("stale");
        reset();
        {
            let _fresh = span("fresh");
        }
        drop(stale); // generation mismatch: must not touch the new trie
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "fresh");
        assert_eq!(snap.spans[0].count, 1);
    }

    #[test]
    fn render_table_mentions_spans_ops_and_counters() {
        let _g = locked();
        set_enabled(true);
        reset();
        {
            let _s = span("table.root");
            let _c = span("table.child");
        }
        count_op("matmul");
        POOL_TASKS.add(4);
        let snap = snapshot();
        set_enabled(false);
        let table = snap.render_table();
        assert!(table.contains("table.root"));
        assert!(table.contains("  table.child"));
        assert!(table.contains("matmul=1"));
        assert!(table.contains("pool.tasks=4"));
        reset();
    }

    #[test]
    fn histograms_snapshot_and_reset_with_the_counters() {
        let _g = locked();
        set_enabled(true);
        reset();
        // Zero-observation histograms stay out of the snapshot; recorded
        // ones appear with their counts, and reset() clears them alongside
        // the serve counters.
        assert!(snapshot().histograms.is_empty());
        SERVE_FORECAST_LATENCY.record(1_500);
        SERVE_FORECAST_LATENCY.record(900);
        SERVE_OBSERVE_LATENCY.record(3_000);
        SERVE_REQUESTS.add(2);
        SERVE_SWAPS.add(1);
        let snap = snapshot();
        assert_eq!(snap.histograms.len(), 2);
        let fc = snap
            .histograms
            .iter()
            .find(|h| h.name == "serve.forecast.latency_ns")
            .expect("forecast histogram present");
        assert_eq!(fc.count(), 2);
        assert_eq!(fc.sum, 2_400);
        assert_eq!(snap.counter("serve.requests"), 2);
        assert_eq!(snap.counter("serve.swaps"), 1);
        let table = snap.render_table();
        assert!(table.contains("serve.forecast.latency_ns"));
        reset();
        set_enabled(false);
        let snap = snapshot();
        assert!(snap.histograms.is_empty());
        assert_eq!(snap.counter("serve.requests"), 0);
    }

    #[test]
    fn set_enabled_overrides_env_gate() {
        let _g = locked();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
