//! I/O accounting.
//!
//! Every block transfer performed through an [`crate::EmFile`] is charged to
//! the [`IoStats`] handle of the owning [`crate::EmContext`]. Counters can be
//! snapshotted and diffed, and named *phases* attribute I/Os to
//! sub-algorithms (e.g. "sample", "distribute", "base-case"). Phases double
//! as trace spans: when a [`crate::TraceSink`] is installed on the context,
//! every phase open/close is emitted as a span event carrying its exact
//! counter delta (see [`crate::trace`]).
//!
//! The counter list is written once, in the `counters!` table below: the
//! struct, its atomic mirror, `since`/`plus` and the trace codec all loop
//! over it. Open phases and spans are recorded once too, on the per-thread
//! scope stacks of [`IoStats`]. Each scope keeps the span it opened, so a
//! new span's parent and the span a point event belongs to are read off
//! these stacks; the tracer keeps no list of open spans.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;

use crate::fault::IoOp;
use crate::trace::{PointKind, SpanRef, Tracer};

/// Declares [`Counters`] (one pub `u64` per row), the [`Counter`] enum
/// naming each field, and the array view the loops below work on.
macro_rules! counters {
    ($($(#[doc = $doc:literal])+ $field:ident: $name:ident,)+) => {
        /// A plain set of counters. Snapshots and phase totals use this type.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct Counters {
            $($(#[doc = $doc])+ pub $field: u64,)+
        }

        /// One field of [`Counters`]: what [`IoStats::add`] charges.
        /// (`Comparisons` is charged only by tests so far.)
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[allow(dead_code)]
        pub(crate) enum Counter {
            $($name,)+
        }

        /// Number of fields in [`Counters`].
        const COUNTERS: usize = [$(stringify!($field)),+].len();

        impl Counters {
            /// Field names in declaration order (the keys of a trace
            /// `close` event).
            pub(crate) const NAMES: [&'static str; COUNTERS] = [$(stringify!($field)),+];

            /// The fields in declaration order.
            pub(crate) fn to_array(self) -> [u64; COUNTERS] {
                [$(self.$field),+]
            }

            /// Inverse of [`Counters::to_array`].
            pub(crate) fn from_array([$($field),+]: [u64; COUNTERS]) -> Self {
                Counters { $($field),+ }
            }
        }
    };
}

counters! {
    /// Block reads.
    reads: Reads,
    /// Block writes.
    writes: Writes,
    /// Key comparisons. No algorithm charges them yet, so outside tests
    /// this reads 0.
    comparisons: Comparisons,
    /// Bytes read from the file backend (0 on the memory backend).
    bytes_read: BytesRead,
    /// Bytes written to the file backend (0 on the memory backend).
    bytes_written: BytesWritten,
    /// Device attempts that failed and were retried under the context's
    /// [`crate::RetryPolicy`]. Successful attempts are charged to
    /// `reads`/`writes` as usual, so with an empty fault plan this is 0 and
    /// every other counter is unchanged.
    retries: Retries,
    /// Block reads that failed checksum verification (each such attempt also
    /// counts toward `retries` if it was retried).
    corrupt_reads: CorruptReads,
    /// Checkpoint-journal commits (see [`crate::Journal`]). Journal commits
    /// are host-side metadata writes, not block transfers, so they are *not*
    /// part of [`Counters::total_ios`].
    journal_writes: JournalWrites,
    /// Block I/Os spent *re-executing* a work unit that a crash interrupted
    /// (charged by recoverable algorithms when they redo an in-flight unit
    /// on resume). These I/Os are also counted in `reads`/`writes`; this
    /// counter isolates the rework overhead.
    redone_ios: RedoneIos,
    /// Physical block reads actually performed by the device layer —
    /// block-cache misses plus uncached reads. With the cache disabled
    /// (`cache_blocks = 0`) every logical read is physical, so this equals
    /// `reads`.
    physical_reads: PhysicalReads,
    /// Physical block writes performed by the device layer. The block cache
    /// is write-through (writes are never absorbed), so this always equals
    /// `writes`.
    physical_writes: PhysicalWrites,
    /// Block-cache hits: logical reads served from the buffer pool without
    /// a device transfer. Always 0 with the cache disabled.
    cache_hits: CacheHits,
    /// Block-cache misses: logical reads that consulted the buffer pool,
    /// went to the device, and populated a frame. Always 0 with the cache
    /// disabled.
    cache_misses: CacheMisses,
    /// Strict-mode memory charges denied with a typed
    /// [`crate::EmError::MemoryExceeded`] (the caller retried smaller,
    /// degraded, or surfaced the error — nothing panicked).
    mem_denials: MemDenials,
    /// Governor budget squeezes delivered via `EmContext::set_mem_budget`
    /// (shrinks only; restores are visible in the trace stream).
    mem_reclaims: MemReclaims,
}

impl Counters {
    /// Total block I/Os: reads + writes.
    #[inline]
    pub fn total_ios(&self) -> u64 {
        self.reads + self.writes
    }

    /// Model-charged (*logical*) block I/Os — a synonym for
    /// [`Counters::total_ios`], named for the logical/physical split. Every
    /// Table-1 comparison and predicted-bound check uses this quantity: a
    /// block-cache hit is still one logical I/O in the EM model, so enabling
    /// the cache never changes it.
    #[inline]
    pub fn logical_ios(&self) -> u64 {
        self.reads + self.writes
    }

    /// Physical device transfers: `physical_reads + physical_writes`. This
    /// is what the hardware actually did; `logical_ios - physical_ios` is
    /// the traffic the buffer pool absorbed.
    #[inline]
    pub fn physical_ios(&self) -> u64 {
        self.physical_reads + self.physical_writes
    }

    /// Cache hit rate over logical reads that consulted the buffer pool
    /// (`hits / (hits + misses)`); 0.0 when the cache never engaged.
    pub fn cache_hit_rate(&self) -> f64 {
        let looked = self.cache_hits + self.cache_misses;
        if looked == 0 {
            0.0
        } else {
            self.cache_hits as f64 / looked as f64
        }
    }

    /// Field by field `f(self, other)`.
    fn zip_with(&self, other: &Counters, f: fn(u64, u64) -> u64) -> Counters {
        let (a, b) = (self.to_array(), other.to_array());
        Counters::from_array(std::array::from_fn(|i| f(a[i], b[i])))
    }

    /// Component-wise difference `self - earlier`. Saturates at zero so that
    /// diffing against a later snapshot does not panic in release builds.
    pub fn since(&self, earlier: &Counters) -> Counters {
        self.zip_with(earlier, u64::saturating_sub)
    }

    /// Component-wise sum. Saturates like [`Counters::since`] so that
    /// accumulating totals over a long campaign can never overflow-panic in
    /// debug builds.
    pub fn plus(&self, other: &Counters) -> Counters {
        self.zip_with(other, u64::saturating_add)
    }
}

/// Render a byte count with a binary-unit suffix ("3.2 MiB").
fn fmt_bytes(f: &mut std::fmt::Formatter<'_>, bytes: u64) -> std::fmt::Result {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        write!(f, "{bytes} B")
    } else {
        write!(f, "{v:.1} {}", UNITS[unit])
    }
}

impl std::fmt::Display for Counters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} I/Os ({} reads, {} writes, ",
            self.total_ios(),
            self.reads,
            self.writes
        )?;
        fmt_bytes(f, self.bytes_read)?;
        write!(f, " read, ")?;
        fmt_bytes(f, self.bytes_written)?;
        write!(f, " written)")?;
        if self.retries != 0 {
            write!(f, ", {} retries", self.retries)?;
        }
        if self.corrupt_reads != 0 {
            write!(f, ", {} corrupt reads", self.corrupt_reads)?;
        }
        if self.journal_writes != 0 {
            write!(f, ", {} journal commits", self.journal_writes)?;
        }
        if self.redone_ios != 0 {
            write!(f, ", {} redone I/Os", self.redone_ios)?;
        }
        if self.cache_hits + self.cache_misses != 0 {
            write!(
                f,
                ", cache {}/{} hits ({} physical I/Os)",
                self.cache_hits,
                self.cache_hits + self.cache_misses,
                self.physical_ios()
            )?;
        }
        if self.mem_denials != 0 {
            write!(f, ", {} mem denials", self.mem_denials)?;
        }
        if self.mem_reclaims != 0 {
            write!(f, ", {} mem reclaims", self.mem_reclaims)?;
        }
        Ok(())
    }
}

/// One open phase or trace-only span on a thread's stack.
#[derive(Debug)]
struct Scope {
    name: String,
    start: Counters,
    /// The span this scope opened, when a trace was being recorded then.
    span: Option<SpanRef>,
    /// Whether the delta is added to `phase_totals` on close. Trace-only
    /// spans (work units, recursion levels) set this false so they appear
    /// in the span tree without double-counting in the flat totals.
    charge: bool,
}

/// The counters themselves, one relaxed atomic per [`Counters`] field.
/// Charging an I/O from a worker thread is a couple of `fetch_add`s — no
/// lock, no parking — so the accounting layer stays off the critical path
/// of a parallel sort even when every worker charges on every block.
#[derive(Debug, Default)]
struct AtomicCounters([AtomicU64; COUNTERS]);

impl AtomicCounters {
    #[inline]
    fn add(&self, counter: Counter, n: u64) {
        self.0[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn load(&self) -> Counters {
        Counters::from_array(self.0.each_ref().map(|c| c.load(Ordering::Relaxed)))
    }

    fn zero(&self) {
        for c in &self.0 {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// Bookkeeping that genuinely needs mutual exclusion: phase scopes and
/// totals. The hot counters live outside this lock (see [`AtomicCounters`]);
/// this mutex is only taken at phase boundaries, for trace points and for
/// reports.
#[derive(Debug, Default)]
struct StatsInner {
    /// Open phases and spans, kept **per thread**: concurrent workers each
    /// see their own LIFO stack, so interleaved opens and closes from
    /// different threads never pop each other's scopes.
    scope_stacks: HashMap<ThreadId, Vec<Scope>>,
    phase_totals: BTreeMap<String, Counters>,
}

impl StatsInner {
    /// The calling thread's scope stack (created on first use).
    fn stack(&mut self) -> &mut Vec<Scope> {
        self.scope_stacks
            .entry(std::thread::current().id())
            .or_default()
    }

    /// The span a new span or point event of the calling thread attaches
    /// to in trace `trace`: the thread's innermost open span; else the
    /// oldest open span of any thread, so work on a worker thread nests
    /// under the enclosing charged phase instead of becoming a spurious
    /// root (which would break delta conservation); else 0, the root.
    /// Spans opened under an earlier trace are skipped.
    fn enclosing_span(&self, trace: u64) -> u64 {
        let in_trace = |s: &Scope| s.span.filter(|r| r.trace == trace);
        self.scope_stacks
            .get(&std::thread::current().id())
            .and_then(|stack| stack.iter().rev().find_map(in_trace))
            .or_else(|| {
                self.scope_stacks
                    .values()
                    .flatten()
                    .filter_map(in_trace)
                    .min_by_key(|r| r.id)
            })
            .map_or(0, |r| r.id)
    }

    fn open_scope_names(&self) -> Vec<&str> {
        self.scope_stacks
            .values()
            .flatten()
            .map(|s| s.name.as_str())
            .collect()
    }
}

impl Drop for StatsInner {
    fn drop(&mut self) {
        // An open phase at teardown means a guard leaked somewhere —
        // attribution was silently dropped. Only assert when not already
        // unwinding, to avoid a double panic.
        if !std::thread::panicking() {
            let open = self.open_scope_names();
            debug_assert!(
                open.is_empty(),
                "IoStats dropped with {} open phase(s): {:?} — use phase_guard()",
                open.len(),
                open
            );
        }
    }
}

/// Shared state of one [`IoStats`] handle: lock-free hot counters plus a
/// mutex for the cold phase bookkeeping.
#[derive(Debug, Default)]
struct StatsShared {
    counters: AtomicCounters,
    /// Nesting depth of [`IoStats::paused`] sections.
    paused: AtomicU32,
    /// The trace channel (internally synchronised; disabled = one atomic
    /// flag check per hook).
    tracer: Tracer,
    book: Mutex<StatsInner>,
}

/// Cheaply cloneable handle to a shared set of I/O counters.
///
/// Thread-safe (`Send + Sync`) and **lock-free on the hot path**: the
/// counters are per-field relaxed atomics, so worker threads of a parallel
/// sort charge into the same totals without ever contending on a lock.
/// Phases are tracked per thread (each thread has its own LIFO stack)
/// behind a mutex that is only taken at phase boundaries; under concurrency
/// a phase's delta includes I/Os charged by other threads while it was
/// open, so per-phase attribution is exact only for single-threaded
/// sections. Global counters are always exact; a [`IoStats::snapshot`]
/// taken while other threads are mid-charge may be skewed by the I/Os in
/// flight at that instant.
#[derive(Debug, Clone, Default)]
pub struct IoStats {
    inner: Arc<StatsShared>,
}

impl IoStats {
    /// Fresh, zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, StatsInner> {
        self.inner.book.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The trace channel shared with the owning context.
    pub(crate) fn tracer(&self) -> Tracer {
        self.inner.tracer.clone()
    }

    /// Whether accounting is currently paused (oracle/verification scans).
    /// Trace point emission respects this too.
    #[inline]
    pub(crate) fn is_paused(&self) -> bool {
        self.inner.paused.load(Ordering::Relaxed) > 0
    }

    /// Charge `n` to `counter`, unless accounting is paused.
    #[inline]
    pub(crate) fn add(&self, counter: Counter, n: u64) {
        if !self.is_paused() {
            self.inner.counters.add(counter, n);
        }
    }

    #[inline]
    pub(crate) fn record_read_block(&self, file: u64, block: u64, bytes: u64) {
        if self.is_paused() {
            return;
        }
        self.inner.counters.add(Counter::Reads, 1);
        self.inner.counters.add(Counter::BytesRead, bytes);
        self.inner.tracer.note_access(IoOp::Read, file, block);
    }

    #[inline]
    pub(crate) fn record_write_block(&self, file: u64, block: u64, bytes: u64) {
        if self.is_paused() {
            return;
        }
        self.inner.counters.add(Counter::Writes, 1);
        self.inner.counters.add(Counter::BytesWritten, bytes);
        self.inner.tracer.note_access(IoOp::Write, file, block);
    }

    /// Charge `n` block I/Os as *rework*: I/Os spent re-executing a work
    /// unit that a crash interrupted. Called by recoverable algorithms when
    /// a resumed run redoes its in-flight unit; the I/Os themselves are
    /// already in `reads`/`writes`. Emits a `work_unit_redo` trace point
    /// attributed to the innermost open span.
    #[inline]
    pub fn record_redone_ios(&self, n: u64) {
        if !self.is_paused() {
            self.inner.counters.add(Counter::RedoneIos, n);
            self.trace_point(PointKind::WorkUnitRedo { ios: n });
        }
    }

    /// Charge `n` synthetic block reads. Used by top-level entry points to
    /// account for consuming caller-supplied rank lists (see DESIGN.md,
    /// model-fidelity notes).
    pub fn charge_reads(&self, n: u64) {
        self.add(Counter::Reads, n);
    }

    /// Emit a point event, attributed to the span
    /// [`StatsInner::enclosing_span`] picks. One flag check when tracing
    /// is off.
    pub(crate) fn trace_point(&self, kind: PointKind) {
        if !self.inner.tracer.is_enabled() {
            return;
        }
        let g = self.lock();
        self.inner
            .tracer
            .point(kind, |trace| g.enclosing_span(trace));
    }

    /// Current counter values.
    pub fn snapshot(&self) -> Counters {
        self.inner.counters.load()
    }

    /// Reset all counters and phase records to zero. Debug-asserts that no
    /// phase is open — resetting mid-phase would misattribute the rest of
    /// that phase's I/Os.
    pub fn reset(&self) {
        let mut g = self.lock();
        debug_assert!(
            g.open_scope_names().is_empty(),
            "IoStats::reset inside an open phase ({:?})",
            g.open_scope_names()
        );
        self.inner.counters.zero();
        g.scope_stacks.clear();
        g.phase_totals.clear();
    }

    /// Run `f` without recording any I/O. Used for workload materialisation
    /// and verification scans that are not part of the algorithm under
    /// measurement. Pauses nest.
    pub fn paused<R>(&self, f: impl FnOnce() -> R) -> R {
        self.inner.paused.fetch_add(1, Ordering::Relaxed);
        let _guard = PauseGuard { stats: self };
        f()
    }

    /// Push a scope on the calling thread's stack, opening its span when a
    /// trace is being recorded. The span's parent is `parent` if given,
    /// else [`StatsInner::enclosing_span`].
    fn push_scope(&self, name: String, charge: bool, parent: Option<u64>) {
        let start = self.snapshot();
        let mut g = self.lock();
        let span = self.inner.tracer.span_open(&name, |trace| {
            parent.unwrap_or_else(|| g.enclosing_span(trace))
        });
        g.stack().push(Scope {
            name,
            start,
            span,
            charge,
        });
    }

    /// Pop the calling thread's innermost scope: add its delta to the
    /// phase totals if it is charged, and close its span.
    fn pop_scope(&self) {
        let now = self.snapshot();
        let mut g = self.lock();
        let tid = std::thread::current().id();
        let Some(stack) = g.scope_stacks.get_mut(&tid) else {
            return;
        };
        let scope = stack.pop();
        if stack.is_empty() {
            g.scope_stacks.remove(&tid);
        }
        let Some(scope) = scope else {
            return;
        };
        let delta = now.since(&scope.start);
        if scope.charge {
            let slot = g.phase_totals.entry(scope.name).or_default();
            *slot = slot.plus(&delta);
        }
        if let Some(span) = scope.span {
            self.inner.tracer.span_close(span, &delta);
        }
    }

    /// Trace span id of the calling thread's innermost open phase, or 0 if
    /// none is open (or tracing is disabled). Capture this on a coordinating
    /// thread and pass it to [`IoStats::trace_span_under`] from workers so
    /// their spans nest under the coordinating phase.
    pub fn current_span_id(&self) -> u64 {
        self.lock()
            .scope_stacks
            .get(&std::thread::current().id())
            .and_then(|stack| stack.last()?.span)
            .map_or(0, |r| r.id)
    }

    /// Begin a named phase and return a guard that ends it on drop, adding
    /// its delta to that phase's running total. Phases nest, and the guard
    /// closes the phase (keeping its trace span balanced) on early return,
    /// error propagation, and unwinding.
    pub fn phase_guard(&self, name: impl Into<String>) -> PhaseGuard<'_> {
        self.push_scope(name.into(), true, None);
        PhaseGuard {
            stats: self,
            active: true,
        }
    }

    /// Open a *trace-only* span: it appears in the span tree with its exact
    /// counter delta but is **not** added to [`IoStats::phase_totals`], so
    /// fine-grained structure (work units, recursion levels) can be traced
    /// without double-counting the flat per-phase totals. The name closure
    /// is only invoked when tracing is enabled; when disabled the returned
    /// guard is inert and the cost is one flag check.
    pub fn trace_span(&self, name: impl FnOnce() -> String) -> PhaseGuard<'_> {
        self.trace_span_under(0, name)
    }

    /// Like [`IoStats::trace_span`] but with an explicit parent span id
    /// (from [`IoStats::current_span_id`] on the coordinating thread). A
    /// `parent` of 0 falls back to automatic parent resolution. Use from
    /// worker threads so their spans attach under the phase that charges
    /// their I/O rather than whatever another thread has open.
    pub fn trace_span_under(&self, parent: u64, name: impl FnOnce() -> String) -> PhaseGuard<'_> {
        let active = self.inner.tracer.is_enabled();
        if active {
            self.push_scope(name(), false, (parent != 0).then_some(parent));
        }
        PhaseGuard {
            stats: self,
            active,
        }
    }

    /// Accumulated totals per phase name, in name order.
    pub fn phase_totals(&self) -> Vec<(String, Counters)> {
        self.lock()
            .phase_totals
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }
}

/// RAII guard for a charged phase ([`IoStats::phase_guard`]) or a
/// trace-only span ([`IoStats::trace_span`]); dropping it closes the scope.
#[must_use = "dropping the guard immediately ends the phase"]
#[derive(Debug)]
pub struct PhaseGuard<'a> {
    stats: &'a IoStats,
    /// False for a trace-only span opened while tracing was off: nothing
    /// was pushed, so nothing is popped.
    active: bool,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        if self.active {
            self.stats.pop_scope();
        }
    }
}

struct PauseGuard<'a> {
    stats: &'a IoStats,
}

impl Drop for PauseGuard<'_> {
    fn drop(&mut self) {
        self.stats.inner.paused.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_reads_and_writes() {
        let s = IoStats::new();
        s.record_read_block(0, 0, 128);
        s.record_read_block(0, 1, 128);
        s.record_write_block(0, 0, 64);
        let c = s.snapshot();
        assert_eq!(c.reads, 2);
        assert_eq!(c.writes, 1);
        assert_eq!(c.total_ios(), 3);
        assert_eq!(c.bytes_read, 256);
        assert_eq!(c.bytes_written, 64);
    }

    #[test]
    fn since_diffs() {
        let s = IoStats::new();
        s.record_read_block(0, 0, 0);
        let snap = s.snapshot();
        s.record_read_block(0, 1, 0);
        s.record_write_block(0, 0, 0);
        let d = s.snapshot().since(&snap);
        assert_eq!(d.reads, 1);
        assert_eq!(d.writes, 1);
    }

    #[test]
    fn plus_saturates() {
        let a = Counters {
            reads: u64::MAX - 1,
            comparisons: u64::MAX,
            ..Counters::default()
        };
        let b = Counters {
            reads: 5,
            comparisons: 5,
            writes: 1,
            ..Counters::default()
        };
        let c = a.plus(&b);
        assert_eq!(c.reads, u64::MAX);
        assert_eq!(c.comparisons, u64::MAX);
        assert_eq!(c.writes, 1);
    }

    #[test]
    fn display_includes_bytes_and_fault_counters() {
        let c = Counters {
            reads: 2,
            writes: 1,
            bytes_read: 3 * 1024 * 1024,
            bytes_written: 512,
            ..Counters::default()
        };
        let s = c.to_string();
        assert_eq!(s, "3 I/Os (2 reads, 1 writes, 3.0 MiB read, 512 B written)");
        let c2 = Counters {
            retries: 4,
            journal_writes: 2,
            redone_ios: 9,
            ..c
        };
        let s2 = c2.to_string();
        assert!(s2.contains("4 retries"), "{s2}");
        assert!(s2.contains("2 journal commits"), "{s2}");
        assert!(s2.contains("9 redone I/Os"), "{s2}");
    }

    #[test]
    fn paused_suppresses_counting() {
        let s = IoStats::new();
        s.paused(|| {
            s.record_read_block(0, 0, 0);
            s.record_write_block(0, 0, 0);
            // nesting
            s.paused(|| s.record_read_block(0, 1, 0));
            s.record_read_block(0, 2, 0);
        });
        s.record_read_block(0, 3, 0);
        assert_eq!(s.snapshot().total_ios(), 1);
    }

    #[test]
    fn phases_accumulate() {
        let s = IoStats::new();
        {
            let _p = s.phase_guard("scan");
            s.record_read_block(0, 0, 0);
            s.record_read_block(0, 1, 0);
        }
        {
            let _p = s.phase_guard("scan");
            s.record_read_block(0, 2, 0);
        }
        {
            let _p = s.phase_guard("merge");
            s.record_write_block(1, 0, 0);
        }
        let totals = s.phase_totals();
        assert_eq!(totals.len(), 2);
        let scan = totals.iter().find(|(n, _)| n == "scan").unwrap();
        assert_eq!(scan.1.reads, 3);
        let merge = totals.iter().find(|(n, _)| n == "merge").unwrap();
        assert_eq!(merge.1.writes, 1);
    }

    #[test]
    fn nested_phases_charge_both() {
        let s = IoStats::new();
        {
            let _outer = s.phase_guard("outer");
            s.record_read_block(0, 0, 0);
            let _inner = s.phase_guard("inner");
            s.record_read_block(0, 1, 0);
        }
        let totals = s.phase_totals();
        let reads = |name: &str| totals.iter().find(|(n, _)| n == name).unwrap().1.reads;
        assert_eq!(reads("inner"), 1);
        assert_eq!(reads("outer"), 2);
        assert_eq!(s.current_span_id(), 0);
        assert!(s.lock().scope_stacks.is_empty(), "both scopes closed");
    }

    #[test]
    fn phase_guard_closes_on_early_return() {
        let s = IoStats::new();
        let attempt = |fail: bool| -> Result<(), ()> {
            let _g = s.phase_guard("guarded");
            s.record_read_block(0, 0, 0);
            if fail {
                return Err(());
            }
            s.record_read_block(0, 1, 0);
            Ok(())
        };
        attempt(true).unwrap_err();
        attempt(false).unwrap();
        let totals = s.phase_totals();
        let g = totals.iter().find(|(n, _)| n == "guarded").unwrap();
        // Both attempts attributed, including the early-returning one.
        assert_eq!(g.1.reads, 3);
        assert!(
            s.lock().scope_stacks.is_empty(),
            "guards left no phase open"
        );
    }

    #[test]
    fn trace_span_disabled_is_inert_and_charges_nothing() {
        let s = IoStats::new();
        {
            let _t = s.trace_span(|| unreachable!("name closure must not run when disabled"));
            s.record_read_block(0, 0, 0);
        }
        assert!(s.phase_totals().is_empty());
        assert_eq!(s.snapshot().reads, 1);
    }

    #[test]
    fn trace_span_does_not_pollute_phase_totals() {
        use crate::trace::RingSink;
        let s = IoStats::new();
        let ring = RingSink::new(0);
        s.tracer().install(Box::new(ring.clone()), 0, 0);
        {
            let _p = s.phase_guard("charged");
            let _t = s.trace_span(|| "unit/0".into());
            s.record_read_block(0, 0, 0);
        }
        s.tracer().finish();
        let totals = s.phase_totals();
        assert_eq!(totals.len(), 1, "only the charged phase has a total");
        assert_eq!(totals[0].0, "charged");
        // ...but both appear as spans in the trace.
        let names: Vec<String> = ring
            .events()
            .iter()
            .filter_map(|e| match e {
                crate::trace::TraceEvent::SpanOpen { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(names, vec!["charged".to_string(), "unit/0".to_string()]);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = IoStats::new();
        s.record_read_block(0, 0, 8);
        {
            let _p = s.phase_guard("p");
            s.record_write_block(0, 0, 8);
        }
        s.reset();
        assert_eq!(s.snapshot(), Counters::default());
        assert!(s.phase_totals().is_empty());
    }

    #[test]
    fn retries_and_corrupt_reads_tracked() {
        let s = IoStats::new();
        s.add(Counter::Retries, 1);
        s.add(Counter::Retries, 1);
        s.add(Counter::CorruptReads, 1);
        s.paused(|| {
            s.add(Counter::Retries, 1);
            s.add(Counter::CorruptReads, 1);
        });
        let c = s.snapshot();
        assert_eq!(c.retries, 2);
        assert_eq!(c.corrupt_reads, 1);
        // Retries are not block I/Os.
        assert_eq!(c.total_ios(), 0);
    }

    #[test]
    fn journal_and_redo_counters_tracked() {
        let s = IoStats::new();
        s.add(Counter::JournalWrites, 1);
        s.record_redone_ios(7);
        s.paused(|| {
            s.add(Counter::JournalWrites, 1);
            s.record_redone_ios(5);
        });
        let c = s.snapshot();
        assert_eq!(c.journal_writes, 1);
        assert_eq!(c.redone_ios, 7);
        // Neither counter is a block transfer.
        assert_eq!(c.total_ios(), 0);
        let d = s.snapshot().since(&Counters::default());
        assert_eq!(d.journal_writes, 1);
        assert_eq!(d.redone_ios, 7);
    }

    #[test]
    fn comparisons_tracked() {
        let s = IoStats::new();
        s.add(Counter::Comparisons, 10);
        s.paused(|| s.add(Counter::Comparisons, 5));
        assert_eq!(s.snapshot().comparisons, 10);
    }

    #[test]
    fn physical_and_cache_counters_tracked() {
        let s = IoStats::new();
        s.record_read_block(0, 0, 0);
        s.add(Counter::PhysicalReads, 1);
        s.add(Counter::CacheMisses, 1);
        s.record_read_block(0, 0, 0);
        s.add(Counter::CacheHits, 1);
        s.record_write_block(0, 1, 0);
        s.add(Counter::PhysicalWrites, 1);
        let c = s.snapshot();
        assert_eq!(c.logical_ios(), c.total_ios());
        assert_eq!(c.logical_ios(), 3);
        assert_eq!(c.physical_ios(), 2);
        assert_eq!(c.cache_hits, 1);
        assert_eq!(c.cache_misses, 1);
        assert!((c.cache_hit_rate() - 0.5).abs() < 1e-12);
        // Cache counters never feed the model-charged totals.
        assert_eq!(c.reads, 2);
        assert_eq!(c.writes, 1);
    }

    #[test]
    fn cache_hit_rate_zero_when_disengaged() {
        let c = Counters::default();
        assert_eq!(c.cache_hit_rate(), 0.0);
    }

    #[test]
    fn counters_shared_across_threads() {
        let s = IoStats::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..250 {
                        s.record_read_block(t, i, 8);
                        s.add(Counter::Comparisons, 2);
                    }
                });
            }
        });
        let c = s.snapshot();
        assert_eq!(c.reads, 1000);
        assert_eq!(c.comparisons, 2000);
        assert_eq!(c.bytes_read, 8000);
    }

    #[test]
    fn phase_stacks_are_per_thread() {
        let s = IoStats::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    let _g = s.phase_guard("worker");
                    s.record_read_block(0, 0, 0);
                    // Nested phases stay LIFO within this thread even while
                    // other threads open/close their own.
                    let _inner = s.phase_guard("inner");
                    s.record_write_block(0, 0, 0);
                });
            }
        });
        // All scopes closed; totals conserve the global counters.
        assert!(s.lock().scope_stacks.is_empty());
        let c = s.snapshot();
        assert_eq!(c.reads, 4);
        assert_eq!(c.writes, 4);
    }

    #[test]
    fn iostats_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IoStats>();
        assert_send_sync::<Counters>();
    }
}
