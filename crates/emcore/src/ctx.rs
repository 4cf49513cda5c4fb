//! The execution context: model parameters + shared accounting + backing
//! store for block files.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::{Clock, WallClock};
use crate::config::EmConfig;
use crate::error::Result;
use crate::fault::{FaultPlan, RetryPolicy};
use crate::file::{EmFile, Writer};
use crate::governor::MemoryGovernor;
use crate::memory::{MemCharge, MemoryTracker, TrackedVec};
use crate::metrics::{Histogram, MetricsRegistry};
use crate::pool::BlockCache;
use crate::record::Record;
use crate::stats::{Counter, IoStats};
use crate::trace::{JsonlSink, PointKind, TraceSink, Tracer};

#[derive(Debug)]
pub(crate) enum Backing {
    Memory,
    Directory { dir: PathBuf, cleanup: bool },
}

#[derive(Debug)]
pub(crate) struct CtxInner {
    pub(crate) config: EmConfig,
    pub(crate) stats: IoStats,
    /// The trace channel shared with `stats` (spans are phases).
    pub(crate) tracer: Tracer,
    pub(crate) mem: MemoryTracker,
    /// Policy layer over the dynamic budget: admission-controlled leases
    /// with weighted fair shares (see [`crate::governor`]).
    pub(crate) governor: MemoryGovernor,
    pub(crate) backing: Backing,
    /// The shared buffer-pool block cache (disabled when
    /// [`EmConfig::cache_blocks`] is 0).
    pub(crate) cache: BlockCache,
    next_file_id: AtomicU64,
    /// Fast-path mirror of `fault_plan.is_some()`: the device layer checks
    /// this relaxed flag on every transfer and skips the plan mutex
    /// entirely when no faults are armed.
    pub(crate) fault_armed: std::sync::atomic::AtomicBool,
    pub(crate) fault_plan: Mutex<Option<FaultPlan>>,
    pub(crate) retry_policy: Mutex<RetryPolicy>,
    pub(crate) backoff_ticks: AtomicU64,
    /// Committed journal documents (keyed by journal name) and journal logs
    /// (keyed `<name>.<generation>.log`) on the memory backend; the
    /// directory backend stores both as files instead.
    journals: Mutex<HashMap<String, String>>,
    /// Live metrics. Disabled by default — mirroring the tracer, a
    /// disabled registry costs one branch per record site and a run is
    /// bit-identical to one without metrics at all.
    pub(crate) metrics: MetricsRegistry,
    /// Physical-transfer latency fed by the device layer (µs per
    /// [`crate::file`] `device_read`).
    pub(crate) device_read_us: Histogram,
    /// Physical-transfer latency per `device_write`.
    pub(crate) device_write_us: Histogram,
    /// The time source consumers (serve scheduler, samplers) should read.
    /// Swappable so tests install a [`crate::clock::ManualClock`].
    clock: Mutex<Arc<dyn Clock>>,
}

impl Drop for CtxInner {
    fn drop(&mut self) {
        if let Backing::Directory { dir, cleanup: true } = &self.backing {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// A handle to an external-memory "machine": the `(M, B)` configuration, the
/// I/O counters, the memory meter, and the backing store where block files
/// live. Clones share all state.
///
/// The handle is `Send + Sync`: clones can be moved to worker threads and
/// used concurrently. Counters are atomics or mutex-protected, so the
/// single-threaded fast path pays only uncontended-lock cost.
///
/// ```
/// use emcore::{EmConfig, EmContext};
///
/// let ctx = EmContext::new_in_memory(EmConfig::tiny());
/// let mut w = ctx.writer::<u64>().unwrap();
/// for x in 0..100u64 {
///     w.push(x).unwrap();
/// }
/// let f = w.finish().unwrap();
/// assert_eq!(f.len(), 100);
/// assert!(ctx.stats().snapshot().writes > 0);
/// ```
#[derive(Debug, Clone)]
pub struct EmContext {
    pub(crate) inner: Arc<CtxInner>,
}

impl EmContext {
    /// A context whose files live in host RAM (fast simulation). The memory
    /// meter records peaks but does not panic.
    pub fn new_in_memory(config: EmConfig) -> Self {
        Self::build(config, Backing::Memory, false, MetricsRegistry::new())
    }

    /// Like [`EmContext::new_in_memory`], but the context records into the
    /// caller-supplied `metrics` registry instead of a private one. A fleet
    /// of contexts (one per shard) built over the same registry shares
    /// every metric cell — `(name, labels)` dedup in
    /// `MetricsRegistry::child` makes the aggregation exact — so a single
    /// scrape tells the whole fleet's story.
    pub fn new_in_memory_with_metrics(config: EmConfig, metrics: MetricsRegistry) -> Self {
        Self::build(config, Backing::Memory, false, metrics)
    }

    /// Like [`EmContext::new_in_memory`], but the memory meter *panics* when
    /// live tracked memory exceeds `M` words. Unit tests of EM algorithms run
    /// in this mode to prove they stay within the model.
    pub fn new_in_memory_strict(config: EmConfig) -> Self {
        Self::build(config, Backing::Memory, true, MetricsRegistry::new())
    }

    /// A context whose files are real files inside `dir` (created if
    /// missing). The directory is left in place on drop; individual files
    /// are deleted as their handles drop.
    pub fn new_on_disk(config: EmConfig, dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self::build(
            config,
            Backing::Directory {
                dir,
                cleanup: false,
            },
            false,
            MetricsRegistry::new(),
        ))
    }

    /// Like [`EmContext::new_on_disk`], but recording into the
    /// caller-supplied `metrics` registry (see
    /// [`EmContext::new_in_memory_with_metrics`]).
    pub fn new_on_disk_with_metrics(
        config: EmConfig,
        dir: impl Into<PathBuf>,
        metrics: MetricsRegistry,
    ) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self::build(
            config,
            Backing::Directory {
                dir,
                cleanup: false,
            },
            false,
            metrics,
        ))
    }

    /// A context backed by a fresh unique temporary directory, removed when
    /// the last handle drops.
    pub fn new_on_disk_temp(config: EmConfig) -> Result<Self> {
        let mut dir = std::env::temp_dir();
        let unique = format!(
            "em-splitters-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        );
        dir.push(unique);
        std::fs::create_dir_all(&dir)?;
        Ok(Self::build(
            config,
            Backing::Directory { dir, cleanup: true },
            false,
            MetricsRegistry::new(),
        ))
    }

    fn build(config: EmConfig, backing: Backing, strict: bool, metrics: MetricsRegistry) -> Self {
        let stats = IoStats::new();
        let tracer = stats.tracer();
        let device_read_us = metrics.histogram(
            "em_device_read_us",
            "physical block-read latency in microseconds",
        );
        let device_write_us = metrics.histogram(
            "em_device_write_us",
            "physical block-write latency in microseconds",
        );
        Self {
            inner: Arc::new(CtxInner {
                config,
                stats,
                tracer,
                mem: MemoryTracker::new(config.mem_capacity(), strict),
                governor: MemoryGovernor::new(config.mem_capacity()),
                backing,
                cache: BlockCache::new(config.cache_blocks()),
                next_file_id: AtomicU64::new(0),
                fault_armed: std::sync::atomic::AtomicBool::new(false),
                fault_plan: Mutex::new(None),
                retry_policy: Mutex::new(RetryPolicy::NONE),
                backoff_ticks: AtomicU64::new(0),
                journals: Mutex::new(HashMap::new()),
                metrics,
                device_read_us,
                device_write_us,
                clock: Mutex::new(Arc::new(WallClock::new())),
            }),
        }
    }

    /// The model parameters.
    #[inline]
    pub fn config(&self) -> EmConfig {
        self.inner.config
    }

    /// The shared I/O counters.
    #[inline]
    pub fn stats(&self) -> &IoStats {
        &self.inner.stats
    }

    /// The shared memory meter.
    #[inline]
    pub fn mem(&self) -> &MemoryTracker {
        &self.inner.mem
    }

    /// The trace channel. Disabled (near-zero overhead) until a sink is
    /// installed via [`EmContext::set_trace_sink`] or
    /// [`EmContext::trace_to_file`].
    #[inline]
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// Install a trace sink and start a trace. The opening
    /// [`crate::TraceEvent::Begin`] records this machine's `(M, B)`.
    pub fn set_trace_sink(&self, sink: Box<dyn TraceSink>) {
        self.inner.tracer.install(
            sink,
            self.inner.config.mem_capacity() as u64,
            self.inner.config.block_size() as u64,
        );
    }

    /// Start streaming trace events to a JSONL file at `path` (one
    /// [`crate::TraceEvent`] per line). Trace writes are host-side
    /// observability output: they charge no I/O and consult no fault plan.
    pub fn trace_to_file(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        let sink = JsonlSink::create(path)?;
        self.set_trace_sink(Box::new(sink));
        Ok(())
    }

    /// End the current trace, if any: emit per-file access summaries and
    /// the end event, flush and drop the sink, disable tracing.
    pub fn finish_trace(&self) {
        self.inner.tracer.finish();
    }

    /// The live metrics registry shared by every layer running on this
    /// context. Disabled until [`crate::metrics::MetricsRegistry::set_enabled`];
    /// while disabled every record site is a single branch and the run is
    /// bit-identical to an uninstrumented one.
    #[inline]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// The time source consumers of this context should read (serve
    /// scheduler deadlines, metric sample timestamps). [`WallClock`] by
    /// default.
    pub fn clock(&self) -> Arc<dyn Clock> {
        lock_ok(&self.inner.clock).clone()
    }

    /// Swap the time source — tests install a
    /// [`crate::clock::ManualClock`] to drive deadline and cooldown logic
    /// deterministically. Consumers that cached the previous clock keep
    /// it; install before starting servers or samplers.
    pub fn set_clock(&self, clock: Arc<dyn Clock>) {
        *lock_ok(&self.inner.clock) = clock;
    }

    /// How many records of type `T` fit in memory: `M / T::WORDS`, where
    /// `M` is the **dynamic** budget (equal to
    /// [`EmConfig::mem_capacity`] until a governor squeeze re-points it via
    /// [`EmContext::set_mem_budget`]). Algorithms re-read this at phase
    /// boundaries, which is how they honor reclaim requests.
    #[inline]
    pub fn mem_records<T: Record>(&self) -> usize {
        self.inner.mem.capacity() / T::WORDS
    }

    /// The memory governor: admission-controlled leases over the dynamic
    /// budget with weighted fair shares.
    #[inline]
    pub fn governor(&self) -> &MemoryGovernor {
        &self.inner.governor
    }

    /// The current dynamic memory budget in words (starts at
    /// [`EmConfig::mem_capacity`]).
    #[inline]
    pub fn mem_budget(&self) -> usize {
        self.inner.mem.capacity()
    }

    /// Re-point the workspace memory budget mid-run — the governor's
    /// squeeze (shrink) / restore (grow) entry point.
    ///
    /// The request is clamped to the model floor `2B` words (the minimum
    /// [`EmConfig`] itself admits) and delivered to every layer at once:
    /// the strict tracker re-points its capacity (new charges above the
    /// budget fail typed, existing charges stay valid), the governor
    /// recomputes lease fair shares, and the block cache is shrunk or
    /// regrown in proportion (shedding unpinned frames, which the
    /// write-through device path keeps equal to the device's blocks).
    /// Running jobs observe the new budget at their next phase boundary.
    /// Returns the clamped budget that took effect.
    pub fn set_mem_budget(&self, words: usize) -> usize {
        let floor = self.inner.config.block_size() * 2;
        let words = words.max(floor);
        let prev = self.inner.mem.capacity();
        self.inner.mem.set_capacity(words);
        self.inner.governor.set_total(words);
        // Scale the frame budget with M so the layer beneath the model
        // participates in the squeeze too.
        let cache_full = self.inner.config.cache_blocks();
        if cache_full > 0 {
            let scaled = ((cache_full as u128 * words as u128)
                / self.inner.config.mem_capacity().max(1) as u128)
                as usize;
            self.inner.cache.set_capacity(scaled.clamp(1, cache_full));
        }
        if words < prev {
            self.inner.stats.add(Counter::MemReclaims, 1);
            self.inner.stats.trace_point(PointKind::Governor {
                event: "squeeze".into(),
                words: words as u64,
            });
        } else if words > prev {
            self.inner.stats.trace_point(PointKind::Governor {
                event: "restore".into(),
                words: words as u64,
            });
        }
        words
    }

    /// The shared buffer-pool block cache (inert unless the context was
    /// built with [`EmConfig::cache_blocks`] > 0).
    #[inline]
    pub fn cache(&self) -> &BlockCache {
        &self.inner.cache
    }

    /// Create an empty block file.
    pub fn create_file<T: Record>(&self) -> Result<EmFile<T>> {
        let id = self.inner.next_file_id.fetch_add(1, Ordering::Relaxed);
        EmFile::create(self.clone(), id)
    }

    /// Create a buffered writer building a fresh file. Fails if the backing
    /// store cannot create the file (or the device layer injects a fault).
    pub fn writer<T: Record>(&self) -> Result<Writer<T>> {
        Writer::new(self.clone())
    }

    /// Reopen an existing block file by id on the **directory backend** —
    /// the cross-process resume path. The file must hold `len` records of
    /// `T` (written by a previous context over the same directory); its
    /// size is validated against the block layout. The returned handle is
    /// [`EmFile::persistent`], so dropping it does not delete the data, and
    /// `next_file_id` is bumped past `id` so fresh files cannot collide.
    pub fn open_file<T: Record>(&self, id: u64, len: u64) -> Result<EmFile<T>> {
        if matches!(self.inner.backing, Backing::Memory) {
            return Err(crate::error::EmError::config(
                "open_file: cross-process reopen requires a directory-backed context",
            ));
        }
        self.inner.next_file_id.fetch_max(id + 1, Ordering::Relaxed);
        EmFile::open_existing(self.clone(), id, len)
    }

    /// Ids of all `em-*.bin` block files present in the backing directory
    /// (empty on the memory backend, whose files live only in handles).
    pub fn list_file_ids(&self) -> Result<Vec<u64>> {
        let Backing::Directory { dir, .. } = &self.inner.backing else {
            return Ok(Vec::new());
        };
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if let Some(id) = parse_block_file_name(&entry.file_name()) {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    /// Remove block files in the backing directory whose id is not in
    /// `keep`, plus any stale `*.journal.tmp` left by an interrupted
    /// journal commit. Returns the ids of the removed block files.
    ///
    /// This is the resume-time orphan sweep: after a crash, temporary files
    /// of the interrupted attempt may survive on disk without being
    /// referenced by any journal. Callers must list *every* live file
    /// (journaled manifest files plus independently-opened inputs) — the
    /// sweep assumes one job per backing directory.
    pub fn gc_orphans(&self, keep: &[u64]) -> Result<Vec<u64>> {
        let Backing::Directory { dir, .. } = &self.inner.backing else {
            return Ok(Vec::new());
        };
        let mut removed = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            if let Some(id) = parse_block_file_name(&name) {
                if !keep.contains(&id) {
                    std::fs::remove_file(entry.path())?;
                    removed.push(id);
                }
            } else if name.to_string_lossy().ends_with(".journal.tmp") {
                std::fs::remove_file(entry.path())?;
            }
        }
        removed.sort_unstable();
        Ok(removed)
    }

    pub(crate) fn journal_get(&self, name: &str) -> Option<String> {
        lock_ok(&self.inner.journals).get(name).cloned()
    }

    pub(crate) fn journal_put(&self, name: &str, doc: String) {
        lock_ok(&self.inner.journals).insert(name.into(), doc);
    }

    pub(crate) fn journal_remove(&self, name: &str) {
        lock_ok(&self.inner.journals).remove(name);
    }

    pub(crate) fn journal_append(&self, name: &str, text: &str) {
        lock_ok(&self.inner.journals)
            .entry(name.into())
            .or_default()
            .push_str(text);
    }

    pub(crate) fn journal_retain(&self, keep: impl FnMut(&String, &mut String) -> bool) {
        lock_ok(&self.inner.journals).retain(keep);
    }

    /// Install a [`FaultPlan`]: every subsequent block transfer on this
    /// context (both backends) consults the plan. Pass a clone and keep one
    /// handle to inspect [`FaultPlan::injected`] or to
    /// [`FaultPlan::clear_crash`].
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        *lock_ok(&self.inner.fault_plan) = Some(plan);
        self.inner
            .fault_armed
            .store(true, std::sync::atomic::Ordering::Relaxed);
    }

    /// Remove any installed fault plan.
    pub fn clear_fault_plan(&self) {
        *lock_ok(&self.inner.fault_plan) = None;
        self.inner
            .fault_armed
            .store(false, std::sync::atomic::Ordering::Relaxed);
    }

    /// The installed fault plan, if any. A relaxed armed-flag check keeps
    /// the no-faults case lock-free on the per-transfer path.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        if !self
            .inner
            .fault_armed
            .load(std::sync::atomic::Ordering::Relaxed)
        {
            return None;
        }
        lock_ok(&self.inner.fault_plan).clone()
    }

    /// Set the retry policy applied to every block transfer.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *lock_ok(&self.inner.retry_policy) = policy;
    }

    /// The current retry policy.
    #[inline]
    pub fn retry_policy(&self) -> RetryPolicy {
        *lock_ok(&self.inner.retry_policy)
    }

    /// Virtual backoff ticks accumulated by retried I/Os (see
    /// [`RetryPolicy`]).
    pub fn backoff_ticks(&self) -> u64 {
        self.inner.backoff_ticks.load(Ordering::Relaxed)
    }

    pub(crate) fn note_backoff(&self, ticks: u64) {
        self.inner.backoff_ticks.fetch_add(ticks, Ordering::Relaxed);
    }

    /// Run `f` as an *oracle*: I/O accounting is paused and fault injection
    /// is suspended, so verification scans neither show up in [`IoStats`]
    /// nor consume the fault schedule. A pending crash still blocks I/O.
    pub fn oracle<R>(&self, f: impl FnOnce() -> R) -> R {
        let plan = self.fault_plan();
        match plan {
            Some(p) => self.inner.stats.paused(|| p.suspended(f)),
            None => self.inner.stats.paused(f),
        }
    }

    /// The backing directory for file-backed contexts (`None` in memory).
    pub fn backing_dir(&self) -> Option<PathBuf> {
        match &self.inner.backing {
            Backing::Memory => None,
            Backing::Directory { dir, .. } => Some(dir.clone()),
        }
    }

    /// Allocate a memory-metered buffer of `cap` records of `T`.
    ///
    /// # Panics
    ///
    /// In strict mode, panics on a budget violation; algorithm code should
    /// prefer [`EmContext::try_tracked_vec`].
    pub fn tracked_vec<T: Record>(&self, cap: usize, context: &str) -> TrackedVec<T> {
        TrackedVec::with_capacity(&self.inner.mem, cap, T::WORDS, context)
    }

    /// Allocate a memory-metered buffer of `cap` plain words (for
    /// bookkeeping arrays: counts, ranks, flags...).
    ///
    /// # Panics
    ///
    /// In strict mode, panics on a budget violation; algorithm code should
    /// prefer [`EmContext::try_tracked_words`].
    pub fn tracked_words<T>(&self, cap: usize, context: &str) -> TrackedVec<T> {
        TrackedVec::with_capacity(&self.inner.mem, cap, 1, context)
    }

    /// Allocate a memory-metered buffer of `cap` items charged at an
    /// explicit `words_per_item` (for composite bookkeeping entries that
    /// are not themselves [`Record`]s).
    ///
    /// # Panics
    ///
    /// In strict mode, panics on a budget violation; algorithm code should
    /// prefer [`EmContext::try_tracked_buf`].
    pub fn tracked_buf<T>(
        &self,
        cap: usize,
        words_per_item: usize,
        context: &str,
    ) -> TrackedVec<T> {
        TrackedVec::with_capacity(&self.inner.mem, cap, words_per_item, context)
    }

    /// Fallible variant of [`EmContext::tracked_vec`]: a strict budget
    /// violation comes back as [`crate::EmError::MemoryExceeded`] (and is
    /// counted in [`crate::Counters::mem_denials`]) instead of panicking.
    pub fn try_tracked_vec<T: Record>(&self, cap: usize, context: &str) -> Result<TrackedVec<T>> {
        self.note_denial(TrackedVec::try_with_capacity(
            &self.inner.mem,
            cap,
            T::WORDS,
            context,
        ))
    }

    /// [`EmContext::try_tracked_vec`] for a working buffer that may come
    /// out smaller than asked: request `want` records, halving the request
    /// on a budget rejection down to `floor`, and return the buffer with
    /// the capacity it got. Under a governor squeeze or tenant contention
    /// the caller degrades (shorter runs, narrower windows) instead of
    /// failing; only a budget too small for `floor` records surfaces the
    /// typed [`crate::EmError::MemoryExceeded`].
    pub fn try_tracked_vec_halving<T: Record>(
        &self,
        want: usize,
        floor: usize,
        context: &str,
    ) -> Result<(TrackedVec<T>, usize)> {
        let mut cap = want.max(floor);
        loop {
            match self.try_tracked_vec::<T>(cap, context) {
                Ok(v) => return Ok((v, cap)),
                Err(crate::error::EmError::MemoryExceeded { .. }) if cap > floor => {
                    cap = (cap / 2).max(floor);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Fallible variant of [`EmContext::tracked_words`].
    pub fn try_tracked_words<T>(&self, cap: usize, context: &str) -> Result<TrackedVec<T>> {
        self.note_denial(TrackedVec::try_with_capacity(
            &self.inner.mem,
            cap,
            1,
            context,
        ))
    }

    /// Fallible variant of [`EmContext::tracked_buf`].
    pub fn try_tracked_buf<T>(
        &self,
        cap: usize,
        words_per_item: usize,
        context: &str,
    ) -> Result<TrackedVec<T>> {
        self.note_denial(TrackedVec::try_with_capacity(
            &self.inner.mem,
            cap,
            words_per_item,
            context,
        ))
    }

    /// Fallible raw charge of `words` bookkeeping words against the dynamic
    /// budget (the [`Result`] twin of `ctx.mem().charge(..)`), counting
    /// denials in stats.
    pub fn try_charge_words(&self, words: usize, context: &str) -> Result<MemCharge> {
        self.note_denial(self.inner.mem.try_charge(words, context))
    }

    /// Count a strict-mode memory denial in stats, passing the result
    /// through (typed denials are observable, not silent).
    fn note_denial<T>(&self, r: Result<T>) -> Result<T> {
        if let Err(crate::error::EmError::MemoryExceeded { .. }) = &r {
            self.inner.stats.add(Counter::MemDenials, 1);
        }
        r
    }

    pub(crate) fn file_path(&self, id: u64) -> Option<PathBuf> {
        match &self.inner.backing {
            Backing::Memory => None,
            Backing::Directory { dir, .. } => Some(dir.join(format!("em-{id:08}.bin"))),
        }
    }
}

/// Lock a mutex, recovering the data from a poisoned lock (a panicking
/// worker must not wedge the shared context for everyone else).
fn lock_ok<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Parse `em-<id>.bin` back to its id (inverse of [`EmContext::file_path`]).
fn parse_block_file_name(name: &std::ffi::OsStr) -> Option<u64> {
    let s = name.to_str()?;
    s.strip_prefix("em-")?.strip_suffix(".bin")?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halving_allocation_degrades_then_fails_typed() {
        let ctx = EmContext::new_in_memory_strict(EmConfig::tiny()); // M = 256
        let _held = ctx.mem().charge(100, "held");
        // 200 is refused, 100 fits next to the held 100 words.
        let (v, cap) = ctx.try_tracked_vec_halving::<u64>(200, 16, "t").unwrap();
        assert_eq!((cap, v.charged_words()), (100, 100));
        assert_eq!(ctx.stats().snapshot().mem_denials, 1);
        // Nothing left for the floor: the typed error surfaces.
        assert!(matches!(
            ctx.try_tracked_vec_halving::<u64>(64, 64, "t"),
            Err(crate::error::EmError::MemoryExceeded { .. })
        ));
    }

    #[test]
    fn clones_share_stats() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let ctx2 = ctx.clone();
        ctx.stats().add(Counter::Comparisons, 3);
        assert_eq!(ctx2.stats().snapshot().comparisons, 3);
    }

    #[test]
    fn mem_records_scales_with_record_width() {
        let ctx = EmContext::new_in_memory(EmConfig::new(1000, 10).unwrap());
        assert_eq!(ctx.mem_records::<u64>(), 1000);
        assert_eq!(ctx.mem_records::<crate::record::KeyValue>(), 500);
    }

    #[test]
    fn temp_dir_cleanup() {
        let dir;
        {
            let ctx = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
            dir = match &ctx.inner.backing {
                Backing::Directory { dir, .. } => dir.clone(),
                _ => unreachable!(),
            };
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "temp dir should be removed on drop");
    }

    #[test]
    fn contexts_share_a_supplied_metrics_registry() {
        let registry = MetricsRegistry::new();
        registry.set_enabled(true);
        let a = EmContext::new_in_memory_with_metrics(EmConfig::tiny(), registry.clone());
        let b = EmContext::new_in_memory_with_metrics(EmConfig::tiny(), registry.clone());
        // Both contexts registered the same device histograms; their
        // samples land in the same cells of the shared registry.
        a.inner.device_read_us.record(10);
        b.inner.device_read_us.record(20);
        let snap = registry.snapshot(0);
        let s = snap
            .find("em_device_read_us", &[])
            .expect("shared family registered once");
        assert_eq!(s.hist.as_ref().unwrap().count(), 2);
    }

    #[test]
    fn context_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EmContext>();
    }

    #[test]
    fn file_ids_unique_across_threads() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let mut ids: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let ctx = ctx.clone();
                    s.spawn(move || {
                        (0..25)
                            .map(|_| ctx.create_file::<u64>().unwrap().id())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 100, "no two files may share an id");
    }

    #[test]
    fn on_disk_creates_dir_and_keeps_it() {
        let base = std::env::temp_dir().join(format!("emcore-test-{}", std::process::id()));
        {
            let _ctx = EmContext::new_on_disk(EmConfig::tiny(), &base).unwrap();
            assert!(base.exists());
        }
        assert!(base.exists());
        std::fs::remove_dir_all(&base).unwrap();
    }
}
