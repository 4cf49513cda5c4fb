//! Live metrics: atomic counters, gauges, and log-linear latency
//! histograms behind an [`MetricsRegistry`], plus a background
//! [`Sampler`] that snapshots the registry into a JSONL time series.
//!
//! The trace subsystem ([`crate::trace`]) answers *"what happened?"*
//! after a run; this module answers *"what is happening?"* during one —
//! p99 latency right now, how full the batches are, whether a breaker is
//! flapping. The design contract mirrors the tracer's:
//!
//! * **Off by default, one branch when off.** Every instrument handle
//!   shares the registry's enabled flag; a `record()`/`inc()`/`set()`
//!   on a disabled registry is a single relaxed atomic load and an early
//!   return — no allocation, no locks, no time reads. A run with metrics
//!   disabled is bit-identical (I/O counters, outputs) to one on a build
//!   that never heard of metrics.
//! * **Lock-free hot path when on.** Recording is one relaxed
//!   `fetch_add` on a pre-registered atomic (the histogram bucket, the
//!   counter cell). The registry's mutex is touched only at registration
//!   and snapshot time.
//! * **Mergeable, saturating histograms.** The fixed log-linear bucket
//!   layout (HDR-style: [`SUB`] linear sub-buckets per power of two,
//!   [`HIST_BUCKETS`] total) covers the full `u64` range, so
//!   `record(u64::MAX)` lands in the top bucket instead of panicking,
//!   and any two snapshots — from different processes, runs, or points
//!   in time — merge by bucket-wise addition.
//!
//! Timestamps come from a [`Clock`] so tests drive
//! a [`ManualClock`](crate::clock::ManualClock) deterministically.
//! Snapshots serialize with the same hand-rolled JSONL codec the tracer
//! uses (one flat object per metric sample per tick) and render back
//! into per-metric summaries via [`render_series_report`]. A
//! Prometheus-style text exposition ([`MetricsRegistry::expose`]) backs
//! the serve protocol's `metrics` verb.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use crate::clock::Clock;
use crate::error::{EmError, Result};
use crate::trace::{get_num_or_zero, get_str, parse_object, JVal, JsonObj};

// ---------------------------------------------------------------------------
// Bucket geometry
// ---------------------------------------------------------------------------

/// Linear sub-buckets per power-of-two range (`2^SUB_BITS`).
const SUB_BITS: u32 = 3;
/// Sub-bucket count: values below `SUB` get one bucket each.
pub const SUB: usize = 1 << SUB_BITS;
/// Total buckets in the fixed log-linear layout: `SUB` unit buckets for
/// values `0..SUB`, then `SUB` sub-buckets for every power-of-two range
/// `[2^k, 2^{k+1})`, `k = SUB_BITS..=63`. Covers all of `u64`.
pub const HIST_BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// The bucket a value lands in. Total over `u64`; power-of-two values
/// land exactly on a bucket's lower bound (see [`bucket_floor`]).
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (msb - SUB_BITS as usize)) & (SUB as u64 - 1)) as usize;
        SUB + (msb - SUB_BITS as usize) * SUB + sub
    }
}

/// The smallest value that maps to bucket `i` — the value a percentile
/// query reports for samples in that bucket (a lower bound, so reported
/// quantiles never exceed the true ones). Relative error is bounded by
/// `2^-SUB_BITS` (12.5%).
pub fn bucket_floor(i: usize) -> u64 {
    debug_assert!(i < HIST_BUCKETS);
    if i < SUB {
        i as u64
    } else {
        let d = i - SUB;
        let msb = SUB_BITS as usize + d / SUB;
        let sub = (d % SUB) as u64;
        (1u64 << msb) + (sub << (msb - SUB_BITS as usize))
    }
}

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// What a registered metric is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone non-decreasing event count.
    Counter,
    /// A point-in-time level, overwritten by [`Gauge::set`].
    Gauge,
    /// A log-linear value distribution ([`Histogram::record`]).
    Histogram,
}

impl MetricKind {
    /// Stable lowercase label (JSONL field, schema files).
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }

    fn from_label(s: &str) -> Option<Self> {
        match s {
            "counter" => Some(MetricKind::Counter),
            "gauge" => Some(MetricKind::Gauge),
            "histogram" => Some(MetricKind::Histogram),
            _ => None,
        }
    }

    /// The `# TYPE` token in the Prometheus exposition (histograms are
    /// exposed as quantile summaries).
    pub fn exposition_type(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "summary",
        }
    }
}

#[derive(Debug)]
struct ScalarCell {
    enabled: Arc<AtomicBool>,
    value: AtomicU64,
}

/// A monotone event counter. Cloning shares the cell; recording on a
/// disabled registry is one branch.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<ScalarCell>,
}

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if !self.cell.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.cell.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.cell.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time level. Cloning shares the cell.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<ScalarCell>,
}

impl Gauge {
    /// Overwrite the level.
    #[inline]
    pub fn set(&self, v: u64) {
        if !self.cell.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.cell.value.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn value(&self) -> u64 {
        self.cell.value.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCell {
    enabled: Arc<AtomicBool>,
    buckets: Box<[AtomicU64]>,
}

/// A log-linear value distribution with the fixed [`HIST_BUCKETS`]
/// layout. Cloning shares the cell; `record` is one branch + one
/// relaxed `fetch_add` — no locks, no allocation, total over `u64`.
#[derive(Debug, Clone)]
pub struct Histogram {
    cell: Arc<HistogramCell>,
}

impl Histogram {
    /// Record one observation of `v`.
    #[inline]
    pub fn record(&self, v: u64) {
        if !self.cell.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.cell.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = BTreeMap::new();
        for (i, b) in self.cell.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c != 0 {
                buckets.insert(i, c);
            }
        }
        HistogramSnapshot { buckets }
    }
}

/// A frozen histogram: sparse bucket → count map. Mergeable (bucket-wise
/// saturating addition — associative and commutative) and serializable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Non-empty buckets: layout index ([`bucket_floor`]) → sample count.
    pub buckets: BTreeMap<usize, u64>,
}

impl HistogramSnapshot {
    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets
            .values()
            .fold(0u64, |a, &c| a.saturating_add(c))
    }

    /// Fold `other` into `self` (bucket-wise saturating add).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (&i, &c) in &other.buckets {
            let e = self.buckets.entry(i).or_insert(0);
            *e = e.saturating_add(c);
        }
    }

    /// The value at percentile `p` (0–100): the [`bucket_floor`] of the
    /// bucket holding the `ceil(p/100 · count)`-th smallest sample.
    /// Monotone in `p`; 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((p / 100.0) * count as f64).ceil().clamp(1.0, count as f64) as u64;
        let mut cum = 0u64;
        for (&i, &c) in &self.buckets {
            cum = cum.saturating_add(c);
            if cum >= target {
                return bucket_floor(i);
            }
        }
        self.max()
    }

    /// Lower bound of the largest recorded sample (the floor of the
    /// highest non-empty bucket); 0 when empty.
    pub fn max(&self) -> u64 {
        self.buckets
            .keys()
            .next_back()
            .map(|&i| bucket_floor(i))
            .unwrap_or(0)
    }

    /// The counts newly recorded since `earlier` (bucket-wise saturating
    /// subtraction) — e.g. the distribution of one run phase between two
    /// snapshots of a cumulative histogram.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = BTreeMap::new();
        for (&i, &c) in &self.buckets {
            let prev = earlier.buckets.get(&i).copied().unwrap_or(0);
            let d = c.saturating_sub(prev);
            if d != 0 {
                buckets.insert(i, d);
            }
        }
        HistogramSnapshot { buckets }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Child {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Family {
    kind: MetricKind,
    help: String,
    /// Canonical label string → (label pairs, instrument).
    children: BTreeMap<String, (Vec<(String, String)>, Child)>,
}

#[derive(Debug)]
struct RegistryInner {
    enabled: Arc<AtomicBool>,
    families: Mutex<BTreeMap<String, Family>>,
}

/// The shared metric store: register instruments once (cold, under a
/// mutex), record through the returned handles (hot, lock-free), then
/// [`MetricsRegistry::snapshot`] or [`MetricsRegistry::expose`] the
/// whole thing. Clones share state. Disabled (the default) until
/// [`MetricsRegistry::set_enabled`] — see the module docs for the
/// overhead contract.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

fn label_key(labels: &[(String, String)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        crate::trace::escape_json(v, &mut out);
        out.push('"');
    }
    out
}

impl MetricsRegistry {
    /// A fresh, disabled registry.
    pub fn new() -> Self {
        MetricsRegistry {
            inner: Arc::new(RegistryInner {
                enabled: Arc::new(AtomicBool::new(false)),
                families: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Whether recording is live.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off. Existing handles observe the flip; the
    /// stored values are retained across an off/on cycle.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::SeqCst);
    }

    fn child(&self, name: &str, help: &str, kind: MetricKind, labels: &[(&str, &str)]) -> Child {
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let key = label_key(&labels);
        let mut fams = self.inner.families.lock().expect("metrics registry lock");
        let fam = fams.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: help.to_string(),
            children: BTreeMap::new(),
        });
        assert!(
            fam.kind == kind,
            "metric {name:?} registered as {} and {}",
            fam.kind.label(),
            kind.label()
        );
        let enabled = self.inner.enabled.clone();
        let (_, child) = fam.children.entry(key).or_insert_with(|| {
            let child = match kind {
                MetricKind::Counter => Child::Counter(Counter {
                    cell: Arc::new(ScalarCell {
                        enabled,
                        value: AtomicU64::new(0),
                    }),
                }),
                MetricKind::Gauge => Child::Gauge(Gauge {
                    cell: Arc::new(ScalarCell {
                        enabled,
                        value: AtomicU64::new(0),
                    }),
                }),
                MetricKind::Histogram => Child::Histogram(Histogram {
                    cell: Arc::new(HistogramCell {
                        enabled,
                        buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                    }),
                }),
            };
            (labels, child)
        });
        child.clone()
    }

    /// Register (or re-fetch) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Register (or re-fetch) a labeled counter. Same `(name, labels)`
    /// always yields a handle to the same cell.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.child(name, help, MetricKind::Counter, labels) {
            Child::Counter(c) => c,
            _ => unreachable!("kind checked in child()"),
        }
    }

    /// Register (or re-fetch) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Register (or re-fetch) a labeled gauge.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.child(name, help, MetricKind::Gauge, labels) {
            Child::Gauge(g) => g,
            _ => unreachable!("kind checked in child()"),
        }
    }

    /// Register (or re-fetch) an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// Register (or re-fetch) a labeled histogram.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.child(name, help, MetricKind::Histogram, labels) {
            Child::Histogram(h) => h,
            _ => unreachable!("kind checked in child()"),
        }
    }

    /// Freeze every registered instrument at `t_us` (a [`Clock`]
    /// reading).
    pub fn snapshot(&self, t_us: u64) -> MetricsSnapshot {
        let fams = self.inner.families.lock().expect("metrics registry lock");
        let mut samples = Vec::new();
        for (name, fam) in fams.iter() {
            for (labels, child) in fam.children.values() {
                let (value, hist) = match child {
                    Child::Counter(c) => (c.value(), None),
                    Child::Gauge(g) => (g.value(), None),
                    Child::Histogram(h) => {
                        let s = h.snapshot();
                        (s.count(), Some(s))
                    }
                };
                samples.push(MetricSample {
                    name: name.clone(),
                    kind: fam.kind,
                    labels: labels.clone(),
                    value,
                    hist,
                });
            }
        }
        MetricsSnapshot { t_us, samples }
    }

    /// Prometheus-style text exposition: `# HELP`/`# TYPE` headers per
    /// family, one line per child (histograms as quantile summaries with
    /// `_count`/`_max` companions). Stable order (families and children
    /// sorted by name/labels).
    pub fn expose(&self) -> String {
        let fams = self.inner.families.lock().expect("metrics registry lock");
        let mut out = String::new();
        for (name, fam) in fams.iter() {
            out.push_str(&format!("# HELP {name} {}\n", fam.help));
            out.push_str(&format!("# TYPE {name} {}\n", fam.kind.exposition_type()));
            for (key, (_, child)) in &fam.children {
                let braced = |extra: &str| -> String {
                    match (key.is_empty(), extra.is_empty()) {
                        (true, true) => String::new(),
                        (true, false) => format!("{{{extra}}}"),
                        (false, true) => format!("{{{key}}}"),
                        (false, false) => format!("{{{key},{extra}}}"),
                    }
                };
                match child {
                    Child::Counter(c) => {
                        out.push_str(&format!("{name}{} {}\n", braced(""), c.value()));
                    }
                    Child::Gauge(g) => {
                        out.push_str(&format!("{name}{} {}\n", braced(""), g.value()));
                    }
                    Child::Histogram(h) => {
                        let s = h.snapshot();
                        for (q, p) in [
                            ("0.5", 50.0),
                            ("0.9", 90.0),
                            ("0.99", 99.0),
                            ("0.999", 99.9),
                        ] {
                            out.push_str(&format!(
                                "{name}{} {}\n",
                                braced(&format!("quantile=\"{q}\"")),
                                s.percentile(p)
                            ));
                        }
                        out.push_str(&format!("{name}_count{} {}\n", braced(""), s.count()));
                        out.push_str(&format!("{name}_max{} {}\n", braced(""), s.max()));
                    }
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Snapshots ↔ JSONL
// ---------------------------------------------------------------------------

/// One frozen instrument inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSample {
    /// Family name (e.g. `em_serve_query_e2e_us`).
    pub name: String,
    /// Family kind.
    pub kind: MetricKind,
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// Counter/gauge value; for histograms, the total sample count.
    pub value: u64,
    /// The distribution (histograms only).
    pub hist: Option<HistogramSnapshot>,
}

impl MetricSample {
    /// The canonical `k="v",…` label string (empty when unlabeled).
    pub fn label_key(&self) -> String {
        label_key(&self.labels)
    }

    /// One JSONL line (no trailing newline). Labels are flattened to
    /// `l_<key>` string fields; histogram buckets to parallel
    /// `bidx`/`bcnt` arrays — the same flat-object codec the tracer
    /// uses.
    pub fn to_json(&self, t_us: u64) -> String {
        let mut o = JsonObj::new("metric");
        o.num("t_us", t_us)
            .str_("name", &self.name)
            .str_("kind", self.kind.label());
        for (k, v) in &self.labels {
            o.str_(&format!("l_{k}"), v);
        }
        o.num("value", self.value);
        if let Some(h) = &self.hist {
            let idx: Vec<u64> = h.buckets.keys().map(|&i| i as u64).collect();
            let cnt: Vec<u64> = h.buckets.values().copied().collect();
            o.arr("bidx", &idx).arr("bcnt", &cnt);
        }
        o.finish()
    }

    /// Parse one line produced by [`MetricSample::to_json`]; returns the
    /// timestamp and the sample.
    pub fn parse(line: &str) -> std::result::Result<(u64, MetricSample), String> {
        let map = parse_object(line)?;
        let e = get_str(&map, "e")?;
        if e != "metric" {
            return Err(format!("not a metric line (e={e:?})"));
        }
        let kind_label = get_str(&map, "kind")?;
        let kind = MetricKind::from_label(&kind_label)
            .ok_or_else(|| format!("unknown metric kind {kind_label:?}"))?;
        let mut labels = Vec::new();
        for (k, v) in map.iter() {
            if let (Some(name), JVal::Str(s)) = (k.strip_prefix("l_"), v) {
                labels.push((name.to_string(), s.clone()));
            }
        }
        let hist = if kind == MetricKind::Histogram {
            let idx = match map.get("bidx") {
                Some(JVal::Arr(v)) => v.clone(),
                _ => Vec::new(),
            };
            let cnt = match map.get("bcnt") {
                Some(JVal::Arr(v)) => v.clone(),
                _ => Vec::new(),
            };
            if idx.len() != cnt.len() {
                return Err(format!(
                    "bidx/bcnt length mismatch: {} vs {}",
                    idx.len(),
                    cnt.len()
                ));
            }
            let mut buckets = BTreeMap::new();
            for (&i, &c) in idx.iter().zip(&cnt) {
                if i as usize >= HIST_BUCKETS {
                    return Err(format!("bucket index {i} out of range"));
                }
                buckets.insert(i as usize, c);
            }
            Some(HistogramSnapshot { buckets })
        } else {
            None
        };
        Ok((
            get_num_or_zero(&map, "t_us"),
            MetricSample {
                name: get_str(&map, "name")?,
                kind,
                labels,
                value: get_num_or_zero(&map, "value"),
                hist,
            },
        ))
    }
}

/// Everything a registry held at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// The [`Clock`] reading the snapshot was taken at.
    pub t_us: u64,
    /// One entry per registered (name, labels) instrument.
    pub samples: Vec<MetricSample>,
}

impl MetricsSnapshot {
    /// Serialize as JSONL: one line per sample, trailing newline.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            out.push_str(&s.to_json(self.t_us));
            out.push('\n');
        }
        out
    }

    /// The first sample matching `name` (and `labels` when non-empty:
    /// every given pair must be present on the sample).
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricSample> {
        self.samples.iter().find(|s| {
            s.name == name
                && labels
                    .iter()
                    .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
        })
    }

    /// Sum of `value` over every sample of family `name` (for a
    /// histogram family: total recorded observations across children).
    pub fn family_total(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .fold(0u64, |a, s| a.saturating_add(s.value))
    }
}

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

/// A background thread that appends a [`MetricsSnapshot`] of a registry
/// to a JSONL file on a fixed interval (timestamps from the given
/// [`Clock`]). Stop it with [`Sampler::stop`] to flush and surface any
/// write error; dropping it stops best-effort.
#[derive(Debug)]
pub struct Sampler {
    stop: mpsc::Sender<()>,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Sampler {
    /// Start sampling `registry` every `interval` into the JSONL file at
    /// `path` (created/truncated). A disabled registry is not sampled —
    /// ticks are skipped until it is enabled. A final snapshot is
    /// written on [`Sampler::stop`].
    pub fn to_file(
        registry: MetricsRegistry,
        clock: Arc<dyn Clock>,
        interval: Duration,
        path: impl AsRef<std::path::Path>,
    ) -> Result<Sampler> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        let (stop, stop_rx) = mpsc::channel::<()>();
        let interval = interval.max(Duration::from_millis(1));
        let handle = std::thread::spawn(move || -> std::io::Result<()> {
            let tick = |w: &mut std::io::BufWriter<std::fs::File>| -> std::io::Result<()> {
                if registry.enabled() {
                    let snap = registry.snapshot(clock.now_us());
                    w.write_all(snap.to_jsonl().as_bytes())?;
                    w.flush()?;
                }
                Ok(())
            };
            loop {
                match stop_rx.recv_timeout(interval) {
                    Err(mpsc::RecvTimeoutError::Timeout) => tick(&mut w)?,
                    Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => {
                        tick(&mut w)?;
                        return Ok(());
                    }
                }
            }
        });
        Ok(Sampler {
            stop,
            handle: Some(handle),
        })
    }

    /// Write a final snapshot, flush, and join the thread. Errors from
    /// any write along the way surface here.
    pub fn stop(mut self) -> Result<()> {
        let _ = self.stop.send(());
        let handle = self.handle.take().expect("sampler joined once");
        match handle.join() {
            Ok(r) => r.map_err(EmError::from),
            Err(_) => Err(EmError::unavailable("metrics sampler thread panicked")),
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        let _ = self.stop.send(());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Series report (the `emsplit metrics-report` renderer)
// ---------------------------------------------------------------------------

struct Series {
    kind: MetricKind,
    first_t: u64,
    last_t: u64,
    first: u64,
    last: u64,
    min: u64,
    max: u64,
    ticks: u64,
    hist: Option<HistogramSnapshot>,
}

/// Render a sampler JSONL series into per-metric summaries: counters get
/// first/last/delta, gauges get last/min/max, histograms get a
/// percentile table (p50/p90/p99/p99.9/max) from their final snapshot.
/// Errors on the first malformed line.
pub fn render_series_report(input: &str) -> std::result::Result<String, String> {
    let mut series: BTreeMap<String, Series> = BTreeMap::new();
    let mut lines = 0u64;
    for (no, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let (t, s) = MetricSample::parse(line).map_err(|e| format!("line {}: {e}", no + 1))?;
        lines += 1;
        let label = s.label_key();
        let id = if label.is_empty() {
            s.name.clone()
        } else {
            format!("{}{{{label}}}", s.name)
        };
        let e = series.entry(id).or_insert(Series {
            kind: s.kind,
            first_t: t,
            last_t: t,
            first: s.value,
            last: s.value,
            min: s.value,
            max: s.value,
            ticks: 0,
            hist: None,
        });
        e.ticks += 1;
        e.last_t = t;
        e.last = s.value;
        e.min = e.min.min(s.value);
        e.max = e.max.max(s.value);
        if s.kind == MetricKind::Histogram {
            e.hist = s.hist;
        }
    }
    if lines == 0 {
        return Err("empty metrics series".into());
    }
    let span_us = series
        .values()
        .map(|s| s.last_t.saturating_sub(s.first_t))
        .max()
        .unwrap_or(0);
    let mut out = format!(
        "# metrics report — {lines} samples, {} series, span {} ms\n",
        series.len(),
        span_us / 1000
    );
    for (kind, title) in [
        (MetricKind::Counter, "counters"),
        (MetricKind::Gauge, "gauges"),
        (MetricKind::Histogram, "histograms"),
    ] {
        let group: Vec<(&String, &Series)> =
            series.iter().filter(|(_, s)| s.kind == kind).collect();
        if group.is_empty() {
            continue;
        }
        out.push_str(&format!("\n## {title}\n"));
        for (id, s) in group {
            match kind {
                MetricKind::Counter => out.push_str(&format!(
                    "{id}  first={} last={} delta={}\n",
                    s.first,
                    s.last,
                    s.last.saturating_sub(s.first)
                )),
                MetricKind::Gauge => out.push_str(&format!(
                    "{id}  last={} min={} max={}\n",
                    s.last, s.min, s.max
                )),
                MetricKind::Histogram => {
                    let h = s.hist.clone().unwrap_or_default();
                    out.push_str(&format!(
                        "{id}  count={} p50={} p90={} p99={} p99.9={} max={}\n",
                        h.count(),
                        h.percentile(50.0),
                        h.percentile(90.0),
                        h.percentile(99.0),
                        h.percentile(99.9),
                        h.max()
                    ));
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn enabled_registry() -> MetricsRegistry {
        let r = MetricsRegistry::new();
        r.set_enabled(true);
        r
    }

    #[test]
    fn bucket_boundaries_are_exact_at_powers_of_two() {
        for k in 0..64u32 {
            let v = 1u64 << k;
            let i = bucket_index(v);
            assert_eq!(bucket_floor(i), v, "2^{k} must open its bucket");
            if v > 1 {
                // The value just below a power of two lands strictly lower.
                assert!(bucket_index(v - 1) < i, "2^{k} - 1 below 2^{k}");
            }
        }
    }

    #[test]
    fn buckets_tile_the_u64_range_in_order() {
        // Every bucket's floor maps back to itself, and floors are
        // strictly increasing — the layout is a partition of u64.
        let mut prev: Option<u64> = None;
        for i in 0..HIST_BUCKETS {
            let f = bucket_floor(i);
            assert_eq!(bucket_index(f), i, "floor of bucket {i}");
            if let Some(p) = prev {
                assert!(f > p, "floors strictly increase at {i}");
            }
            prev = Some(f);
        }
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative() {
        let r = enabled_registry();
        let snaps: Vec<HistogramSnapshot> = [
            &[1u64, 5, 9, 1 << 20][..],
            &[0, 0, 7, u64::MAX],
            &[3, 1 << 40, 1 << 40, 2],
        ]
        .iter()
        .enumerate()
        .map(|(i, vals)| {
            let h = r.histogram_with("m", "h", &[("i", &i.to_string())]);
            for &v in *vals {
                h.record(v);
            }
            h.snapshot()
        })
        .collect();
        let (a, b, c) = (&snaps[0], &snaps[1], &snaps[2]);
        let mut ab_c = a.clone();
        ab_c.merge(b);
        ab_c.merge(c);
        let mut bc = b.clone();
        bc.merge(c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "associative");
        let mut ba = b.clone();
        ba.merge(a);
        let mut ab = a.clone();
        ab.merge(b);
        assert_eq!(ab, ba, "commutative");
        assert_eq!(ab_c.count(), 12);
    }

    #[test]
    fn recording_u64_max_saturates_into_the_top_bucket() {
        let r = enabled_registry();
        let h = r.histogram("sat", "saturation");
        h.record(u64::MAX);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.buckets.len(), 1);
        assert!(s.max() >= 1 << 63);
        assert_eq!(s.percentile(50.0), s.max());
    }

    #[test]
    fn empty_histogram_percentiles_are_zero() {
        let r = enabled_registry();
        let h = r.histogram("empty", "nothing recorded");
        let s = h.snapshot();
        assert_eq!(s.count(), 0);
        for p in [0.0, 50.0, 99.9, 100.0] {
            assert_eq!(s.percentile(p), 0);
        }
        assert_eq!(s.max(), 0);
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let r = enabled_registry();
        let h = r.histogram("mono", "monotone percentiles");
        let mut x = 1u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(x >> 40);
        }
        let s = h.snapshot();
        let mut prev = 0;
        for p in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let v = s.percentile(p);
            assert!(v >= prev, "p{p} regressed");
            prev = v;
        }
        assert!(prev <= s.max());
    }

    #[test]
    fn snapshot_jsonl_round_trips() {
        let r = enabled_registry();
        r.counter("c_total", "a counter").add(7);
        r.gauge_with("g", "a gauge", &[("ds", "alpha")]).set(42);
        let h = r.histogram_with(
            "h_us",
            "a histogram",
            &[("ds", "a\"b"), ("outcome", "exact")],
        );
        for v in [0, 1, 8, 1000, u64::MAX] {
            h.record(v);
        }
        let snap = r.snapshot(123_456);
        let jsonl = snap.to_jsonl();
        let mut parsed = Vec::new();
        for line in jsonl.lines() {
            let (t, s) = MetricSample::parse(line).expect(line);
            assert_eq!(t, 123_456);
            parsed.push(s);
        }
        assert_eq!(parsed, snap.samples, "lossless round trip");
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = MetricsRegistry::new();
        let c = r.counter("c_total", "counter");
        let g = r.gauge("g", "gauge");
        let h = r.histogram("h_us", "hist");
        c.add(5);
        g.set(9);
        h.record(1234);
        assert_eq!(c.value(), 0);
        assert_eq!(g.value(), 0);
        assert_eq!(h.snapshot().count(), 0);
        // Flipping it on makes the same handles live.
        r.set_enabled(true);
        c.add(5);
        g.set(9);
        h.record(1234);
        assert_eq!(c.value(), 5);
        assert_eq!(g.value(), 9);
        assert_eq!(h.snapshot().count(), 1);
    }

    #[test]
    fn exposition_lists_every_family_once_with_kind() {
        let r = enabled_registry();
        r.counter("req_total", "requests").inc();
        r.gauge("depth", "queue depth").set(3);
        r.histogram_with("lat_us", "latency", &[("ds", "a")])
            .record(100);
        r.histogram_with("lat_us", "latency", &[("ds", "b")])
            .record(200);
        let text = r.expose();
        assert_eq!(text.matches("# TYPE req_total counter").count(), 1);
        assert_eq!(text.matches("# TYPE depth gauge").count(), 1);
        assert_eq!(text.matches("# TYPE lat_us summary").count(), 1);
        assert!(text.contains("req_total 1\n"));
        assert!(text.contains("depth 3\n"));
        assert!(text.contains("lat_us_count{ds=\"a\"} 1\n"));
        assert!(text.contains("lat_us{ds=\"b\",quantile=\"0.99\"}"));
    }

    #[test]
    fn sampler_writes_a_parseable_series_driven_by_a_manual_clock() {
        let dir = std::env::temp_dir().join(format!("em-metrics-sampler-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("series.jsonl");
        let r = enabled_registry();
        let c = r.counter("ticks_total", "ticks");
        let clock = Arc::new(ManualClock::new(1_000));
        let sampler =
            Sampler::to_file(r.clone(), clock.clone(), Duration::from_millis(5), &path).unwrap();
        for _ in 0..3 {
            c.inc();
            clock.advance(10_000);
            std::thread::sleep(Duration::from_millis(12));
        }
        sampler.stop().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut seen = 0;
        let mut last_t = 0;
        for line in text.lines() {
            let (t, s) = MetricSample::parse(line).expect(line);
            assert_eq!(s.name, "ticks_total");
            assert!(t >= last_t, "timestamps are monotone");
            last_t = t;
            seen += 1;
        }
        assert!(seen >= 2, "at least interval tick + final snapshot");
        assert!(last_t >= 21_000, "manual clock drove the timestamps");
        let report = render_series_report(&text).unwrap();
        assert!(report.contains("ticks_total"), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn series_report_renders_percentile_tables() {
        let r = enabled_registry();
        let h = r.histogram_with("lat_us", "latency", &[("ds", "a")]);
        for v in 1..=100u64 {
            h.record(v);
        }
        r.counter("n_total", "count").add(3);
        let mut input = r.snapshot(10_000).to_jsonl();
        r.counter("n_total", "count").add(2);
        input.push_str(&r.snapshot(2_010_000).to_jsonl());
        let report = render_series_report(&input).unwrap();
        assert!(report.contains("span 2000 ms"), "{report}");
        assert!(
            report.contains("n_total  first=3 last=5 delta=2"),
            "{report}"
        );
        assert!(report.contains("lat_us{ds=\"a\"}  count=100"), "{report}");
        assert!(report.contains("p50="), "{report}");
        assert!(render_series_report("").is_err());
        assert!(render_series_report("{\"e\":\"bogus\"}").is_err());
    }

    #[test]
    fn since_recovers_a_phase_distribution() {
        let r = enabled_registry();
        let h = r.histogram("ph", "phase");
        h.record(10);
        h.record(10);
        let first = h.snapshot();
        h.record(1 << 30);
        let second = h.snapshot();
        let delta = second.since(&first);
        assert_eq!(delta.count(), 1);
        assert!(delta.max() >= 1 << 30);
    }
}
