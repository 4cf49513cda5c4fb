//! The query server: a scheduler thread that coalesces in-flight queries
//! per dataset and answers each batch with one multi-select pass.
//!
//! Concurrency model matches the parallel sort (PR 4): `std::thread` +
//! `std::sync::mpsc` only. Clients hold a clone of a bounded
//! [`std::sync::mpsc::SyncSender`] — the bound is the admission-control
//! queue depth, so producers block (back-pressure) instead of growing an
//! unbounded queue. The scheduler collects queries under a tunable
//! batching window (first query starts the clock, up to
//! [`ServeOptions::batch_max`] join it), groups them per dataset, and
//! answers each group through the dataset's [`SplitterIndex`] — one
//! [`emselect`] multi-select pass per touched segment, boundary hits free.
//!
//! ## Resilience (PR 6)
//!
//! A fault during a coalesced batch no longer fails every rider:
//!
//! * **Typed errors end to end** — reply channels carry [`EmError`]
//!   values (the error type is `Clone`), never stringly re-wrapped ones.
//! * **Retry, then bisect** — a failed batch is retried under
//!   [`ServeOptions::retry`] while the error is retryable; a persistent
//!   failure bisects the batch so the poisoned query is quarantined and
//!   its coalesced neighbours still get exact answers.
//! * **Per-dataset circuit breaker** — after
//!   [`ServeOptions::breaker_threshold`] consecutive fully-failed fault
//!   batches a dataset enters [`BreakerState::Open`] and fails fast with
//!   [`EmError::Unhealthy`]; a background probe (one block read) half-opens
//!   and restores it once the device answers again.
//! * **Deadlines & degraded answers** — a query whose
//!   [`QueryOptions::deadline`] expired before execution is shed with
//!   [`EmError::DeadlineExceeded`] — or, with degraded mode on, answered
//!   *approximately* from the splitter skeleton at zero I/O, flagged
//!   `approx` with an explicit rank-error bound
//!   ([`SplitterIndex::answer_approx`]). The same degraded path backs
//!   breaker-open datasets: the skeleton needs no device at all.
//!
//! ## Memory governor (PR 7)
//!
//! Each registered dataset is a *tenant* of the context's
//! [`emcore::MemoryGovernor`]: with [`ServeOptions::lease_floor`] set, the
//! scheduler takes a per-dataset lease (floor + fair weighted share of the
//! surplus). A batch that fails with [`EmError::MemoryExceeded`] — a
//! governor squeeze or a contended tracker — is *not* a fault: it trips no
//! breaker, and with degraded mode on, the starved tenant is answered
//! approximately from the memory-resident skeleton (zero allocation, zero
//! I/O) instead of erroring. Lease gauges are surfaced in [`ServeReport`]
//! and [`DatasetHealth`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use emcore::clock::Clock;
use emcore::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use emcore::{EmContext, EmError, EmFile, Lease, Record, Result, RetryPolicy};
use emselect::MsOptions;

use crate::catalog::Catalog;
use crate::index::SplitterIndex;

/// Per-query service options. Unset fields inherit the server-wide
/// defaults in [`ServeOptions`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryOptions {
    /// Answer-latency budget measured from submission. A query still
    /// queued when its deadline expires is shed (or degraded) instead of
    /// executed. `None` inherits [`ServeOptions::deadline`].
    pub deadline: Option<Duration>,
    /// Whether an over-deadline (or breaker-quarantined) query may be
    /// answered approximately from the splitter skeleton at zero I/O.
    /// `None` inherits [`ServeOptions::degraded`].
    pub degraded: Option<bool>,
}

/// One answered query: the values, and whether they are exact or a
/// skeleton-only approximation with a guaranteed rank-error bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryAnswer<T: Record> {
    /// The answer values, in the caller's rank order.
    pub values: Vec<T>,
    /// `false`: bit-identical to a full multi-select of the asked ranks.
    /// `true`: each value is the element of a *known exact rank* near the
    /// asked one (degraded mode) — see `rank_error`.
    pub approx: bool,
    /// Guaranteed rank-error bound when `approx`: the value returned for
    /// rank `r` has exact global rank `r'` with `|r' − r| ≤ rank_error`.
    /// Always 0 for exact answers.
    pub rank_error: u64,
}

impl<T: Record> QueryAnswer<T> {
    fn exact(values: Vec<T>) -> Self {
        QueryAnswer {
            values,
            approx: false,
            rank_error: 0,
        }
    }

    /// The values, discarding the exact/approx flag.
    pub fn into_values(self) -> Vec<T> {
        self.values
    }
}

/// Circuit-breaker state of one served dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: batches execute normally.
    Closed,
    /// Tripped: queries fail fast with [`EmError::Unhealthy`] (or degrade
    /// to skeleton answers) until the probe cooldown elapses.
    Open,
    /// Cooldown elapsed: the next background probe (or query) decides
    /// whether the dataset is restored or re-quarantined.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase label (for protocol/health output).
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Health snapshot of one dataset, returned by [`Client::health`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetHealth {
    /// Dataset name.
    pub name: String,
    /// Current breaker state.
    pub state: BreakerState,
    /// Consecutive fully-failed fault batches (resets on any success).
    pub consecutive_failures: u32,
    /// Words of memory floor reserved for this dataset's lease (0 when
    /// leasing is disabled or the lease was denied at admission).
    pub lease_floor_words: u64,
    /// Words currently granted to the lease: floor + weighted fair share
    /// of the budget surplus. Shrinks when the governor squeezes `M`.
    pub lease_granted_words: u64,
}

/// Tunables for [`QueryServer`]. Every combination of fields is valid
/// (degenerate values like a zero queue depth are clamped where they are
/// consumed), so set the ones you need and take the rest from `Default`:
///
/// ```
/// use emserve::ServeOptions;
/// use std::time::Duration;
/// let opts = ServeOptions {
///     batch_window: Duration::from_millis(5),
///     degraded: true,
///     ..ServeOptions::default()
/// };
/// assert_eq!(opts.batch_window, Duration::from_millis(5));
/// assert!(opts.degraded);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Most queries coalesced into one batch.
    pub batch_max: usize,
    /// How long the scheduler waits for more queries after the first.
    pub batch_window: Duration,
    /// Bound of the request channel (admission control: senders block).
    pub queue_depth: usize,
    /// Refine the splitter index after every answered batch.
    pub refine: bool,
    /// Multi-select options used for every pass.
    pub select: MsOptions,
    /// Server-level batch retry policy: a batch failing with a retryable
    /// fault ([`EmError::is_retryable`]) is re-executed up to
    /// `retry.max_attempts` times before bisection kicks in.
    pub retry: RetryPolicy,
    /// Consecutive fully-failed fault batches before a dataset's breaker
    /// opens (0 disables the breaker).
    pub breaker_threshold: u32,
    /// Cooldown before an open breaker half-opens and is probed.
    pub probe_cooldown: Duration,
    /// Default per-query deadline (`None` = no deadline). Overridable per
    /// query via [`QueryOptions::deadline`].
    pub deadline: Option<Duration>,
    /// Default degraded-mode flag (see [`QueryOptions::degraded`]).
    pub degraded: bool,
    /// Per-dataset memory-lease floor, in words (0 disables leasing).
    /// Each registered dataset reserves this floor with the context's
    /// memory governor; admission-control denials leave the dataset
    /// unleased (it still serves, with no reserved share).
    pub lease_floor: usize,
    /// Fairness weight of each dataset's lease: surplus budget above the
    /// floors is granted proportionally to weight.
    pub lease_weight: u32,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            batch_max: 16,
            batch_window: Duration::from_millis(2),
            queue_depth: 64,
            refine: true,
            select: MsOptions::default(),
            retry: RetryPolicy::retries(2),
            breaker_threshold: 3,
            probe_cooldown: Duration::from_millis(25),
            deadline: None,
            degraded: false,
            lease_floor: 0,
            lease_weight: 1,
        }
    }
}

/// Aggregate service counters, returned by [`QueryServer::shutdown`] and
/// [`Client::report`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Datasets registered (or reopened) this run.
    pub registered: u64,
    /// Queries answered (exact, degraded, shed, or failed — every
    /// accepted query resolves exactly once).
    pub queries: u64,
    /// Batches executed (each ≥ 1 query; the coalescing win is
    /// `queries / batches`).
    pub batches: u64,
    /// Ranks answered from a stored splitter-index boundary or mark at
    /// zero I/O.
    pub index_hits: u64,
    /// Distinct ranks answered by an in-segment select pass.
    pub selected: u64,
    /// Wall-clock microseconds spent answering batches (query latency,
    /// excluding queue wait).
    pub answer_us: u64,
    /// Whole-batch re-executions under [`ServeOptions::retry`].
    pub retried_batches: u64,
    /// Queries that received a typed error.
    pub failed: u64,
    /// Failed queries that were *isolated by bisection* — their coalesced
    /// neighbours still got exact answers.
    pub quarantined: u64,
    /// Queries shed at admission because their deadline had expired.
    pub shed: u64,
    /// Queries answered approximately from the skeleton (degraded mode).
    pub degraded: u64,
    /// Circuit-breaker trips (datasets entering the fail-fast state).
    pub breaker_trips: u64,
    /// Background probes executed against quarantined datasets.
    pub probes: u64,
    /// Datasets restored to `Closed` by a successful probe.
    pub breaker_restores: u64,
    /// Breakers currently not `Closed` (snapshot at report time).
    pub open_breakers: u64,
    /// Live memory budget of the serving context, in words (snapshot at
    /// report time; moves when the governor squeezes or restores `M`).
    pub mem_budget_words: u64,
    /// Sum of lease floors held by this server's datasets, in words.
    pub lease_floor_words: u64,
    /// Datasets currently holding a governor lease.
    pub leases: u64,
    /// Governor admission denials observed on this context (snapshot).
    pub lease_denials: u64,
    /// Queries answered approximately *because the exact pass ran out of
    /// memory budget* (subset of `degraded`).
    pub mem_degraded: u64,
    /// Queries/batches admitted to the request queue but not yet pulled
    /// by the scheduler (snapshot at report time).
    pub queue_depth: u64,
    /// Size of the most recently executed batch (snapshot; the live
    /// distribution is in the `em_serve_batch_occupancy` histogram).
    pub batch_occupancy: u64,
}

impl ServeReport {
    /// Accumulate `other` into `self`, field by field — the shard router's
    /// merge operation. Every field adds, so the merged report reads as a
    /// *fleet total*: the counters (queries, batches, failures, ...) sum
    /// exactly, and the point-in-time gauges (memory budget, queue depth,
    /// open breakers, leases) sum across the member servers' snapshots.
    /// Summing keeps the conservation laws intact: with every shard
    /// recording into one shared metrics registry,
    /// `family_total("em_serve_query_e2e_us")` equals the merged
    /// [`ServeReport::queries`].
    pub fn absorb(&mut self, other: &ServeReport) {
        self.registered += other.registered;
        self.queries += other.queries;
        self.batches += other.batches;
        self.index_hits += other.index_hits;
        self.selected += other.selected;
        self.answer_us += other.answer_us;
        self.retried_batches += other.retried_batches;
        self.failed += other.failed;
        self.quarantined += other.quarantined;
        self.shed += other.shed;
        self.degraded += other.degraded;
        self.breaker_trips += other.breaker_trips;
        self.probes += other.probes;
        self.breaker_restores += other.breaker_restores;
        self.open_breakers += other.open_breakers;
        self.mem_budget_words += other.mem_budget_words;
        self.lease_floor_words += other.lease_floor_words;
        self.leases += other.leases;
        self.lease_denials += other.lease_denials;
        self.mem_degraded += other.mem_degraded;
        self.queue_depth += other.queue_depth;
        self.batch_occupancy += other.batch_occupancy;
    }
}

/// One client query awaiting an answer.
struct Pending<T: Record> {
    ranks: Vec<u64>,
    opts: QueryOptions,
    /// Submission time on the server's [`Clock`] (µs).
    submitted_us: u64,
    reply: mpsc::Sender<Result<QueryAnswer<T>>>,
}

enum Req<T: Record> {
    Register {
        name: String,
        data: Vec<T>,
        reply: mpsc::Sender<Result<u64>>,
    },
    Query {
        name: String,
        query: Box<Pending<T>>,
    },
    /// A pre-coalesced batch: answered in one pass regardless of the
    /// batching window (deterministic batch sizes for benches and tests).
    Batch {
        name: String,
        queries: Vec<Pending<T>>,
    },
    Report {
        reply: mpsc::Sender<ServeReport>,
    },
    Health {
        reply: mpsc::Sender<Vec<DatasetHealth>>,
    },
    /// Length of a registered dataset (a catalog lookup, no I/O).
    Len {
        name: String,
        reply: mpsc::Sender<Result<u64>>,
    },
}

/// Handle to a running scheduler thread.
#[derive(Debug)]
pub struct QueryServer<T: Record> {
    tx: Option<SyncSender<Req<T>>>,
    handle: Option<std::thread::JoinHandle<ServeReport>>,
    clock: Arc<dyn Clock>,
    depth: Arc<AtomicU64>,
    /// The serving context's registry, kept so the transport-agnostic
    /// [`crate::QueryService::metrics`] can scrape without a context.
    pub(crate) metrics: MetricsRegistry,
}

/// A cheap client handle; clone freely across threads.
pub struct Client<T: Record> {
    tx: SyncSender<Req<T>>,
    /// The server's time source — submission stamps must share the
    /// scheduler's clock or queue-wait math would mix epochs.
    clock: Arc<dyn Clock>,
    /// Shared admitted-but-unpulled request count (the queue-depth gauge).
    depth: Arc<AtomicU64>,
}

impl<T: Record> Clone for Client<T> {
    fn clone(&self) -> Self {
        Client {
            tx: self.tx.clone(),
            clock: self.clock.clone(),
            depth: self.depth.clone(),
        }
    }
}

/// An in-flight query's answer slot.
pub struct Ticket<T: Record> {
    rx: mpsc::Receiver<Result<QueryAnswer<T>>>,
}

impl<T: Record> std::fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl<T: Record> Ticket<T> {
    /// Block until the answer arrives (in the caller's rank order).
    pub fn wait(self) -> Result<QueryAnswer<T>> {
        self.rx
            .recv()
            .map_err(|_| EmError::unavailable("query server shut down before answering"))?
    }

    /// Wait at most `timeout` for the answer. A wedged or dead server can
    /// never hang the caller: on expiry this returns
    /// [`EmError::DeadlineExceeded`] and the ticket stays live, so the
    /// caller may wait again (or drop it — a late answer to a dropped
    /// ticket is discarded by the scheduler's failed `send`).
    pub fn wait_timeout(&self, timeout: Duration) -> Result<QueryAnswer<T>> {
        let t0 = Instant::now();
        match self.rx.recv_timeout(timeout) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => Err(EmError::DeadlineExceeded {
                deadline_us: timeout.as_micros().min(u64::MAX as u128) as u64,
                waited_us: t0.elapsed().as_micros().min(u64::MAX as u128) as u64,
            }),
            Err(RecvTimeoutError::Disconnected) => Err(EmError::unavailable(
                "query server shut down before answering",
            )),
        }
    }
}

fn gone<R>() -> Result<R> {
    Err(EmError::unavailable("query server is not running"))
}

impl<T: Record> Client<T> {
    /// Register `data` under `name` (or reopen an existing dataset of that
    /// name from the catalog — `data` is then ignored). Returns the
    /// dataset length. Blocks until the server commits the catalog.
    pub fn register(&self, name: &str, data: Vec<T>) -> Result<u64> {
        let (tx, rx) = mpsc::channel();
        if self
            .tx
            .send(Req::Register {
                name: name.to_string(),
                data,
                reply: tx,
            })
            .is_err()
        {
            return gone();
        }
        rx.recv()
            .map_err(|_| EmError::unavailable("server dropped"))?
    }

    /// Submit one query for `ranks` of dataset `name` with default
    /// options. Blocks only on admission control (full queue); the answer
    /// arrives on the ticket.
    pub fn query(&self, name: &str, ranks: Vec<u64>) -> Result<Ticket<T>> {
        self.query_with(name, ranks, QueryOptions::default())
    }

    /// Submit one query with explicit per-query options (deadline,
    /// degraded mode).
    pub fn query_with(&self, name: &str, ranks: Vec<u64>, opts: QueryOptions) -> Result<Ticket<T>> {
        let (tx, rx) = mpsc::channel();
        self.depth.fetch_add(1, Ordering::Relaxed);
        if self
            .tx
            .send(Req::Query {
                name: name.to_string(),
                query: Box::new(Pending {
                    ranks,
                    opts,
                    submitted_us: self.clock.now_us(),
                    reply: tx,
                }),
            })
            .is_err()
        {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            return gone();
        }
        Ok(Ticket { rx })
    }

    /// Submit several queries as one pre-coalesced batch: exactly one
    /// batch on the server regardless of timing.
    pub fn submit_batch(&self, name: &str, queries: Vec<Vec<u64>>) -> Result<Vec<Ticket<T>>> {
        self.submit_batch_with(
            name,
            queries
                .into_iter()
                .map(|r| (r, QueryOptions::default()))
                .collect(),
        )
    }

    /// [`Client::submit_batch`] with per-query options.
    pub fn submit_batch_with(
        &self,
        name: &str,
        queries: Vec<(Vec<u64>, QueryOptions)>,
    ) -> Result<Vec<Ticket<T>>> {
        let mut tickets = Vec::with_capacity(queries.len());
        let mut payload = Vec::with_capacity(queries.len());
        let now_us = self.clock.now_us();
        for (ranks, opts) in queries {
            let (tx, rx) = mpsc::channel();
            payload.push(Pending {
                ranks,
                opts,
                submitted_us: now_us,
                reply: tx,
            });
            tickets.push(Ticket { rx });
        }
        self.depth.fetch_add(1, Ordering::Relaxed);
        if self
            .tx
            .send(Req::Batch {
                name: name.to_string(),
                queries: payload,
            })
            .is_err()
        {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            return gone();
        }
        Ok(tickets)
    }

    /// Length of a registered dataset (a catalog lookup, no I/O). Typed
    /// `Config` error for an unknown name.
    pub fn dataset_len(&self, name: &str) -> Result<u64> {
        let (tx, rx) = mpsc::channel();
        if self
            .tx
            .send(Req::Len {
                name: name.to_string(),
                reply: tx,
            })
            .is_err()
        {
            return gone();
        }
        rx.recv()
            .map_err(|_| EmError::unavailable("server dropped"))?
    }

    /// Snapshot of the server's counters.
    pub fn report(&self) -> Result<ServeReport> {
        let (tx, rx) = mpsc::channel();
        if self.tx.send(Req::Report { reply: tx }).is_err() {
            return gone();
        }
        rx.recv()
            .map_err(|_| EmError::unavailable("server dropped"))
    }

    /// Per-dataset breaker states.
    pub fn health(&self) -> Result<Vec<DatasetHealth>> {
        let (tx, rx) = mpsc::channel();
        if self.tx.send(Req::Health { reply: tx }).is_err() {
            return gone();
        }
        rx.recv()
            .map_err(|_| EmError::unavailable("server dropped"))
    }
}

/// Per-dataset circuit-breaker bookkeeping. Times are [`Clock`] readings
/// in µs, so tests drive the cooldown with a `ManualClock`.
struct Breaker {
    state: BreakerState,
    consecutive: u32,
    since_us: u64,
}

impl Breaker {
    fn new(now_us: u64) -> Self {
        Breaker {
            state: BreakerState::Closed,
            consecutive: 0,
            since_us: now_us,
        }
    }
}

/// Per-dataset instrument handles, registered lazily on first touch and
/// cached — the hot path never re-enters the registry mutex.
struct DsMetrics {
    /// `em_serve_query_e2e_us{ds,outcome}` for outcome ∈ exact /
    /// degraded / shed / failed. Every accepted query lands in exactly
    /// one, so Σ counts conserves against [`ServeReport::queries`].
    e2e: [Histogram; 4],
    breaker_state: Gauge,
    lease_words: Gauge,
    trips: Counter,
    restores: Counter,
}

/// Which of the four terminal outcomes a query resolved with.
#[derive(Clone, Copy)]
enum Outcome {
    Exact = 0,
    Degraded = 1,
    Shed = 2,
    Failed = 3,
}

impl Outcome {
    fn label(self) -> &'static str {
        match self {
            Outcome::Exact => "exact",
            Outcome::Degraded => "degraded",
            Outcome::Shed => "shed",
            Outcome::Failed => "failed",
        }
    }
}

/// The scheduler's live instruments. Registration happens at server
/// start (global families) or first dataset touch (labeled children);
/// records afterwards are lock-free, and with a disabled registry each
/// is a single branch.
struct ServeMetrics {
    registry: MetricsRegistry,
    queue_wait_us: Histogram,
    batch_window_us: Histogram,
    batch_occupancy: Histogram,
    select_us: Histogram,
    queue_depth: Gauge,
    mem_budget: Gauge,
    cache_blocks: Gauge,
    datasets: BTreeMap<String, DsMetrics>,
}

impl ServeMetrics {
    fn new(registry: MetricsRegistry) -> Self {
        ServeMetrics {
            queue_wait_us: registry.histogram(
                "em_serve_queue_wait_us",
                "admission-queue wait per query: submission to batch execution start",
            ),
            batch_window_us: registry.histogram(
                "em_serve_batch_window_us",
                "coalescing wait per batch: earliest submission to execution start",
            ),
            batch_occupancy: registry.histogram(
                "em_serve_batch_occupancy",
                "queries coalesced into each executed batch",
            ),
            select_us: registry.histogram(
                "em_serve_select_us",
                "multi-select pass latency per batch attempt",
            ),
            queue_depth: registry.gauge(
                "em_serve_queue_depth",
                "requests admitted but not yet pulled by the scheduler",
            ),
            mem_budget: registry.gauge(
                "em_serve_mem_budget_words",
                "live dynamic memory budget of the serving context",
            ),
            cache_blocks: registry.gauge(
                "em_serve_cache_blocks",
                "blocks resident in the context's block cache",
            ),
            datasets: BTreeMap::new(),
            registry,
        }
    }

    #[inline]
    fn on(&self) -> bool {
        self.registry.enabled()
    }

    fn dataset(&mut self, name: &str) -> &DsMetrics {
        if !self.datasets.contains_key(name) {
            let e2e = [
                Outcome::Exact,
                Outcome::Degraded,
                Outcome::Shed,
                Outcome::Failed,
            ]
            .map(|o| {
                self.registry.histogram_with(
                    "em_serve_query_e2e_us",
                    "end-to-end query latency, submission to reply",
                    &[("ds", name), ("outcome", o.label())],
                )
            });
            let ds = DsMetrics {
                e2e,
                breaker_state: self.registry.gauge_with(
                    "em_serve_breaker_state",
                    "circuit-breaker state: 0 closed, 1 half-open, 2 open",
                    &[("ds", name)],
                ),
                lease_words: self.registry.gauge_with(
                    "em_serve_lease_words",
                    "words currently granted to the dataset's governor lease",
                    &[("ds", name)],
                ),
                trips: self.registry.counter_with(
                    "em_serve_breaker_trips_total",
                    "breaker trips (dataset entered fail-fast)",
                    &[("ds", name)],
                ),
                restores: self.registry.counter_with(
                    "em_serve_breaker_restores_total",
                    "breakers restored to closed",
                    &[("ds", name)],
                ),
            };
            self.datasets.insert(name.to_string(), ds);
        }
        self.datasets.get(name).expect("just inserted")
    }
}

fn breaker_gauge_value(state: BreakerState) -> u64 {
    match state {
        BreakerState::Closed => 0,
        BreakerState::HalfOpen => 1,
        BreakerState::Open => 2,
    }
}

struct Scheduler<T: Record> {
    ctx: EmContext,
    opts: ServeOptions,
    catalog: Catalog,
    indices: BTreeMap<String, SplitterIndex<T>>,
    breakers: BTreeMap<String, Breaker>,
    /// Per-dataset governor leases (RAII: dropped with the scheduler).
    leases: BTreeMap<String, Lease>,
    report: ServeReport,
    clock: Arc<dyn Clock>,
    depth: Arc<AtomicU64>,
    mx: ServeMetrics,
}

impl<T: Record> QueryServer<T> {
    /// Open the catalog on `ctx` and start the scheduler thread. The
    /// scheduler reads time from [`EmContext::clock`] and records into
    /// [`EmContext::metrics`] — install a `ManualClock` or enable the
    /// registry *before* starting the server.
    pub fn start(ctx: &EmContext, opts: ServeOptions) -> Result<Self> {
        let catalog = Catalog::open(ctx)?;
        let (tx, rx) = mpsc::sync_channel::<Req<T>>(opts.queue_depth.max(1));
        let clock = ctx.clock();
        let depth = Arc::new(AtomicU64::new(0));
        let mut sched = Scheduler {
            ctx: ctx.clone(),
            opts,
            catalog,
            indices: BTreeMap::new(),
            breakers: BTreeMap::new(),
            leases: BTreeMap::new(),
            report: ServeReport::default(),
            clock: clock.clone(),
            depth: depth.clone(),
            mx: ServeMetrics::new(ctx.metrics().clone()),
        };
        let handle = std::thread::spawn(move || {
            sched.run(rx);
            sched.report
        });
        Ok(QueryServer {
            tx: Some(tx),
            handle: Some(handle),
            clock,
            depth,
            metrics: ctx.metrics().clone(),
        })
    }

    /// A client handle for this server. `Err` once the server has been
    /// shut down.
    pub fn client(&self) -> Result<Client<T>> {
        match &self.tx {
            Some(tx) => Ok(Client {
                tx: tx.clone(),
                clock: self.clock.clone(),
                depth: self.depth.clone(),
            }),
            None => Err(EmError::unavailable("query server already shut down")),
        }
    }

    /// Stop accepting requests and join the scheduler. Blocks until every
    /// outstanding [`Client`] clone has been dropped (their senders keep
    /// the request channel alive). A second call — or a scheduler that
    /// died — yields a typed [`EmError::Unavailable`], never an abort.
    pub fn shutdown(&mut self) -> Result<ServeReport> {
        drop(self.tx.take());
        let handle = self
            .handle
            .take()
            .ok_or_else(|| EmError::unavailable("query server already shut down"))?;
        handle
            .join()
            .map_err(|_| EmError::unavailable("query server scheduler panicked"))
    }
}

impl<T: Record> Drop for QueryServer<T> {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl<T: Record> Scheduler<T> {
    /// Note one request pulled off the admission queue: queries and
    /// batches release their queue-depth slot (control requests never
    /// took one).
    fn note_pulled(&self, req: &Req<T>) {
        if matches!(req, Req::Query { .. } | Req::Batch { .. }) {
            let before = self.depth.fetch_sub(1, Ordering::Relaxed);
            self.mx.queue_depth.set(before.saturating_sub(1));
        }
    }

    fn run(&mut self, rx: Receiver<Req<T>>) {
        let mut carry: Option<Req<T>> = None;
        loop {
            let req = match carry.take() {
                Some(r) => r,
                None => {
                    if self.any_unhealthy() {
                        // A quarantined dataset needs background probes:
                        // poll with the probe cadence instead of parking.
                        let tick = self.opts.probe_cooldown.max(Duration::from_millis(1));
                        match rx.recv_timeout(tick) {
                            Ok(r) => {
                                self.note_pulled(&r);
                                r
                            }
                            Err(RecvTimeoutError::Timeout) => {
                                self.tick_probes();
                                continue;
                            }
                            Err(RecvTimeoutError::Disconnected) => break,
                        }
                    } else {
                        match rx.recv() {
                            Ok(r) => {
                                self.note_pulled(&r);
                                r
                            }
                            Err(_) => break, // every sender gone: shutdown
                        }
                    }
                }
            };
            self.tick_probes();
            match req {
                Req::Register { name, data, reply } => {
                    let _ = reply.send(self.register(&name, data));
                }
                Req::Report { reply } => {
                    let _ = reply.send(self.report_snapshot());
                }
                Req::Health { reply } => {
                    let mut out: Vec<DatasetHealth> = Vec::new();
                    for name in self.catalog.names() {
                        let (state, consecutive) = self
                            .breakers
                            .get(&name)
                            .map(|b| (b.state, b.consecutive))
                            .unwrap_or((BreakerState::Closed, 0));
                        let (floor, granted) = self
                            .leases
                            .get(&name)
                            .map(|l| (l.floor() as u64, l.granted() as u64))
                            .unwrap_or((0, 0));
                        out.push(DatasetHealth {
                            name,
                            state,
                            consecutive_failures: consecutive,
                            lease_floor_words: floor,
                            lease_granted_words: granted,
                        });
                    }
                    let _ = reply.send(out);
                }
                Req::Len { name, reply } => {
                    let r = self
                        .catalog
                        .entry(&name)
                        .map(|e| e.len)
                        .ok_or_else(|| EmError::config(format!("unknown dataset {name:?}")));
                    let _ = reply.send(r);
                }
                Req::Batch { name, queries } => self.answer_group(&name, queries),
                Req::Query { name, query } => {
                    carry = self.coalesce(&rx, name, *query);
                }
            }
        }
        // Freeze the point-in-time gauges (breakers, budget, leases) into
        // the final report so [`QueryServer::shutdown`] sees them too, not
        // just mid-run [`Client::report`] calls.
        self.report = self.report_snapshot();
    }

    /// The aggregate report plus the point-in-time gauges: open breakers,
    /// the live memory budget, this server's lease holdings, and the
    /// admission-queue depth. Also refreshes the live metric gauges, so a
    /// `metrics` scrape right after a `stats`/report sees the same world.
    fn report_snapshot(&mut self) -> ServeReport {
        let mut r = self.report;
        r.open_breakers = self
            .breakers
            .values()
            .filter(|b| b.state != BreakerState::Closed)
            .count() as u64;
        let gov = self.ctx.governor().snapshot();
        r.mem_budget_words = self.ctx.mem_budget() as u64;
        r.lease_floor_words = self.leases.values().map(|l| l.floor() as u64).sum();
        r.leases = self.leases.len() as u64;
        r.lease_denials = gov.denials;
        r.queue_depth = self.depth.load(Ordering::Relaxed);
        if self.mx.on() {
            self.mx.queue_depth.set(r.queue_depth);
            self.mx.mem_budget.set(r.mem_budget_words);
            self.mx.cache_blocks.set(self.ctx.cache().len() as u64);
            for (name, lease) in &self.leases {
                let granted = lease.granted() as u64;
                self.mx.dataset(name).lease_words.set(granted);
            }
            for (name, b) in &self.breakers {
                let v = breaker_gauge_value(b.state);
                self.mx.dataset(name).breaker_state.set(v);
            }
        }
        r
    }

    /// Record the terminal outcome of one query: exactly one e2e latency
    /// sample per accepted query, so histogram counts conserve against
    /// [`ServeReport::queries`].
    fn observe_e2e(&mut self, name: &str, submitted_us: u64, outcome: Outcome) {
        if !self.mx.on() {
            return;
        }
        let waited = self.clock.now_us().saturating_sub(submitted_us);
        self.mx.dataset(name).e2e[outcome as usize].record(waited);
    }

    /// Mirror a breaker transition into its state gauge and trip/restore
    /// counters.
    fn note_breaker(&mut self, name: &str, state: BreakerState, tripped: bool, restored: bool) {
        if !self.mx.on() {
            return;
        }
        let ds = self.mx.dataset(name);
        ds.breaker_state.set(breaker_gauge_value(state));
        if tripped {
            ds.trips.inc();
        }
        if restored {
            ds.restores.inc();
        }
    }

    fn any_unhealthy(&self) -> bool {
        self.breakers
            .values()
            .any(|b| b.state != BreakerState::Closed)
    }

    /// Advance breaker timers: `Open` half-opens after the cooldown, and a
    /// `HalfOpen` dataset is probed (one block read). A successful probe
    /// restores the dataset; a failed one re-opens the breaker and
    /// restarts the cooldown.
    fn tick_probes(&mut self) {
        let cooldown_us = self.opts.probe_cooldown.as_micros().min(u64::MAX as u128) as u64;
        let now_us = self.clock.now_us();
        let due: Vec<String> = self
            .breakers
            .iter()
            .filter(|(_, b)| {
                b.state != BreakerState::Closed && now_us.saturating_sub(b.since_us) >= cooldown_us
            })
            .map(|(n, _)| n.clone())
            .collect();
        for name in due {
            let state = self.breakers[&name].state;
            match state {
                BreakerState::Open => {
                    let b = self.breakers.get_mut(&name).expect("due breaker");
                    b.state = BreakerState::HalfOpen;
                    b.since_us = now_us;
                    self.note_breaker(&name, BreakerState::HalfOpen, false, false);
                }
                BreakerState::HalfOpen => {
                    self.report.probes += 1;
                    let ok = self.ensure_index(&name).and_then(|idx| idx.probe()).is_ok();
                    let b = self.breakers.get_mut(&name).expect("due breaker");
                    b.since_us = now_us;
                    let restored = ok;
                    let new_state = if ok {
                        b.state = BreakerState::Closed;
                        b.consecutive = 0;
                        self.report.breaker_restores += 1;
                        BreakerState::Closed
                    } else {
                        b.state = BreakerState::Open;
                        BreakerState::Open
                    };
                    self.note_breaker(&name, new_state, false, restored);
                }
                BreakerState::Closed => {}
            }
        }
    }

    /// Collect queries under the batching window (starting from `first`),
    /// then answer them grouped per dataset. Returns a non-query request
    /// received mid-window, to be handled next.
    fn coalesce(
        &mut self,
        rx: &Receiver<Req<T>>,
        first_name: String,
        first: Pending<T>,
    ) -> Option<Req<T>> {
        let mut pending = vec![(first_name, first)];
        let mut carry = None;
        if self.opts.batch_max > 1 && !self.opts.batch_window.is_zero() {
            let window_us = self.opts.batch_window.as_micros().min(u64::MAX as u128) as u64;
            let deadline_us = self.clock.now_us().saturating_add(window_us);
            while pending.len() < self.opts.batch_max {
                let left = deadline_us.saturating_sub(self.clock.now_us());
                if left == 0 {
                    break;
                }
                // Under a ManualClock `left` never shrinks; the real-time
                // recv_timeout below still expires and breaks the loop.
                match rx.recv_timeout(Duration::from_micros(left)) {
                    Ok(req) => {
                        self.note_pulled(&req);
                        match req {
                            Req::Query { name, query } => pending.push((name, *query)),
                            other => {
                                carry = Some(other);
                                break;
                            }
                        }
                    }
                    Err(_) => break, // window expired or senders gone
                }
            }
        }
        let mut groups: BTreeMap<String, Vec<Pending<T>>> = BTreeMap::new();
        for (name, q) in pending {
            groups.entry(name).or_default().push(q);
        }
        for (name, queries) in groups {
            self.answer_group(&name, queries);
        }
        carry
    }

    fn register(&mut self, name: &str, data: Vec<T>) -> Result<u64> {
        if self.mx.on() {
            self.mx.dataset(name);
        }
        if let Some(entry) = self.catalog.entry(name) {
            let len = entry.len;
            if !self.indices.contains_key(name) {
                let file = self.catalog.open_dataset::<T>(name)?;
                let idx = SplitterIndex::open(&self.ctx, name, file)?;
                self.indices.insert(name.to_string(), idx);
            }
            self.report.registered += 1;
            self.ensure_lease(name);
            return Ok(len);
        }
        let reg_ctx = self.ctx.clone();
        let _phase = reg_ctx.stats().phase_guard("serve/register");
        let file = EmFile::from_slice(&self.ctx, &data)?;
        let len = file.len();
        self.catalog.register(name, &file)?;
        let idx = SplitterIndex::open(&self.ctx, name, file)?;
        self.indices.insert(name.to_string(), idx);
        self.report.registered += 1;
        self.ensure_lease(name);
        Ok(len)
    }

    /// The dataset's index, opening it from the catalog if needed (e.g.
    /// queries straight after a restart, before any register).
    fn ensure_index(&mut self, name: &str) -> Result<&mut SplitterIndex<T>> {
        if !self.indices.contains_key(name) {
            let file = self.catalog.open_dataset::<T>(name)?;
            let idx = SplitterIndex::open(&self.ctx, name, file)?;
            self.indices.insert(name.to_string(), idx);
            self.ensure_lease(name);
        }
        Ok(self.indices.get_mut(name).expect("just ensured"))
    }

    /// Take (or keep) this dataset's governor lease. An admission denial
    /// is not an error: the dataset serves without a reserved floor and
    /// the denial shows up in the governor's counters.
    fn ensure_lease(&mut self, name: &str) {
        if self.opts.lease_floor == 0 || self.leases.contains_key(name) {
            return;
        }
        if let Ok(lease) =
            self.ctx
                .governor()
                .lease(name, self.opts.lease_floor, self.opts.lease_weight)
        {
            self.leases.insert(name.to_string(), lease);
        }
    }

    fn effective_deadline(&self, q: &Pending<T>) -> Option<Duration> {
        q.opts.deadline.or(self.opts.deadline)
    }

    fn degraded_allowed(&self, q: &Pending<T>) -> bool {
        q.opts.degraded.unwrap_or(self.opts.degraded)
    }

    /// Answer `q` approximately from the skeleton alone (zero I/O).
    /// Returns `false` when no approximation is possible (cold skeleton or
    /// unknown dataset) — the caller then sheds or fails the query.
    fn try_degraded(&mut self, name: &str, q: &Pending<T>) -> bool {
        let Ok(idx) = self.ensure_index(name) else {
            return false;
        };
        match idx.answer_approx(&q.ranks) {
            Ok(Some((values, bound))) => {
                self.report.degraded += 1;
                // Record before the reply: the channel's synchronization
                // then guarantees a resolved ticket's e2e sample is
                // visible to any scrape the client takes afterwards.
                self.observe_e2e(name, q.submitted_us, Outcome::Degraded);
                let _ = q.reply.send(Ok(QueryAnswer {
                    values,
                    approx: true,
                    rank_error: bound,
                }));
                true
            }
            _ => false,
        }
    }

    /// Answer one batch of queries against one dataset: deadline-based
    /// admission, breaker fail-fast, then retry-and-bisect execution.
    fn answer_group(&mut self, name: &str, queries: Vec<Pending<T>>) {
        if queries.is_empty() {
            return;
        }
        self.report.batches += 1;
        self.report.queries += queries.len() as u64;
        self.report.batch_occupancy = queries.len() as u64;
        if self.mx.on() {
            let now_us = self.clock.now_us();
            self.mx.batch_occupancy.record(queries.len() as u64);
            for q in &queries {
                self.mx
                    .queue_wait_us
                    .record(now_us.saturating_sub(q.submitted_us));
            }
            let earliest = queries
                .iter()
                .map(|q| q.submitted_us)
                .min()
                .unwrap_or(now_us);
            self.mx
                .batch_window_us
                .record(now_us.saturating_sub(earliest));
        }

        // Admission: shed (or degrade) queries whose deadline has already
        // expired — no I/O is spent on them. A zero deadline always sheds
        // (the clock's µs granularity would otherwise make it racy).
        let now_us = self.clock.now_us();
        let mut live: Vec<Pending<T>> = Vec::with_capacity(queries.len());
        for q in queries {
            if let Some(d) = self.effective_deadline(&q) {
                let d_us = d.as_micros().min(u64::MAX as u128) as u64;
                let waited_us = now_us.saturating_sub(q.submitted_us);
                if waited_us > d_us || d.is_zero() {
                    if self.degraded_allowed(&q) && self.try_degraded(name, &q) {
                        continue;
                    }
                    self.report.shed += 1;
                    self.observe_e2e(name, q.submitted_us, Outcome::Shed);
                    let _ = q.reply.send(Err(EmError::DeadlineExceeded {
                        deadline_us: d_us,
                        waited_us,
                    }));
                    continue;
                }
            }
            live.push(q);
        }
        if live.is_empty() {
            return;
        }

        // Breaker fail-fast: an `Open` dataset pays no I/O. (A `HalfOpen`
        // one lets the batch through — live traffic doubles as a probe.)
        if let Some(b) = self.breakers.get(name) {
            if b.state == BreakerState::Open {
                let failures = b.consecutive;
                for q in live {
                    if self.degraded_allowed(&q) && self.try_degraded(name, &q) {
                        continue;
                    }
                    self.report.failed += 1;
                    self.observe_e2e(name, q.submitted_us, Outcome::Failed);
                    let _ = q.reply.send(Err(EmError::Unhealthy {
                        dataset: name.to_string(),
                        failures,
                    }));
                }
                return;
            }
        }

        let t0_us = self.clock.now_us();
        let ctx = self.ctx.clone();
        let _phase = ctx.stats().phase_guard("serve/query");
        let nq = live.len();
        let _span = ctx.stats().trace_span(|| format!("serve/batch x{nq}"));
        let (ok, fault_failed) = self.exec(name, live, false);
        drop(_span);
        drop(_phase);
        self.report.answer_us += self.clock.now_us().saturating_sub(t0_us);

        // Breaker accounting: a batch in which *every* query failed on a
        // fault-shaped error is one strike; any success resets the streak
        // (and closes a half-open breaker).
        let threshold = self.opts.breaker_threshold;
        let now_us = self.clock.now_us();
        let b = self
            .breakers
            .entry(name.to_string())
            .or_insert_with(|| Breaker::new(now_us));
        if ok > 0 {
            b.consecutive = 0;
            if b.state != BreakerState::Closed {
                b.state = BreakerState::Closed;
                self.report.breaker_restores += 1;
                self.note_breaker(name, BreakerState::Closed, false, true);
            }
        } else if fault_failed > 0 {
            b.consecutive = b.consecutive.saturating_add(1);
            if threshold > 0 && b.consecutive >= threshold && b.state != BreakerState::Open {
                b.state = BreakerState::Open;
                b.since_us = now_us;
                self.report.breaker_trips += 1;
                self.note_breaker(name, BreakerState::Open, true, false);
            }
        }
    }

    /// Execute `queries` as one multi-select pass, retrying retryable
    /// faults under the server's [`RetryPolicy`], then bisecting on a
    /// persistent failure so only the poisoned query is quarantined.
    /// Returns `(answered, fault_failures)`.
    fn exec(&mut self, name: &str, mut queries: Vec<Pending<T>>, bisected: bool) -> (u64, u64) {
        let result = self.try_batch(name, &queries);
        match result {
            Ok(per_query) => {
                let n = queries.len() as u64;
                for (q, ans) in queries.into_iter().zip(per_query) {
                    self.observe_e2e(name, q.submitted_us, Outcome::Exact);
                    let _ = q.reply.send(Ok(QueryAnswer::exact(ans)));
                }
                (n, 0)
            }
            Err(e) => {
                // A crashed context fails everything identically — there
                // is nothing bisection could isolate. Likewise a budget
                // rejection: every sub-batch needs the same working set,
                // so bisection would just repeat the denial.
                let starved = matches!(e, EmError::MemoryExceeded { .. });
                if queries.len() == 1 || matches!(e, EmError::Crashed) || starved {
                    let n = queries.len() as u64;
                    let faults = if e.is_fault() { n } else { 0 };
                    let mut answered = 0u64;
                    for q in queries {
                        // A starved tenant gets a degraded (approximate)
                        // answer from the memory-resident skeleton rather
                        // than an error, when degraded mode allows it.
                        if starved && self.degraded_allowed(&q) && self.try_degraded(name, &q) {
                            self.report.mem_degraded += 1;
                            answered += 1;
                            continue;
                        }
                        self.report.failed += 1;
                        if bisected {
                            self.report.quarantined += 1;
                        }
                        self.observe_e2e(name, q.submitted_us, Outcome::Failed);
                        let _ = q.reply.send(Err(e.clone()));
                    }
                    let _ = n;
                    (answered, faults)
                } else {
                    let right = queries.split_off(queries.len() / 2);
                    let (ok_l, ff_l) = self.exec(name, queries, true);
                    let (ok_r, ff_r) = self.exec(name, right, true);
                    (ok_l + ok_r, ff_l + ff_r)
                }
            }
        }
    }

    /// One attempt set: run the batch through the index, re-running it
    /// while the failure stays retryable and the retry budget lasts.
    fn try_batch(&mut self, name: &str, queries: &[Pending<T>]) -> Result<Vec<Vec<T>>> {
        let retry = self.opts.retry;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.answer_once(name, queries) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_retryable() && attempt < retry.max_attempts.max(1) => {
                    self.report.retried_batches += 1;
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// A single index-mediated multi-select pass over the batch's ranks,
    /// answers distributed back per query.
    fn answer_once(&mut self, name: &str, queries: &[Pending<T>]) -> Result<Vec<Vec<T>>> {
        let refine = self.opts.refine;
        let select = self.opts.select;
        let t0_us = self.mx.on().then(|| self.clock.now_us());
        let idx = self.ensure_index(name)?;
        let all: Vec<u64> = queries
            .iter()
            .flat_map(|q| q.ranks.iter().copied())
            .collect();
        let (answers, astats) = idx.answer(&all, select, refine)?;
        if let Some(t0) = t0_us {
            self.mx
                .select_us
                .record(self.clock.now_us().saturating_sub(t0));
        }
        self.report.index_hits += astats.index_hits;
        self.report.selected += astats.selected;
        let mut out = Vec::with_capacity(queries.len());
        let mut off = 0usize;
        for q in queries {
            out.push(answers[off..off + q.ranks.len()].to_vec());
            off += q.ranks.len();
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emcore::{EmConfig, FaultKind, FaultPlan, SplitMix64};
    use emselect::multi_select;

    fn data(n: u64, seed: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n).collect();
        SplitMix64::new(seed).shuffle(&mut v);
        v
    }

    #[test]
    fn batched_answers_match_per_query_select() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let v = data(3000, 1);
        let plain = ctx.stats().paused(|| EmFile::from_slice(&ctx, &v)).unwrap();
        let mut server = QueryServer::<u64>::start(&ctx, ServeOptions::default()).unwrap();
        let client = server.client().unwrap();
        assert_eq!(client.register("ds", v).unwrap(), 3000);
        let queries: Vec<Vec<u64>> = vec![
            vec![1, 1500, 3000],
            vec![2999, 42],
            vec![1500],
            vec![700, 701, 700],
        ];
        let tickets = client.submit_batch("ds", queries.clone()).unwrap();
        for (ranks, t) in queries.iter().zip(tickets) {
            let got = t.wait().unwrap();
            assert!(!got.approx);
            assert_eq!(got.rank_error, 0);
            let want = multi_select(&plain, ranks).unwrap();
            assert_eq!(got.values, want, "ranks {ranks:?}");
        }
        drop(client);
        let report = server.shutdown().unwrap();
        assert_eq!(report.queries, 4);
        assert_eq!(report.batches, 1);
        assert_eq!(report.failed, 0);
    }

    #[test]
    fn concurrent_clients_coalesce_and_agree() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let v = data(4000, 2);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        let mut server = QueryServer::<u64>::start(
            &ctx,
            ServeOptions {
                batch_window: Duration::from_millis(20),
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let client = server.client().unwrap();
        client.register("ds", v).unwrap();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = client.clone();
                let sorted = &sorted;
                s.spawn(move || {
                    for q in 0..8u64 {
                        let r = 1 + (t * 997 + q * 131) % 4000;
                        let got = c.query("ds", vec![r]).unwrap().wait().unwrap();
                        assert_eq!(got.values, vec![sorted[(r - 1) as usize]]);
                    }
                });
            }
        });
        drop(client);
        let report = server.shutdown().unwrap();
        assert_eq!(report.queries, 32);
        assert!(
            report.batches < report.queries,
            "some coalescing must happen: {} batches for {} queries",
            report.batches,
            report.queries
        );
    }

    #[test]
    fn unknown_dataset_and_bad_rank_error_cleanly() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let mut server = QueryServer::<u64>::start(&ctx, ServeOptions::default()).unwrap();
        let client = server.client().unwrap();
        assert!(client.query("nope", vec![1]).unwrap().wait().is_err());
        client.register("ds", data(100, 3)).unwrap();
        assert!(client.query("ds", vec![0]).unwrap().wait().is_err());
        assert!(client.query("ds", vec![101]).unwrap().wait().is_err());
        let ok = client.query("ds", vec![100]).unwrap().wait().unwrap();
        assert_eq!(ok.values, vec![99]);
        drop(client);
        server.shutdown().unwrap();
    }

    #[test]
    fn poisoned_query_is_bisected_out_of_the_batch() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let v = data(2000, 4);
        let plain = ctx.stats().paused(|| EmFile::from_slice(&ctx, &v)).unwrap();
        let mut server = QueryServer::<u64>::start(&ctx, ServeOptions::default()).unwrap();
        let client = server.client().unwrap();
        client.register("ds", v).unwrap();
        // One poisoned query (rank out of range) coalesced with 7 good ones.
        let queries: Vec<Vec<u64>> = vec![
            vec![1],
            vec![250, 500],
            vec![750],
            vec![9999], // poisoned
            vec![1000],
            vec![1250, 1500],
            vec![1750],
            vec![2000],
        ];
        let tickets = client.submit_batch("ds", queries.clone()).unwrap();
        let mut errors = 0;
        for (ranks, t) in queries.iter().zip(tickets) {
            match t.wait() {
                Ok(a) => {
                    let want = multi_select(&plain, ranks).unwrap();
                    assert_eq!(a.values, want, "neighbours must stay exact");
                }
                Err(e) => {
                    errors += 1;
                    assert!(matches!(e, EmError::Config(_)), "typed error, got {e}");
                    assert_eq!(ranks, &vec![9999]);
                }
            }
        }
        assert_eq!(errors, 1, "exactly the poisoned query fails");
        drop(client);
        let report = server.shutdown().unwrap();
        assert_eq!(report.failed, 1);
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.batches, 1);
    }

    #[test]
    fn transient_faults_are_retried_to_exact_answers() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        ctx.set_retry_policy(RetryPolicy::retries(4));
        let v = data(2000, 5);
        let plain = ctx.stats().paused(|| EmFile::from_slice(&ctx, &v)).unwrap();
        let mut server = QueryServer::<u64>::start(&ctx, ServeOptions::default()).unwrap();
        let client = server.client().unwrap();
        client.register("ds", v).unwrap();
        ctx.install_fault_plan(FaultPlan::new(7).transient_rate(0.02));
        let queries: Vec<Vec<u64>> = vec![vec![1, 1000, 2000], vec![500], vec![1500, 3]];
        let tickets = client.submit_batch("ds", queries.clone()).unwrap();
        for (ranks, t) in queries.iter().zip(tickets) {
            let got = t.wait().unwrap();
            let want = ctx.oracle(|| multi_select(&plain, ranks)).unwrap();
            assert_eq!(got.values, want);
            assert!(!got.approx);
        }
        ctx.clear_fault_plan();
        drop(client);
        server.shutdown().unwrap();
    }

    #[test]
    fn zero_deadline_sheds_cold_and_degrades_warm() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let v = data(3000, 6);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        let mut server = QueryServer::<u64>::start(&ctx, ServeOptions::default()).unwrap();
        let client = server.client().unwrap();
        client.register("ds", v).unwrap();
        let rush = QueryOptions {
            deadline: Some(Duration::ZERO),
            degraded: Some(true),
        };
        // Cold skeleton: no boundary known, nothing to degrade to → shed.
        let t = client.query_with("ds", vec![1500], rush).unwrap();
        match t.wait() {
            Err(EmError::DeadlineExceeded { .. }) => {}
            other => panic!("expected a shed, got {other:?}"),
        }
        // Warm the skeleton with a refining exact batch.
        client
            .query("ds", vec![1000, 2000])
            .unwrap()
            .wait()
            .unwrap();
        // Now the same rushed query degrades: zero I/O, bounded rank error.
        let before = ctx.stats().snapshot();
        let a = client
            .query_with("ds", vec![1500], rush)
            .unwrap()
            .wait()
            .unwrap();
        assert!(a.approx);
        assert!(
            a.rank_error <= 500,
            "bound {} from cuts at 1000/2000",
            a.rank_error
        );
        assert_eq!(
            ctx.stats().snapshot().since(&before).total_ios(),
            0,
            "degraded answers are skeleton-only"
        );
        // The realized error respects the stated bound.
        let true_rank = sorted.iter().position(|&x| x == a.values[0]).unwrap() as u64 + 1;
        assert!(true_rank.abs_diff(1500) <= a.rank_error);
        drop(client);
        let report = server.shutdown().unwrap();
        assert_eq!(report.shed, 1);
        assert_eq!(report.degraded, 1);
    }

    #[test]
    fn breaker_opens_fails_fast_and_probe_restores() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let v = data(1000, 7);
        let mut server = QueryServer::<u64>::start(
            &ctx,
            ServeOptions {
                breaker_threshold: 2,
                probe_cooldown: Duration::from_millis(5),
                retry: RetryPolicy::NONE,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let client = server.client().unwrap();
        client.register("ds", v).unwrap();
        // Crash the device; two failed batches trip the breaker.
        let plan = FaultPlan::new(0).fail_nth(0, FaultKind::Fatal);
        ctx.install_fault_plan(plan.clone());
        for _ in 0..2 {
            let e = client.query("ds", vec![10]).unwrap().wait().unwrap_err();
            assert!(matches!(e, EmError::Crashed), "got {e}");
        }
        // Breaker open: fail fast with a typed Unhealthy error.
        let e = client.query("ds", vec![10]).unwrap().wait().unwrap_err();
        assert!(matches!(e, EmError::Unhealthy { .. }), "got {e}");
        let health = client.health().unwrap();
        assert_eq!(health.len(), 1);
        assert_ne!(health[0].state, BreakerState::Closed);
        // Device restored: the background probe half-opens and closes it.
        plan.clear_crash();
        let t0 = Instant::now();
        loop {
            let h = &client.health().unwrap()[0];
            if h.state == BreakerState::Closed {
                break;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "probe never restored"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let a = client.query("ds", vec![10]).unwrap().wait().unwrap();
        assert_eq!(a.values, vec![9]);
        drop(client);
        let report = server.shutdown().unwrap();
        assert_eq!(report.breaker_trips, 1);
        assert!(report.probes >= 1);
        assert!(report.breaker_restores >= 1);
    }

    #[test]
    fn manual_clock_makes_breaker_lifecycle_deterministic() {
        use emcore::ManualClock;
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let clock = Arc::new(ManualClock::new(0));
        ctx.set_clock(clock.clone());
        let cooldown = Duration::from_millis(25);
        let mut server = QueryServer::<u64>::start(
            &ctx,
            ServeOptions {
                breaker_threshold: 2,
                probe_cooldown: cooldown,
                retry: RetryPolicy::NONE,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let client = server.client().unwrap();
        client.register("ds", data(1000, 11)).unwrap();
        let plan = FaultPlan::new(0).fail_nth(0, FaultKind::Fatal);
        ctx.install_fault_plan(plan.clone());
        for _ in 0..2 {
            let e = client.query("ds", vec![10]).unwrap().wait().unwrap_err();
            assert!(matches!(e, EmError::Crashed), "got {e}");
        }
        plan.clear_crash();
        // The device is healthy again, but the clock has not moved: no
        // amount of real time or request traffic may half-open the
        // breaker. (Under the old Instant-based cooldown this would flap
        // with scheduling jitter.)
        std::thread::sleep(Duration::from_millis(30));
        for _ in 0..3 {
            let h = &client.health().unwrap()[0];
            assert_eq!(h.state, BreakerState::Open, "cooldown is clock-driven");
        }
        // Advance past the cooldown: the next request's probe tick
        // half-opens; one more advance and tick restores it.
        clock.advance(cooldown.as_micros() as u64 + 1);
        let _ = client.report().unwrap();
        clock.advance(cooldown.as_micros() as u64 + 1);
        let t0 = Instant::now();
        loop {
            if client.health().unwrap()[0].state == BreakerState::Closed {
                break;
            }
            assert!(t0.elapsed() < Duration::from_secs(5), "probe never ran");
        }
        let a = client.query("ds", vec![10]).unwrap().wait().unwrap();
        assert_eq!(a.values, vec![9]);
        drop(client);
        let report = server.shutdown().unwrap();
        assert_eq!(report.breaker_trips, 1);
        assert!(report.breaker_restores >= 1);
    }

    #[test]
    fn deadline_cannot_expire_under_a_manual_clock() {
        use emcore::ManualClock;
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        ctx.set_clock(Arc::new(ManualClock::new(7_000)));
        // A 1µs deadline with the default 2ms batching window would shed
        // nearly every query on the wall clock; on a manual clock no time
        // ever passes between submit and execution, so all are exact.
        let mut server = QueryServer::<u64>::start(
            &ctx,
            ServeOptions {
                deadline: Some(Duration::from_micros(1)),
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let client = server.client().unwrap();
        client.register("ds", data(500, 12)).unwrap();
        for r in [1u64, 250, 500] {
            let a = client.query("ds", vec![r]).unwrap().wait().unwrap();
            assert!(!a.approx);
            assert_eq!(a.values, vec![r - 1]);
        }
        drop(client);
        let report = server.shutdown().unwrap();
        assert_eq!(report.shed, 0, "manual clock: nothing can expire");
        assert_eq!(report.queries, 3);
    }

    #[test]
    fn e2e_histograms_conserve_against_report_counters() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        ctx.metrics().set_enabled(true);
        let mut server = QueryServer::<u64>::start(&ctx, ServeOptions::default()).unwrap();
        let client = server.client().unwrap();
        client.register("ds", data(2000, 13)).unwrap();
        // A mix of exact, failed (bad rank), shed and degraded queries.
        let rush = QueryOptions {
            deadline: Some(Duration::ZERO),
            degraded: Some(true),
        };
        let mut tickets = Vec::new();
        for r in [1u64, 500, 1000, 1500, 2000, 9999] {
            tickets.push(client.query("ds", vec![r]).unwrap());
        }
        for _ in 0..3 {
            tickets.push(client.query_with("ds", vec![777], rush).unwrap());
        }
        for t in tickets {
            let _ = t.wait();
        }
        let report = client.report().unwrap();
        let snap = ctx.metrics().snapshot(0);
        let e2e_total = snap.family_total("em_serve_query_e2e_us");
        assert_eq!(
            e2e_total, report.queries,
            "every accepted query must land in exactly one outcome histogram"
        );
        let occupancy = snap
            .find("em_serve_batch_occupancy", &[])
            .expect("registered at start");
        assert_eq!(
            occupancy.value, report.batches,
            "one occupancy sample per executed batch"
        );
        let shed = snap
            .find(
                "em_serve_query_e2e_us",
                &[("ds", "ds"), ("outcome", "shed")],
            )
            .map(|s| s.value)
            .unwrap_or(0);
        let degraded = snap
            .find(
                "em_serve_query_e2e_us",
                &[("ds", "ds"), ("outcome", "degraded")],
            )
            .map(|s| s.value)
            .unwrap_or(0);
        assert_eq!(shed + degraded, report.shed + report.degraded);
        drop(client);
        server.shutdown().unwrap();
    }

    #[test]
    fn report_absorb_sums_every_field() {
        let mut a = ServeReport {
            queries: 3,
            batches: 1,
            failed: 1,
            mem_budget_words: 100,
            ..ServeReport::default()
        };
        let b = ServeReport {
            queries: 7,
            batches: 2,
            degraded: 4,
            mem_budget_words: 50,
            queue_depth: 2,
            ..ServeReport::default()
        };
        a.absorb(&b);
        assert_eq!(a.queries, 10);
        assert_eq!(a.batches, 3);
        assert_eq!(a.failed, 1);
        assert_eq!(a.degraded, 4);
        assert_eq!(a.mem_budget_words, 150);
        assert_eq!(a.queue_depth, 2);
        // Absorbing a default report changes nothing.
        let before = a;
        a.absorb(&ServeReport::default());
        assert_eq!(a, before);
    }

    #[test]
    fn dataset_len_is_a_catalog_lookup() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let mut server = QueryServer::<u64>::start(&ctx, ServeOptions::default()).unwrap();
        let client = server.client().unwrap();
        client.register("ds", data(321, 8)).unwrap();
        let before = ctx.stats().snapshot();
        assert_eq!(client.dataset_len("ds").unwrap(), 321);
        assert_eq!(
            ctx.stats().snapshot().since(&before).total_ios(),
            0,
            "length lookups must be free"
        );
        assert!(matches!(
            client.dataset_len("nope"),
            Err(EmError::Config(_))
        ));
        drop(client);
        server.shutdown().unwrap();
    }

    #[test]
    fn shutdown_is_typed_and_idempotent() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let mut server = QueryServer::<u64>::start(&ctx, ServeOptions::default()).unwrap();
        assert!(server.client().is_ok());
        server.shutdown().unwrap();
        // Post-shutdown client() and a double join are typed errors.
        assert!(matches!(server.client(), Err(EmError::Unavailable { .. })));
        assert!(matches!(
            server.shutdown(),
            Err(EmError::Unavailable { .. })
        ));
    }
}
