//! # emcore — an external-memory (I/O) model runtime
//!
//! This crate implements the computation model of Aggarwal and Vitter's
//! external-memory (EM) model as a *measurable runtime*: algorithms written
//! against it are charged exactly one I/O per block transferred and are
//! metered for internal-memory usage, so their empirical I/O complexity can
//! be compared against theoretical bounds.
//!
//! It is the substrate for the reproduction of *"Finding Approximate
//! Partitions and Splitters in External Memory"* (SPAA 2014); see the
//! workspace `DESIGN.md`.
//!
//! ## Pieces
//!
//! * [`EmConfig`] — the model parameters `M` (memory capacity) and `B`
//!   (block size), in words (records only for one-word types). `M` is a
//!   *dynamic* budget at runtime: the [`MemoryGovernor`] can squeeze and
//!   restore it mid-run and algorithms adapt at phase boundaries
//!   (`EmContext::set_mem_budget`).
//! * [`EmContext`] — a "machine": config + shared [`IoStats`] +
//!   [`MemoryTracker`] + backing store (host RAM, or one block store file
//!   of checksummed slots in a directory; see [`SlotUsage`]).
//! * [`EmFile`] — a typed sequence of records stored in `B`-word blocks;
//!   [`Reader`]/[`Writer`] give block-buffered sequential access, a record
//!   or a block slice at a time.
//! * [`Record`] — fixed-width, keyed, POD records ([`KeyValue`],
//!   [`Tagged`], [`Indexed`] provided).
//! * [`SpillVec`] — bookkeeping arrays that can be written out to disk
//!   across recursive calls.
//! * [`Journal`] — durable, atomically-committed checkpoint documents
//!   ([`JournalState`] encode/decode); crash-recoverable algorithms
//!   checkpoint through one [`WorkLedger`] and run via [`run_recoverable`].
//!
//! ## Example
//!
//! ```
//! use emcore::{EmConfig, EmContext, EmFile};
//!
//! let ctx = EmContext::new_in_memory(EmConfig::new(4096, 64).unwrap());
//! let data: Vec<u64> = (0..10_000).rev().collect();
//! let file = EmFile::from_slice(&ctx, &data).unwrap();
//!
//! // Scanning the file costs ceil(N/B) block reads:
//! let before = ctx.stats().snapshot();
//! let mut r = file.reader().unwrap();
//! let mut count = 0u64;
//! while let Some(_x) = r.next().unwrap() {
//!     count += 1;
//! }
//! assert_eq!(count, 10_000);
//! let ios = ctx.stats().snapshot().since(&before);
//! assert_eq!(ios.reads, 10_000u64.div_ceil(64));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod checksum;
pub mod clock;
mod config;
mod ctx;
mod error;
mod fault;
mod file;
pub mod governor;
mod journal;
mod memory;
pub mod metrics;
mod pool;
mod record;
pub mod recovery;
pub mod report;
mod rng;
mod spill;
mod stats;
mod store;
pub mod trace;

pub use checksum::block_checksum;
pub use clock::{Clock, ManualClock, WallClock};
pub use config::EmConfig;
pub use ctx::EmContext;
pub use error::{EmError, Result};
pub use fault::{FaultCounts, FaultKind, FaultPlan, FaultSpec, IoOp, RetryPolicy, Trigger};
pub use file::{EmFile, Reader, Writer};
pub use governor::{GovernorSnapshot, Lease, LeaseInfo, MemoryGovernor};
pub use journal::{from_hex, to_hex, Journal, JournalState};
pub use memory::{MemCharge, MemoryTracker, TrackedVec};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricKind, MetricSample, MetricsRegistry,
    MetricsSnapshot, Sampler,
};
pub use pool::{BlockCache, PinnedBlock};
pub use record::{Indexed, KeyValue, Record, Tagged};
pub use recovery::{run_recoverable, InputId, LedgerDoc, Manifest, RecoverableJob, WorkLedger};
pub use report::{SpanNode, TraceReport};
pub use rng::SplitMix64;
pub use spill::SpillVec;
pub use stats::{Counters, IoStats, PhaseGuard};
pub use store::SlotUsage;
pub use trace::{
    FileAccess, JsonlSink, PointKind, RingSink, TraceEvent, TraceSink, Tracer, HEAT_BUCKETS,
};
