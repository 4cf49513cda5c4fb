//! # emserve — an online splitter/quantile query service
//!
//! The batch algorithms (PRs 0–4) answer one-shot jobs; this crate turns
//! them into a long-lived service, exploiting the paper's central
//! amortization *online*: selecting `K` ranks together costs `B(N, K)`
//! I/Os — far less than `K` independent selections (Theorem 4) — and, in
//! the spirit of near-optimal online multiselection (Barbay–Gupta–Jo–
//! Rao–Sorenson), every answered query leaves pivot structure behind that
//! makes future queries cheaper.
//!
//! Three layers:
//!
//! * [`Catalog`] — a journaled name → dataset map on an
//!   [`emcore::EmContext`]; registered datasets are persistent and
//!   reopenable across process restarts (directory backend).
//! * [`SplitterIndex`] — the per-dataset pivot skeleton: ordered rank
//!   windows with known boundary elements, refined by every answered
//!   batch and journaled as a snapshot plus a log of per-batch deltas.
//!   Windows spanning two or more blocks are cut at new answers; a window
//!   held in one block keeps them as marks instead. Boundary and mark
//!   hits are answered from memory at zero I/O; misses select only inside
//!   the narrowest known segment.
//! * [`QueryServer`] / [`Client`] — a scheduler thread that coalesces
//!   concurrent in-flight queries per dataset under a batching window
//!   (bounded request queue = admission control) and answers each batch
//!   with one multi-select pass. [`serve_session`] adapts any
//!   [`QueryService`] to the `emsplit serve` line protocol, whose
//!   requests and replies are typed ([`Request`]/[`Response`]) and
//!   versioned ([`PROTOCOL_VERSION`]).
//! * [`Router`] — sharded scale-out (PR 9): a registered dataset is
//!   split into per-shard stores at exact splitter boundaries (the
//!   `apsplit` K-partitioning), the cuts are journaled in the catalog
//!   ([`ShardMap`]), and rank queries are scatter/gathered by co-ranking
//!   over the boundary skeleton — each shard answers its local ranks
//!   exactly, and the merged fleet answer is bit-identical to a single
//!   store. A breaker-open or memory-starved shard degrades only its own
//!   key range (approximate answers from the skeleton with an honest
//!   rank-error bound) while the rest of the fleet stays exact.
//!
//! The [`QueryService`] trait is the transport-agnostic surface over
//! both: the line protocol, the CLI, and tests are written once against
//! it, and whether the backing service is one [`QueryServer`] or a
//! [`Router`] fleet is a construction-time choice.
//!
//! The serving layer is fault-isolated (PR 6): reply channels carry typed
//! [`emcore::EmError`]s, failed batches are retried and then bisected so a
//! poisoned query is quarantined without failing its coalesced
//! neighbours, a per-dataset circuit breaker ([`BreakerState`]) fails
//! fast after repeated fatal faults and is restored by a background
//! probe, and over-deadline queries are shed — or, in degraded mode,
//! answered approximately from the splitter skeleton at zero I/O with an
//! explicit rank-error bound ([`QueryAnswer`]).

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod api;
mod catalog;
mod index;
mod protocol;
mod server;
mod shard;

pub use api::{QueryService, ServiceTicket};
pub use catalog::{validate_name, Catalog, DatasetEntry, ShardMap, CATALOG_JOURNAL};
pub use index::{approx_from_skeleton, AnswerStats, Segment, SplitterIndex};
pub use protocol::{serve_session, Request, Response, PROTOCOL_VERSION};
pub use server::{
    BreakerState, Client, DatasetHealth, QueryAnswer, QueryOptions, QueryServer, ServeOptions,
    ServeOptionsBuilder, ServeReport, Ticket,
};
pub use shard::{shard_fleet_in_memory, shard_fleet_on_disk, RoutedTicket, Router};
