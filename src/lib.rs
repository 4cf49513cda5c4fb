//! # em-splitters
//!
//! A reproduction of **"Finding Approximate Partitions and Splitters in
//! External Memory"** (Hu, Tao, Yang, Zhou; SPAA 2014) as a Rust
//! workspace: the external-memory model as a measurable runtime, the full
//! algorithm stack (external sorting, L-intermixed selection, I/O-optimal
//! multi-selection, multi-partition), the paper's approximate K-splitters
//! and K-partitioning algorithms, baselines, verifiers, workload
//! generators, and a benchmark harness regenerating the paper's Table 1.
//!
//! This umbrella crate re-exports the workspace's public surface:
//!
//! * [`emcore`] — the EM-model runtime: [`emcore::EmContext`],
//!   [`emcore::EmFile`], I/O stats, memory metering.
//! * [`emsort`] — external merge sort (the paper's §1.2 baseline).
//! * [`emselect`] — the selection stack: [`emselect::multi_select`]
//!   (Theorem 4), [`emselect::intermixed_select`] (§4.1),
//!   [`emselect::multi_partition`] (Aggarwal–Vitter).
//! * [`apsplit`] — the headline algorithms: [`apsplit::approx_splitters`]
//!   (Theorem 5) and [`apsplit::approx_partitioning`] (Theorem 6).
//! * [`workloads`] — seeded input generators, including the paper's hard
//!   permutation family `Π_hard`.
//! * [`emserve`] — the serving layer: a persistent dataset catalog, a
//!   batch-coalescing [`emserve::QueryServer`], the journaled
//!   [`emserve::SplitterIndex`] for online multiselection, and the
//!   sharded scale-out tier — [`emserve::Router`] scatter/gathers rank
//!   queries across splitter-partitioned shards behind the same
//!   transport-agnostic [`emserve::QueryService`] trait.
//! * [`emgraph`] — semi-external graph partitioning and clustering on
//!   top of the stack: canonical edge files ([`emgraph::build_graph`]),
//!   crash-recoverable size-capped label propagation
//!   ([`emgraph::cluster()`]), degree/cluster bucketing via approximate
//!   K-partitioning, and clustering-as-dataset serve integration.
//!
//! ## Quickstart
//!
//! ```
//! use em_splitters::prelude::*;
//!
//! // An external-memory "machine" with M = 4096 records of memory and
//! // blocks of B = 64 records.
//! let ctx = EmContext::new_in_memory(EmConfig::medium());
//!
//! // 100k records on its disk.
//! let data: Vec<u64> = (0..100_000).rev().collect();
//! let file = EmFile::from_slice(&ctx, &data).unwrap();
//! ctx.stats().reset();
//!
//! // Split into 16 ranges of between 4 and 100_000 records each — a
//! // right-grounded instance, solvable in sublinear I/O.
//! let spec = ProblemSpec::builder(100_000, 16).min_size(4).build().unwrap();
//! let splitters = approx_splitters(&file, &spec).unwrap();
//!
//! // Far fewer I/Os than even one scan of the input:
//! assert!(ctx.stats().snapshot().total_ios() < 100_000 / 64 / 10);
//!
//! // The verification scan (not part of the algorithm) confirms validity.
//! let report = verify_splitters(&file, &splitters, &spec).unwrap();
//! assert!(report.ok);
//! ```

pub use apsplit;
pub use emcore;
pub use emgraph;
pub use emselect;
pub use emserve;
pub use emsort;
pub use workloads;

/// One-stop imports for applications.
pub mod prelude {
    pub use apsplit::{
        approx_partitioning, approx_partitioning_recoverable, approx_splitters, balanced_loads,
        equi_depth_histogram, median, precise_partitioning, precise_via_approx,
        sort_based_partitioning, sort_based_splitters, top_k, verify_multiselect,
        verify_partitioning, verify_splitters, Groundedness, PartitionJob, PartitionManifest,
        ProblemSpec, ProblemSpecBuilder,
    };
    pub use emcore::metrics::render_series_report;
    pub use emcore::{
        run_recoverable, BlockCache, Clock, EmConfig, EmContext, EmError, EmFile, FaultPlan,
        HistogramSnapshot, Journal, JsonlSink, Manifest, ManualClock, MetricSample,
        MetricsRegistry, MetricsSnapshot, Record, RecoverableJob, Result, RetryPolicy, RingSink,
        Sampler, TraceReport, TraceSink, WallClock,
    };
    pub use emgraph::{
        build_graph, cluster, cluster_buckets, cluster_sizes, count_clusters, degree_buckets,
        edges_from_pairs, labels_digest, rebind_graph, register_cluster_sizes, register_clustering,
        score_buckets, Buckets, BuildOptions, ClusterJob, ClusterManifest, ClusterOptions,
        Clustering, Edge, Graph,
    };
    pub use emselect::{
        multi_select, multi_select_recoverable, quantiles, select_rank, MsOptions, MultiSelectJob,
        MultiSelectManifest, Partition,
    };
    pub use emserve::{
        serve_session, shard_fleet_in_memory, shard_fleet_on_disk, BreakerState, Catalog,
        QueryAnswer, QueryOptions, QueryServer, QueryService, Request, Response, Router,
        ServeOptions, ServeReport, ServiceTicket, ShardMap, SplitterIndex, PROTOCOL_VERSION,
    };
    pub use emsort::{external_sort, external_sort_recoverable, SortJob, SortManifest};
    pub use workloads::{
        degree_histogram, generate, grid_edges, materialize, rmat_edges, Workload,
    };
}
