//! # apsplit — approximate K-splitters and K-partitioning in external memory
//!
//! The core library of this workspace: a faithful implementation of the
//! algorithmic results of *"Finding Approximate Partitions and Splitters in
//! External Memory"* (Hu, Tao, Yang, Zhou; SPAA 2014).
//!
//! Given a set `S` of `N` records on disk and a feasible [`ProblemSpec`]
//! `(N, K, a, b)`:
//!
//! * [`approx_splitters`] returns `K − 1` elements of `S` whose induced
//!   partitions all have sizes in `[a, b]` (Theorem 5) — *sublinear* in `N`
//!   for the right-grounded case with small `a`;
//! * [`approx_partitioning`] physically splits `S` into `K` ordered
//!   partition files with sizes in `[a, b]` (Theorem 6);
//! * [`precise_partitioning`] / [`precise_via_approx`] realise the exact
//!   variant and the paper's §3 lower-bound reduction;
//! * [`sort_based_splitters`] / [`sort_based_partitioning`] /
//!   [`sort_based_multi_select`] are the §1.2 sorting baselines;
//! * [`bounds`] holds the closed-form Table-1 formulas the experiments
//!   compare measurements against;
//! * [`verify_splitters`] / [`verify_partitioning`] /
//!   [`verify_multiselect`] are correctness oracles;
//! * [`equi_depth_histogram`] / [`balanced_loads`] package the paper's two
//!   §1 motivations as applications.
//!
//! ```
//! use emcore::{EmConfig, EmContext, EmFile};
//! use apsplit::{approx_splitters, verify_splitters, ProblemSpec};
//!
//! let ctx = EmContext::new_in_memory(EmConfig::medium());
//! let data: Vec<u64> = (0..100_000).rev().collect();
//! let file = EmFile::from_slice(&ctx, &data).unwrap();
//!
//! // Partition sizes may range in [4, N]: a right-grounded instance,
//! // solvable in far fewer I/Os than even one scan of the input.
//! let spec = ProblemSpec::new(100_000, 16, 4, 100_000).unwrap();
//! let splitters = approx_splitters(&file, &spec).unwrap();
//! assert_eq!(splitters.len(), 15);
//! let report = verify_splitters(&file, &splitters, &spec).unwrap();
//! assert!(report.ok);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod adversary;
mod apps;
mod baseline;
pub mod bounds;
mod partitioning;
mod precise;
mod recover;
mod spec;
mod splitters;
mod verify;

pub use adversary::{cheating_right_grounded, complete_left_grounded, complete_right_grounded};
pub use apps::{balanced_loads, bottom_k, equi_depth_histogram, median, top_k, EquiDepthHistogram};
pub use baseline::{sort_based_multi_select, sort_based_partitioning, sort_based_splitters};
pub use partitioning::{
    approx_partitioning, approx_partitioning_with, PartitionOptions, Partitioning,
};
pub use precise::{precise_partitioning, precise_via_approx, precise_via_approx_with_step};
pub use recover::{
    approx_partitioning_recoverable, PartitionJob, PartitionManifest, PARTITION_JOURNAL,
};
pub use spec::{Groundedness, ProblemSpec, ProblemSpecBuilder};
pub use splitters::{approx_splitters, approx_splitters_with, SplitOptions};
pub use verify::{
    verify_multiselect, verify_partitioning, verify_splitters, PartitionReport, SplitterReport,
};
