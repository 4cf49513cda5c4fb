//! # emsort — external merge sort on the `emcore` runtime
//!
//! The `O((N/B)·lg_{M/B}(N/B))` comparison-based sorting baseline of the EM
//! model [Aggarwal & Vitter 1988]. In the SPAA'14 splitters paper this is
//! the algorithm that "trivially solves" every problem considered (§1.2);
//! the whole point of the paper is beating it, so this crate provides the
//! baseline every experiment compares against.
//!
//! Components:
//! * [`form_runs_load_sort`] / [`form_runs_replacement_selection`] — run
//!   formation.
//! * [`LoserTree`] — tournament tree for `k`-way merging.
//! * [`merge_runs`] / [`external_sort`] — multiway merge passes.
//!
//! ```
//! use emcore::{EmConfig, EmContext, EmFile};
//! use emsort::{external_sort, is_sorted};
//!
//! let ctx = EmContext::new_in_memory(EmConfig::medium());
//! let data: Vec<u64> = (0..50_000).map(|i| (i * 2654435761u64) % 1_000_000).collect();
//! let file = EmFile::from_slice(&ctx, &data).unwrap();
//! let sorted = external_sort(&file).unwrap();
//! assert!(is_sorted(&sorted).unwrap());
//! assert_eq!(sorted.len(), 50_000);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod loser_tree;
mod manifest;
mod merge;
mod parallel;
mod runs;
mod sort;

pub use loser_tree::{LoserTree, SliceSource, Source};
pub use manifest::{external_sort_recoverable, SortJob, SortManifest, SORT_JOURNAL};
pub use merge::{
    max_merge_fan_in, max_merge_fan_in_now, merge_once, merge_runs, merge_runs_with_fan_in,
};
pub use parallel::parallel_external_sort;
pub use runs::{form_runs_load_sort, form_runs_replacement_selection, is_sorted, RunFormation};
pub use sort::{external_sort, external_sort_with, predicted_sort_ios};
