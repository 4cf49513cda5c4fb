//! # emsort — external merge sort on the `emcore` runtime
//!
//! The `O((N/B)·lg_{M/B}(N/B))` comparison-based sorting baseline of the EM
//! model [Aggarwal & Vitter 1988]. In the SPAA'14 splitters paper this is
//! the algorithm that "trivially solves" every problem considered (§1.2);
//! the whole point of the paper is beating it, so this crate provides the
//! baseline every experiment compares against.
//!
//! Components:
//! * [`RunWriter`] / [`form_runs_replacement_selection`] — run formation.
//!   A `RunWriter` takes records one at a time and spills a sorted run per
//!   fill of its load buffer, so a caller that produces records on the fly
//!   never writes them unsorted; [`form_runs_load_sort`] feeds one from a
//!   file.
//! * [`LoserTree`] — tournament tree for `k`-way merging.
//! * [`merge_runs`] / [`external_sort`] — multiway merge passes ending in
//!   one sorted file.
//! * [`SortedRuns::stream`] — the same passes, except that the last one is
//!   pulled record by record ([`MergeStream`]) by a caller that reads the
//!   sorted order exactly once. Reduce passes first bring the run count
//!   down to a fan-in that leaves room for the caller's own block
//!   buffers. Skipping the output file saves its writes and its re-read:
//!   `2·ceil(N/B)` I/Os whenever the runs fit one merge.
//!
//! `external_sort` is built on the same two pieces: a `RunWriter` fed from
//! the input, then the merge passes down to one file.
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
//!
//! Streaming the last pass instead — here counting distinct values
//! without writing the sorted file:
//!
//! ```
//! use emcore::{EmConfig, EmContext};
//! use emsort::RunWriter;
//!
//! let ctx = EmContext::new_in_memory(EmConfig::medium());
//! let mut runs = RunWriter::new(&ctx);
//! for i in 0..50_000u64 {
//!     runs.push((i * 2654435761) % 1_000)?;
//! }
//! let mut runs = runs.finish()?;
//! let mut sorted = runs.stream(0)?; // the caller holds no buffers of its own
//! let (mut distinct, mut prev) = (0, None);
//! while let Some(x) = sorted.next()? {
//!     if prev != Some(x) {
//!         distinct += 1;
//!         prev = Some(x);
//!     }
//! }
//! assert_eq!(distinct, 1_000);
//! # Ok::<(), emcore::EmError>(())
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
    MergeStream, SortedRuns,
};
pub use parallel::parallel_external_sort;
pub use runs::{
    form_runs_load_sort, form_runs_replacement_selection, is_sorted, RunFormation, RunWriter,
};
pub use sort::{external_sort, external_sort_with, predicted_sort_ios};
