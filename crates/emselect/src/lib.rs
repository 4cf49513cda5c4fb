//! # emselect — the external-memory selection stack of SPAA'14
//!
//! Implements, bottom-up, every selection component of *"Finding
//! Approximate Partitions and Splitters in External Memory"* (Hu, Tao,
//! Yang, Zhou; SPAA 2014):
//!
//! | paper | here |
//! |---|---|
//! | in-memory selection [BFPRT 1973] | [`select_rank_in_mem`], [`multi_select_in_mem`], [`median_of_five`] |
//! | Hu et al.\[6\] linear-I/O Θ(M)-splitters (black box) | [`sample_splitters`] (deterministic, randomized and stratified; see DESIGN.md substitutions) |
//! | distribution step of [Aggarwal & Vitter 1988] | [`distribute`], [`three_way_split`] |
//! | multi-partition, `O((N/B)·lg_{M/B} K)` (§1.2) | [`multi_partition`], [`multi_partition_at_ranks`]; sizes anywhere in `[a, b]` (§5.2): [`multi_partition_within`] |
//! | **L-intermixed selection** (§4.1, Lemma 6), `O(|D|/B)` | [`intermixed_select`] |
//! | **multi-selection** (§4.2, Theorem 4), `O((N/B)·lg_{M/B}(K/B))` | [`multi_select`], [`select_rank`], [`quantiles`] |
//!
//! ```
//! use emcore::{EmConfig, EmContext, EmFile};
//! use emselect::multi_select;
//!
//! let ctx = EmContext::new_in_memory(EmConfig::medium());
//! let data: Vec<u64> = (0..100_000).rev().collect();
//! let file = EmFile::from_slice(&ctx, &data).unwrap();
//! // The 25th/50th/75th percentiles, in far fewer I/Os than sorting:
//! let got = multi_select(&file, &[25_000, 50_000, 75_000]).unwrap();
//! assert_eq!(got, vec![24_999, 49_999, 74_999]);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod distribute;
mod intermixed;
mod internal;
mod internal_bounds;
mod level;
mod multi_partition;
mod multi_select;
mod partition_out;
mod recover;
mod sample_splitters;
mod split;

pub use distribute::{
    distribute, distribute_segs, max_distribution_fanout, max_distribution_fanout_now, stream_into,
    three_way_split, three_way_split_segs,
};
pub use intermixed::{intermixed_select, max_groups};
pub use internal::{median_of_five, multi_select_in_mem, select_rank_in_mem};
pub use internal_bounds::{multi_partition_counting, multi_select_counting, CmpCounter};
pub use multi_partition::{
    multi_partition, multi_partition_at_ranks, multi_partition_segs, multi_partition_with,
    multi_partition_within, MpOptions,
};
pub use multi_select::{
    base_case_capacity, multi_select, multi_select_segs, multi_select_window, multi_select_with,
    quantiles, select_rank, MsBaseCase, MsOptions,
};
pub use partition_out::{segs_len, ChainReader, Partition};
pub use recover::{
    multi_select_recoverable, MultiSelectJob, MultiSelectManifest, MULTI_SELECT_JOURNAL,
};
pub use sample_splitters::{
    bucket_of, count_buckets, count_buckets_segs, max_deterministic_fanout,
    max_deterministic_fanout_n, refined_splitters, sample_splitters, sample_splitters_segs,
    SplitterStrategy, SAMPLE_RHO,
};
pub use split::{split_at_rank, split_at_rank_segs};
