//! Run formation: turning an unsorted file into a set of sorted runs.
//!
//! Two strategies:
//!
//! * [`RunWriter`] — the textbook approach as a push sink: fill memory,
//!   sort, write out; runs of length `≈ M`. [`form_runs_load_sort`] feeds
//!   it from a file; callers that produce records on the fly push them
//!   directly and never write the unsorted input at all.
//! * [`form_runs_replacement_selection`] — a tournament-style heap that
//!   produces runs of expected length `≈ 2M` on random inputs (and a single
//!   run on already-sorted input), reducing the number of merge passes.
//!
//! Both stay within the memory budget: the load buffer / heap is sized to
//! `M` minus the reader and writer block buffers.

use std::collections::BinaryHeap;

use emcore::{EmContext, EmError, EmFile, Record, Result, TrackedVec, Writer};

use crate::merge::SortedRuns;

/// How initial runs are formed by [`crate::external_sort_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunFormation {
    /// Fill memory, sort, flush: runs of length `≈ M`.
    #[default]
    LoadSort,
    /// Replacement selection: runs of expected length `≈ 2M`.
    ReplacementSelection,
}

/// Number of records the in-memory working area may hold, leaving room for
/// one reader and one writer block buffer.
pub(crate) fn working_capacity<T: Record>(ctx: &EmContext) -> usize {
    let b = ctx.config().block_size();
    ctx.mem_records::<T>().saturating_sub(2 * b).max(b)
}

/// The push side of an external sort: records go in one at a time and
/// come out as sorted runs of `≈ M` records.
///
/// Each fill of the load buffer is one run. The buffer and the run's
/// writer are allocated when a run receives its first record — the
/// writer's block buffer first, then the load buffer sized against the
/// live (possibly squeezed or restored) budget and halved on rejection.
/// A squeeze landing mid-run therefore cannot fail the run: it takes
/// effect at the next run boundary as a shorter run. Sorting happens on
/// the calling thread.
///
/// Costs one write per block of runs; [`RunWriter::finish`] hands the
/// runs to their merge ([`SortedRuns`]).
pub struct RunWriter<T: Record> {
    ctx: EmContext,
    fill: Option<Fill<T>>,
    runs: Vec<EmFile<T>>,
}

/// The run being filled: its writer and its load buffer.
struct Fill<T: Record> {
    writer: Writer<T>,
    load: TrackedVec<T>,
    cap: usize,
}

impl<T: Record> RunWriter<T> {
    /// An empty run writer on `ctx`. Allocates nothing until the first
    /// push.
    pub fn new(ctx: &EmContext) -> Self {
        Self {
            ctx: ctx.clone(),
            fill: None,
            runs: Vec::new(),
        }
    }

    /// Add one record; spills a sorted run whenever the load buffer fills.
    pub fn push(&mut self, rec: T) -> Result<()> {
        let fill = match &mut self.fill {
            Some(fill) => fill,
            None => {
                let writer = self.ctx.writer::<T>()?;
                let (load, cap) = self.ctx.try_tracked_vec_halving::<T>(
                    working_capacity::<T>(&self.ctx),
                    self.ctx.config().block_size(),
                    "run formation load buffer",
                )?;
                self.fill.insert(Fill { writer, load, cap })
            }
        };
        fill.load.push(rec);
        if fill.load.len() == fill.cap {
            self.spill()?;
        }
        Ok(())
    }

    /// Sort the load buffer and write it out as one run.
    fn spill(&mut self) -> Result<()> {
        let Some(Fill {
            mut writer,
            mut load,
            ..
        }) = self.fill.take()
        else {
            return Ok(());
        };
        let _unit = self
            .ctx
            .stats()
            .trace_span(|| format!("unit/run#{}", self.runs.len()));
        load.sort_unstable_by_key(|r| r.key());
        writer.push_all(&load)?;
        self.runs.push(writer.finish()?);
        Ok(())
    }

    /// Spill the last, partial run and return every run for merging.
    pub fn finish(mut self) -> Result<SortedRuns<T>> {
        self.spill()?;
        Ok(SortedRuns::new(&self.ctx, self.runs))
    }
}

/// Form sorted runs by loading `≈ M` records at a time and sorting in
/// memory: a [`RunWriter`] fed from `input`. Costs one read and one write
/// per input block: `2·ceil(N/B)` I/Os.
pub fn form_runs_load_sort<T: Record>(input: &EmFile<T>) -> Result<Vec<EmFile<T>>> {
    let mut runs = RunWriter::new(input.ctx());
    let mut reader = input.reader()?;
    while let Some(x) = reader.next()? {
        runs.push(x)?;
    }
    Ok(runs.finish()?.into_runs())
}

struct HeapItem<T: Record> {
    rec: T,
}

impl<T: Record> PartialEq for HeapItem<T> {
    fn eq(&self, other: &Self) -> bool {
        self.rec.key() == other.rec.key()
    }
}
impl<T: Record> Eq for HeapItem<T> {}
impl<T: Record> PartialOrd for HeapItem<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: Record> Ord for HeapItem<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse order: BinaryHeap is a max-heap, we want the minimum key.
        other.rec.key().cmp(&self.rec.key())
    }
}

/// Form sorted runs by replacement selection.
///
/// A min-heap of capacity `≈ M` holds the "current run" candidates; records
/// smaller than the last emitted key are parked for the next run. On random
/// input the expected run length is `2M` (Knuth's snowplough argument), so
/// roughly half as many runs come out of the same scan, at the same
/// `2·ceil(N/B)` I/O cost.
pub fn form_runs_replacement_selection<T: Record>(input: &EmFile<T>) -> Result<Vec<EmFile<T>>> {
    let ctx = input.ctx().clone();
    // The heap + parked buffer jointly hold at most `cap` records; charge
    // them as one region (BinaryHeap's storage is not a TrackedVec, so the
    // charge is taken explicitly), halving on rejection like the load-sort
    // path. The heap lives for the whole job, so the budget read here is
    // the admission point; squeezes land on the next job.
    let floor = ctx.config().block_size().max(1);
    let mut cap = working_capacity::<T>(&ctx).max(floor);
    let _charge = loop {
        match ctx
            .mem()
            .try_charge(cap * T::WORDS, "replacement selection working set")
        {
            Ok(c) => break c,
            Err(e @ EmError::MemoryExceeded { .. }) => {
                if cap <= floor {
                    return Err(e);
                }
                cap = (cap / 2).max(floor);
            }
            Err(e) => return Err(e),
        }
    };

    let mut reader = input.reader()?;
    let mut runs: Vec<EmFile<T>> = Vec::new();
    let mut heap: BinaryHeap<HeapItem<T>> = BinaryHeap::with_capacity(cap);
    let mut parked: Vec<T> = Vec::with_capacity(cap);

    // Prime the heap.
    while heap.len() < cap {
        match reader.next()? {
            Some(x) => heap.push(HeapItem { rec: x }),
            None => break,
        }
    }

    while !heap.is_empty() {
        let mut w = ctx.writer::<T>()?;
        while let Some(item) = heap.pop() {
            let rec = item.rec;
            w.push(rec)?;
            let last_key = rec.key();
            // Refill from input if there is room (heap + parked < cap).
            if heap.len() + parked.len() < cap {
                if let Some(x) = reader.next()? {
                    if x.key() >= last_key {
                        heap.push(HeapItem { rec: x });
                    } else {
                        parked.push(x);
                    }
                }
            }
        }
        runs.push(w.finish()?);
        // Start the next run from the parked records.
        for rec in parked.drain(..) {
            heap.push(HeapItem { rec });
        }
    }
    Ok(runs)
}

/// Verify that `file` is sorted by key (one scan; charges its reads).
pub fn is_sorted<T: Record>(file: &EmFile<T>) -> Result<bool> {
    let mut r = file.reader()?;
    let mut prev: Option<T::Key> = None;
    while let Some(x) = r.next()? {
        if let Some(p) = prev {
            if x.key() < p {
                return Ok(false);
            }
        }
        prev = Some(x.key());
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use emcore::EmConfig;

    fn ctx() -> EmContext {
        EmContext::new_in_memory_strict(EmConfig::tiny()) // M=256, B=16
    }

    fn check_runs(runs: &[EmFile<u64>], expect_total: u64) {
        let mut total = 0;
        for r in runs {
            assert!(is_sorted(r).unwrap());
            total += r.len();
        }
        assert_eq!(total, expect_total);
    }

    #[test]
    fn load_sort_forms_sorted_runs() {
        let c = ctx();
        let data: Vec<u64> = (0..1000).rev().collect();
        let f = EmFile::from_slice(&c, &data).unwrap();
        let runs = form_runs_load_sort(&f).unwrap();
        check_runs(&runs, 1000);
        // working capacity = 256 - 32 = 224 → ceil(1000/224) = 5 runs
        assert_eq!(runs.len(), 5);
    }

    #[test]
    fn load_sort_single_run_when_fits() {
        let c = ctx();
        let data: Vec<u64> = vec![5, 3, 1, 2, 4];
        let f = EmFile::from_slice(&c, &data).unwrap();
        let runs = form_runs_load_sort(&f).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].to_vec().unwrap(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn load_sort_empty_input() {
        let c = ctx();
        let f = c.create_file::<u64>().unwrap();
        assert!(form_runs_load_sort(&f).unwrap().is_empty());
    }

    #[test]
    fn load_sort_io_cost_is_two_scans() {
        let c = ctx();
        let data: Vec<u64> = (0..960).rev().collect(); // 60 blocks
        let f = EmFile::from_slice(&c, &data).unwrap();
        let before = c.stats().snapshot();
        let _ = form_runs_load_sort(&f).unwrap();
        let d = c.stats().snapshot().since(&before);
        assert_eq!(d.reads, 60);
        assert_eq!(d.writes, 60);
    }

    #[test]
    fn replacement_selection_runs_sorted_and_complete() {
        let c = ctx();
        // pseudo-random but deterministic
        let data: Vec<u64> = (0..2000u64).map(|i| (i * 2654435761) % 10_000).collect();
        let f = EmFile::from_slice(&c, &data).unwrap();
        let runs = form_runs_replacement_selection(&f).unwrap();
        check_runs(&runs, 2000);
        let lr = form_runs_load_sort(&f).unwrap();
        assert!(
            runs.len() < lr.len(),
            "replacement selection ({}) should beat load-sort ({}) on random input",
            runs.len(),
            lr.len()
        );
    }

    #[test]
    fn replacement_selection_sorted_input_single_run() {
        let c = ctx();
        let data: Vec<u64> = (0..1500).collect();
        let f = EmFile::from_slice(&c, &data).unwrap();
        let runs = form_runs_replacement_selection(&f).unwrap();
        assert_eq!(runs.len(), 1);
        assert!(is_sorted(&runs[0]).unwrap());
        assert_eq!(runs[0].len(), 1500);
    }

    #[test]
    fn replacement_selection_reverse_input_worst_case() {
        let c = ctx();
        let data: Vec<u64> = (0..1000).rev().collect();
        let f = EmFile::from_slice(&c, &data).unwrap();
        let runs = form_runs_replacement_selection(&f).unwrap();
        check_runs(&runs, 1000);
        // Worst case degenerates to ≈ N/M runs, never worse than 1 per record.
        assert!(runs.len() <= 6);
    }

    #[test]
    fn replacement_selection_with_duplicates() {
        let c = ctx();
        let data: Vec<u64> = (0..1200).map(|i| i % 7).collect();
        let f = EmFile::from_slice(&c, &data).unwrap();
        let runs = form_runs_replacement_selection(&f).unwrap();
        check_runs(&runs, 1200);
    }

    #[test]
    fn is_sorted_detects_disorder() {
        let c = ctx();
        let f = EmFile::from_slice(&c, &[1u64, 2, 3, 2]).unwrap();
        assert!(!is_sorted(&f).unwrap());
        let g = EmFile::from_slice(&c, &[1u64, 1, 2]).unwrap();
        assert!(is_sorted(&g).unwrap());
    }
}
