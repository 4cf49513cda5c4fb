//! Run formation: turning an unsorted input into sorted runs.
//!
//! [`RunWriter`] is the textbook approach as a push sink: fill memory,
//! sort, write out; runs of length `≈ M`. [`form_runs_load_sort`] feeds it
//! from a file; callers that produce records on the fly push them directly
//! and never write the unsorted input at all. The load buffer is sized to
//! `M` minus the reader and writer block buffers.

use emcore::{EmContext, EmFile, Record, Result, TrackedVec, Writer};

use crate::merge::SortedRuns;

/// Number of records the in-memory working area may hold, leaving room for
/// one reader and one writer block buffer (a block of records each).
pub(crate) fn working_capacity<T: Record>(ctx: &EmContext) -> usize {
    let b = ctx.config().block_records_for_width(T::WORDS);
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

impl<T: Record> Fill<T> {
    /// The writer's block buffer first, then the load buffer sized against
    /// the live budget and halved on rejection down to one block.
    fn new(ctx: &EmContext) -> Result<Self> {
        let writer = ctx.writer::<T>()?;
        let (load, cap) = ctx.try_tracked_vec_halving::<T>(
            working_capacity::<T>(ctx),
            ctx.config().block_records_for_width(T::WORDS),
            "run formation load buffer",
        )?;
        Ok(Self { writer, load, cap })
    }
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
            None => self.fill.insert(Fill::new(&self.ctx)?),
        };
        fill.load.push(rec);
        if fill.load.len() == fill.cap {
            self.spill()?;
        }
        Ok(())
    }

    /// Add every record of a slice: the same runs, boundaries and write
    /// I/Os as pushing them one at a time. Each step copies as much as the
    /// load buffer has room for, and spills when it is full.
    pub fn push_all(&mut self, mut recs: &[T]) -> Result<()> {
        while !recs.is_empty() {
            let fill = match &mut self.fill {
                Some(fill) => fill,
                None => self.fill.insert(Fill::new(&self.ctx)?),
            };
            let room = fill.cap - fill.load.len();
            let (head, rest) = recs.split_at(room.min(recs.len()));
            fill.load.try_extend_from_slice(head)?;
            recs = rest;
            if fill.load.len() == fill.cap {
                self.spill()?;
            }
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
/// memory: a [`RunWriter`] fed from `input` a block at a time. Costs one
/// read and one write per input block: `2·ceil(N/B)` I/Os.
pub fn form_runs_load_sort<T: Record>(input: &EmFile<T>) -> Result<Vec<EmFile<T>>> {
    let mut runs = RunWriter::new(input.ctx());
    let mut reader = input.reader()?;
    loop {
        let block = reader.fill_buf()?;
        if block.is_empty() {
            break;
        }
        let n = block.len();
        runs.push_all(block)?;
        reader.consume(n);
    }
    Ok(runs.finish()?.into_runs())
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
    use emcore::{EmConfig, KeyValue};

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

    /// Runs (contents, so boundaries too) and the write I/Os of pushing
    /// `data` into a [`RunWriter`] on a fresh strict context with `held`
    /// words charged elsewhere: one record at a time, or as slices of the
    /// given lengths (cycled).
    fn formed(data: &[u64], held: usize, slices: Option<&[usize]>) -> (Vec<Vec<u64>>, u64) {
        let c = ctx();
        let _held = c.mem().try_charge(held, "held by the test").unwrap();
        let before = c.stats().snapshot();
        let mut w = RunWriter::new(&c);
        match slices {
            None => data.iter().for_each(|&x| w.push(x).unwrap()),
            Some(lens) => {
                let mut rest = data;
                for &len in lens.iter().cycle() {
                    if rest.is_empty() {
                        break;
                    }
                    let (head, tail) = rest.split_at(len.min(rest.len()));
                    w.push_all(head).unwrap();
                    rest = tail;
                }
            }
        }
        let runs = w.finish().unwrap().into_runs();
        let writes = c.stats().snapshot().since(&before).writes;
        let runs = runs
            .iter()
            .map(|r| c.oracle(|| r.to_vec()).unwrap())
            .collect();
        (runs, writes)
    }

    #[test]
    fn push_all_forms_the_runs_single_pushes_form() {
        // M = 256, B = 16: a full load buffer holds 224 records; with 100
        // words held elsewhere the first try does not fit, and the
        // halving leaves 112.
        let data: Vec<u64> = (0..1000u64).map(|i| (i * 2654435761) % 977).collect();
        for (held, cap) in [(0, 224), (100, 112)] {
            let want = formed(&data, held, None);
            assert!(want.0[..want.0.len() - 1].iter().all(|r| r.len() == cap));
            for lens in [
                &[1][..],
                &[16],
                &[7, 30],
                &[cap - 1],
                &[cap],
                &[cap + 1],
                &[3 * cap + 5],
                &[1000],
                &[0, 5, 0, 250],
            ] {
                let got = formed(&data, held, Some(lens));
                assert_eq!(got, want, "held {held}, slices {lens:?}");
            }
        }
    }

    #[test]
    fn push_all_of_nothing_forms_no_run() {
        let c = ctx();
        let mut w = RunWriter::<u64>::new(&c);
        w.push_all(&[]).unwrap();
        assert!(w.finish().unwrap().is_empty());
        assert_eq!(c.stats().snapshot().total_ios(), 0);
        assert_eq!(c.mem().current(), 0);
    }

    #[test]
    fn load_buffer_halves_down_to_one_block_of_records() {
        // M = 256, B = 16. With 216 words held elsewhere and the writer's
        // 16-word block, 24 words are left for the load buffer. A block
        // holds 16 `u64`s or 8 `KeyValue`s, so halving stops at 16 records
        // (16 words) for one and at 8 records (16 words) for the other.
        fn runs_of<T: Record>(recs: &[T]) -> Vec<EmFile<T>> {
            let c = ctx();
            let _held = c.mem().try_charge(216, "held by the test").unwrap();
            let mut w = RunWriter::new(&c);
            w.push_all(recs).unwrap();
            let runs = w.finish().unwrap().into_runs();
            assert!(runs.iter().all(|r| is_sorted(r).unwrap()));
            assert_eq!(runs.iter().map(|r| r.len()).sum::<u64>(), recs.len() as u64);
            runs
        }
        let keys: Vec<u64> = (0..100u64).map(|i| (i * 37) % 100).collect();
        let runs = runs_of(&keys);
        assert_eq!(runs.len(), 7);
        assert!(runs.iter().all(|r| r.len() <= 16));
        let recs: Vec<KeyValue> = keys
            .iter()
            .map(|&key| KeyValue { key, value: !key })
            .collect();
        let runs = runs_of(&recs);
        assert_eq!(runs.len(), 13);
        assert!(runs.iter().all(|r| r.len() <= 8));
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
