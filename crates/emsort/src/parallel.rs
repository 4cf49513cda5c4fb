//! The parts of [`crate::external_sort`] that run on more than one thread.
//!
//! `external_sort` decides one plan — run boundaries, merge groups,
//! fan-in, passes — at every worker count `W`, so logical I/O counts and
//! the sorted output are byte-for-byte the same at any `W`; only
//! wall-clock time changes. Built on `std::thread` + `std::sync::mpsc`
//! only.
//!
//! ## Threading structure
//!
//! * **Run formation** — when the load-sort chunk boundaries fall on block
//!   boundaries (the common case: the working capacity is a whole number
//!   of blocks), `W` workers claim chunk indices from an atomic counter
//!   and read, sort, and write their chunks entirely on their own
//!   ([`form_runs_block_ranges`]) — the read scan itself is parallel, and
//!   every input block is still read exactly once. Otherwise the runs come
//!   from [`crate::form_runs_load_sort`] on the calling thread.
//! * **Merge passes** — the one merge-pass loop lets up to `W` threads take
//!   a pass's groups in order, each group cut when it is taken; a pass of
//!   one group (the last) stays on one thread.
//! * **Merge overlap** — when the context simulates device latency
//!   (`EmConfig::device_latency_us > 0`) and `W > 1`, each merge
//!   additionally overlaps transfers with computation
//!   ([`merge_once_prefetch`]): one *prefetch thread per input run* reads
//!   blocks ahead into a small bounded channel, and a dedicated writer
//!   thread drains full output blocks from the merging thread — device
//!   reads, loser-tree comparisons, and device writes all proceed
//!   concurrently, so even the final single-group pass benefits from
//!   parallelism. On a zero-latency backend a transfer is a memcpy and the
//!   channel handoffs would be pure overhead, so plain in-thread merges
//!   are used instead; either way the logical I/O schedule is the same.
//!
//! ## Memory model
//!
//! In the spirit of distributed EM sorting (cf. Rahn, Sanders & Singler),
//! the parallel sort is modelled as `W` cooperating EM machines, each with
//! its own budget of `M` words; the aggregate in-flight footprint is
//! `O(W·M)`. All charges still go through the shared [`emcore::MemoryTracker`]
//! so peak usage is reported honestly, but a *strict* context enforces a
//! single-machine budget and therefore sorts on one thread.
//!
//! Fault injection composes with the parallel path, but positional
//! triggers (`Trigger::OnCount`) fire on a global counter and are
//! therefore nondeterministic under concurrency; crash-recovery tests
//! should keep `workers = 1`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};

use emcore::{EmContext, EmError, EmFile, MemCharge, Record, Result};

use crate::loser_tree::{LoserTree, Source};

/// How many block batches a prefetch thread may run ahead of the merge.
const PREFETCH_DEPTH: usize = 2;

/// Cut `input` into chunks of `cap` records, a whole number of blocks, and
/// sort and write them on `workers` threads, which claim chunk indices
/// from an atomic counter and read their own chunks straight from `input`.
/// Each input block belongs to exactly one chunk and is read exactly once,
/// so the runs and the logical I/O are those of
/// [`crate::form_runs_load_sort`]. Returns the runs in scan order.
pub(crate) fn form_runs_block_ranges<T: Record>(
    input: &EmFile<T>,
    workers: usize,
    cap: usize,
) -> Result<Vec<EmFile<T>>> {
    let ctx = input.ctx().clone();
    // Worker threads parent their spans on the phase open here: the tracer
    // resolves parents per thread, so without the explicit id a worker's
    // span could land under another thread's span.
    let parent = ctx.stats().current_span_id();
    let bs = ctx.config().block_records_for_width(T::WORDS);
    let n = input.len() as usize;
    let chunks = n.div_ceil(cap);
    let next = AtomicUsize::new(0);
    let failed = std::sync::atomic::AtomicBool::new(false);

    std::thread::scope(|s| {
        let next = &next;
        let failed = &failed;
        let mut handles = Vec::with_capacity(workers.min(chunks));
        for _ in 0..workers.min(chunks) {
            let wctx = ctx.clone();
            handles.push(s.spawn(move || -> Result<Vec<(usize, EmFile<T>)>> {
                let mut produced = Vec::new();
                let mut scratch: Vec<T> = Vec::new();
                let _scratch_charge = wctx
                    .mem()
                    .try_charge(bs * T::WORDS, "parallel chunk read block")?;
                loop {
                    let seq = next.fetch_add(1, Ordering::Relaxed);
                    let start = seq.saturating_mul(cap);
                    if start >= n || failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let len = cap.min(n - start);
                    // Trace-only span per chunk, pinned under the
                    // coordinating sort/run-formation phase.
                    let _unit = wctx
                        .stats()
                        .trace_span_under(parent, || format!("unit/run#{seq}"));
                    let run = (|| -> Result<EmFile<T>> {
                        let charge = wctx
                            .mem()
                            .try_charge(cap * T::WORDS, "parallel run formation chunk")?;
                        let mut chunk: Vec<T> = Vec::with_capacity(len);
                        let first = (start / bs) as u64;
                        for b in first..first + len.div_ceil(bs) as u64 {
                            input.read_block_into(b, &mut scratch)?;
                            chunk.extend_from_slice(&scratch);
                        }
                        debug_assert_eq!(chunk.len(), len);
                        chunk.sort_unstable_by_key(|r| r.key());
                        let mut w = wctx.writer::<T>()?;
                        w.push_all(&chunk)?;
                        drop(chunk);
                        drop(charge);
                        w.finish()
                    })();
                    match run {
                        Ok(f) => produced.push((seq, f)),
                        Err(e) => {
                            // Tell the other workers to stop claiming work.
                            failed.store(true, Ordering::Relaxed);
                            return Err(e);
                        }
                    }
                }
                Ok(produced)
            }));
        }

        let mut tagged: Vec<(usize, EmFile<T>)> = Vec::new();
        let mut worker_err: Option<EmError> = None;
        for h in handles {
            match h.join() {
                Ok(Ok(mut runs)) => tagged.append(&mut runs),
                Ok(Err(e)) => worker_err = worker_err.or(Some(e)),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        if let Some(e) = worker_err {
            return Err(e);
        }
        tagged.sort_unstable_by_key(|&(seq, _)| seq);
        Ok(tagged.into_iter().map(|(_, f)| f).collect())
    })
}

/// A [`Source`] fed block batches by a prefetch thread.
struct ChannelSource<T: Record> {
    rx: Receiver<Result<(Vec<T>, MemCharge)>>,
    batch: Vec<T>,
    pos: usize,
    /// Keeps the current batch's words charged while records drain from it.
    _charge: Option<MemCharge>,
    failed: bool,
}

impl<T: Record> Source<T> for ChannelSource<T> {
    fn pull(&mut self) -> Result<Option<T>> {
        loop {
            if self.pos < self.batch.len() {
                self.pos += 1;
                return Ok(Some(self.batch[self.pos - 1]));
            }
            if self.failed {
                return Ok(None);
            }
            match self.rx.recv() {
                Ok(Ok((batch, charge))) => {
                    self.batch = batch;
                    self.pos = 0;
                    self._charge = Some(charge);
                }
                Ok(Err(e)) => {
                    self.failed = true;
                    return Err(e);
                }
                Err(_) => {
                    // Prefetcher finished and hung up: source exhausted.
                    self._charge = None;
                    return Ok(None);
                }
            }
        }
    }
}

/// [`crate::merge_once`], but each input run is read ahead by its own
/// prefetch thread and full output blocks are handed to a dedicated writer
/// thread, so device reads, the loser-tree computation, and device writes
/// all overlap. Charges the same logical I/Os as a plain `merge_once` (one
/// read per input block, one write per output block).
pub(crate) fn merge_once_prefetch<T: Record>(
    ctx: &EmContext,
    runs: &[EmFile<T>],
) -> Result<EmFile<T>> {
    // One batch = one block: `bs` records of `T::WORDS` words each, charged
    // at the model's block size `B` (in words).
    let bs = ctx.config().block_records_for_width(T::WORDS);
    let block_words = ctx.config().block_size();
    std::thread::scope(|s| {
        let mut sources = Vec::with_capacity(runs.len());
        for run in runs {
            let (tx, rx) = sync_channel::<Result<(Vec<T>, MemCharge)>>(PREFETCH_DEPTH);
            let pctx = ctx.clone();
            s.spawn(move || {
                for block in 0..run.num_blocks() {
                    let mut batch = Vec::new();
                    let msg = match pctx.mem().try_charge(block_words, "merge prefetch batch") {
                        Ok(charge) => match run.read_block_into(block, &mut batch) {
                            Ok(()) => Ok((batch, charge)),
                            Err(e) => Err(e),
                        },
                        Err(e) => Err(e),
                    };
                    let failed = msg.is_err();
                    if tx.send(msg).is_err() || failed {
                        break; // consumer hung up, or nothing further to read
                    }
                }
            });
            sources.push(ChannelSource {
                rx,
                batch: Vec::new(),
                pos: 0,
                _charge: None,
                failed: false,
            });
        }

        // Writer thread: drains full output blocks so the merging thread
        // never stalls on a device write. Exits (closing the channel) on
        // the first write error; the merging thread then stops sending.
        let (wtx, wrx) = sync_channel::<(Vec<T>, MemCharge)>(PREFETCH_DEPTH);
        let wctx = ctx.clone();
        let writer = s.spawn(move || -> Result<EmFile<T>> {
            let mut w = wctx.writer::<T>()?;
            while let Ok((batch, charge)) = wrx.recv() {
                w.push_all(&batch)?;
                drop(charge);
            }
            w.finish()
        });

        let merged: Result<()> = (|| {
            let mut tree = LoserTree::with_tracking(sources, ctx.mem())?;
            let mut buf: Vec<T> = Vec::with_capacity(bs);
            let mut charge = ctx.mem().try_charge(block_words, "merge output batch")?;
            while let Some(x) = tree.pop()? {
                buf.push(x);
                if buf.len() == bs {
                    let full = std::mem::replace(&mut buf, Vec::with_capacity(bs));
                    let c = std::mem::replace(
                        &mut charge,
                        ctx.mem().try_charge(block_words, "merge output batch")?,
                    );
                    if wtx.send((full, c)).is_err() {
                        return Ok(()); // writer bailed: its error surfaces below
                    }
                }
            }
            if !buf.is_empty() {
                let _ = wtx.send((buf, charge));
            }
            Ok(())
        })();
        drop(wtx); // close the channel so the writer finishes the file

        let out = match writer.join() {
            Ok(r) => r,
            Err(panic) => std::panic::resume_unwind(panic),
        };
        // A writer error is the root cause when the merge side merely saw
        // the channel close; a merge error outranks the writer's clean
        // (but partial) file.
        match (merged, out) {
            (_, Err(e)) => Err(e),
            (Err(e), Ok(_)) => Err(e),
            (Ok(()), Ok(f)) => Ok(f),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{external_sort, is_sorted};
    use emcore::{Counters, EmConfig, KeyValue, Tagged};

    fn data(n: u64) -> Vec<u64> {
        (0..n).map(|i| (i * 2654435761) % 1_000_003).collect()
    }

    fn mem_ctx(workers: usize) -> EmContext {
        EmContext::new_in_memory(EmConfig::tiny().with_workers(workers))
    }

    fn io_delta(ctx: &EmContext, before: &Counters) -> (u64, u64) {
        let d = ctx.stats().snapshot().since(before);
        (d.reads, d.writes)
    }

    #[test]
    fn parallel_matches_sequential_output() {
        let n = 5000;
        let seq_ctx = mem_ctx(1);
        let par_ctx = mem_ctx(4);
        let sf = EmFile::from_slice(&seq_ctx, &data(n)).unwrap();
        let pf = EmFile::from_slice(&par_ctx, &data(n)).unwrap();
        let want = external_sort(&sf).unwrap().to_vec().unwrap();
        let got = external_sort(&pf).unwrap().to_vec().unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn parallel_charges_identical_logical_ios() {
        let n = 6000;
        let seq_ctx = mem_ctx(1);
        let par_ctx = mem_ctx(4);
        let sf = EmFile::from_slice(&seq_ctx, &data(n)).unwrap();
        let pf = EmFile::from_slice(&par_ctx, &data(n)).unwrap();

        let sb = seq_ctx.stats().snapshot();
        let sorted_seq = external_sort(&sf).unwrap();
        let seq_io = io_delta(&seq_ctx, &sb);

        let pb = par_ctx.stats().snapshot();
        let sorted_par = external_sort(&pf).unwrap();
        let par_io = io_delta(&par_ctx, &pb);

        assert_eq!(par_io, seq_io, "parallel sort must be I/O-identical");
        assert_eq!(sorted_par.to_vec().unwrap(), sorted_seq.to_vec().unwrap());
    }

    #[test]
    fn parallel_phase_totals_cover_worker_ios() {
        let par_ctx = mem_ctx(4);
        let pf = EmFile::from_slice(&par_ctx, &data(4000)).unwrap();
        let _ = external_sort(&pf).unwrap();
        let phases = par_ctx.stats().phase_totals();
        let formation = phases
            .iter()
            .find(|(n, _)| n == "sort/run-formation")
            .map(|(_, c)| c.total_ios())
            .unwrap_or(0);
        let merge = phases
            .iter()
            .find(|(n, _)| n == "sort/merge")
            .map(|(_, c)| c.total_ios())
            .unwrap_or(0);
        assert!(formation > 0, "worker I/O must land in the formation phase");
        assert!(merge > 0, "merge I/O must land in the merge phase");
    }

    #[test]
    fn parallel_on_disk_backend() {
        let dir = std::env::temp_dir().join(format!("emsort-par-{}", std::process::id()));
        let ctx = EmContext::new_on_disk(EmConfig::tiny().with_workers(4), &dir).unwrap();
        let f = EmFile::from_slice(&ctx, &data(3000)).unwrap();
        let s = external_sort(&f).unwrap();
        assert!(is_sorted(&s).unwrap());
        assert_eq!(s.len(), 3000);
        drop((f, s));
        drop(ctx);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_empty_and_tiny_inputs() {
        let c = mem_ctx(4);
        let f = c.create_file::<u64>().unwrap();
        assert!(external_sort(&f).unwrap().is_empty());
        let g = EmFile::from_slice(&c, &[9u64, 1, 5]).unwrap();
        assert_eq!(external_sort(&g).unwrap().to_vec().unwrap(), vec![1, 5, 9]);
    }

    #[test]
    fn strict_context_falls_back_to_sequential() {
        let c = EmContext::new_in_memory_strict(EmConfig::tiny().with_workers(4));
        let f = EmFile::from_slice(&c, &data(2000)).unwrap();
        // Would blow the strict single-machine budget if run on four
        // threads.
        let s = external_sort(&f).unwrap();
        assert!(is_sorted(&s).unwrap());
        assert_eq!(s.len(), 2000);
    }

    #[test]
    fn external_sort_dispatches_on_workers() {
        // external_sort on a workers=4 lenient context runs on four threads
        // and still matches the one-thread result.
        let seq_ctx = mem_ctx(1);
        let par_ctx = mem_ctx(4);
        let sf = EmFile::from_slice(&seq_ctx, &data(3500)).unwrap();
        let pf = EmFile::from_slice(&par_ctx, &data(3500)).unwrap();
        assert_eq!(
            external_sort(&pf).unwrap().to_vec().unwrap(),
            external_sort(&sf).unwrap().to_vec().unwrap()
        );
    }

    /// The output, the logical reads and writes, and the
    /// `sort/run-formation` and `sort/merge` phase totals of a sort.
    type Sorted<T> = (Vec<T>, (u64, u64), Vec<(String, Counters)>);

    /// Sort `data` at `workers` on a fresh lenient in-memory context with
    /// `cfg`'s geometry.
    fn sorted_at<T: Record>(cfg: EmConfig, data: &[T], workers: usize) -> Sorted<T> {
        let c = EmContext::new_in_memory(cfg.with_workers(workers));
        let f = c.stats().paused(|| EmFile::from_slice(&c, data)).unwrap();
        let before = c.stats().snapshot();
        let s = external_sort(&f).unwrap();
        let io = io_delta(&c, &before);
        let mut phases = c.stats().phase_totals();
        phases.retain(|(name, _)| name.starts_with("sort/"));
        phases.sort_by(|a, b| a.0.cmp(&b.0));
        (c.stats().paused(|| s.to_vec()).unwrap(), io, phases)
    }

    #[test]
    fn chunks_that_cut_blocks_sort_as_on_one_worker() {
        // M = 1000, B = 64: a run holds 1000 − 2·64 = 872 `u64`s, 13.6
        // blocks, so four workers form runs on the calling thread; 35 runs
        // at fan-in 13 take two passes, the first of three groups.
        let cfg = EmConfig::new(1000, 64).unwrap();
        let keys = data(30_000);
        let one = sorted_at(cfg, &keys, 1);
        assert_eq!(one.2.len(), 2, "both sort phases recorded");
        assert_eq!(sorted_at(cfg, &keys, 4), one);
        let mut want = keys;
        want.sort_unstable();
        assert_eq!(one.0, want);

        // M = 1024, B = 32 with 3-word records: a run holds 341 − 2·10 =
        // 321, 32.1 blocks of 10; 156 runs at fan-in 26 make a first pass
        // of six groups, more than the workers. Keys repeat, so equal keys
        // must also leave in the same order: run order, then the run's own
        // sort.
        let cfg = EmConfig::new(1024, 32).unwrap();
        let recs: Vec<Tagged<KeyValue>> = (0..50_000u64)
            .map(|i| {
                Tagged::new(
                    KeyValue {
                        key: i % 50,
                        value: i,
                    },
                    0,
                )
            })
            .collect();
        let one = sorted_at(cfg, &recs, 1);
        assert_eq!(sorted_at(cfg, &recs, 4), one);
        assert!(one.0.windows(2).all(|w| w[0].key() <= w[1].key()));
    }

    #[test]
    fn parallel_with_device_latency_overlaps_and_matches() {
        // A nonzero simulated device latency switches every merge to the
        // prefetch/write-behind path; output and logical I/Os must still
        // match the unthrottled sequential sort exactly.
        let n = 3000;
        let dir = std::env::temp_dir().join(format!("emsort-lat-{}", std::process::id()));
        let ctx = EmContext::new_on_disk(
            EmConfig::tiny().with_workers(4).with_device_latency_us(1),
            &dir,
        )
        .unwrap();
        let seq_ctx = mem_ctx(1);
        let pf = EmFile::from_slice(&ctx, &data(n)).unwrap();
        let sf = EmFile::from_slice(&seq_ctx, &data(n)).unwrap();

        let pb = ctx.stats().snapshot();
        let got = external_sort(&pf).unwrap();
        let par_io = io_delta(&ctx, &pb);
        let sb = seq_ctx.stats().snapshot();
        let want = external_sort(&sf).unwrap();
        let seq_io = io_delta(&seq_ctx, &sb);

        assert_eq!(got.to_vec().unwrap(), want.to_vec().unwrap());
        assert_eq!(par_io, seq_io, "latency throttle must not change the plan");
        drop((pf, got));
        drop(ctx);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_once_prefetch_matches_merge_once() {
        let c = mem_ctx(2);
        let mk = |off: u64| -> EmFile<u64> {
            let v: Vec<u64> = (0..500).map(|i| i * 3 + off).collect();
            EmFile::from_slice(&c, &v).unwrap()
        };
        let runs = [mk(0), mk(1), mk(2)];
        let before = c.stats().snapshot();
        let m = merge_once_prefetch(&c, &runs).unwrap();
        let d = c.stats().snapshot().since(&before);
        assert_eq!(m.to_vec().unwrap(), (0..1500u64).collect::<Vec<_>>());
        // Same logical I/O as a plain merge: read every input block once,
        // write every output block once.
        let blocks: u64 = runs.iter().map(|r| r.num_blocks()).sum();
        assert_eq!(d.reads, blocks);
        assert_eq!(d.writes, m.num_blocks());
    }
}
