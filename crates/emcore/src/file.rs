//! Typed block files, the disk objects of the EM model.
//!
//! An [`EmFile<T>`] is a sequence of records of `T` stored in blocks of `B`
//! records. Reads and writes happen at block granularity and each transfer
//! charges one I/O to the owning context's [`crate::IoStats`]. Two backends
//! exist — host-RAM blocks for fast simulation and real files (fixed-width
//! byte encoding) — with identical accounting.
//!
//! Files are append-only at the block level (only the last block may be
//! partial), which is all the algorithms in this workspace need; random
//! *reads* are allowed anywhere.
//!
//! ## Device layer: faults, checksums, retries
//!
//! Every block transfer goes through a device layer *beneath* both backends:
//!
//! * If the context has a [`crate::FaultPlan`], each attempt consults it and
//!   may fail transiently, tear the write, corrupt the payload, or crash.
//! * On the file backend, each block is stored with an 8-byte checksum of
//!   its payload ([`crate::block_checksum`]) at a fixed slot after the
//!   block's full capacity. A block moves in one pass: a write encodes the
//!   records and the checksum into one stride-sized buffer and writes it
//!   with one call; a read fetches the whole stride with one call, verifies
//!   the checksum and decodes the records from the same bytes. A mismatch,
//!   or a file that ends inside the stride, surfaces [`EmError::Corrupt`]
//!   (this is what catches torn writes, truncation and silent corruption).
//!   The memory backend has no checksums — in-flight read corruption there
//!   is silent, which is exactly the danger checksums exist to remove.
//! * Retryable failures (transient errors, checksum misses) are retried
//!   under the context's [`crate::RetryPolicy`]; every failed-then-retried
//!   attempt is charged to [`crate::Counters::retries`] and its backoff to
//!   [`crate::EmContext::backoff_ticks`]. The *successful* attempt is
//!   charged to `reads`/`writes` as usual, so fault-free I/O counts are
//!   unchanged by this machinery.
//!
//! Byte counters (`bytes_read`/`bytes_written`) account payload only, not
//! checksums, so they keep meaning "record bytes moved".
//!
//! ## Logical vs physical I/O
//!
//! When the context has a [`crate::BlockCache`], a read that hits the cache
//! is still charged one *logical* I/O (`reads` — the model's currency) but
//! no *physical* transfer happens: the fault plan is not consulted and
//! `physical_reads` does not move. A miss on the file backend fills the
//! frame with the payload bytes the device read just verified. Writes are
//! write-through (every write is physical) and invalidate any cached frame,
//! so persisted corruption is still caught by the next physical read.

use std::cell::RefCell;
use std::fs::File;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::checksum::block_checksum;
use crate::ctx::EmContext;
use crate::error::{EmError, Result};
use crate::fault::{FaultKind, IoOp};
use crate::memory::TrackedVec;
use crate::record::Record;
use crate::stats::Counter;
use crate::trace::PointKind;

/// Width of the per-block checksum on the file backend.
const CHECKSUM_BYTES: usize = 8;

thread_local! {
    /// Per-thread byte scratch for disk-backend block encode/decode.
    /// Thread-local (rather than per-file) so concurrent readers of the
    /// same file never contend on — or panic over — one shared buffer.
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug)]
enum Storage<T: Record> {
    Mem(Vec<Box<[T]>>),
    Disk { file: File, path: PathBuf },
}

/// Outcome of consulting the fault plan that the device handler must act on
/// mid-transfer (transients and crashes short-circuit to `Err` earlier).
enum Injected {
    None,
    /// Persist a prefix, then fail with the given attempt index.
    Torn(u64),
    /// Flip a payload bit in-flight (reads) or before persisting (writes).
    Corrupt,
}

/// Consult the fault plan for the next device attempt. Transients and
/// crashes return `Err`; faults with device-state side effects are returned
/// for the backend handler to perform.
fn consult_plan(ctx: &EmContext, op: IoOp, file: u64) -> Result<Injected> {
    let plan = ctx.fault_plan();
    let Some(plan) = plan else {
        return Ok(Injected::None);
    };
    let traced = ctx.tracer().is_enabled() && !ctx.stats().is_paused();
    let injected_before = if traced { plan.injected().total() } else { 0 };
    let decision = plan.decide(op);
    if traced {
        if let Some(kind) = decision {
            // A crashed context reports Fatal on every attempt without
            // advancing the schedule — only genuinely injected faults (the
            // injection tally moved) become events.
            if plan.injected().total() > injected_before {
                ctx.stats().trace_point(PointKind::Fault { kind, op, file });
            }
        }
    }
    match decision {
        None => Ok(Injected::None),
        Some(FaultKind::Fatal) => Err(EmError::Crashed),
        Some(FaultKind::TransientRead) | Some(FaultKind::TransientWrite) => {
            Err(EmError::Transient {
                op,
                index: plan.last_attempt_index(),
            })
        }
        Some(FaultKind::TornWrite) => Ok(Injected::Torn(plan.last_attempt_index())),
        Some(FaultKind::CorruptRead) | Some(FaultKind::CorruptWrite) => Ok(Injected::Corrupt),
    }
}

/// Run one block transfer under the context's retry policy: retryable
/// failures are retried up to `max_attempts` total attempts, charging one
/// `retries` count and a deterministic backoff per failed attempt.
fn with_retries<R>(ctx: &EmContext, mut attempt: impl FnMut() -> Result<R>) -> Result<R> {
    // The policy is only consulted after a failure, so the (overwhelmingly
    // common) clean transfer never touches the policy mutex.
    let mut policy: Option<crate::RetryPolicy> = None;
    let mut failed: u32 = 0;
    loop {
        match attempt() {
            Ok(r) => return Ok(r),
            Err(e) if e.is_retryable() => {
                let p = *policy.get_or_insert_with(|| ctx.retry_policy());
                if failed + 1 >= p.max_attempts {
                    return Err(e);
                }
                failed += 1;
                ctx.stats().add(Counter::Retries, 1);
                if ctx.tracer().is_enabled() && !ctx.stats().is_paused() {
                    let op = match &e {
                        EmError::Transient { op, .. } => *op,
                        // The only other retryable error is Corrupt, which
                        // is detected on the read path.
                        _ => IoOp::Read,
                    };
                    ctx.stats().trace_point(PointKind::Retry { op });
                }
                ctx.note_backoff(p.backoff_ticks(failed));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Charge the configured simulated device latency for one physical disk
/// transfer. No locks are held here, so concurrent transfers (prefetch
/// threads, write-behind) overlap their sleeps exactly as overlapped
/// requests would on a real device.
fn throttle_device(ctx: &EmContext) {
    let us = ctx.config().device_latency_us();
    if us > 0 {
        std::thread::sleep(std::time::Duration::from_micros(us));
    }
}

/// Flip one bit of a record through its byte encoding (memory-backend
/// corruption, where there is no byte image to damage directly).
fn flip_record_bit<T: Record>(r: &T) -> T {
    let mut buf = vec![0u8; T::BYTES];
    r.write_bytes(&mut buf);
    buf[0] ^= 1;
    T::read_bytes(&buf)
}

/// A sequence of records stored in `B`-record blocks on the context's
/// backing store.
#[derive(Debug)]
pub struct EmFile<T: Record> {
    ctx: EmContext,
    storage: Storage<T>,
    len: u64,
    id: u64,
    /// When set, dropping the handle leaves the backing file on disk —
    /// used for files referenced by a checkpoint journal, which must
    /// survive a (simulated or real) process exit for resume.
    persistent: AtomicBool,
}

impl<T: Record> EmFile<T> {
    pub(crate) fn create(ctx: EmContext, id: u64) -> Result<Self> {
        let storage = match ctx.file_path(id) {
            None => Storage::Mem(Vec::new()),
            Some(path) => {
                let file = File::options()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(&path)?;
                Storage::Disk { file, path }
            }
        };
        Ok(Self {
            ctx,
            storage,
            len: 0,
            id,
            persistent: AtomicBool::new(false),
        })
    }

    /// Reopen an existing on-disk block file without truncating it (the
    /// cross-process resume path; see [`crate::EmContext::open_file`]).
    /// Validates the stored size against the block layout for `len`
    /// records. The handle starts out persistent.
    pub(crate) fn open_existing(ctx: EmContext, id: u64, len: u64) -> Result<Self> {
        let path = ctx.file_path(id).ok_or_else(|| {
            EmError::config("open_existing: no backing directory for this context")
        })?;
        let file = File::options().read(true).write(true).open(&path)?;
        let cap = ctx.config().block_records_for_width(T::WORDS);
        let stride = (cap * T::BYTES + CHECKSUM_BYTES) as u64;
        let want = len.div_ceil(cap as u64) * stride;
        let have = file.metadata()?.len();
        if have < want {
            return Err(EmError::config(format!(
                "open_existing: file em-{id:08}.bin holds {have} bytes, \
                 {want} needed for {len} records"
            )));
        }
        let f = Self {
            ctx,
            storage: Storage::Disk { file, path },
            len,
            id,
            persistent: AtomicBool::new(true),
        };
        // A fresh context's gauge starts at zero; reopened blocks re-enter
        // it so live/peak reflect what is actually on the backing store.
        f.ctx.tracer().note_blocks_alloc(f.num_blocks());
        Ok(f)
    }

    /// Mark whether the backing file should survive this handle's drop.
    /// Recoverable algorithms set this when a file becomes referenced by a
    /// checkpoint journal and clear it when the reference is retired, so
    /// intentional releases delete data as usual.
    #[inline]
    pub fn set_persistent(&self, keep: bool) {
        self.persistent.store(keep, Ordering::Relaxed);
    }

    /// Whether the backing file survives this handle's drop.
    #[inline]
    pub fn persistent(&self) -> bool {
        self.persistent.load(Ordering::Relaxed)
    }

    /// The owning context.
    #[inline]
    pub fn ctx(&self) -> &EmContext {
        &self.ctx
    }

    /// This file's id within its context (stable across the context's
    /// lifetime; the `file` field of [`EmError::Corrupt`]).
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Records per block for this record type: `max(1, B / T::WORDS)` —
    /// a block holds `B` *words*, so wider records pack fewer per block.
    #[inline]
    pub fn block_capacity(&self) -> usize {
        self.ctx.config().block_records_for_width(T::WORDS)
    }

    /// Number of records in the file.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the file holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of blocks (the last may be partial).
    #[inline]
    pub fn num_blocks(&self) -> u64 {
        self.len.div_ceil(self.block_capacity() as u64)
    }

    /// Number of records stored in block `block`.
    #[inline]
    pub fn block_len(&self, block: u64) -> usize {
        let b = self.block_capacity() as u64;
        let start = block * b;
        debug_assert!(start < self.len || self.len == 0);
        (self.len - start).min(b) as usize
    }

    /// On-disk stride of one block: full payload capacity plus checksum.
    #[inline]
    fn disk_stride(&self) -> u64 {
        (self.block_capacity() * T::BYTES + CHECKSUM_BYTES) as u64
    }

    /// One device read attempt: consult the fault plan, transfer, verify.
    /// Feeds the physical-transfer latency histogram when metrics are
    /// live; disabled metrics cost exactly one branch here.
    fn device_read(&self, block: u64, count: usize, buf: &mut Vec<T>) -> Result<()> {
        let t0 = self
            .ctx
            .inner
            .metrics
            .enabled()
            .then(std::time::Instant::now);
        let r = self.device_read_raw(block, count, buf);
        if let Some(t0) = t0 {
            self.ctx
                .inner
                .device_read_us
                .record(t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
        }
        r
    }

    fn device_read_raw(&self, block: u64, count: usize, buf: &mut Vec<T>) -> Result<()> {
        let injected = consult_plan(&self.ctx, IoOp::Read, self.id)?;
        buf.clear();
        match &self.storage {
            Storage::Mem(blocks) => {
                buf.extend_from_slice(&blocks[block as usize]);
                if matches!(injected, Injected::Corrupt) && !buf.is_empty() {
                    // No checksums in RAM: the flip goes through silently.
                    buf[0] = flip_record_bit(&buf[0]);
                }
                self.ctx.stats().record_read_block(self.id, block, 0);
                self.ctx.stats().add(Counter::PhysicalReads, 1);
            }
            Storage::Disk { file, .. } => {
                use std::os::unix::fs::FileExt;
                let bytes = count * T::BYTES;
                let stride = self.disk_stride();
                let corrupt = || {
                    self.ctx.stats().add(Counter::CorruptReads, 1);
                    EmError::Corrupt {
                        block,
                        file: self.id,
                    }
                };
                SCRATCH.with_borrow_mut(|sc| {
                    sc.resize(stride as usize, 0);
                    // One read of the whole stride, payload and checksum
                    // together. A file cut short inside the stride is a
                    // damaged block, not an I/O failure.
                    file.read_exact_at(sc, block * stride).map_err(|e| {
                        if e.kind() == std::io::ErrorKind::UnexpectedEof {
                            corrupt()
                        } else {
                            e.into()
                        }
                    })?;
                    let (payload, sum) = sc.split_at_mut(stride as usize - CHECKSUM_BYTES);
                    let payload = &mut payload[..bytes];
                    if matches!(injected, Injected::Corrupt) && bytes > 0 {
                        payload[0] ^= 1;
                    }
                    let stored = u64::from_le_bytes(sum.try_into().map_err(|_| corrupt())?);
                    if block_checksum(payload) != stored {
                        return Err(corrupt());
                    }
                    buf.extend(payload.chunks_exact(T::BYTES).map(T::read_bytes));
                    Ok(())
                })?;
                self.ctx
                    .stats()
                    .record_read_block(self.id, block, bytes as u64);
                self.ctx.stats().add(Counter::PhysicalReads, 1);
                throttle_device(&self.ctx);
            }
        }
        Ok(())
    }

    /// One device write attempt into block slot `slot`. Timed like
    /// [`Self::device_read`].
    fn device_write(&mut self, slot: u64, data: &[T]) -> Result<()> {
        let t0 = self
            .ctx
            .inner
            .metrics
            .enabled()
            .then(std::time::Instant::now);
        let r = self.device_write_raw(slot, data);
        if let Some(t0) = t0 {
            self.ctx
                .inner
                .device_write_us
                .record(t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
        }
        r
    }

    fn device_write_raw(&mut self, slot: u64, data: &[T]) -> Result<()> {
        let injected = consult_plan(&self.ctx, IoOp::Write, self.id)?;
        let stride = self.disk_stride();
        match &mut self.storage {
            Storage::Mem(blocks) => {
                let store = |blocks: &mut Vec<Box<[T]>>, payload: Box<[T]>| {
                    let s = slot as usize;
                    if s < blocks.len() {
                        blocks[s] = payload;
                    } else {
                        debug_assert_eq!(s, blocks.len());
                        blocks.push(payload);
                    }
                };
                match injected {
                    Injected::Torn(index) => {
                        // Persist a prefix, then fail; a retry overwrites
                        // the torn slot.
                        store(blocks, data[..data.len() / 2].to_vec().into_boxed_slice());
                        return Err(EmError::Transient {
                            op: IoOp::Write,
                            index,
                        });
                    }
                    Injected::Corrupt => {
                        let mut payload = data.to_vec();
                        payload[0] = flip_record_bit(&payload[0]);
                        store(blocks, payload.into_boxed_slice());
                    }
                    Injected::None => store(blocks, data.to_vec().into_boxed_slice()),
                }
                self.ctx.stats().record_write_block(self.id, slot, 0);
                self.ctx.stats().add(Counter::PhysicalWrites, 1);
            }
            Storage::Disk { file, .. } => {
                use std::os::unix::fs::FileExt;
                let bytes = data.len() * T::BYTES;
                let cap_bytes = stride as usize - CHECKSUM_BYTES;
                let off = slot * stride;
                SCRATCH.with_borrow_mut(|sc| {
                    sc.resize(stride as usize, 0);
                    for (r, out) in data.iter().zip(sc.chunks_exact_mut(T::BYTES)) {
                        r.write_bytes(out);
                    }
                    // A partial block's unused capacity is written as zeroes.
                    sc[bytes..cap_bytes].fill(0);
                    // Checksum covers the payload as it *should* be; a
                    // corrupting fault damages the payload after this point so
                    // the damage is detectable on read.
                    let sum = block_checksum(&sc[..bytes]);
                    sc[cap_bytes..].copy_from_slice(&sum.to_le_bytes());
                    match injected {
                        Injected::Torn(index) => {
                            // Persist only a payload prefix; the checksum slot
                            // keeps whatever it held (zeroes for a fresh block),
                            // so a read of the torn block reports Corrupt.
                            file.write_all_at(&sc[..bytes / 2], off)?;
                            return Err(EmError::Transient {
                                op: IoOp::Write,
                                index,
                            });
                        }
                        Injected::Corrupt => {
                            if bytes > 0 {
                                sc[0] ^= 1;
                            }
                        }
                        Injected::None => {}
                    }
                    file.write_all_at(&sc[..], off)?;
                    Ok(())
                })?;
                self.ctx
                    .stats()
                    .record_write_block(self.id, slot, bytes as u64);
                self.ctx.stats().add(Counter::PhysicalWrites, 1);
                throttle_device(&self.ctx);
            }
        }
        Ok(())
    }

    /// Read block `block` into `buf` (cleared first). Charges one read I/O;
    /// retryable device failures are retried per the context's
    /// [`crate::RetryPolicy`].
    ///
    /// `buf` is a plain `Vec` so callers can pass the interior of a
    /// [`TrackedVec`] — the *caller* owns the memory charge for the buffer.
    pub fn read_block_into(&self, block: u64, buf: &mut Vec<T>) -> Result<()> {
        let nb = self.num_blocks();
        if block >= nb {
            return Err(EmError::OutOfBounds { block, blocks: nb });
        }
        let count = self.block_len(block);
        let cache = self.ctx.cache();
        // Oracle (paused) reads bypass the cache entirely — lookups and
        // population both — so verification scans leave the pool exactly as
        // if they never ran and physical counts stay reproducible.
        let use_cache = cache.is_enabled() && !self.ctx.stats().is_paused();
        if use_cache {
            if let Some(pin) = cache.get(self.id, block) {
                // Cache hit: one logical I/O is charged (the model's view is
                // unchanged), but no device transfer happens — the fault
                // plan is not consulted and `physical_reads` does not move.
                buf.clear();
                buf.extend(
                    pin[..count * T::BYTES]
                        .chunks_exact(T::BYTES)
                        .map(T::read_bytes),
                );
                let bytes = match &self.storage {
                    Storage::Mem(_) => 0,
                    Storage::Disk { .. } => (count * T::BYTES) as u64,
                };
                self.ctx.stats().record_read_block(self.id, block, bytes);
                self.ctx.stats().add(Counter::CacheHits, 1);
                return Ok(());
            }
            self.ctx.stats().add(Counter::CacheMisses, 1);
        }
        let ctx = self.ctx.clone();
        with_retries(&ctx, || self.device_read(block, count, buf))?;
        debug_assert_eq!(buf.len(), count);
        if use_cache {
            // Populate from the verified payload only (never from writes),
            // so a cached frame is always known-good bytes.
            match &self.storage {
                // The successful device read above ran on this thread and
                // left the checksummed payload bytes in its scratch.
                Storage::Disk { .. } => SCRATCH.with_borrow(|sc| {
                    cache.insert(self.id, block, &sc[..count * T::BYTES]);
                }),
                // RAM blocks have no byte image: encode the records.
                Storage::Mem(_) => {
                    let mut bytes = vec![0u8; count * T::BYTES];
                    for (r, out) in buf.iter().zip(bytes.chunks_exact_mut(T::BYTES)) {
                        r.write_bytes(out);
                    }
                    cache.insert(self.id, block, &bytes);
                }
            }
        }
        Ok(())
    }

    /// Append `data` as the next block. Charges one write I/O; retryable
    /// device failures are retried per the context's [`crate::RetryPolicy`].
    ///
    /// `data` must contain between 1 and `B` records, and appending after a
    /// partial block is rejected (only the last block may be partial).
    pub fn append_block(&mut self, data: &[T]) -> Result<()> {
        let b = self.block_capacity();
        if data.is_empty() || data.len() > b {
            return Err(EmError::config(format!(
                "append_block: got {} records, block capacity is {b}",
                data.len()
            )));
        }
        if !self.len.is_multiple_of(b as u64) {
            return Err(EmError::config(
                "append_block: file ends in a partial block; only the last block may be partial",
            ));
        }
        let slot = self.len / b as u64;
        // Write-through: any cached frame for this slot (possible after a
        // `clear`) must not outlive the device write.
        self.ctx.cache().invalidate(self.id, slot);
        let ctx = self.ctx.clone();
        with_retries(&ctx, || self.device_write(slot, data))?;
        self.len += data.len() as u64;
        // Appends always occupy a fresh block slot on success.
        self.ctx.tracer().note_blocks_alloc(1);
        Ok(())
    }

    /// Remove all records (block storage is released / the backing file is
    /// truncated). Does not charge I/O — dropping data is free in the model.
    pub fn clear(&mut self) -> Result<()> {
        let released = self.num_blocks();
        match &mut self.storage {
            Storage::Mem(blocks) => blocks.clear(),
            Storage::Disk { file, .. } => file.set_len(0)?,
        }
        self.len = 0;
        self.ctx.cache().invalidate_file(self.id);
        self.ctx.tracer().note_blocks_free(released);
        Ok(())
    }

    /// A sequential, block-buffered reader over the whole file. Fails with
    /// [`crate::EmError::MemoryExceeded`] when the one-block buffer does
    /// not fit the (dynamic) strict budget.
    pub fn reader(&self) -> Result<Reader<'_, T>> {
        Reader::new(self)
    }

    /// A sequential reader starting at record offset `start` (0-based).
    /// The first read fetches the block containing `start` and skips
    /// within it, so positioning costs at most one extra I/O.
    pub fn reader_at(&self, start: u64) -> Result<Reader<'_, T>> {
        Reader::new_at(self, start.min(self.len))
    }

    /// Materialise the whole file into a host `Vec`, charging the read scan.
    ///
    /// Intended for tests, verification and small outputs; the resulting
    /// `Vec` is *not* metered.
    pub fn to_vec(&self) -> Result<Vec<T>> {
        let mut out = Vec::with_capacity(self.len as usize);
        let mut buf = self
            .ctx
            .try_tracked_vec::<T>(self.block_capacity(), "to_vec block")?;
        for blk in 0..self.num_blocks() {
            self.read_block_into(blk, &mut buf)?;
            out.extend_from_slice(&buf);
        }
        Ok(out)
    }

    /// Build a file from a slice, charging the write scan.
    pub fn from_slice(ctx: &EmContext, data: &[T]) -> Result<Self> {
        let mut w = ctx.writer::<T>()?;
        w.push_all(data)?;
        w.finish()
    }
}

impl<T: Record> Drop for EmFile<T> {
    fn drop(&mut self) {
        if self.persistent() {
            // The backing file survives: its blocks stay in the gauge.
            return;
        }
        self.ctx.cache().invalidate_file(self.id);
        self.ctx.tracer().note_blocks_free(self.num_blocks());
        if let Storage::Disk { path, .. } = &self.storage {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Sequential block-buffered reader. Holds one block buffer of
/// [`EmFile::block_capacity`] records, charged their words against the
/// memory budget: at most `B`, unless one record is wider than a block.
pub struct Reader<'a, T: Record> {
    file: &'a EmFile<T>,
    buf: TrackedVec<T>,
    next_block: u64,
    pos: usize,
    /// Records to skip inside the first block fetched (positioned readers).
    skip: usize,
}

impl<'a, T: Record> Reader<'a, T> {
    fn new(file: &'a EmFile<T>) -> Result<Self> {
        let b = file.block_capacity();
        Ok(Self {
            file,
            buf: file.ctx.try_tracked_vec::<T>(b, "reader block buffer")?,
            next_block: 0,
            pos: 0,
            skip: 0,
        })
    }

    fn new_at(file: &'a EmFile<T>, start: u64) -> Result<Self> {
        let cap = file.block_capacity() as u64;
        let mut r = Self::new(file)?;
        if start >= file.len() {
            // Position at end: mark every block consumed.
            r.next_block = file.num_blocks();
            return Ok(r);
        }
        r.next_block = start / cap;
        r.skip = (start % cap) as usize;
        Ok(r)
    }

    /// The unread records of the current block. When the block is used
    /// up, fetches the next one first (one read I/O through
    /// [`EmFile::read_block_into`]); an empty slice means end of file.
    /// Pair it with [`Reader::consume`], as with `std::io::BufRead`.
    pub fn fill_buf(&mut self) -> Result<&[T]> {
        // A positioned reader's skip can exhaust a partial first block;
        // the loop then moves on to the next one.
        while self.pos >= self.buf.len() {
            if self.next_block >= self.file.num_blocks() {
                return Ok(&[]);
            }
            self.file.read_block_into(self.next_block, &mut self.buf)?;
            self.next_block += 1;
            self.pos = std::mem::take(&mut self.skip).min(self.buf.len());
        }
        Ok(&self.buf[self.pos..])
    }

    /// Mark `n` records of the slice last returned by
    /// [`Reader::fill_buf`] as read (clamped to what it held).
    pub fn consume(&mut self, n: usize) {
        self.pos = (self.pos + n).min(self.buf.len());
    }

    /// Next record, or `None` at end of file.
    // Fallible streaming, deliberately not Iterator (whose `next` cannot
    // surface `EmError`).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<T>> {
        let rec = self.peek()?;
        self.pos += usize::from(rec.is_some());
        Ok(rec)
    }

    /// Peek at the next record without consuming it.
    pub fn peek(&mut self) -> Result<Option<T>> {
        Ok(self.fill_buf()?.first().copied())
    }

    /// Records not yet read: the file's length less the reader's record
    /// position. Buffered records count as unread.
    pub fn remaining(&self) -> u64 {
        let cap = self.file.block_capacity() as u64;
        // Before a block is fetched (and after a failed fetch) the position
        // is where the next fetch starts; after one, `buf` holds block
        // `next_block - 1`.
        let position = if self.buf.is_empty() {
            self.next_block * cap + self.skip as u64
        } else {
            (self.next_block - 1) * cap + self.pos as u64
        };
        self.file.len() - position.min(self.file.len())
    }
}

/// Buffered writer that builds a fresh file record by record. Holds one
/// block buffer, charged against the memory budget.
pub struct Writer<T: Record> {
    file: EmFile<T>,
    buf: TrackedVec<T>,
}

impl<T: Record> Writer<T> {
    pub(crate) fn new(ctx: EmContext) -> Result<Self> {
        let file = ctx.create_file::<T>()?;
        let buf = ctx.try_tracked_vec::<T>(file.block_capacity(), "writer block buffer")?;
        Ok(Self { file, buf })
    }

    /// Append one record.
    pub fn push(&mut self, rec: T) -> Result<()> {
        self.buf.push(rec);
        if self.buf.len() == self.file.block_capacity() {
            self.file.append_block(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Append every record of a slice, a block at a time: the same blocks
    /// and write I/Os as pushing them one by one.
    pub fn push_all(&mut self, mut recs: &[T]) -> Result<()> {
        let b = self.file.block_capacity();
        while !recs.is_empty() {
            if self.buf.is_empty() && recs.len() >= b {
                // A whole block: append it straight from the slice.
                let (block, rest) = recs.split_at(b);
                self.file.append_block(block)?;
                recs = rest;
                continue;
            }
            let (head, rest) = recs.split_at((b - self.buf.len()).min(recs.len()));
            self.buf.try_extend_from_slice(head)?;
            recs = rest;
            if self.buf.len() == b {
                self.file.append_block(&self.buf)?;
                self.buf.clear();
            }
        }
        Ok(())
    }

    /// Records written so far (including buffered ones).
    pub fn len(&self) -> u64 {
        self.file.len() + self.buf.len() as u64
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flush the partial tail block and return the finished file.
    pub fn finish(mut self) -> Result<EmFile<T>> {
        if !self.buf.is_empty() {
            self.file.append_block(&self.buf)?;
            self.buf.clear();
        }
        Ok(self.file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmConfig;
    use crate::fault::{FaultPlan, RetryPolicy};
    use crate::record::KeyValue;
    use crate::stats::Counters;

    fn mem_ctx() -> EmContext {
        EmContext::new_in_memory(EmConfig::tiny()) // B = 16
    }

    #[test]
    fn write_read_roundtrip_memory() {
        let ctx = mem_ctx();
        let data: Vec<u64> = (0..100).collect();
        let f = EmFile::from_slice(&ctx, &data).unwrap();
        assert_eq!(f.len(), 100);
        assert_eq!(f.num_blocks(), 7); // 6 full blocks of 16 + partial of 4
        assert_eq!(f.to_vec().unwrap(), data);
    }

    #[test]
    fn write_read_roundtrip_disk() {
        let ctx = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let data: Vec<u64> = (0..1000).rev().collect();
        let f = EmFile::from_slice(&ctx, &data).unwrap();
        assert_eq!(f.to_vec().unwrap(), data);
        let c = ctx.stats().snapshot();
        assert_eq!(c.writes, 63); // ceil(1000/16)
        assert_eq!(c.reads, 63);
        assert!(c.bytes_written >= 8000);
        assert_eq!(c.retries, 0);
        assert_eq!(c.corrupt_reads, 0);
    }

    #[test]
    fn disk_roundtrip_multiword_record() {
        let ctx = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let data: Vec<KeyValue> = (0..50)
            .map(|i| KeyValue {
                key: i,
                value: i * 10,
            })
            .collect();
        let f = EmFile::from_slice(&ctx, &data).unwrap();
        assert_eq!(f.to_vec().unwrap(), data);
    }

    #[test]
    fn io_counting_exact() {
        let ctx = mem_ctx();
        let data: Vec<u64> = (0..64).collect(); // exactly 4 blocks
        let f = EmFile::from_slice(&ctx, &data).unwrap();
        let after_write = ctx.stats().snapshot();
        assert_eq!(after_write.writes, 4);
        let _ = f.to_vec().unwrap();
        let c = ctx.stats().snapshot();
        assert_eq!(c.reads, 4);
    }

    #[test]
    fn out_of_bounds_read() {
        let ctx = mem_ctx();
        let f = EmFile::from_slice(&ctx, &[1u64, 2, 3]).unwrap();
        let mut buf = Vec::new();
        assert!(matches!(
            f.read_block_into(1, &mut buf),
            Err(EmError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn append_after_partial_rejected() {
        let ctx = mem_ctx();
        let mut f = ctx.create_file::<u64>().unwrap();
        f.append_block(&[1, 2, 3]).unwrap(); // partial (B = 16)
        assert!(f.append_block(&[4]).is_err());
    }

    #[test]
    fn append_oversized_rejected() {
        let ctx = mem_ctx();
        let mut f = ctx.create_file::<u64>().unwrap();
        let big: Vec<u64> = (0..17).collect();
        assert!(f.append_block(&big).is_err());
        assert!(f.append_block(&[]).is_err());
    }

    #[test]
    fn reader_sequential() {
        let ctx = mem_ctx();
        let data: Vec<u64> = (0..40).collect();
        let f = EmFile::from_slice(&ctx, &data).unwrap();
        let mut r = f.reader().unwrap();
        let mut got = Vec::new();
        while let Some(x) = r.next().unwrap() {
            got.push(x);
        }
        assert_eq!(got, data);
    }

    #[test]
    fn reader_peek_does_not_consume() {
        let ctx = mem_ctx();
        let f = EmFile::from_slice(&ctx, &[10u64, 20, 30]).unwrap();
        let mut r = f.reader().unwrap();
        assert_eq!(r.peek().unwrap(), Some(10));
        assert_eq!(r.peek().unwrap(), Some(10));
        assert_eq!(r.next().unwrap(), Some(10));
        assert_eq!(r.next().unwrap(), Some(20));
        assert_eq!(r.next().unwrap(), Some(30));
        assert_eq!(r.peek().unwrap(), None);
        assert_eq!(r.next().unwrap(), None);
    }

    #[test]
    fn reader_on_empty_file() {
        let ctx = mem_ctx();
        let f = ctx.create_file::<u64>().unwrap();
        let mut r = f.reader().unwrap();
        assert_eq!(r.next().unwrap(), None);
    }

    #[test]
    fn reader_charges_one_io_per_block() {
        let ctx = mem_ctx();
        let data: Vec<u64> = (0..48).collect(); // 3 blocks
        let f = EmFile::from_slice(&ctx, &data).unwrap();
        let before = ctx.stats().snapshot();
        let mut r = f.reader().unwrap();
        while r.next().unwrap().is_some() {}
        let d = ctx.stats().snapshot().since(&before);
        assert_eq!(d.reads, 3);
        assert_eq!(d.writes, 0);
    }

    #[test]
    fn writer_buffer_flush_boundaries() {
        let ctx = mem_ctx();
        let mut w = ctx.writer::<u64>().unwrap();
        for i in 0..16 {
            w.push(i).unwrap();
        }
        // exactly one block must have been flushed
        assert_eq!(ctx.stats().snapshot().writes, 1);
        let f = w.finish().unwrap();
        assert_eq!(ctx.stats().snapshot().writes, 1); // nothing buffered remained
        assert_eq!(f.len(), 16);
    }

    #[test]
    fn writer_len_includes_buffered() {
        let ctx = mem_ctx();
        let mut w = ctx.writer::<u64>().unwrap();
        for i in 0..20 {
            w.push(i).unwrap();
        }
        assert_eq!(w.len(), 20);
    }

    #[test]
    fn clear_resets() {
        let ctx = mem_ctx();
        let mut f = EmFile::from_slice(&ctx, &[1u64, 2, 3]).unwrap();
        f.clear().unwrap();
        assert!(f.is_empty());
        assert_eq!(f.num_blocks(), 0);
    }

    #[test]
    fn disk_file_removed_on_drop() {
        let ctx = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let f = EmFile::from_slice(&ctx, &[1u64]).unwrap();
        let path = match &f.storage {
            Storage::Disk { path, .. } => path.clone(),
            _ => unreachable!(),
        };
        assert!(path.exists());
        drop(f);
        assert!(!path.exists());
    }

    #[test]
    fn persistent_file_survives_drop_and_reopens() {
        let base = std::env::temp_dir().join(format!("emcore-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let data: Vec<u64> = (0..100).rev().collect();
        let (id, len);
        {
            let ctx = EmContext::new_on_disk(EmConfig::tiny(), &base).unwrap();
            let f = EmFile::from_slice(&ctx, &data).unwrap();
            f.set_persistent(true);
            id = f.id();
            len = f.len();
        } // handle + context dropped: simulated process exit
        {
            let ctx = EmContext::new_on_disk(EmConfig::tiny(), &base).unwrap();
            let f = ctx.open_file::<u64>(id, len).unwrap();
            assert_eq!(f.to_vec().unwrap(), data);
            // Fresh ids must not collide with the reopened file.
            let g = ctx.create_file::<u64>().unwrap();
            assert!(g.id() > id);
            // Un-persisting restores normal drop semantics.
            f.set_persistent(false);
            let path = ctx.file_path(id).unwrap();
            drop(f);
            assert!(!path.exists());
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn truncated_tail_reads_as_corrupt_last_block() {
        let ctx = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let data: Vec<u64> = (0..40).collect(); // blocks of 16, 16 and 8
        let f = EmFile::from_slice(&ctx, &data).unwrap();
        f.set_persistent(true);
        let id = f.id();
        // Cut the file inside the last stride, behind the open handle's
        // back (the checksum slot of block 2 is lost).
        let path = ctx.file_path(id).unwrap();
        let size = std::fs::metadata(&path).unwrap().len();
        std::fs::File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(size - 4)
            .unwrap();
        let mut buf = Vec::new();
        f.read_block_into(1, &mut buf).unwrap();
        assert_eq!(buf, (16..32).collect::<Vec<u64>>());
        assert!(matches!(
            f.read_block_into(2, &mut buf),
            Err(EmError::Corrupt { block: 2, file }) if file == id
        ));
        assert_eq!(ctx.stats().snapshot().corrupt_reads, 1);
        f.set_persistent(false);
    }

    #[test]
    fn open_file_validates_size_and_backend() {
        let mem = mem_ctx();
        assert!(mem.open_file::<u64>(0, 1).is_err());
        let ctx = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let f = EmFile::from_slice(&ctx, &(0..10u64).collect::<Vec<_>>()).unwrap();
        f.set_persistent(true);
        let id = f.id();
        drop(f);
        // Asking for more records than the file can hold is rejected.
        assert!(ctx.open_file::<u64>(id, 1000).is_err());
        assert!(ctx.open_file::<u64>(id, 10).is_ok());
    }

    #[test]
    fn reader_memory_is_one_block() {
        let ctx = EmContext::new_in_memory_strict(EmConfig::tiny());
        let f = EmFile::from_slice(&ctx, &(0..64u64).collect::<Vec<_>>()).unwrap();
        ctx.mem().reset_peak();
        {
            let mut r = f.reader().unwrap();
            let _ = r.next().unwrap();
            assert_eq!(ctx.mem().current(), 16); // B records of 1 word
        }
        assert_eq!(ctx.mem().current(), 0);
    }

    #[test]
    fn reader_at_positions() {
        let ctx = mem_ctx();
        let data: Vec<u64> = (0..50).collect();
        let f = EmFile::from_slice(&ctx, &data).unwrap();
        for start in [0u64, 1, 15, 16, 17, 49, 50, 60] {
            let mut r = f.reader_at(start).unwrap();
            let mut got = Vec::new();
            while let Some(x) = r.next().unwrap() {
                got.push(x);
            }
            let want: Vec<u64> = (start.min(50)..50).collect();
            assert_eq!(got, want, "start = {start}");
        }
    }

    #[test]
    fn reader_at_costs_one_positioning_read() {
        let ctx = mem_ctx();
        let data: Vec<u64> = (0..64).collect(); // 4 blocks of 16
        let f = EmFile::from_slice(&ctx, &data).unwrap();
        let before = ctx.stats().snapshot();
        let mut r = f.reader_at(20).unwrap(); // mid-block 1
        while r.next().unwrap().is_some() {}
        let d = ctx.stats().snapshot().since(&before);
        assert_eq!(d.reads, 3); // blocks 1, 2, 3
    }

    #[test]
    fn remaining_counts_down() {
        let ctx = mem_ctx();
        let f = EmFile::from_slice(&ctx, &(0..20u64).collect::<Vec<_>>()).unwrap();
        let mut r = f.reader().unwrap();
        assert_eq!(r.remaining(), 20);
        for _ in 0..5 {
            r.next().unwrap();
        }
        assert_eq!(r.remaining(), 15);
        while r.next().unwrap().is_some() {}
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn remaining_counts_from_a_positioned_readers_record() {
        let ctx = mem_ctx(); // B = 16
        let f = EmFile::from_slice(&ctx, &(0..64u64).collect::<Vec<_>>()).unwrap();
        // Mid-block, at a block boundary, in the last block, and at the
        // end: before the first fill, after it, and after reading one.
        for start in [0u64, 5, 16, 20, 32, 48, 63, 64] {
            let mut r = f.reader_at(start).unwrap();
            assert_eq!(r.remaining(), 64 - start, "reader_at({start}), unfilled");
            r.fill_buf().unwrap();
            assert_eq!(r.remaining(), 64 - start, "reader_at({start}), filled");
            let got = r.next().unwrap();
            assert_eq!(got, (start < 64).then_some(start));
            assert_eq!(
                r.remaining(),
                (64 - start).saturating_sub(1),
                "reader_at({start}), one read"
            );
        }
        // The last record of a block read: the next block is not fetched
        // yet, and the count is unchanged by fetching it.
        let mut r = f.reader_at(15).unwrap();
        assert_eq!(r.next().unwrap(), Some(15));
        assert_eq!(r.remaining(), 48);
        r.fill_buf().unwrap();
        assert_eq!(r.remaining(), 48);
    }

    // ------------------------------------------------------------------
    // Buffer-pool cache: logical vs physical accounting
    // ------------------------------------------------------------------

    #[test]
    fn without_cache_physical_equals_logical() {
        let ctx = mem_ctx();
        let data: Vec<u64> = (0..64).collect();
        let f = EmFile::from_slice(&ctx, &data).unwrap();
        let _ = f.to_vec().unwrap();
        let _ = f.to_vec().unwrap();
        let c = ctx.stats().snapshot();
        assert_eq!(c.physical_reads, c.reads);
        assert_eq!(c.physical_writes, c.writes);
        assert_eq!(c.cache_hits, 0);
        assert_eq!(c.cache_misses, 0);
        assert_eq!(c.logical_ios(), c.physical_ios());
    }

    #[test]
    fn cache_hits_absorb_physical_reads_only() {
        for disk in [false, true] {
            let cfg = EmConfig::tiny().with_cache_blocks(8);
            let ctx = if disk {
                EmContext::new_on_disk_temp(cfg).unwrap()
            } else {
                EmContext::new_in_memory(cfg)
            };
            let data: Vec<u64> = (0..64).collect(); // 4 blocks
            let f = EmFile::from_slice(&ctx, &data).unwrap();
            assert_eq!(f.to_vec().unwrap(), data); // 4 misses
            assert_eq!(f.to_vec().unwrap(), data); // 4 hits
            let c = ctx.stats().snapshot();
            assert_eq!(c.reads, 8, "logical reads unchanged by the cache");
            assert_eq!(c.physical_reads, 4, "second scan served from cache");
            assert_eq!(c.cache_misses, 4);
            assert_eq!(c.cache_hits, 4);
            assert_eq!(c.reads, c.cache_hits + c.cache_misses);
            assert_eq!(c.physical_writes, c.writes, "writes are write-through");
            if disk {
                // Hit path charges the same payload bytes a physical read would.
                assert_eq!(c.bytes_read, 2 * 64 * 8);
            }
        }
    }

    #[test]
    fn cache_eviction_bounded_by_capacity() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny().with_cache_blocks(2));
        let data: Vec<u64> = (0..64).collect(); // 4 blocks > 2 frames
        let f = EmFile::from_slice(&ctx, &data).unwrap();
        let _ = f.to_vec().unwrap();
        let _ = f.to_vec().unwrap();
        let c = ctx.stats().snapshot();
        // Sequential scans over 4 blocks thrash a 2-frame pool: every read
        // is a miss, and the counters stay conservation-consistent.
        assert_eq!(c.reads, c.cache_hits + c.cache_misses);
        assert_eq!(c.physical_reads, c.cache_misses);
        assert!(ctx.cache().len() <= 2);
        assert!(ctx.cache().evictions() > 0);
    }

    #[test]
    fn clear_invalidates_cached_frames() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny().with_cache_blocks(8));
        let mut f = EmFile::from_slice(&ctx, &(0..16u64).collect::<Vec<_>>()).unwrap();
        let _ = f.to_vec().unwrap(); // populate
        f.clear().unwrap();
        f.append_block(&(100..116u64).collect::<Vec<_>>()).unwrap();
        assert_eq!(f.to_vec().unwrap(), (100..116u64).collect::<Vec<_>>());
    }

    #[test]
    fn corrupt_write_still_detected_with_cache() {
        let ctx = EmContext::new_on_disk_temp(EmConfig::tiny().with_cache_blocks(8)).unwrap();
        ctx.install_fault_plan(FaultPlan::new(0).fail_nth(0, crate::FaultKind::CorruptWrite));
        let data: Vec<u64> = (0..16).collect();
        let f = EmFile::from_slice(&ctx, &data).unwrap(); // silent!
        let err = f.to_vec().unwrap_err();
        assert!(matches!(err, EmError::Corrupt { block: 0, .. }));
        // The corrupt frame was never cached (population is read-only and
        // only from verified payloads), so rereads keep detecting it.
        assert!(f.to_vec().is_err());
    }

    #[test]
    fn oracle_reads_do_not_move_cache_counters() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny().with_cache_blocks(8));
        let data: Vec<u64> = (0..32).collect();
        let f = EmFile::from_slice(&ctx, &data).unwrap();
        let before = ctx.stats().snapshot();
        let got = ctx.oracle(|| f.to_vec()).unwrap();
        assert_eq!(got, data);
        assert_eq!(ctx.stats().snapshot(), before);
        assert_eq!(ctx.cache().len(), 0, "oracle reads must not warm the pool");
    }

    /// Drain `f` with `fill_buf`/`consume`, taking at most `step` records
    /// of each slice.
    fn drain_by_slices(f: &EmFile<u64>, step: usize) -> Vec<u64> {
        let mut r = f.reader().unwrap();
        let mut got = Vec::new();
        loop {
            let s = r.fill_buf().unwrap();
            if s.is_empty() {
                return got;
            }
            let n = s.len().min(step);
            got.extend_from_slice(&s[..n]);
            r.consume(n);
        }
    }

    #[test]
    fn fill_buf_walks_blocks_and_partial_tail() {
        let ctx = mem_ctx();
        let data: Vec<u64> = (0..100).collect(); // 6 full blocks of 16 + 4
        let f = EmFile::from_slice(&ctx, &data).unwrap();
        let before = ctx.stats().snapshot();
        let mut r = f.reader().unwrap();
        let mut lens = Vec::new();
        loop {
            let n = r.fill_buf().unwrap().len();
            if n == 0 {
                break;
            }
            lens.push(n);
            r.consume(n);
        }
        assert_eq!(lens, vec![16, 16, 16, 16, 16, 16, 4]);
        // Past the end stays empty and costs nothing more.
        assert!(r.fill_buf().unwrap().is_empty());
        assert_eq!(ctx.stats().snapshot().since(&before).reads, 7);
        for step in [1, 3, 16, 17, 100] {
            assert_eq!(drain_by_slices(&f, step), data, "step {step}");
        }
    }

    #[test]
    fn fill_buf_without_consume_reads_nothing_more() {
        let ctx = mem_ctx();
        let f = EmFile::from_slice(&ctx, &(0..40u64).collect::<Vec<_>>()).unwrap();
        let before = ctx.stats().snapshot();
        let mut r = f.reader().unwrap();
        assert_eq!(r.fill_buf().unwrap(), &(0..16u64).collect::<Vec<_>>()[..]);
        r.consume(5);
        assert_eq!(r.fill_buf().unwrap(), &(5..16u64).collect::<Vec<_>>()[..]);
        assert_eq!(r.peek().unwrap(), Some(5));
        assert_eq!(r.next().unwrap(), Some(5));
        // Consuming more than the slice held stops at the block's end.
        r.consume(100);
        assert_eq!(r.next().unwrap(), Some(16));
        assert_eq!(ctx.stats().snapshot().since(&before).reads, 2);
    }

    #[test]
    fn fill_buf_from_mid_block_and_on_empty_files() {
        let ctx = mem_ctx();
        let f = EmFile::from_slice(&ctx, &(0..50u64).collect::<Vec<_>>()).unwrap();
        let before = ctx.stats().snapshot();
        let mut r = f.reader_at(37).unwrap();
        assert_eq!(r.fill_buf().unwrap(), &(37..48u64).collect::<Vec<_>>()[..]);
        r.consume(11);
        assert_eq!(r.fill_buf().unwrap(), &[48u64, 49][..]);
        r.consume(2);
        assert!(r.fill_buf().unwrap().is_empty());
        assert_eq!(ctx.stats().snapshot().since(&before).reads, 2);
        // Positioned on the partial last block's end, or past the file.
        for start in [50u64, 60] {
            assert!(f.reader_at(start).unwrap().fill_buf().unwrap().is_empty());
        }
        let empty = ctx.create_file::<u64>().unwrap();
        let before = ctx.stats().snapshot();
        assert!(empty.reader().unwrap().fill_buf().unwrap().is_empty());
        assert_eq!(ctx.stats().snapshot(), before);
    }

    #[test]
    fn fill_buf_holds_one_charged_block_in_strict_mode() {
        let ctx = EmContext::new_in_memory_strict(EmConfig::tiny());
        let f = EmFile::from_slice(&ctx, &(0..64u64).collect::<Vec<_>>()).unwrap();
        ctx.mem().reset_peak();
        {
            let mut r = f.reader().unwrap();
            loop {
                let n = r.fill_buf().unwrap().len();
                if n == 0 {
                    break;
                }
                assert_eq!(ctx.mem().current(), 16); // B records of 1 word
                r.consume(n);
            }
        }
        assert_eq!(ctx.mem().current(), 0);
        assert_eq!(ctx.mem().peak(), 16);
    }

    /// Every record and every error a reader returns under `plan`, reading
    /// on after each error, with the counters the scan moved. `by_slice`
    /// drains with `fill_buf`/`consume` (three records per step) instead
    /// of `next()`.
    fn faulted_scan(
        plan: FaultPlan,
        retries: u32,
        by_slice: bool,
    ) -> (Vec<u64>, Vec<String>, Counters) {
        let ctx = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let data: Vec<u64> = (0..200).rev().collect();
        let f = EmFile::from_slice(&ctx, &data).unwrap();
        ctx.install_fault_plan(plan);
        if retries > 0 {
            ctx.set_retry_policy(RetryPolicy::retries(retries));
        }
        let before = ctx.stats().snapshot();
        let mut r = f.reader().unwrap();
        let (mut got, mut errs) = (Vec::new(), Vec::new());
        for _ in 0..10_000 {
            let step = if by_slice {
                r.fill_buf().map(|s| {
                    let n = s.len().min(3);
                    got.extend_from_slice(&s[..n]);
                    n
                })
            } else {
                r.next().map(|x| {
                    got.extend(x);
                    usize::from(x.is_some())
                })
            };
            match step {
                Ok(0) => break,
                Ok(n) if by_slice => r.consume(n),
                Ok(_) => {}
                Err(e) => errs.push(format!("{e:?}")),
            }
        }
        assert_eq!(got, data, "every record arrives once, in order");
        (got, errs, ctx.stats().snapshot().since(&before))
    }

    #[test]
    fn fill_buf_matches_next_under_faults() {
        let plans: [(fn() -> FaultPlan, u32); 2] = [
            // Retried transient reads plus an in-flight corruption.
            (
                || {
                    FaultPlan::new(11)
                        .fail_nth(4, crate::FaultKind::CorruptRead)
                        .transient_rate(0.3)
                },
                1,
            ),
            // No retries: transient and corrupt reads surface as errors.
            (
                || {
                    FaultPlan::new(3)
                        .fail_nth(2, crate::FaultKind::TransientRead)
                        .fail_nth(5, crate::FaultKind::CorruptRead)
                        .fail_nth(9, crate::FaultKind::CorruptRead)
                },
                0,
            ),
        ];
        for (i, (plan, retries)) in plans.iter().enumerate() {
            let by_next = faulted_scan(plan(), *retries, false);
            let by_slice = faulted_scan(plan(), *retries, true);
            assert_eq!(by_next, by_slice, "plan {i}");
            let (_, errs, c) = by_slice;
            if *retries == 0 {
                assert_eq!(errs.len(), 3, "plan {i}: {errs:?}");
                assert_eq!(errs.iter().filter(|e| e.starts_with("Corrupt")).count(), 2);
                assert_eq!(c.corrupt_reads, 2);
            } else {
                assert!(c.retries > 0 && c.corrupt_reads == 1, "plan {i}: {c:?}");
            }
        }
    }

    #[test]
    fn push_all_writes_the_blocks_of_single_pushes() {
        let ctx = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap(); // B = 16
        let data: Vec<u64> = (0..203u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let before = ctx.stats().snapshot();
        let mut w = ctx.writer::<u64>().unwrap();
        for &x in &data {
            w.push(x).unwrap();
        }
        let one = w.finish().unwrap();
        let single = ctx.stats().snapshot().since(&before);
        // Slices that start and end mid-block, span several blocks, or are
        // empty.
        let before = ctx.stats().snapshot();
        let mut w = ctx.writer::<u64>().unwrap();
        let mut rest = &data[..];
        for n in [5usize, 0, 30, 16, 1, 50, 11, 64].iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (head, tail) = rest.split_at((*n).min(rest.len()));
            w.push_all(head).unwrap();
            rest = tail;
        }
        let all = w.finish().unwrap();
        let sliced = ctx.stats().snapshot().since(&before);
        assert_eq!(single, sliced);
        assert_eq!(single.writes, 13); // ceil(203/16)
        assert_eq!(all.num_blocks(), one.num_blocks());
        for b in 0..one.num_blocks() {
            assert_eq!(all.block_len(b), one.block_len(b));
        }
        let bytes = |f: &EmFile<u64>| std::fs::read(ctx.file_path(f.id()).unwrap()).unwrap();
        assert_eq!(bytes(&one), bytes(&all));
        assert_eq!(all.to_vec().unwrap(), data);
    }

    // ------------------------------------------------------------------
    // Device-layer faults
    // ------------------------------------------------------------------

    #[test]
    fn transient_write_surfaces_without_retry_policy() {
        let ctx = mem_ctx();
        ctx.install_fault_plan(FaultPlan::new(0).fail_nth(0, crate::FaultKind::TransientWrite));
        let mut f = ctx.create_file::<u64>().unwrap();
        assert!(matches!(
            f.append_block(&[1, 2, 3]),
            Err(EmError::Transient { .. })
        ));
        assert_eq!(f.len(), 0, "failed append must not extend the file");
    }

    #[test]
    fn transient_faults_cured_by_retries_memory() {
        let ctx = mem_ctx();
        let plan = FaultPlan::new(9).transient_rate(0.2);
        ctx.install_fault_plan(plan.clone());
        ctx.set_retry_policy(RetryPolicy::retries(8));
        let data: Vec<u64> = (0..200).collect();
        let f = EmFile::from_slice(&ctx, &data).unwrap();
        assert_eq!(f.to_vec().unwrap(), data);
        let c = ctx.stats().snapshot();
        assert_eq!(c.retries, plan.injected().transient_total());
        assert!(c.retries > 0, "rate 0.2 over ~26 I/Os should fire");
        assert!(ctx.backoff_ticks() > 0);
    }

    #[test]
    fn transient_faults_cured_by_retries_disk() {
        let ctx = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let plan = FaultPlan::new(5).transient_rate(0.2);
        ctx.install_fault_plan(plan.clone());
        ctx.set_retry_policy(RetryPolicy::retries(8));
        let data: Vec<u64> = (0..200).rev().collect();
        let f = EmFile::from_slice(&ctx, &data).unwrap();
        assert_eq!(f.to_vec().unwrap(), data);
        let c = ctx.stats().snapshot();
        assert_eq!(c.retries, plan.injected().transient_total());
        // Fault-free counters are unchanged by the retry machinery.
        assert_eq!(c.writes, 13); // ceil(200/16)
        assert_eq!(c.reads, 13);
    }

    #[test]
    fn torn_write_retried_leaves_consistent_block_disk() {
        let ctx = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        ctx.install_fault_plan(FaultPlan::new(0).fail_nth(0, crate::FaultKind::TornWrite));
        ctx.set_retry_policy(RetryPolicy::retries(2));
        let data: Vec<u64> = (0..16).collect();
        let f = EmFile::from_slice(&ctx, &data).unwrap();
        assert_eq!(f.to_vec().unwrap(), data);
        assert_eq!(ctx.stats().snapshot().retries, 1);
    }

    #[test]
    fn torn_write_unretried_detected_on_read_disk() {
        let ctx = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let mut f = ctx.create_file::<u64>().unwrap();
        ctx.install_fault_plan(FaultPlan::new(0).fail_nth(0, crate::FaultKind::TornWrite));
        // No retry policy: the torn write surfaces as an error...
        let data: Vec<u64> = (0..16).collect();
        assert!(f.append_block(&data).is_err());
        // ...and the file was not extended, so the torn bytes are invisible.
        assert_eq!(f.len(), 0);
    }

    #[test]
    fn corrupt_write_detected_on_read_disk() {
        let ctx = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        ctx.install_fault_plan(FaultPlan::new(0).fail_nth(0, crate::FaultKind::CorruptWrite));
        let data: Vec<u64> = (0..16).collect();
        let f = EmFile::from_slice(&ctx, &data).unwrap(); // silent!
        let err = f.to_vec().unwrap_err();
        assert!(matches!(err, EmError::Corrupt { block: 0, .. }));
        assert_eq!(ctx.stats().snapshot().corrupt_reads, 1);
    }

    #[test]
    fn corrupt_read_in_flight_cured_by_retry_disk() {
        let ctx = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let data: Vec<u64> = (0..16).collect();
        let f = EmFile::from_slice(&ctx, &data).unwrap();
        ctx.install_fault_plan(FaultPlan::new(0).fail_nth(0, crate::FaultKind::CorruptRead));
        ctx.set_retry_policy(RetryPolicy::retries(2));
        assert_eq!(f.to_vec().unwrap(), data);
        let c = ctx.stats().snapshot();
        assert_eq!(c.corrupt_reads, 1);
        assert_eq!(c.retries, 1);
    }

    #[test]
    fn fatal_crashes_context_until_cleared() {
        let ctx = mem_ctx();
        let data: Vec<u64> = (0..32).collect();
        let f = EmFile::from_slice(&ctx, &data).unwrap();
        let plan = FaultPlan::new(0).fatal_at(0);
        ctx.install_fault_plan(plan.clone());
        assert!(matches!(f.to_vec(), Err(EmError::Crashed)));
        assert!(matches!(f.to_vec(), Err(EmError::Crashed)));
        plan.clear_crash();
        assert_eq!(f.to_vec().unwrap(), data);
    }

    #[test]
    fn oracle_sees_true_data_under_faults() {
        let ctx = mem_ctx();
        let data: Vec<u64> = (0..64).collect();
        let f = EmFile::from_slice(&ctx, &data).unwrap();
        ctx.install_fault_plan(FaultPlan::new(0).transient_rate(1.0));
        let before = ctx.stats().snapshot();
        let got = ctx.oracle(|| f.to_vec()).unwrap();
        assert_eq!(got, data);
        // Oracles neither consume the schedule nor charge I/O.
        assert_eq!(ctx.stats().snapshot(), before);
    }
}
