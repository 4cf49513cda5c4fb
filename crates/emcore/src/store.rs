//! The block store of a directory context: every block of every
//! [`crate::EmFile`] in one backing file of fixed-size slots.
//!
//! The EM model charges one I/O per block and nothing per file, so the
//! directory backend does not make one OS file per `EmFile`. It keeps one
//! store file, `blocks-<P>.store`, whose slots each hold `P` payload bytes
//! (`P = 8·B`, the B words of one block) followed by a 32-byte trailer:
//!
//! ```text
//! | payload (P bytes) | file id | block index | write seq | checksum |
//! ```
//!
//! The checksum is [`crate::block_checksum`] of everything before it, so it
//! covers the trailer fields as well as the records. A read checks it and
//! that the trailer names the file and block asked for.
//!
//! An in-RAM allocator hands out slots from a free list, and past its end
//! it extends the file. Each file id maps to its slots in block order.
//! Appending takes a slot, clearing or dropping a file returns them, and a
//! running job creates and unlinks no OS file. A file marked persistent
//! keeps its slots when its handle drops, so a later handle (or a later
//! context) can reopen it by `(id, len)`.
//!
//! A context opened over an existing directory rebuilds the map from the
//! trailers alone. For each `(file id, block index)` the slot with the
//! highest write sequence number holds the block, and every other slot is
//! free. This is host metadata and charges no I/O. The ids it finds are
//! "files on disk" until [`crate::EmContext::gc_orphans`] frees the ones no
//! journal references, and the context numbers new files past all of them.
//!
//! A record wider than a block (`T::BYTES > 8·B`) cannot fit a slot of
//! `8·B` bytes; its files get a store of their own slot size.
//!
//! One context per directory at a time: two live contexts over one
//! directory would hand out the same slots.

use std::collections::HashMap;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::checksum::block_checksum;
use crate::error::{EmError, Result};

/// Bytes of a slot's trailer: file id, block index, write sequence number
/// and checksum, one little-endian `u64` each.
const TRAILER_BYTES: usize = 32;

/// A block index of a file that has no slot (a hole left by a rebuild that
/// found later blocks of a file but not this one).
const HOLE: u64 = u64::MAX;

/// Slot accounting of a directory context's block store, as
/// [`crate::EmContext::slot_usage`] reports it. All zero on the memory
/// backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotUsage {
    /// Slots in the store files.
    pub slots: u64,
    /// Slots on the free lists.
    pub free: u64,
    /// Slots that hold a block of some file: an open handle's, a file kept
    /// for reopening, or one left by an earlier run and not yet swept.
    pub used: u64,
    /// Of `used`, the slots of the files the caller named live.
    pub live: u64,
}

impl SlotUsage {
    /// Slots held by no live file: what a crash or a missed sweep leaked.
    pub fn leaked(&self) -> u64 {
        self.used - self.live
    }
}

/// One file's slots and handles.
#[derive(Debug)]
struct Entry {
    /// Slot of each block, in block order ([`HOLE`] where none).
    slots: Vec<u64>,
    /// Open handles on the file.
    handles: u32,
    /// Whether the file is listed (by [`BlockStore::ids`]) and can be
    /// reopened. A swept or deleted file whose handles are still open is
    /// unlinked: its slots are freed when the last handle drops.
    linked: bool,
}

impl Entry {
    fn held(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().copied().filter(|&s| s != HOLE)
    }
}

#[derive(Debug, Default)]
struct State {
    /// Slots in the file, free or not.
    slots: u64,
    free: Vec<u64>,
    files: HashMap<u64, Entry>,
}

impl State {
    fn release(&mut self, id: u64) {
        if let Some(e) = self.files.remove(&id) {
            self.free.extend(e.held());
        }
    }
}

/// One store file and its slot map.
#[derive(Debug)]
pub(crate) struct BlockStore {
    file: File,
    /// Payload bytes of one slot.
    payload: usize,
    /// Sequence number of the next slot write.
    next_seq: AtomicU64,
    state: Mutex<State>,
}

impl BlockStore {
    /// Open the store file at `path`, creating it if missing, and rebuild
    /// its slot map from the trailers.
    fn open(path: &Path, payload: usize) -> Result<Self> {
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let stride = (payload + TRAILER_BYTES) as u64;
        // A slot cut short at the end of the file is free; the next write
        // past it rewrites it whole.
        let slots = file.metadata()?.len() / stride;
        // (id, block) -> (seq, slot) of the newest write seen.
        let mut newest: HashMap<(u64, u64), (u64, u64)> = HashMap::new();
        let mut max_seq = 0;
        let mut trailer = [0u8; TRAILER_BYTES];
        for slot in 0..slots {
            file.read_exact_at(&mut trailer, slot * stride + payload as u64)?;
            let field =
                |i: usize| u64::from_le_bytes(trailer[8 * i..8 * i + 8].try_into().unwrap());
            let (id, block, seq) = (field(0), field(1), field(2));
            // Never written, or not a trailer this store wrote.
            if seq == 0 || block >= slots {
                continue;
            }
            max_seq = max_seq.max(seq);
            let e = newest.entry((id, block)).or_insert((seq, slot));
            if seq > e.0 {
                *e = (seq, slot);
            }
        }
        let mut state = State {
            slots,
            ..State::default()
        };
        let mut taken = vec![false; slots as usize];
        for ((id, block), (_, slot)) in newest {
            let e = state.files.entry(id).or_insert(Entry {
                slots: Vec::new(),
                handles: 0,
                linked: true,
            });
            if e.slots.len() <= block as usize {
                e.slots.resize(block as usize + 1, HOLE);
            }
            e.slots[block as usize] = slot;
            taken[slot as usize] = true;
        }
        // Lowest slots last, so they are handed out first.
        state.free = (0..slots).rev().filter(|&s| !taken[s as usize]).collect();
        Ok(Self {
            file,
            payload,
            next_seq: AtomicU64::new(max_seq.saturating_add(1)),
            state: Mutex::new(state),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Bytes of one slot: payload plus trailer.
    #[inline]
    pub(crate) fn stride(&self) -> usize {
        self.payload + TRAILER_BYTES
    }

    /// Payload bytes of one slot.
    #[cfg(test)]
    pub(crate) fn payload(&self) -> usize {
        self.payload
    }

    /// Register the new file `id` with one open handle and no blocks.
    pub(crate) fn create(&self, id: u64) {
        self.lock().files.insert(
            id,
            Entry {
                slots: Vec::new(),
                handles: 1,
                linked: true,
            },
        );
    }

    /// Open one more handle on file `id`, which must hold blocks
    /// `0..blocks`. Returns the slots of its blocks up to the first hole.
    /// An empty file has no slot to record it, so any id not in the store
    /// opens as one when `blocks` is 0.
    pub(crate) fn reopen(&self, id: u64, blocks: u64) -> Result<Vec<u64>> {
        let mut st = self.lock();
        if blocks == 0 {
            st.files.entry(id).or_insert(Entry {
                slots: Vec::new(),
                handles: 0,
                linked: true,
            });
        }
        let missing = || EmError::config(format!("open_existing: no file {id} in the block store"));
        let e = st
            .files
            .get_mut(&id)
            .filter(|e| e.linked)
            .ok_or_else(missing)?;
        let have = e.slots.iter().take_while(|&&s| s != HOLE).count();
        if (have as u64) < blocks {
            return Err(EmError::config(format!(
                "open_existing: file {id} holds {have} blocks in the block store, {blocks} needed"
            )));
        }
        e.handles += 1;
        Ok(e.slots[..have].to_vec())
    }

    /// The slot of block `block` of file `id`: the one it has, or a free
    /// one, recorded in its map.
    pub(crate) fn slot_for(&self, id: u64, block: u64) -> u64 {
        let mut st = self.lock();
        let b = block as usize;
        if let Some(&s) = st.files.get(&id).and_then(|e| e.slots.get(b)) {
            if s != HOLE {
                return s;
            }
        }
        let slot = match st.free.pop() {
            Some(s) => s,
            None => {
                st.slots += 1;
                st.slots - 1
            }
        };
        let e = st
            .files
            .get_mut(&id)
            .expect("a file takes slots while open");
        if e.slots.len() <= b {
            e.slots.resize(b + 1, HOLE);
        }
        e.slots[b] = slot;
        slot
    }

    /// Free every slot of file `id`, which stays open with no blocks.
    pub(crate) fn clear(&self, id: u64) {
        let mut st = self.lock();
        let Some(e) = st.files.get_mut(&id) else {
            return;
        };
        let held: Vec<u64> = e.held().collect();
        e.slots.clear();
        st.free.extend(held);
    }

    /// A handle on file `id` dropped. Unless `keep`, the file is deleted:
    /// its slots are freed now, or when its last other handle drops.
    pub(crate) fn close(&self, id: u64, keep: bool) {
        let mut st = self.lock();
        let Some(e) = st.files.get_mut(&id) else {
            return;
        };
        e.handles = e.handles.saturating_sub(1);
        if !keep {
            e.linked = false;
        }
        if e.handles == 0 && !e.linked {
            st.release(id);
        }
    }

    /// Ids of the listed files.
    fn ids(&self) -> Vec<u64> {
        let st = self.lock();
        st.files
            .iter()
            .filter(|(_, e)| e.linked)
            .map(|(&id, _)| id)
            .collect()
    }

    /// Delete every listed file whose id is not in `keep`; returns their
    /// ids.
    fn sweep(&self, keep: &[u64]) -> Vec<u64> {
        let mut st = self.lock();
        let gone: Vec<u64> = st
            .files
            .iter()
            .filter(|(id, e)| e.linked && !keep.contains(id))
            .map(|(&id, _)| id)
            .collect();
        for &id in &gone {
            let e = st.files.get_mut(&id).expect("listed above");
            e.linked = false;
            if e.handles == 0 {
                st.release(id);
            }
        }
        gone
    }

    /// Add this store's slots to `u`, counting those of `live` ids.
    fn usage(&self, live: &[u64], u: &mut SlotUsage) {
        let st = self.lock();
        u.slots += st.slots;
        u.free += st.free.len() as u64;
        for (id, e) in &st.files {
            let held = e.held().count() as u64;
            u.used += held;
            if live.contains(id) {
                u.live += held;
            }
        }
    }

    /// Finish the slot image `buf` (one stride, whose first `bytes` bytes
    /// hold the block's records) as block `block` of file `id`: zero the
    /// unused payload, then fill the trailer with a fresh sequence number
    /// and the checksum of everything before it.
    pub(crate) fn seal(&self, buf: &mut [u8], bytes: usize, id: u64, block: u64) {
        let p = self.payload;
        buf[bytes..p].fill(0);
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        buf[p..p + 8].copy_from_slice(&id.to_le_bytes());
        buf[p + 8..p + 16].copy_from_slice(&block.to_le_bytes());
        buf[p + 16..p + 24].copy_from_slice(&seq.to_le_bytes());
        let sum = block_checksum(&buf[..p + 24]);
        buf[p + 24..].copy_from_slice(&sum.to_le_bytes());
    }

    /// Whether the slot image `buf` holds an intact copy of block `block`
    /// of file `id`.
    pub(crate) fn verify(&self, buf: &[u8], id: u64, block: u64) -> bool {
        let p = self.payload;
        let field = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
        field(p) == id && field(p + 8) == block && field(p + 24) == block_checksum(&buf[..p + 24])
    }

    /// Read slot `slot` whole into `buf` (one stride).
    pub(crate) fn read_slot(&self, slot: u64, buf: &mut [u8]) -> std::io::Result<()> {
        self.file.read_exact_at(buf, slot * self.stride() as u64)
    }

    /// Write `bytes`, a prefix of a slot image, at the start of slot `slot`.
    pub(crate) fn write_slot(&self, slot: u64, bytes: &[u8]) -> std::io::Result<()> {
        self.file.write_all_at(bytes, slot * self.stride() as u64)
    }
}

/// The block stores of one directory context, one per slot size.
#[derive(Debug)]
pub(crate) struct Stores {
    dir: PathBuf,
    open: Mutex<Vec<Arc<BlockStore>>>,
}

/// File name of the store with `payload`-byte slots.
fn store_name(payload: usize) -> String {
    format!("blocks-{payload}.store")
}

impl Stores {
    /// Open every store file in `dir` and rebuild their slot maps. Also
    /// returns one past the largest file id found (0 when none).
    pub(crate) fn open(dir: &Path) -> Result<(Self, u64)> {
        let mut open = Vec::new();
        let mut next_id = 0;
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name();
            let payload = name
                .to_str()
                .and_then(|s| s.strip_prefix("blocks-")?.strip_suffix(".store"))
                .and_then(|p| p.parse::<usize>().ok());
            if let Some(payload) = payload {
                let store = BlockStore::open(&dir.join(&name), payload)?;
                if let Some(&max) = store.lock().files.keys().max() {
                    next_id = next_id.max(max.saturating_add(1));
                }
                open.push(Arc::new(store));
            }
        }
        Ok((
            Self {
                dir: dir.to_path_buf(),
                open: Mutex::new(open),
            },
            next_id,
        ))
    }

    /// The store with `payload`-byte slots, created on first use.
    pub(crate) fn get(&self, payload: usize) -> Result<Arc<BlockStore>> {
        let mut open = self.open.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(s) = open.iter().find(|s| s.payload == payload) {
            return Ok(s.clone());
        }
        let s = Arc::new(BlockStore::open(
            &self.dir.join(store_name(payload)),
            payload,
        )?);
        open.push(s.clone());
        Ok(s)
    }

    fn each(&self) -> Vec<Arc<BlockStore>> {
        self.open.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Ids of every listed file, ascending.
    pub(crate) fn ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.each().iter().flat_map(|s| s.ids()).collect();
        ids.sort_unstable();
        ids
    }

    /// Delete every listed file whose id is not in `keep`; returns their
    /// ids, ascending.
    pub(crate) fn sweep(&self, keep: &[u64]) -> Vec<u64> {
        let mut gone: Vec<u64> = self.each().iter().flat_map(|s| s.sweep(keep)).collect();
        gone.sort_unstable();
        gone
    }

    /// Slot accounting over every store.
    pub(crate) fn usage(&self, live: &[u64]) -> SlotUsage {
        let mut u = SlotUsage::default();
        for s in self.each() {
            s.usage(live, &mut u);
        }
        u
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use crate::{
        EmConfig, EmContext, EmError, EmFile, FaultKind, FaultPlan, FaultSpec, RetryPolicy,
        SplitMix64, Trigger,
    };

    /// What a file should hold: its records, and which of its blocks a
    /// corrupting write damaged.
    #[derive(Debug, Clone, Default)]
    struct Model {
        recs: Vec<u64>,
        damaged: Vec<bool>,
    }

    /// Read `f` with faults suspended: every block holds the model's
    /// records, or reads as corrupt where a write damaged it.
    fn check(ctx: &EmContext, f: &EmFile<u64>, m: &Model) {
        assert_eq!(f.len(), m.recs.len() as u64, "file {}", f.id());
        let cap = f.block_capacity();
        let mut buf = Vec::new();
        for (b, &damaged) in m.damaged.iter().enumerate() {
            let got = ctx.oracle(|| f.read_block_into(b as u64, &mut buf));
            if damaged {
                assert!(matches!(got, Err(EmError::Corrupt { .. })), "{got:?}");
            } else {
                got.unwrap();
                let want = &m.recs[b * cap..m.recs.len().min((b + 1) * cap)];
                assert_eq!(&buf[..], want, "file {} block {b}", f.id());
            }
        }
    }

    /// Every file is listed exactly once, and the slots of the listed
    /// files, the free slots and the store's slots add up.
    fn audit(ctx: &EmContext, want: &[u64]) {
        assert_eq!(ctx.list_file_ids().unwrap(), want);
        let u = ctx.slot_usage(want);
        assert_eq!(u.used + u.free, u.slots, "{u:?}");
        assert_eq!(u.leaked(), 0, "{u:?}");
    }

    fn faults(seed: u64) -> FaultPlan {
        let rate = |kind, prob| FaultSpec {
            trigger: Trigger::Rate(prob),
            kind,
        };
        FaultPlan::new(seed)
            .with(rate(FaultKind::TornWrite, 0.05))
            .with(rate(FaultKind::CorruptWrite, 0.03))
            .with(rate(FaultKind::CorruptRead, 0.05))
            .with(rate(FaultKind::TransientRead, 0.05))
            .with(rate(FaultKind::TransientWrite, 0.05))
    }

    /// Random create / append / drop / set_persistent / clear / reopen
    /// under torn, corrupt and transient faults, over sessions that each
    /// open a fresh context over the same directory, reopen the persistent
    /// files and sweep the rest.
    #[test]
    fn random_lifecycles_keep_contents_and_slots_exact() {
        for trial in 0..3u64 {
            let dir =
                std::env::temp_dir().join(format!("emcore-store-{}-{trial}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut rng = SplitMix64::new(0x5107 + trial);
            // Persistent files with no open handle, by id.
            let mut kept: BTreeMap<u64, Model> = BTreeMap::new();
            // Files reopened and swept by the sessions, faults injected.
            let (mut reopened, mut swept) = (0, 0);
            let mut injected = crate::FaultCounts::default();
            for session in 0..5u64 {
                let ctx = EmContext::new_on_disk(EmConfig::tiny(), &dir).unwrap();
                let cap = ctx.config().block_size();
                let mut open: Vec<(EmFile<u64>, Model)> = std::mem::take(&mut kept)
                    .into_iter()
                    .map(|(id, m)| (ctx.open_file(id, m.recs.len() as u64).unwrap(), m))
                    .collect();
                let ids: Vec<u64> = open.iter().map(|(f, _)| f.id()).collect();
                reopened += ids.len();
                swept += ctx.gc_orphans(&ids).unwrap().len();
                audit(&ctx, &ids);
                for (f, m) in &open {
                    check(&ctx, f, m);
                }
                let plan = faults(trial * 100 + session);
                ctx.install_fault_plan(plan.clone());
                ctx.set_retry_policy(RetryPolicy::retries(30));
                for _ in 0..120 {
                    let pick = |rng: &mut SplitMix64, n: usize| rng.below(n as u64) as usize;
                    match rng.below(9) {
                        0 if open.len() < 6 => {
                            open.push((ctx.create_file().unwrap(), Model::default()));
                        }
                        0..=3 if !open.is_empty() => {
                            let i = pick(&mut rng, open.len());
                            let (f, m) = &mut open[i];
                            if !f.len().is_multiple_of(cap as u64) {
                                continue;
                            }
                            let n = 1 + pick(&mut rng, cap);
                            let data: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
                            let before = plan.injected().corrupt_writes;
                            match f.append_block(&data) {
                                Ok(()) => {
                                    m.recs.extend(&data);
                                    m.damaged.push(plan.injected().corrupt_writes > before);
                                }
                                Err(_) => assert_eq!(f.len(), m.recs.len() as u64),
                            }
                        }
                        4 if !open.is_empty() => {
                            let (f, m) = open.swap_remove(pick(&mut rng, open.len()));
                            if f.persistent() {
                                kept.insert(f.id(), m);
                            }
                        }
                        5 if !open.is_empty() => {
                            let (f, _) = &open[pick(&mut rng, open.len())];
                            f.set_persistent(!f.persistent());
                        }
                        6 if !open.is_empty() => {
                            let i = pick(&mut rng, open.len());
                            let (f, m) = &mut open[i];
                            f.clear().unwrap();
                            *m = Model::default();
                        }
                        7 if !open.is_empty() => {
                            // A read under faults: retried to the right
                            // records. (A damaged block may read either
                            // way: an in-flight flip can undo the write's.)
                            let (f, m) = &open[pick(&mut rng, open.len())];
                            if f.num_blocks() > 0 {
                                let b = rng.below(f.num_blocks());
                                let mut buf = Vec::new();
                                let got = f.read_block_into(b, &mut buf);
                                if !m.damaged[b as usize] {
                                    got.unwrap();
                                    let lo = b as usize * cap;
                                    assert_eq!(buf[0], m.recs[lo]);
                                }
                            }
                        }
                        8 if !kept.is_empty() => {
                            let id = *kept.keys().nth(pick(&mut rng, kept.len())).unwrap();
                            let m = kept.remove(&id).unwrap();
                            let f = ctx.open_file(id, m.recs.len() as u64).unwrap();
                            open.push((f, m));
                        }
                        _ => {}
                    }
                }
                ctx.clear_fault_plan();
                let n = plan.injected();
                injected.torn_writes += n.torn_writes;
                injected.corrupt_writes += n.corrupt_writes;
                injected.corrupt_reads += n.corrupt_reads;
                injected.transient_reads += n.transient_reads;
                let mut live: Vec<u64> = open.iter().map(|(f, _)| f.id()).collect();
                live.extend(kept.keys());
                live.sort_unstable();
                audit(&ctx, &live);
                for (f, m) in &open {
                    check(&ctx, f, m);
                }
                // The session ends: persistent files survive into the next.
                for (f, m) in open {
                    if f.persistent() {
                        kept.insert(f.id(), m);
                    }
                }
                let mut left: Vec<u64> = kept.keys().copied().collect();
                left.sort_unstable();
                audit(&ctx, &left);
            }
            assert!(
                reopened > 0 && swept > 0,
                "{reopened} reopened, {swept} swept"
            );
            assert!(
                injected.torn_writes > 0
                    && injected.corrupt_writes > 0
                    && injected.corrupt_reads > 0
                    && injected.transient_reads > 0,
                "{injected:?}"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
