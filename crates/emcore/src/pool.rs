//! Bounded buffer-pool block cache with clock eviction and pin/unpin.
//!
//! The pool sits *between* the EM cost model and the device: a logical read
//! that hits a cached frame is still charged one model I/O (the paper's
//! bounds are about logical transfers), but no physical device transfer
//! happens. The [`crate::IoStats`] split of `logical_ios` vs `physical_ios`
//! (plus `cache_hits`/`cache_misses`) makes the absorbed traffic visible
//! without ever perturbing Table-1 comparisons.
//!
//! Semantics, chosen so fault-injection behaviour is unchanged:
//!
//! * **Read-only population** — frames are filled from *successful,
//!   checksum-verified* device reads only. A write never populates a frame.
//! * **Write-through + invalidate** — every logical write goes to the
//!   device, and any cached frame for the written block is dropped, so a
//!   persisted corruption is still detected by the next (physical) read.
//!   Every frame therefore holds a copy of what the device holds, and
//!   dropping one never loses data.
//! * **Clock eviction** — a second-chance clock over the frame table;
//!   pinned frames are never evicted, referenced frames get one more lap.
//! * **No memory-model charge** — the pool models the device/OS cache layer
//!   *beneath* the EM machine, so its frames are not charged against `M`
//!   (strict-mode algorithms keep their exact memory accounting). Budget
//!   squeezes still reach it: the governor shrinks the frame count in
//!   proportion to `M` ([`BlockCache::set_capacity`]), shedding unpinned
//!   frames.
//!
//! The pool is thread-safe; all state sits behind one mutex, and pinned
//! frames hand out shared ownership of the payload bytes so readers never
//! hold the lock while copying.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// A cached block is addressed by `(file id, block index)`.
type Key = (u64, u64);

#[derive(Debug)]
struct Frame {
    key: Key,
    /// Encoded payload bytes of the block (shared with outstanding pins).
    data: Arc<Vec<u8>>,
    /// Outstanding [`PinnedBlock`] guards; a pinned frame is never evicted.
    pins: u32,
    /// Clock reference bit: set on hit, cleared as the hand sweeps past.
    referenced: bool,
}

#[derive(Debug, Default)]
struct PoolInner {
    capacity: usize,
    frames: Vec<Frame>,
    map: HashMap<Key, usize>,
    /// Clock hand: next frame slot the eviction sweep examines.
    hand: usize,
    evictions: u64,
}

impl PoolInner {
    /// Pick a victim slot with the clock algorithm, or `None` when every
    /// frame is pinned (after two full laps nothing was evictable).
    fn find_victim(&mut self) -> Option<usize> {
        let n = self.frames.len();
        for _ in 0..2 * n {
            let slot = self.hand;
            self.hand = (self.hand + 1) % n;
            let f = &mut self.frames[slot];
            if f.pins > 0 {
                continue;
            }
            if f.referenced {
                f.referenced = false;
                continue;
            }
            return Some(slot);
        }
        None
    }

    /// Detach `slot`: drop its mapping and payload, leaving an empty
    /// placeholder frame (slot indices are load-bearing for outstanding
    /// pins, so frames are never removed or reordered).
    fn detach(&mut self, slot: usize) {
        let key = self.frames[slot].key;
        self.map.remove(&key);
        let f = &mut self.frames[slot];
        f.key = (u64::MAX, u64::MAX);
        f.data = Arc::new(Vec::new());
        f.referenced = false;
    }

    /// Shed unpinned, mapped frames (skipping `keep`) until at most
    /// `target` blocks remain cached. Pinned frames are left alone.
    fn shed(&mut self, target: usize, keep: Option<usize>) {
        for slot in 0..self.frames.len() {
            if self.map.len() <= target {
                return;
            }
            if keep == Some(slot) {
                continue;
            }
            let f = &self.frames[slot];
            if f.pins == 0 && f.key != (u64::MAX, u64::MAX) {
                self.evictions += 1;
                self.detach(slot);
            }
        }
    }
}

/// A bounded block cache shared by all files of one [`crate::EmContext`].
///
/// Created with capacity [`crate::EmConfig::cache_blocks`]; capacity 0
/// disables the pool entirely (every lookup is a single `Option` check and
/// no lock is taken — the default, preserving exact physical I/O counts).
#[derive(Debug, Clone, Default)]
pub struct BlockCache {
    inner: Option<Arc<Mutex<PoolInner>>>,
}

impl BlockCache {
    /// A pool of `capacity` frames; `capacity == 0` disables caching.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: (capacity > 0).then(|| {
                Arc::new(Mutex::new(PoolInner {
                    capacity,
                    ..PoolInner::default()
                }))
            }),
        }
    }

    /// Whether the pool caches anything at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Frame capacity in blocks (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| lock(i).capacity)
    }

    /// Blocks currently cached.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| lock(i).map.len())
    }

    /// Whether no blocks are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Frames evicted by the clock so far.
    pub fn evictions(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| lock(i).evictions)
    }

    /// Look up `(file, block)`. On a hit the frame's reference bit is set
    /// and the returned [`PinnedBlock`] keeps it pinned (unevictable) until
    /// dropped.
    pub fn get(&self, file: u64, block: u64) -> Option<PinnedBlock> {
        let inner = self.inner.as_ref()?;
        let mut g = lock(inner);
        let slot = *g.map.get(&(file, block))?;
        let f = &mut g.frames[slot];
        f.referenced = true;
        f.pins += 1;
        let data = Arc::clone(&f.data);
        Some(PinnedBlock {
            pool: Arc::clone(inner),
            slot,
            data,
        })
    }

    /// Insert the payload of `(file, block)`, evicting a victim if the pool
    /// is full. Silently does nothing when the pool is disabled or every
    /// frame is pinned; a block already cached is refreshed with `data`.
    pub fn insert(&self, file: u64, block: u64, data: &[u8]) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let key = (file, block);
        let mut g = lock(inner);
        if let Some(&slot) = g.map.get(&key) {
            let f = &mut g.frames[slot];
            f.data = Arc::new(data.to_vec());
            f.referenced = true;
            return;
        }
        let slot = if g.frames.len() < g.capacity {
            g.frames.push(Frame {
                key,
                data: Arc::new(data.to_vec()),
                pins: 0,
                referenced: false,
            });
            g.frames.len() - 1
        } else {
            let Some(victim) = g.find_victim() else {
                return; // everything pinned: drop, never block
            };
            let old = g.frames[victim].key;
            g.map.remove(&old);
            g.evictions += 1;
            let f = &mut g.frames[victim];
            f.key = key;
            f.data = Arc::new(data.to_vec());
            f.referenced = false;
            victim
        };
        g.map.insert(key, slot);
        // After a governor shrink the frame table may be longer than the
        // (new) capacity; keep the cached-block count at the target by
        // shedding other frames.
        let cap = g.capacity;
        if g.map.len() > cap {
            g.shed(cap, Some(slot));
        }
    }

    /// Re-point the frame budget (the governor's squeeze/restore path).
    /// Shrinking sheds unpinned frames; pinned frames are kept even over
    /// target (best effort until the pins drain).
    pub fn set_capacity(&self, new_cap: usize) {
        if let Some(inner) = self.inner.as_ref() {
            let mut g = lock(inner);
            g.capacity = new_cap;
            g.shed(new_cap, None);
        }
    }

    /// Drop any cached frame for `(file, block)` — called on every write so
    /// the next read is physical. A pinned frame is unlinked from the map
    /// (readers holding the pin keep their snapshot; fresh lookups miss).
    pub fn invalidate(&self, file: u64, block: u64) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let mut g = lock(inner);
        if let Some(slot) = g.map.remove(&(file, block)) {
            // Leave the frame in place but mark it reclaimable (the device
            // now holds newer bytes).
            g.detach(slot);
        }
    }

    /// Drop every cached frame of `file` (file cleared or deleted).
    pub fn invalidate_file(&self, file: u64) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let mut g = lock(inner);
        let keys: Vec<Key> = g.map.keys().filter(|k| k.0 == file).copied().collect();
        for key in keys {
            if let Some(slot) = g.map.remove(&key) {
                g.detach(slot);
            }
        }
    }
}

fn lock(inner: &Arc<Mutex<PoolInner>>) -> MutexGuard<'_, PoolInner> {
    inner.lock().unwrap_or_else(|p| p.into_inner())
}

/// Shared, pinned view of one cached block's payload bytes. The frame
/// cannot be evicted while this guard lives; dropping it unpins.
#[derive(Debug)]
pub struct PinnedBlock {
    pool: Arc<Mutex<PoolInner>>,
    slot: usize,
    data: Arc<Vec<u8>>,
}

impl std::ops::Deref for PinnedBlock {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl Drop for PinnedBlock {
    fn drop(&mut self) {
        let mut g = self.pool.lock().unwrap_or_else(|p| p.into_inner());
        let f = &mut g.frames[self.slot];
        f.pins = f.pins.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_pool_is_inert() {
        let c = BlockCache::new(0);
        assert!(!c.is_enabled());
        c.insert(0, 0, &[1, 2, 3]);
        assert!(c.get(0, 0).is_none());
        assert_eq!(c.len(), 0);
        assert_eq!(c.capacity(), 0);
    }

    #[test]
    fn hit_returns_inserted_payload() {
        let c = BlockCache::new(4);
        c.insert(1, 7, &[9, 8, 7]);
        let pin = c.get(1, 7).expect("hit");
        assert_eq!(&*pin, &[9, 8, 7]);
        assert!(c.get(1, 8).is_none());
        assert!(c.get(2, 7).is_none());
    }

    #[test]
    fn clock_evicts_oldest_unreferenced() {
        let c = BlockCache::new(2);
        c.insert(0, 0, &[0]);
        c.insert(0, 1, &[1]);
        // Touch block 1 so its reference bit is set; block 0 is the victim.
        drop(c.get(0, 1));
        c.insert(0, 2, &[2]);
        assert!(c.get(0, 0).is_none(), "unreferenced frame evicted");
        assert!(c.get(0, 1).is_some(), "referenced frame survived");
        assert!(c.get(0, 2).is_some());
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn pinned_frames_are_never_evicted() {
        let c = BlockCache::new(2);
        c.insert(0, 0, &[0]);
        c.insert(0, 1, &[1]);
        let pin0 = c.get(0, 0).unwrap();
        let pin1 = c.get(0, 1).unwrap();
        // Both frames pinned: the insert is dropped rather than blocking.
        c.insert(0, 2, &[2]);
        assert!(c.get(0, 2).is_none());
        assert_eq!(&*pin0, &[0]);
        drop(pin0);
        drop(pin1);
        // With pins released the clock can evict again.
        c.insert(0, 2, &[2]);
        assert!(c.get(0, 2).is_some());
    }

    #[test]
    fn invalidate_drops_future_lookups_but_keeps_pins() {
        let c = BlockCache::new(2);
        c.insert(3, 5, &[42]);
        let pin = c.get(3, 5).unwrap();
        c.invalidate(3, 5);
        assert!(c.get(3, 5).is_none(), "invalidated block misses");
        assert_eq!(&*pin, &[42], "outstanding pin keeps its snapshot");
    }

    #[test]
    fn invalidate_file_sweeps_all_blocks() {
        let c = BlockCache::new(8);
        for b in 0..4 {
            c.insert(1, b, &[b as u8]);
            c.insert(2, b, &[b as u8]);
        }
        c.invalidate_file(1);
        for b in 0..4 {
            assert!(c.get(1, b).is_none());
            assert!(c.get(2, b).is_some());
        }
    }

    #[test]
    fn reinsert_refreshes_payload() {
        let c = BlockCache::new(2);
        c.insert(0, 0, &[1]);
        c.insert(0, 0, &[2]);
        assert_eq!(c.len(), 1);
        assert_eq!(&*c.get(0, 0).unwrap(), &[2]);
    }

    #[test]
    fn shrink_sheds_unpinned_frames() {
        let c = BlockCache::new(4);
        for b in 0..4 {
            c.insert(1, b, &[10 + b as u8]);
        }
        let pinned = c.get(1, 0).unwrap();
        c.set_capacity(1);
        assert_eq!(c.len(), 1, "cache shrunk to the new budget");
        // The pinned frame is the one that survived, payload intact.
        assert_eq!(&*c.get(1, 0).unwrap(), &[10]);
        assert_eq!(&*pinned, &[10]);
        assert_eq!(c.evictions(), 3);
    }

    #[test]
    fn grow_after_shrink_restores_headroom() {
        let c = BlockCache::new(4);
        for b in 0..4 {
            c.insert(0, b, &[b as u8]);
        }
        c.set_capacity(1);
        assert!(c.len() <= 1);
        c.set_capacity(4);
        for b in 10..14 {
            c.insert(0, b, &[b as u8]);
        }
        assert_eq!(c.len(), 4, "restored budget caches four blocks again");
    }

    #[test]
    fn concurrent_access_is_safe() {
        let c = BlockCache::new(16);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..200u64 {
                        c.insert(t, i % 8, &[t as u8, i as u8]);
                        if let Some(pin) = c.get(t, i % 8) {
                            assert_eq!(pin[0], t as u8);
                        }
                        if i % 16 == 0 {
                            c.invalidate_file(t);
                        }
                    }
                });
            }
        });
    }
}
