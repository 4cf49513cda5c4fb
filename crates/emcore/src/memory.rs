//! Internal-memory metering.
//!
//! The point of this module is to keep the algorithms honest with respect to
//! the EM model: every in-memory buffer that holds records (or `Θ(L)`-sized
//! bookkeeping arrays) is allocated through the context and charged against
//! the memory capacity `M`. Peak usage is recorded; in *strict* mode an
//! allocation that would push live usage above `M` fails with a typed
//! [`EmError::MemoryExceeded`] from [`MemoryTracker::try_charge`], which
//! turns a model violation into a recoverable result rather than a silently
//! wrong complexity measurement. The panicking [`MemoryTracker::charge`]
//! wrapper is kept for tests and for sites whose budget is proven by
//! construction.
//!
//! `M` is *dynamic*: [`MemoryTracker::set_capacity`] re-points the budget
//! mid-run (the memory governor's squeeze/restore path), and all capacity
//! reads are atomic so concurrent jobs observe the new budget at their next
//! allocation or phase boundary.

use crate::error::{EmError, Result};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[derive(Debug)]
struct MemInner {
    current: AtomicUsize,
    peak: AtomicUsize,
    capacity: AtomicUsize,
    strict: bool,
}

/// Cheaply cloneable handle to the shared memory meter (units: words).
///
/// Thread-safe and lock-free: a meter shared between worker threads updates
/// `current`/`peak` with atomic read-modify-writes, so charges from
/// concurrent sorts never race and never contend on a lock.
#[derive(Debug, Clone)]
pub struct MemoryTracker {
    inner: Arc<MemInner>,
}

impl MemoryTracker {
    /// New tracker with capacity `m` words. `strict` decides whether
    /// violations panic (true) or are merely recorded in the peak (false).
    pub fn new(capacity: usize, strict: bool) -> Self {
        Self {
            inner: Arc::new(MemInner {
                current: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
                capacity: AtomicUsize::new(capacity),
                strict,
            }),
        }
    }

    /// Charge `words` words, returning a guard that releases them on drop,
    /// or a typed [`EmError::MemoryExceeded`] in strict mode when the charge
    /// would push live usage above the (dynamic) capacity. A rejected charge
    /// is fully rolled back: it leaves `current` untouched and does *not*
    /// move the peak.
    pub fn try_charge(&self, words: usize, context: &str) -> Result<MemCharge> {
        let current = self
            .inner
            .current
            .fetch_add(words, Ordering::Relaxed)
            .saturating_add(words);
        let capacity = self.inner.capacity.load(Ordering::Relaxed);
        if self.inner.strict && current > capacity {
            self.release(words);
            return Err(EmError::MemoryExceeded {
                requested: current,
                capacity,
                context: format!("while allocating {words} words for {context}"),
            });
        }
        self.inner.peak.fetch_max(current, Ordering::Relaxed);
        Ok(MemCharge {
            tracker: self.clone(),
            words,
        })
    }

    /// Charge `words` words, returning a guard that releases them on drop.
    /// Thin wrapper over [`MemoryTracker::try_charge`] for tests and for
    /// sites whose fit is proven by construction.
    ///
    /// # Panics
    ///
    /// In strict mode, panics if the charge would exceed the capacity.
    pub fn charge(&self, words: usize, context: &str) -> MemCharge {
        match self.try_charge(words, context) {
            Ok(c) => c,
            Err(e) => panic!("EM {e}"), // memory-gate: allow (test-facing wrapper)
        }
    }

    /// Words currently live.
    pub fn current(&self) -> usize {
        self.inner.current.load(Ordering::Relaxed)
    }

    /// Highest number of words ever live.
    pub fn peak(&self) -> usize {
        self.inner.peak.load(Ordering::Relaxed)
    }

    /// The capacity `M` in words (a dynamic budget: see
    /// [`MemoryTracker::set_capacity`]).
    pub fn capacity(&self) -> usize {
        self.inner.capacity.load(Ordering::Relaxed)
    }

    /// Re-point the budget: the governor's squeeze/restore path. Shrinking
    /// below the live amount is allowed — existing charges stay valid and
    /// future strict charges fail until usage drains below the new `M`.
    pub fn set_capacity(&self, words: usize) {
        self.inner.capacity.store(words, Ordering::Relaxed);
    }

    /// Headroom left under the current budget (0 when over-committed).
    pub fn available(&self) -> usize {
        self.capacity().saturating_sub(self.current())
    }

    /// Whether violations panic.
    pub fn is_strict(&self) -> bool {
        self.inner.strict
    }

    /// Reset the peak to the current live amount (counters between phases).
    pub fn reset_peak(&self) {
        self.inner.peak.store(self.current(), Ordering::Relaxed);
    }

    fn release(&self, words: usize) {
        // Saturating CAS loop rather than a plain fetch_sub so a (buggy)
        // double release clamps at zero instead of wrapping the gauge.
        let prev = self
            .inner
            .current
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                Some(c.saturating_sub(words))
            })
            .unwrap_or(0);
        debug_assert!(prev >= words, "memory release underflow");
    }
}

/// RAII guard for a memory charge; releases the words when dropped.
#[derive(Debug)]
pub struct MemCharge {
    tracker: MemoryTracker,
    words: usize,
}

impl MemCharge {
    /// The number of words held by this charge.
    pub fn words(&self) -> usize {
        self.words
    }
}

impl Drop for MemCharge {
    fn drop(&mut self) {
        self.tracker.release(self.words);
    }
}

/// A `Vec<T>` whose capacity is charged against the memory budget.
///
/// The charge is taken for the full capacity up front (like a real buffer
/// reservation); pushing beyond the reserved capacity re-charges.
#[derive(Debug)]
pub struct TrackedVec<T> {
    vec: Vec<T>,
    charge: MemCharge,
    words_per_item: usize,
    tracker: MemoryTracker,
    context: String,
}

impl<T> TrackedVec<T> {
    /// Reserve a tracked buffer of `cap` items, each costing
    /// `words_per_item` words.
    ///
    /// # Panics
    ///
    /// In strict mode, panics if the reservation exceeds the budget; see
    /// [`TrackedVec::try_with_capacity`] for the fallible variant.
    pub fn with_capacity(
        tracker: &MemoryTracker,
        cap: usize,
        words_per_item: usize,
        context: &str,
    ) -> Self {
        let charge = tracker.charge(cap * words_per_item, context);
        Self {
            vec: Vec::with_capacity(cap),
            charge,
            words_per_item,
            tracker: tracker.clone(),
            context: context.to_string(),
        }
    }

    /// Fallible reservation: like [`TrackedVec::with_capacity`] but a strict
    /// budget violation comes back as [`EmError::MemoryExceeded`] instead of
    /// panicking.
    pub fn try_with_capacity(
        tracker: &MemoryTracker,
        cap: usize,
        words_per_item: usize,
        context: &str,
    ) -> Result<Self> {
        let charge = tracker.try_charge(cap * words_per_item, context)?;
        Ok(Self {
            vec: Vec::with_capacity(cap),
            charge,
            words_per_item,
            tracker: tracker.clone(),
            context: context.to_string(),
        })
    }

    /// Append an item, re-charging if the reserved capacity is exceeded.
    ///
    /// # Panics
    ///
    /// In strict mode, panics if the growth re-charge exceeds the budget;
    /// see [`TrackedVec::try_push`] for the fallible variant.
    pub fn push(&mut self, item: T) {
        if self.vec.len() == self.vec.capacity() {
            // Grow by doubling (mirrors Vec) and charge for the new capacity.
            let new_cap = (self.vec.capacity() * 2).max(4);
            let new_charge = self
                .tracker
                .charge(new_cap * self.words_per_item, &self.context);
            self.grow_to(new_cap, new_charge);
        }
        self.vec.push(item);
    }

    /// Fallible append: a strict budget violation during growth comes back
    /// as [`EmError::MemoryExceeded`] and the buffer is left unchanged.
    pub fn try_push(&mut self, item: T) -> Result<()> {
        if self.vec.len() == self.vec.capacity() {
            let new_cap = (self.vec.capacity() * 2).max(4);
            let new_charge = self
                .tracker
                .try_charge(new_cap * self.words_per_item, &self.context)?;
            self.grow_to(new_cap, new_charge);
        }
        self.vec.push(item);
        Ok(())
    }

    /// Fallible bulk append: grows like [`TrackedVec::try_push`] (to at
    /// least double the capacity) and charges the growth first; on a
    /// strict budget violation the buffer is left unchanged.
    pub fn try_extend_from_slice(&mut self, items: &[T]) -> Result<()>
    where
        T: Clone,
    {
        let need = self.vec.len() + items.len();
        if need > self.vec.capacity() {
            let new_cap = need.max(self.vec.capacity() * 2).max(4);
            let new_charge = self
                .tracker
                .try_charge(new_cap * self.words_per_item, &self.context)?;
            self.grow_to(new_cap, new_charge);
        }
        self.vec.extend_from_slice(items);
        Ok(())
    }

    fn grow_to(&mut self, new_cap: usize, new_charge: MemCharge) {
        if new_cap > self.vec.capacity() {
            self.vec.reserve_exact(new_cap - self.vec.len());
        }
        self.charge = new_charge; // old charge drops here, after the new one is taken
    }

    /// Empty the buffer, keeping capacity (and its charge).
    pub fn clear(&mut self) {
        self.vec.clear();
    }

    /// Consume and return the inner `Vec`, releasing the charge.
    pub fn into_inner(self) -> Vec<T> {
        self.vec
    }

    /// Words charged by this buffer.
    pub fn charged_words(&self) -> usize {
        self.charge.words()
    }
}

impl<T> std::ops::Deref for TrackedVec<T> {
    type Target = Vec<T>;
    fn deref(&self) -> &Vec<T> {
        &self.vec
    }
}

impl<T> std::ops::DerefMut for TrackedVec<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.vec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_release() {
        let t = MemoryTracker::new(100, false);
        {
            let _a = t.charge(40, "a");
            assert_eq!(t.current(), 40);
            {
                let _b = t.charge(50, "b");
                assert_eq!(t.current(), 90);
                assert_eq!(t.peak(), 90);
            }
            assert_eq!(t.current(), 40);
        }
        assert_eq!(t.current(), 0);
        assert_eq!(t.peak(), 90);
    }

    #[test]
    fn lenient_records_violation_in_peak() {
        let t = MemoryTracker::new(10, false);
        let _a = t.charge(25, "big");
        assert_eq!(t.peak(), 25);
    }

    #[test]
    #[should_panic(expected = "memory budget exceeded")]
    fn strict_panics_on_violation() {
        let t = MemoryTracker::new(10, true);
        let _a = t.charge(11, "big");
    }

    #[test]
    fn strict_allows_exact_capacity() {
        let t = MemoryTracker::new(10, true);
        let _a = t.charge(10, "exact");
        assert_eq!(t.current(), 10);
    }

    #[test]
    fn tracked_vec_charges_capacity() {
        let t = MemoryTracker::new(1000, true);
        let v: TrackedVec<u64> = TrackedVec::with_capacity(&t, 16, 1, "buf");
        assert_eq!(t.current(), 16);
        drop(v);
        assert_eq!(t.current(), 0);
    }

    #[test]
    fn tracked_vec_grows_and_recharges() {
        let t = MemoryTracker::new(1000, true);
        let mut v: TrackedVec<u64> = TrackedVec::with_capacity(&t, 2, 1, "buf");
        for i in 0..10 {
            v.push(i);
        }
        assert_eq!(v.len(), 10);
        assert!(t.current() >= 10, "current = {}", t.current());
        // Growth transiently holds old+new charges; peak reflects that.
        assert!(t.peak() >= t.current());
    }

    #[test]
    fn tracked_vec_words_per_item() {
        let t = MemoryTracker::new(1000, true);
        let _v: TrackedVec<(u64, u64)> = TrackedVec::with_capacity(&t, 8, 2, "pairs");
        assert_eq!(t.current(), 16);
    }

    #[test]
    fn try_charge_rejects_and_rolls_back() {
        let t = MemoryTracker::new(10, true);
        let e = t.try_charge(11, "big").unwrap_err();
        match e {
            crate::EmError::MemoryExceeded {
                requested,
                capacity,
                ..
            } => {
                assert_eq!(requested, 11);
                assert_eq!(capacity, 10);
            }
            other => panic!("unexpected error: {other}"),
        }
        assert_eq!(t.current(), 0, "rejected charge fully rolled back");
        assert_eq!(t.peak(), 0, "rejected charge does not move the peak");
        let _ok = t.try_charge(10, "exact").unwrap();
        assert_eq!(t.current(), 10);
    }

    #[test]
    fn set_capacity_squeezes_and_restores() {
        let t = MemoryTracker::new(100, true);
        let _a = t.try_charge(60, "a").unwrap();
        t.set_capacity(40); // below live: existing charge stays valid
        assert_eq!(t.capacity(), 40);
        assert_eq!(t.available(), 0);
        assert!(t.try_charge(1, "b").is_err(), "over-committed budget");
        t.set_capacity(100);
        let _b = t.try_charge(30, "b").unwrap();
        assert_eq!(t.current(), 90);
    }

    #[test]
    fn try_push_fails_cleanly_on_growth() {
        let t = MemoryTracker::new(8, true);
        let mut v: TrackedVec<u64> = TrackedVec::try_with_capacity(&t, 2, 1, "buf").unwrap();
        v.try_push(1).unwrap();
        v.try_push(2).unwrap();
        // Growth to 4 transiently holds 2 + 4 = 6 words: fits. Growth to 8
        // would transiently hold 4 + 8 = 12 > 8: typed failure, vec intact.
        v.try_push(3).unwrap();
        v.try_push(4).unwrap();
        let e = v.try_push(5).unwrap_err();
        assert!(matches!(e, crate::EmError::MemoryExceeded { .. }));
        assert_eq!(v.len(), 4, "failed push leaves the buffer unchanged");
        assert_eq!(t.current(), 4);
    }

    #[test]
    fn reset_peak() {
        let t = MemoryTracker::new(100, false);
        {
            let _a = t.charge(80, "a");
        }
        assert_eq!(t.peak(), 80);
        t.reset_peak();
        assert_eq!(t.peak(), 0);
    }
}
