//! Gain bucket priority queue, the classical data structure behind
//! Fiduccia–Mattheyses refinement.
//!
//! The queue stores items (vertex ids) keyed by an integer gain in the range
//! `[-max_gain, +max_gain]`. All operations used in the FM inner loop —
//! insert, remove, change key, extract max — run in `O(1)` amortized time
//! (extract-max degrades only when the maximum pointer has to slide down
//! after many removals, which amortizes against the insertions that raised
//! it).

use crate::Gain;

/// Bucket priority queue keyed by bounded integer gains.
#[derive(Clone, Debug)]
pub struct BucketQueue {
    /// Buckets indexed by `gain + max_gain`; each bucket is a vec of items.
    buckets: Vec<Vec<u32>>,
    /// Position of each item inside its bucket (`u32::MAX` when absent).
    pos_in_bucket: Vec<u32>,
    /// Current bucket index of each item (`u32::MAX` when absent).
    bucket_of: Vec<u32>,
    /// Highest non-empty bucket index + 1 (0 if the queue is empty).
    max_bucket_hint: usize,
    max_gain: Gain,
    len: usize,
}

impl BucketQueue {
    /// Creates a queue able to hold items `0..capacity` with gains bounded by
    /// `max_gain` in absolute value.
    ///
    /// Allocates `2 * max_gain + 1` buckets. A caller whose gains come from
    /// unbounded input weights should cap `max_gain`: a gain beyond the
    /// bound is clamped into the end bucket on its side.
    pub fn new(capacity: usize, max_gain: Gain) -> Self {
        let max_gain = max_gain.max(0);
        let num_buckets = (2 * max_gain + 1) as usize;
        BucketQueue {
            buckets: vec![Vec::new(); num_buckets],
            pos_in_bucket: vec![u32::MAX; capacity],
            bucket_of: vec![u32::MAX; capacity],
            max_bucket_hint: 0,
            max_gain,
            len: 0,
        }
    }

    /// Number of items currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no item is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if `item` is currently in the queue.
    pub fn contains(&self, item: u32) -> bool {
        self.bucket_of[item as usize] != u32::MAX
    }

    /// Gain bound the queue was created with.
    pub fn max_gain(&self) -> Gain {
        self.max_gain
    }

    #[inline]
    fn bucket_index(&self, gain: Gain) -> usize {
        let clamped = gain.clamp(-self.max_gain, self.max_gain);
        (clamped + self.max_gain) as usize
    }

    #[inline]
    fn gain_of_bucket(&self, bucket: usize) -> Gain {
        bucket as Gain - self.max_gain
    }

    /// Inserts `item` with the given gain.
    ///
    /// # Panics
    /// Panics if `item` is already present.
    pub fn insert(&mut self, item: u32, gain: Gain) {
        assert!(!self.contains(item), "item {item} already in bucket queue");
        let b = self.bucket_index(gain);
        self.pos_in_bucket[item as usize] = self.buckets[b].len() as u32;
        self.bucket_of[item as usize] = b as u32;
        self.buckets[b].push(item);
        self.max_bucket_hint = self.max_bucket_hint.max(b + 1);
        self.len += 1;
    }

    /// Removes `item` if present; returns true if it was present.
    pub fn remove(&mut self, item: u32) -> bool {
        let b = self.bucket_of[item as usize];
        if b == u32::MAX {
            return false;
        }
        let b = b as usize;
        let pos = self.pos_in_bucket[item as usize] as usize;
        let last = self.buckets[b].len() - 1;
        self.buckets[b].swap(pos, last);
        let moved = self.buckets[b][pos];
        self.pos_in_bucket[moved as usize] = pos as u32;
        self.buckets[b].pop();
        self.bucket_of[item as usize] = u32::MAX;
        self.pos_in_bucket[item as usize] = u32::MAX;
        self.len -= 1;
        true
    }

    /// Updates the gain of `item`.
    ///
    /// # Panics
    /// Panics if `item` is not present.
    pub fn update_gain(&mut self, item: u32, new_gain: Gain) {
        assert!(self.contains(item), "item {item} not in bucket queue");
        self.remove(item);
        self.insert(item, new_gain);
    }

    /// Returns the item with maximum gain together with its gain, without
    /// removing it.
    pub fn peek_max(&mut self) -> Option<(u32, Gain)> {
        while self.max_bucket_hint > 0 && self.buckets[self.max_bucket_hint - 1].is_empty() {
            self.max_bucket_hint -= 1;
        }
        if self.max_bucket_hint == 0 {
            return None;
        }
        let b = self.max_bucket_hint - 1;
        // The hint loop above guarantees bucket `b` is non-empty.
        let item = *self.buckets[b].last()?;
        Some((item, self.gain_of_bucket(b)))
    }

    /// Removes and returns the item with maximum gain.
    pub fn pop_max(&mut self) -> Option<(u32, Gain)> {
        let (item, gain) = self.peek_max()?;
        self.remove(item);
        Some((item, gain))
    }

    /// Removes all items.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            for &item in b.iter() {
                self.bucket_of[item as usize] = u32::MAX;
                self.pos_in_bucket[item as usize] = u32::MAX;
            }
            b.clear();
        }
        self.max_bucket_hint = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_pop_in_gain_order() {
        let mut q = BucketQueue::new(10, 5);
        q.insert(0, -3);
        q.insert(1, 5);
        q.insert(2, 0);
        q.insert(3, 2);
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop_max(), Some((1, 5)));
        assert_eq!(q.pop_max(), Some((3, 2)));
        assert_eq!(q.pop_max(), Some((2, 0)));
        assert_eq!(q.pop_max(), Some((0, -3)));
        assert_eq!(q.pop_max(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn gains_are_clamped_to_bounds() {
        let mut q = BucketQueue::new(4, 3);
        q.insert(0, 100);
        q.insert(1, -100);
        assert_eq!(q.pop_max(), Some((0, 3)));
        assert_eq!(q.pop_max(), Some((1, -3)));
    }

    #[test]
    fn update_gain_moves_item() {
        let mut q = BucketQueue::new(4, 10);
        q.insert(0, 1);
        q.insert(1, 2);
        q.update_gain(0, 9);
        assert_eq!(q.peek_max(), Some((0, 9)));
        q.update_gain(0, -9);
        assert_eq!(q.peek_max(), Some((1, 2)));
    }

    #[test]
    fn remove_absent_is_noop() {
        let mut q = BucketQueue::new(3, 2);
        assert!(!q.remove(1));
        q.insert(1, 0);
        assert!(q.remove(1));
        assert!(!q.remove(1));
        assert!(q.is_empty());
    }

    #[test]
    fn contains_tracks_membership() {
        let mut q = BucketQueue::new(3, 2);
        assert!(!q.contains(2));
        q.insert(2, 1);
        assert!(q.contains(2));
        q.pop_max();
        assert!(!q.contains(2));
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = BucketQueue::new(5, 4);
        for i in 0..5 {
            q.insert(i, i as Gain - 2);
        }
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop_max(), None);
        // Items can be reinserted after clear.
        q.insert(3, 1);
        assert_eq!(q.pop_max(), Some((3, 1)));
    }

    #[test]
    fn ties_resolved_lifo_within_bucket() {
        let mut q = BucketQueue::new(4, 2);
        q.insert(0, 1);
        q.insert(1, 1);
        // Both valid; we only require that both come out with gain 1.
        let a = q.pop_max().unwrap();
        let b = q.pop_max().unwrap();
        assert_eq!(a.1, 1);
        assert_eq!(b.1, 1);
        assert_ne!(a.0, b.0);
    }

    #[test]
    #[should_panic]
    fn double_insert_panics() {
        let mut q = BucketQueue::new(2, 1);
        q.insert(0, 0);
        q.insert(0, 1);
    }
}
