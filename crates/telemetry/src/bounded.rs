//! [`BoundedLog`]: the one retention policy behind every record ring —
//! the flight recorder's spans, and each registry's slow-query log,
//! metrics history, request ring and regression log.

/// Keeps the most recent `capacity` entries, evicting the oldest first,
/// and numbers entries in push order. Numbers are never reused: they
/// keep counting across eviction and [`BoundedLog::clear`].
#[derive(Debug)]
pub struct BoundedLog<T> {
    /// A ring once full: the oldest entry sits at `head`.
    entries: Vec<T>,
    head: usize,
    capacity: usize,
    next_seq: u64,
}

impl<T> BoundedLog<T> {
    /// An empty log retaining at most `capacity` entries (min 1). `const`,
    /// so the flight recorder is a plain `static Mutex<BoundedLog<_>>`.
    pub const fn new(capacity: usize) -> Self {
        BoundedLog {
            entries: Vec::new(),
            head: 0,
            capacity: if capacity == 0 { 1 } else { capacity },
            next_seq: 0,
        }
    }

    /// Append the entry `make` builds from its sequence number, evicting
    /// the oldest entry when full; returns that number.
    pub fn push(&mut self, make: impl FnOnce(u64) -> T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.entries.len() < self.capacity {
            self.entries.push(make(seq));
        } else {
            self.entries[self.head] = make(seq);
            self.head = (self.head + 1) % self.capacity;
        }
        seq
    }

    /// Entries pushed over the log's lifetime: the next sequence number.
    pub(crate) fn total(&self) -> u64 {
        self.next_seq
    }

    /// Drop every retained entry (sequence numbers keep counting).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.head = 0;
    }
}

impl<T: Clone> BoundedLog<T> {
    /// Copy of the retained entries, oldest first.
    pub fn to_vec(&self) -> Vec<T> {
        let (newer, older) = self.entries.split_at(self.head);
        [older, newer].concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_oldest_and_numbers_in_push_order() {
        let mut log = BoundedLog::new(3);
        let seqs: Vec<u64> = (0..5).map(|i| log.push(|seq| (seq, i))).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert_eq!(log.to_vec(), vec![(2, 2), (3, 3), (4, 4)]);
        assert_eq!(log.total(), 5);
    }

    #[test]
    fn wraps_repeatedly_in_order() {
        let mut log = BoundedLog::new(3);
        for i in 0..11u64 {
            log.push(|_| i);
            let want: Vec<u64> = (i.saturating_sub(2)..=i).collect();
            assert_eq!(log.to_vec(), want);
        }
        log.clear();
        log.push(|_| 11);
        assert_eq!(log.to_vec(), vec![11]);
    }

    #[test]
    fn numbers_survive_clear() {
        let mut log = BoundedLog::new(4);
        log.push(|seq| seq);
        log.push(|seq| seq);
        log.clear();
        assert!(log.to_vec().is_empty());
        assert_eq!(log.total(), 2);
        assert_eq!(log.push(|seq| seq), 2);
        log.clear();
        assert_eq!(log.push(|seq| seq), 3);
        assert_eq!(log.to_vec(), vec![3]);
    }

    #[test]
    fn zero_capacity_keeps_one() {
        let mut log = BoundedLog::new(0);
        log.push(|_| 'a');
        log.push(|_| 'b');
        assert_eq!(log.to_vec(), vec!['b']);
    }
}
