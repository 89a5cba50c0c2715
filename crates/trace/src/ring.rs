//! Lock-free per-thread event ring built from seqlock-guarded atomic slots.
//!
//! Each thread that records trace events owns exactly one [`ThreadRing`] per
//! tracer: only the owning thread pushes, any thread may snapshot. A slot is
//! a fixed array of `AtomicU64` words guarded by a per-slot sequence number
//! (odd while a write is in progress, `2*i + 2` once logical write `i` is
//! complete), so a reader racing the writer sees a torn slot *detectably*
//! and skips it instead of reporting a half-overwritten event. Because every
//! word is an atomic there is no `unsafe` and no possibility of UB — the
//! seqlock protocol only has to guard logical consistency.
//!
//! Pushing is allocation-free: two sequence stores plus [`WORDS`] relaxed
//! word stores, all to memory owned by the pushing thread.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Words per event slot: interned name index, trace id, span id, parent
/// span id, start offset (ns), duration (ns).
pub(crate) const WORDS: usize = 6;

#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

#[derive(Debug)]
pub(crate) struct ThreadRing {
    slots: Box<[Slot]>,
    /// Total events ever pushed; the live window is the last `slots.len()`.
    pushed: AtomicU64,
}

impl ThreadRing {
    pub(crate) fn new(capacity: usize) -> ThreadRing {
        let cap = capacity.max(1);
        ThreadRing {
            slots: (0..cap)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
            pushed: AtomicU64::new(0),
        }
    }

    /// Owner-thread write of logical event `pushed`.
    ///
    /// Protocol: mark the slot odd, release-fence so the mark is ordered
    /// before the word stores, write the words, then publish with an even
    /// sequence tied to the logical index. A reader that observes any of the
    /// new words is guaranteed (via its acquire fence) to observe at least
    /// the odd mark on its validation read and reject the slot.
    pub(crate) fn push(&self, words: [u64; WORDS]) {
        let i = self.pushed.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let slot = &self.slots[(i % cap) as usize];
        slot.seq.store(2 * i + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(2 * i + 2, Ordering::Release);
        self.pushed.store(i + 1, Ordering::Release);
    }

    /// Snapshot the live window into `out`, oldest first. Returns
    /// `(evicted, torn)`: events lost to wraparound before this read, and
    /// slots skipped because the owner was mid-overwrite while we read.
    pub(crate) fn read_into(&self, out: &mut Vec<[u64; WORDS]>) -> (u64, u64) {
        let cap = self.slots.len() as u64;
        let pushed = self.pushed.load(Ordering::Acquire);
        let first = pushed.saturating_sub(cap);
        let mut torn = 0u64;
        for i in first..pushed {
            let slot = &self.slots[(i % cap) as usize];
            let seq1 = slot.seq.load(Ordering::Acquire);
            let mut words = [0u64; WORDS];
            for (v, w) in words.iter_mut().zip(slot.words.iter()) {
                *v = w.load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            let seq2 = slot.seq.load(Ordering::Relaxed);
            if seq1 == 2 * i + 2 && seq2 == seq1 {
                out.push(words);
            } else {
                torn += 1;
            }
        }
        (first, torn)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let ring = ThreadRing::new(8);
        for i in 0..5u64 {
            ring.push([i, 0, 0, 0, 0, 0]);
        }
        let mut out = Vec::new();
        let (evicted, torn) = ring.read_into(&mut out);
        assert_eq!(evicted, 0);
        assert_eq!(torn, 0);
        assert_eq!(
            out.iter().map(|w| w[0]).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn wraparound_keeps_newest_and_counts_evicted() {
        let ring = ThreadRing::new(4);
        for i in 0..10u64 {
            ring.push([i, 0, 0, 0, 0, 0]);
        }
        let mut out = Vec::new();
        let (evicted, torn) = ring.read_into(&mut out);
        assert_eq!(evicted, 6);
        assert_eq!(torn, 0);
        assert_eq!(
            out.iter().map(|w| w[0]).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
    }

    #[test]
    fn concurrent_reads_never_see_torn_words() {
        use std::sync::Arc;
        // Writer encodes a self-consistent pattern (all words equal); any
        // accepted slot with mixed words is a seqlock violation.
        let ring = Arc::new(ThreadRing::new(32));
        let stop = Arc::new(AtomicU64::new(0));
        let reader = {
            let (ring, stop) = (Arc::clone(&ring), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut out = Vec::new();
                while stop.load(Ordering::Acquire) == 0 {
                    out.clear();
                    ring.read_into(&mut out);
                    for w in &out {
                        assert!(w.iter().all(|&v| v == w[0]), "torn slot accepted: {w:?}");
                    }
                }
            })
        };
        for i in 0..200_000u64 {
            ring.push([i; WORDS]);
        }
        stop.store(1, Ordering::Release);
        reader.join().unwrap();
    }
}
