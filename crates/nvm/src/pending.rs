//! The set of cachelines awaiting write-back to a pool's backend.
//!
//! A hierarchical bitmap: level 0 has one bit per cacheline (64 lines per
//! word) and every level above it one summary bit per word of the level
//! below, up to a top level of at most [`TOP_WORDS`] words. A fence walks
//! down from the flagged top-level bits only, so its cost follows the number
//! of lines touched since the last fence, not the capacity of the pool: a
//! 128 MiB pool has 32 768 level-0 words under 512 summary words under 8
//! top-level words, and a fence with nothing pending reads those 8.
//!
//! The invariant: once [`PendingSet::mark`] has returned, the marked line's
//! bit is set at level 0 **and** so is the summary bit above it on every
//! level, until a drain takes them. A summary bit over an empty word is
//! allowed (a drain then swaps one empty word); a non-empty word without its
//! summary bit would be a lost line.

use crate::pool::zeroed_atomics;
use std::sync::atomic::{AtomicU64, Ordering};

/// A level longer than this gets a summary level above it, so a drain never
/// scans more than this many words to find out that nothing is pending.
const TOP_WORDS: usize = 64;

/// Cachelines whose persistent-image content changed since the last
/// completed backend flush. Shared between the storing threads (which
/// [`mark`](PendingSet::mark)) and the fencing thread (which
/// [`drain`](PendingSet::drain)s under the backend's lock).
#[derive(Debug)]
pub struct PendingSet {
    /// `levels[0]`: one bit per cacheline. `levels[k + 1]`: one bit per word
    /// of `levels[k]`. Never empty; the last level is the one a drain scans.
    levels: Vec<Box<[AtomicU64]>>,
}

impl PendingSet {
    /// An empty set able to hold lines `0..lines`.
    pub fn new(lines: usize) -> Self {
        let mut levels = vec![zeroed_atomics(lines.div_ceil(64))];
        while levels[levels.len() - 1].len() > TOP_WORDS {
            let below = levels[levels.len() - 1].len();
            levels.push(zeroed_atomics(below.div_ceil(64)));
        }
        PendingSet { levels }
    }

    /// Adds `line` to the set.
    ///
    /// The level-0 update and every summary check are `SeqCst` against the
    /// swaps of [`drain`](PendingSet::drain), which run top-down: either
    /// this call sees a summary bit the drain cleared and sets it again, or
    /// the drain's swap of the word below comes later and takes the line.
    /// Weaker orderings would allow both to miss (store buffering),
    /// stranding the line under a clear summary bit. Every level is checked
    /// on every call — a set bit half-way up may belong to a `mark` that has
    /// not reached the top yet.
    #[inline]
    pub fn mark(&self, line: u64) {
        let mut idx = line as usize;
        for (k, level) in self.levels.iter().enumerate() {
            let (word, bit) = (&level[idx / 64], 1u64 << (idx % 64));
            if k == 0 || word.load(Ordering::SeqCst) & bit == 0 {
                word.fetch_or(bit, Ordering::SeqCst);
            }
            idx /= 64;
        }
    }

    /// `true` if `line` is in the set.
    #[inline]
    pub fn contains(&self, line: u64) -> bool {
        self.levels[0][(line / 64) as usize].load(Ordering::Acquire) & (1 << (line % 64)) != 0
    }

    /// Removes and returns every line in the set, in ascending order. Every
    /// line whose `mark` happens-before this call is returned (or was taken
    /// by an earlier drain). Callers serialise drains (the file backend
    /// drains under its file lock).
    pub fn drain(&self) -> Vec<u64> {
        let mut lines = Vec::new();
        let top = self.levels.len() - 1;
        for (w, word) in self.levels[top].iter().enumerate() {
            // An unflagged top-level word is left alone: a fence with
            // nothing pending costs a few loads and no locked exchange.
            if word.load(Ordering::Acquire) != 0 {
                self.drain_word(top, w, &mut lines);
            }
        }
        lines
    }

    /// Swaps out word `w` of level `k` and everything flagged below it.
    fn drain_word(&self, k: usize, w: usize, lines: &mut Vec<u64>) {
        let mut bits = self.levels[k][w].swap(0, Ordering::SeqCst);
        while bits != 0 {
            let idx = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if k == 0 {
                lines.push(idx as u64);
            } else {
                self.drain_word(k - 1, idx, lines);
            }
        }
    }

    /// Puts drained lines back after a fence that did not complete, so the
    /// set never under-reports and the next fence finds them again.
    pub fn restore(&self, lines: &[u64]) {
        for &line in lines {
            self.mark(line);
        }
    }

    /// Test support: every non-empty word has its summary bit, on every
    /// level.
    #[cfg(test)]
    pub(crate) fn summary_covers_words(&self) -> bool {
        self.levels.windows(2).all(|pair| {
            pair[0].iter().enumerate().all(|(w, word)| {
                word.load(Ordering::SeqCst) == 0
                    || pair[1][w / 64].load(Ordering::SeqCst) & (1 << (w % 64)) != 0
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_returns_marked_lines_ascending_and_empties_the_set() {
        let set = PendingSet::new(1 << 21); // a 128 MiB pool: three levels
        assert_eq!(set.levels.len(), 3);
        let marked = [2_000_000u64, 0, 63, 64, 4096, 4097, 70_000];
        for &l in &marked {
            set.mark(l);
            set.mark(l); // idempotent
        }
        assert!(set.summary_covers_words());
        assert!(set.contains(4097) && !set.contains(4098));
        let mut want = marked.to_vec();
        want.sort_unstable();
        assert_eq!(set.drain(), want);
        assert!(set.drain().is_empty());
        assert!(!set.contains(4097));
    }

    #[test]
    fn restore_brings_back_every_level() {
        let set = PendingSet::new(1 << 16);
        for l in [5u64, 6, 7, 40_000] {
            set.mark(l);
        }
        let drained = set.drain();
        set.restore(&drained);
        assert!(set.summary_covers_words());
        assert!(drained.iter().all(|&l| set.contains(l)));
        assert_eq!(set.drain(), drained);
    }

    #[test]
    fn no_mark_is_lost_while_another_thread_drains() {
        // Markers and a drainer race on the same words; every marked line
        // must come out of some drain (the last one runs after the joins).
        // Three levels; the stride spreads the slots over every top word.
        const SLOTS: u64 = 256;
        const STRIDE: u64 = 8191;
        const ROUNDS: u64 = 2_000;
        let set = PendingSet::new(1 << 21);
        let seen: Vec<AtomicU64> = (0..SLOTS).map(|_| AtomicU64::new(0)).collect();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let markers: Vec<_> = (0..2u64)
                .map(|t| {
                    let set = &set;
                    s.spawn(move || {
                        for r in 0..ROUNDS {
                            for slot in (t..SLOTS).step_by(2) {
                                if (slot + r) % 3 == 0 {
                                    set.mark(slot * STRIDE);
                                }
                            }
                        }
                    })
                })
                .collect();
            let drainer = s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    for l in set.drain() {
                        seen[(l / STRIDE) as usize].fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            for m in markers {
                m.join().unwrap();
            }
            done.store(true, Ordering::Release);
            drainer.join().unwrap();
        });
        for l in set.drain() {
            seen[(l / STRIDE) as usize].fetch_add(1, Ordering::Relaxed);
        }
        assert!(
            set.levels[0].iter().all(|w| w.load(Ordering::SeqCst) == 0),
            "a line is stranded: set at level 0, unreachable from the top"
        );
        assert!(
            seen.iter().all(|c| c.load(Ordering::Relaxed) > 0),
            "a marked line never came out of a drain"
        );
    }
}
