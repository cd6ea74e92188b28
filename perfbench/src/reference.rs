//! The reference loop every timed op is set against.
//!
//! The host this benchmark runs on is shared: for seconds to minutes at a
//! time, other tenants halve the speed of memory-bound code while a pure
//! register loop keeps its pace. On a 2-core x86-64 VM a `pacing` op took
//! 4.4 ms in one such regime and 8.4 ms in the next, and two passes of
//! ten runs half an hour apart disagreed on its median by a factor of 1.8.
//!
//! So every timed op is followed by a fixed amount of work that belongs to
//! the benchmark, not to the code under test, and the end-to-end host-time
//! metrics are op times in units of that work. The reference is built from
//! two kinds of work: a streaming scan over 4096 empty slot lists (the
//! shape of a hashed wheel's `next_deadline`, but owned here, so a faster
//! wheel does not speed it up), and churn of a 4096-entry binary heap (the
//! pointer and branch work of an event queue or a timer slab). The
//! contention slows the scan far more than the heap, and the workloads
//! between the two, each in its own proportion. So each workload has its
//! own mix, given as the share of the reference time the scan takes:
//!
//! | workload | scan share | why |
//! |---|---|---|
//! | `pacing` | 0.9 | every fire scans the empty wheel |
//! | `server` | 0.55 | engine dispatch sits between the two |
//! | `conn_timers` | 0.25 | re-arms hit a 10k-timer slab, scans are rare |
//!
//! Each share was the best of a sweep from 0 to 1 in two separate
//! 40-second traces on that VM. Over 3-second windows spanning the regimes
//! it cut the variation of the median op time (coefficient of variation
//! 0.09 to 0.17) to that of the median ratio (0.01 on `pacing`, 0.03 to
//! 0.06 on `conn_timers`, 0.08 on `server`). A reference unit is sized at
//! about a tenth of its workload's op. The ratio is only compared within
//! one workload, never across workloads.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

use crate::clock::Stopwatch;

/// Slot lists the scan walks, as many as the facility's default wheel.
const SLOTS: usize = 4096;

/// Entries in the churned heap.
const HEAP: usize = 4096;

/// One reference unit: how many scans and heap pop-and-push pairs.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Scans over the slot lists.
    pub scans: u32,
    /// Pop-and-push pairs on the heap.
    pub heap_ops: u32,
}

/// The benchmark-owned reference work.
pub struct Reference {
    slots: Vec<Vec<u64>>,
    heap: BinaryHeap<Reverse<u64>>,
    lcg: u64,
}

impl Reference {
    /// Builds the slot lists and fills the heap.
    pub fn new() -> Reference {
        let mut r = Reference {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            heap: BinaryHeap::with_capacity(HEAP),
            lcg: 0x5eed,
        };
        for _ in 0..HEAP {
            let key = r.next() >> 20;
            r.heap.push(Reverse(key));
        }
        r
    }

    fn next(&mut self) -> u64 {
        self.lcg = self
            .lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.lcg
    }

    /// Runs one reference unit of `mix`; returns its host ns.
    pub fn unit_ns(&mut self, mix: Mix) -> f64 {
        let sw = Stopwatch::start();
        for _ in 0..mix.scans {
            let mut min = u64::MAX;
            for slot in black_box(&self.slots) {
                for &d in slot {
                    min = min.min(d);
                }
            }
            black_box(min);
        }
        for _ in 0..mix.heap_ops {
            let Reverse(key) = self.heap.pop().unwrap_or(Reverse(0));
            let step = self.next() >> 50;
            self.heap.push(Reverse(key + step));
        }
        sw.elapsed_ns() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_unit_takes_time_and_keeps_the_heap_full() {
        let mut r = Reference::new();
        let mix = Mix {
            scans: 2,
            heap_ops: 10,
        };
        assert!(r.unit_ns(mix) > 0.0);
        assert_eq!(r.heap.len(), HEAP);
    }
}
