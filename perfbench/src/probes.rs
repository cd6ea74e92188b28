//! Per-op cost probes: each times one layer's public function at a
//! population the workloads produce.
//!
//! A probe runs its operation in batches sized to about 2 ms and reports
//! the median nanoseconds per operation over [`BATCHES`] batches.

use std::hint::black_box;

use st_core::facility::{Config, Expired, SoftTimerCore};
use st_core::pacer::{Pacer, PacerConfig};
use st_kernel::softclock::SoftClock;
use st_kernel::trigger::TriggerSource;
use st_sim::{Ctx, Engine, EventId, SimDuration, SimRng, SimTime, World};
use st_wheel::{HashedWheel, HeapQueue, TimerQueue};

use crate::clock::Stopwatch;
use crate::harness::median;

/// Batches per probe.
const BATCHES: usize = 11;

/// Host time one batch aims for, ns.
const BATCH_TARGET_NS: u64 = 2_000_000;

/// A deadline no probe ever reaches.
const FAR: u64 = 1 << 50;

/// Median ns per call of `f` over [`BATCHES`] batches.
fn ns_per_op(mut f: impl FnMut()) -> f64 {
    let mut n: u64 = 1;
    loop {
        let sw = Stopwatch::start();
        for _ in 0..n {
            f();
        }
        if sw.elapsed_ns() >= BATCH_TARGET_NS / 4 || n >= 1 << 24 {
            break;
        }
        n *= 2;
    }
    n *= 4;
    let per_op: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let sw = Stopwatch::start();
            for _ in 0..n {
                f();
            }
            sw.elapsed_ns() as f64 / n as f64
        })
        .collect();
    median(&per_op)
}

/// A world that keeps `n` events pending: every dispatch reschedules its
/// own slot, and one in four also cancels and reschedules another slot.
struct Churn {
    ids: Vec<EventId>,
    rng: SimRng,
}

impl World for Churn {
    type Event = usize;

    fn handle(&mut self, slot: usize, ctx: &mut Ctx<'_, usize>) {
        let delay = SimDuration::from_nanos(self.rng.range_u64(1, 100_000));
        self.ids[slot] = ctx.schedule_in(delay, slot);
        if self.rng.chance(0.25) {
            let other = self.rng.index(self.ids.len());
            ctx.cancel(self.ids[other]);
            let delay = SimDuration::from_nanos(self.rng.range_u64(1, 100_000));
            self.ids[other] = ctx.schedule_in(delay, other);
        }
    }
}

fn engine_step(n: usize) -> f64 {
    let mut rng = SimRng::seed(n as u64);
    let mut engine = Engine::new(Churn {
        ids: Vec::new(),
        rng: SimRng::seed(1),
    });
    let ids = (0..n)
        .map(|slot| {
            let at = SimTime::from_nanos(rng.range_u64(1, 100_000));
            engine.schedule_at(at, slot)
        })
        .collect();
    engine.world_mut().ids = ids;
    ns_per_op(|| {
        black_box(engine.step());
    })
}

fn populated<Q: TimerQueue<u32>>(mut q: Q, n: u32) -> Q {
    let mut rng = SimRng::seed(u64::from(n));
    for k in 0..n {
        q.schedule(rng.range_u64(1, 1_000_000), k);
    }
    q
}

fn next_deadline<Q: TimerQueue<u32>>(q: Q, n: u32) -> f64 {
    let q = populated(q, n);
    ns_per_op(|| {
        black_box(black_box(&q).next_deadline());
    })
}

/// Cancel one pending timer and schedule its replacement, at a steady
/// population of `n`, in random order like an ACK stream's re-arms.
fn schedule_cancel(n: u32) -> f64 {
    let mut wheel = HashedWheel::new();
    let mut rng = SimRng::seed(7);
    let mut handles: Vec<_> = (0..n)
        .map(|k| wheel.schedule(rng.range_u64(1, 1_000_000), k))
        .collect();
    let order: Vec<usize> = (0..1 << 16).map(|_| rng.index(handles.len())).collect();
    let mut k = 0;
    ns_per_op(|| {
        let i = order[k % order.len()];
        black_box(wheel.cancel(handles[i]));
        handles[i] = wheel.schedule(1_000_000 + k as u64, 0);
        k += 1;
    })
}

/// One schedule plus the poll that fires it `gap` ticks later, with
/// `others` timers pending far in the future: the fire, the wheel advance
/// over `gap` slots and the earliest-deadline refresh after it. The others
/// hash to random slots, as timers armed by an ACK stream do.
fn facility_fire(others: u32, gap: u64) -> f64 {
    let mut core: SoftTimerCore<u32> = SoftTimerCore::new(Config::default());
    let mut rng = SimRng::seed(u64::from(others));
    for k in 0..others {
        core.schedule(0, FAR + rng.range_u64(0, 1 << 20), k);
    }
    let mut out: Vec<Expired<u32>> = Vec::new();
    let mut now = 0;
    ns_per_op(|| {
        core.schedule(now, gap - 1, 0);
        now += gap;
        out.clear();
        black_box(core.poll(now, &mut out));
    })
}

fn facility_poll_not_due() -> f64 {
    let mut core: SoftTimerCore<u32> = SoftTimerCore::new(Config::default());
    core.schedule(0, FAR, 0);
    let mut out: Vec<Expired<u32>> = Vec::new();
    let mut now = 0;
    ns_per_op(|| {
        now += 1;
        black_box(core.poll(black_box(now), &mut out));
    })
}

fn kernel_trigger_check() -> f64 {
    let mut clock: SoftClock<u32> = SoftClock::new(false);
    clock.schedule(SimTime::ZERO, FAR, 0);
    let mut out: Vec<Expired<u32>> = Vec::new();
    let mut now = 0;
    ns_per_op(|| {
        now += 1;
        black_box(clock.trigger(SimTime::from_micros(now), TriggerSource::Syscall, &mut out));
    })
}

fn pacer_on_transmit() -> f64 {
    let mut pacer = Pacer::new(PacerConfig::new(40, 12));
    pacer.start_train(0);
    let mut now = 0;
    ns_per_op(|| {
        now += 41;
        let interval = pacer.on_transmit(black_box(now));
        black_box(pacer.next_delta(interval));
    })
}

fn clock_pair() -> f64 {
    ns_per_op(|| {
        black_box(Stopwatch::start().elapsed_ns());
    })
}

/// Probed per-op costs, ns, by metric name.
pub struct Probes(Vec<(&'static str, f64)>);

impl Probes {
    /// Runs every probe.
    pub fn run() -> Probes {
        Probes(vec![
            ("sim.engine.step_ns.n64", engine_step(64)),
            ("sim.engine.step_ns.n4096", engine_step(4096)),
            (
                "wheel.hashed.next_deadline_ns.n0",
                next_deadline(HashedWheel::new(), 0),
            ),
            (
                "wheel.hashed.next_deadline_ns.n1000",
                next_deadline(HashedWheel::new(), 1000),
            ),
            (
                "wheel.hashed.next_deadline_ns.n10000",
                next_deadline(HashedWheel::new(), 10_000),
            ),
            (
                "wheel.hashed.schedule_cancel_ns.n10000",
                schedule_cancel(10_000),
            ),
            (
                "wheel.heap.next_deadline_ns.n10000",
                next_deadline(HeapQueue::new(), 10_000),
            ),
            ("facility.poll_not_due_ns", facility_poll_not_due()),
            // Gaps between fires as the workloads produce them: a packet every
            // ~40 ticks when pacing, a quiet connection's fire about every
            // 2000 ticks among the 10k connection timers.
            ("facility.fire_ns.n1", facility_fire(0, 40)),
            ("facility.fire_ns.n10000", facility_fire(9_999, 2_000)),
            ("kernel.trigger_check_ns", kernel_trigger_check()),
            ("tcp.pacer.on_transmit_ns", pacer_on_transmit()),
            ("clock.pair_ns", clock_pair()),
        ])
    }

    /// The probed cost named `name`, ns.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("no probe named {name}"))
    }

    /// Every probe, in run order.
    pub fn all(&self) -> &[(&'static str, f64)] {
        &self.0
    }
}
