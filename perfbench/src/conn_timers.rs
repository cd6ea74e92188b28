//! The `conn_timers` workload: one retransmission timer per TCP
//! connection on the default `SoftTimerCore`.
//!
//! Set-up arms an RTO timer for each of [`CONNS`] connections. Each op is
//! a seeded stream of ACKs; every ACK cancels its connection's timer and
//! re-arms it. Between ACKs the loop runs a trigger-state `poll` about
//! every 30 simulated µs and the backup `interrupt_sweep` every X ticks.
//! Now and then an ACKed connection goes quiet; its timer then fires, the
//! connection retransmits, recovers and re-arms. The quiet share is
//! seeded so that about [`QUIET_SHARE`] of the connections are quiet at
//! any time and a fire follows about one ACK in two hundred.

use st_core::facility::{Config, Expired, SoftTimerCore, TimerHandle};
use st_sim::SimRng;

use crate::harness::{Digest, Spans, Workload};
use crate::layers::{Evidence, Row};
use crate::reference::Mix;

/// Connections, each holding one pending RTO timer.
const CONNS: usize = 10_000;

/// Retransmission timeout, ticks (1 s at the 1 MHz measurement clock).
const RTO: u64 = 1_000_000;

/// ACKs per op.
const ACKS_PER_OP: u64 = 8_192;

/// ACK inter-arrival, uniform in `[lo, hi)` ticks (mean 10).
const ACK_GAP: (u64, u64) = (1, 20);

/// Trigger-state poll gap, uniform in `[lo, hi)` ticks (mean 30).
const POLL_GAP: (u64, u64) = (15, 46);

/// Share of connections quiet at any time.
const QUIET_SHARE: f64 = 0.05;

/// Chance that an ACKed connection goes quiet. A quiet connection stays
/// quiet for one RTO, so `QUIET_SHARE = GO_QUIET * ACKs per RTO / CONNS`
/// with 100k ACKs per simulated second.
const GO_QUIET: f64 = QUIET_SHARE * CONNS as f64 / 100_000.0;

/// A timer's payload: the connection and the arm it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Arm {
    conn: u32,
    gen: u32,
}

#[derive(Debug)]
struct Conn {
    handle: TimerHandle,
    gen: u32,
    /// `S + T` of the live arm: schedule tick plus delta.
    deadline: u64,
    quiet: bool,
}

/// One fire as the benchmark saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fire {
    /// Connection whose timer fired.
    pub conn: u32,
    /// The arm the fired timer carried.
    pub gen: u32,
    /// The connection's live arm when it fired.
    pub live_gen: u32,
    /// `S + T` of the live arm.
    pub deadline: u64,
    /// Tick of the check that fired it.
    pub fired_at: u64,
}

/// One op's simulated output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Out {
    /// ACKs processed.
    pub acks: u64,
    /// Re-arms whose cancel did not return the live arm.
    pub lost_cancels: u64,
    /// ACKs dropped because no connection was active.
    pub no_active: u64,
    /// Connections whose live arm was overdue at the op's end: past
    /// `S + T + X + 1` and still unfired.
    pub missed: u64,
    /// Fires, in order.
    pub fires: Vec<Fire>,
    /// Simulated tick at the start and the end of the op.
    pub ticks: (u64, u64),
}

/// The connection table, its facility and the ACK stream.
pub struct ConnTimers {
    core: SoftTimerCore<Arm>,
    conns: Vec<Conn>,
    rng: SimRng,
    x: u64,
    now: u64,
    next_poll: u64,
    next_sweep: u64,
    due: Vec<Expired<Arm>>,
}

impl ConnTimers {
    /// Runs the checks due up to tick `until`, in time order.
    fn checks_until(&mut self, until: u64, out: &mut Out, spans: &mut Spans) {
        loop {
            let sweep = self.next_sweep <= self.next_poll;
            let at = self.next_sweep.min(self.next_poll);
            if at > until {
                return;
            }
            self.now = at;
            self.due.clear();
            if spans.enabled() && self.core.has_due(at) {
                spans.count("conn.slow_checks", 1);
            }
            let (core, due) = (&mut self.core, &mut self.due);
            if sweep {
                spans.time("facility.sweep", || core.interrupt_sweep(at, due));
                self.next_sweep += self.x;
            } else {
                spans.time("facility.poll", || core.poll(at, due));
                self.next_poll = at + self.rng.range_u64(POLL_GAP.0, POLL_GAP.1);
            }
            for i in 0..self.due.len() {
                let Arm { conn, gen } = self.due[i].payload;
                let c = &mut self.conns[conn as usize];
                out.fires.push(Fire {
                    conn,
                    gen,
                    live_gen: c.gen,
                    deadline: c.deadline,
                    fired_at: at,
                });
                // Retransmit: the connection recovers and re-arms.
                c.quiet = false;
                c.gen += 1;
                c.deadline = at + RTO;
                let arm = Arm { conn, gen: c.gen };
                c.handle = spans.time("facility.schedule", || self.core.schedule(at, RTO, arm));
            }
        }
    }

    /// The ACKed connection: a uniform draw, moved on past quiet ones.
    /// `None` when every connection is quiet, which happens only if quiet
    /// connections' timers stop firing.
    fn ack_target(&mut self) -> Option<usize> {
        let first = self.rng.index(CONNS);
        (0..CONNS)
            .map(|k| (first + k) % CONNS)
            .find(|&j| !self.conns[j].quiet)
    }
}

impl Workload for ConnTimers {
    const WORK: &'static str = "acks";
    const DIGEST_OPS: u64 = 100;
    // About a tenth of an op, at a 0.25 scan share (see `crate::reference`).
    const REFERENCE: Mix = Mix {
        scans: 50,
        heap_ops: 7000,
    };
    type Out = Out;

    fn setup(seed: u64) -> ConnTimers {
        let mut rng = SimRng::seed(seed);
        let mut core = SoftTimerCore::new(Config::default());
        let x = core.config().x_ticks();
        // Active connections were ACKed within the last 200 ms; quiet ones
        // went quiet at any point of the last RTO.
        let conns = (0..CONNS)
            .map(|j| {
                let quiet = rng.chance(QUIET_SHARE);
                let delta = if quiet {
                    rng.range_u64(1, RTO)
                } else {
                    rng.range_u64(RTO - 200_000, RTO)
                };
                let arm = Arm {
                    conn: j as u32,
                    gen: 0,
                };
                Conn {
                    handle: core.schedule(0, delta, arm),
                    gen: 0,
                    deadline: delta,
                    quiet,
                }
            })
            .collect();
        let next_poll = rng.range_u64(POLL_GAP.0, POLL_GAP.1);
        ConnTimers {
            core,
            conns,
            rng,
            x,
            now: 0,
            next_poll,
            next_sweep: x,
            due: Vec::new(),
        }
    }

    fn op(&mut self, _index: u64, spans: &mut Spans) -> Out {
        let mut out = Out {
            acks: 0,
            lost_cancels: 0,
            no_active: 0,
            missed: 0,
            fires: Vec::new(),
            ticks: (self.now, self.now),
        };
        for _ in 0..ACKS_PER_OP {
            let at = self.now + self.rng.range_u64(ACK_GAP.0, ACK_GAP.1);
            self.checks_until(at, &mut out, spans);
            self.now = at;
            let Some(j) = self.ack_target() else {
                out.no_active += 1;
                continue;
            };
            let c = &mut self.conns[j];
            let live = Arm {
                conn: j as u32,
                gen: c.gen,
            };
            let core = &mut self.core;
            if spans.time("facility.cancel", || core.cancel(c.handle)) != Some(live) {
                out.lost_cancels += 1;
            }
            c.gen += 1;
            c.deadline = at + RTO;
            let arm = Arm {
                conn: live.conn,
                gen: c.gen,
            };
            c.handle = spans.time("facility.schedule", || core.schedule(at, RTO, arm));
            if self.rng.chance(GO_QUIET) {
                c.quiet = true;
            }
            out.acks += 1;
        }
        out.ticks.1 = self.now;
        // Every check up to `now` has run, the sweeps included, so a live
        // arm more than X + 1 ticks overdue is one the facility lost.
        let overdue = self.now.saturating_sub(self.x + 1);
        out.missed = self.conns.iter().filter(|c| c.deadline < overdue).count() as u64;
        out
    }

    fn check(&self, out: &Out) -> Result<(), String> {
        if out.missed > 0 {
            return Err(format!(
                "{} timers more than X + 1 ticks overdue never fired",
                out.missed
            ));
        }
        if out.no_active > 0 {
            return Err(format!("{} ACKs found no active connection", out.no_active));
        }
        if out.lost_cancels > 0 {
            return Err(format!(
                "{} re-arms cancelled no live timer",
                out.lost_cancels
            ));
        }
        for f in &out.fires {
            if f.gen != f.live_gen {
                return Err(format!(
                    "connection {} fired arm {} after it was cancelled (live arm {})",
                    f.conn, f.gen, f.live_gen
                ));
            }
            // The paper's bound: S+T < fired_at <= S+T+X+1.
            if f.fired_at <= f.deadline || f.fired_at > f.deadline + self.x + 1 {
                return Err(format!(
                    "connection {} fired at {} outside ({}, {}]",
                    f.conn,
                    f.fired_at,
                    f.deadline,
                    f.deadline + self.x + 1
                ));
            }
        }
        Ok(())
    }

    fn digest(out: &Out, d: &mut Digest) {
        d.u64(out.acks);
        d.u64(out.missed);
        d.u64(out.ticks.1);
        for f in &out.fires {
            d.u64(u64::from(f.conn));
            d.u64(u64::from(f.gen));
            d.u64(f.fired_at);
        }
    }

    fn work(out: &Out) -> u64 {
        out.acks
    }

    fn sim_us(out: &Out) -> u64 {
        out.ticks.1 - out.ticks.0
    }

    fn attribute(e: &Evidence<'_>) -> (Vec<Row>, &'static [&'static str]) {
        let p = |name| e.probes.get(name);
        let fires = e.fires();
        let checks = (e.spans.span("facility.poll").1 + e.spans.span("facility.sweep").1) as f64;
        let slow = e.spans.counted("conn.slow_checks") as f64;
        let rows = vec![
            Row {
                layer: "st-wheel",
                what: "ACK re-arms (cancel + schedule, 10k pending)",
                count: e.counter("facility.canceled"),
                unit_ns: p("wheel.hashed.schedule_cancel_ns.n10000"),
            },
            Row {
                layer: "st-core",
                what: "polls and sweeps with nothing due",
                count: checks - slow,
                unit_ns: p("facility.poll_not_due_ns"),
            },
            Row {
                layer: "st-core",
                what: "fires (schedule + fire, 10k pending)",
                count: fires,
                unit_ns: p("facility.fire_ns.n10000"),
            },
            Row {
                layer: "st-wheel",
                what: "checks due on a stale earliest deadline (advance + rescan)",
                count: (slow - fires).max(0.0),
                unit_ns: p("wheel.hashed.next_deadline_ns.n10000"),
            },
        ];
        let uncounted: &'static [&'static str] =
            &["ACK-stream draws and connection bookkeeping in the benchmark loop"];
        (rows, uncounted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ran() -> (ConnTimers, Out) {
        let mut w = ConnTimers::setup(3);
        let mut out = w.op(1, &mut Spans::off());
        while out.fires.is_empty() {
            out = w.op(2, &mut Spans::off());
        }
        (w, out)
    }

    #[test]
    fn check_accepts_a_real_op() {
        let (w, out) = ran();
        assert_eq!(w.check(&out), Ok(()));
        assert_eq!(out.acks, ACKS_PER_OP);
    }

    #[test]
    fn check_rejects_a_fire_past_the_backup_bound() {
        let (w, mut out) = ran();
        out.fires[0].fired_at = out.fires[0].deadline + w.x + 2;
        assert!(w.check(&out).is_err());
    }

    #[test]
    fn check_rejects_a_fire_at_the_deadline() {
        let (w, mut out) = ran();
        out.fires[0].fired_at = out.fires[0].deadline;
        assert!(w.check(&out).is_err());
    }

    #[test]
    fn check_rejects_a_fire_for_a_cancelled_arm() {
        let (w, mut out) = ran();
        out.fires[0].gen = out.fires[0].live_gen.wrapping_sub(1);
        assert!(w.check(&out).is_err());
    }

    #[test]
    fn check_rejects_a_lost_cancel() {
        let (w, mut out) = ran();
        out.lost_cancels = 1;
        assert!(w.check(&out).is_err());
    }

    #[test]
    fn check_rejects_a_missed_timer() {
        let (w, mut out) = ran();
        out.missed = 1;
        assert!(w.check(&out).is_err());
    }

    #[test]
    fn check_rejects_acks_without_an_active_connection() {
        let (w, mut out) = ran();
        out.no_active = 1;
        assert!(w.check(&out).is_err());
    }

    #[test]
    fn a_timer_the_facility_drops_is_reported_missed() {
        let mut w = ConnTimers::setup(3);
        // Drop the earliest quiet connection's timer behind the benchmark's
        // back, as a facility that never fires it would.
        let j = (0..CONNS)
            .filter(|&j| w.conns[j].quiet)
            .min_by_key(|&j| w.conns[j].deadline)
            .expect("set-up makes quiet connections");
        assert!(w.core.cancel(w.conns[j].handle).is_some());
        let deadline = w.conns[j].deadline;
        loop {
            let out = w.op(1, &mut Spans::off());
            if out.ticks.1 > deadline + w.x + 1 {
                assert!(out.missed >= 1);
                assert!(w.check(&out).is_err());
                break;
            }
            assert_eq!(w.check(&out), Ok(()));
        }
    }

    #[test]
    fn no_ack_target_once_every_connection_is_quiet() {
        let mut w = ConnTimers::setup(3);
        for c in &mut w.conns {
            c.quiet = true;
        }
        assert_eq!(w.ack_target(), None);
        let out = w.op(1, &mut Spans::off());
        assert!(out.no_active > 0);
        assert!(w.check(&out).is_err());
    }

    #[test]
    fn traced_spans_do_not_change_the_output() {
        let mut a = ConnTimers::setup(5);
        let mut b = ConnTimers::setup(5);
        for i in 1..=3 {
            assert_eq!(a.op(i, &mut Spans::off()), b.op(i, &mut Spans::on()));
        }
    }
}
