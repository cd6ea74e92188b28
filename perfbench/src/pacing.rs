//! The `pacing` workload: rate-based clocking of Tables 4 and 5 through
//! `TransmissionProcess::run_soft`, over an ST-Apache trigger stream.
//!
//! One op is one soft-timer row: a (target, minimum burst interval) cell
//! of Table 4 or 5 and a fixed packet count. Ops cycle through the twelve
//! cells, each with its own stream seed.

use st_core::facility::Config;
use st_core::pacer::PacerConfig;
use st_tcp::pacing::TransmissionProcess;
use st_workloads::{TriggerStream, WorkloadId};

use crate::clock::Stopwatch;
use crate::harness::{op_seed, Digest, Spans, Workload};
use crate::layers::{Evidence, Row};
use crate::reference::Mix;

/// Packets paced per op.
const PACKETS: u64 = 2_000;

/// Table 4/5 cells, `(target, minimum burst interval)` in ticks.
const CELLS: [(u64, u64); 12] = [
    (40, 12),
    (40, 15),
    (40, 20),
    (40, 25),
    (40, 30),
    (40, 35),
    (60, 12),
    (60, 15),
    (60, 20),
    (60, 25),
    (60, 30),
    (60, 35),
];

/// Table 4's min=12 row nearly achieves its 40-tick target: its mean
/// interval stays below 46 ticks, the table45 tests' band.
const T4_MIN12_MAX: f64 = 46.0;

/// One op's simulated output.
#[derive(Debug, Clone, PartialEq)]
pub struct Out {
    /// Target transmission interval, ticks.
    pub target: u64,
    /// Minimum burst interval, ticks.
    pub min_interval: u64,
    /// Packets requested.
    pub requested: u64,
    /// Packets sent.
    pub packets: u64,
    /// Mean inter-transmission interval, ticks.
    pub avg_interval: f64,
    /// Its standard deviation, ticks.
    pub std_dev: f64,
    /// Simulated ticks from the first to the last transmission.
    pub span_ticks: f64,
    /// Share of transmissions released by the backup interrupt.
    pub backup_fraction: f64,
}

/// The pacing workload: the seed fixes every op's stream.
pub struct Pacing {
    seed: u64,
    /// X, the backup sweep period in ticks.
    x: u64,
}

impl Workload for Pacing {
    const WORK: &'static str = "packets";
    const DIGEST_OPS: u64 = CELLS.len() as u64;
    // About a tenth of an op, at a 0.9 scan share (see `crate::reference`).
    const REFERENCE: Mix = Mix {
        scans: 200,
        heap_ops: 1000,
    };
    type Out = Out;

    fn setup(seed: u64) -> Pacing {
        Pacing {
            seed,
            x: Config::default().x_ticks(),
        }
    }

    fn op(&mut self, index: u64, spans: &mut Spans) -> Out {
        let (target, min) = CELLS[(index % CELLS.len() as u64) as usize];
        let stream = TriggerStream::new(WorkloadId::StApache.spec(), op_seed(self.seed, index));
        let pacer = PacerConfig::new(target, min);
        let run = if spans.enabled() {
            // Time every trigger-gap draw the pacer loop makes.
            let mut gap = stream.tick_gap_fn();
            let (mut gap_ns, mut gaps) = (0, 0);
            let timed_gap = || {
                let sw = Stopwatch::start();
                let g = gap();
                gap_ns += sw.elapsed_ns();
                gaps += 1;
                g
            };
            let run = spans.time("tcp.run_soft", || {
                TransmissionProcess::run_soft(pacer, Config::default(), PACKETS, timed_gap)
            });
            spans.add_span("workloads.next_gap", gap_ns, gaps);
            run
        } else {
            TransmissionProcess::run_soft(pacer, Config::default(), PACKETS, stream.tick_gap_fn())
        };
        Out {
            target,
            min_interval: min,
            requested: PACKETS,
            packets: run.packets,
            avg_interval: run.avg_interval(),
            std_dev: run.std_dev(),
            span_ticks: run.intervals.sum(),
            backup_fraction: run.backup_fraction,
        }
    }

    fn check(&self, out: &Out) -> Result<(), String> {
        if out.packets != out.requested {
            return Err(format!("sent {} of {} packets", out.packets, out.requested));
        }
        // The pacer holds the rate from the train's start at tick 0, but the
        // mean interval is taken from the first transmission, which waits
        // up to X ticks for its first check, and the last transmission may
        // lead the schedule by up to target - min ticks. Over n packets the
        // mean may therefore sit below the target by (target - min + X) /
        // (n - 1), and by no more.
        let lo = out.target as f64
            - (out.target - out.min_interval + self.x) as f64 / (out.requested - 1) as f64;
        if (out.target, out.min_interval) == (40, 12)
            && !(lo..T4_MIN12_MAX).contains(&out.avg_interval)
        {
            return Err(format!(
                "Table 4 min=12 average {:.3} ticks outside [{lo:.3}, {T4_MIN12_MAX})",
                out.avg_interval
            ));
        }
        Ok(())
    }

    fn digest(out: &Out, d: &mut Digest) {
        d.u64(out.target);
        d.u64(out.min_interval);
        d.u64(out.packets);
        d.f64(out.avg_interval);
        d.f64(out.std_dev);
        d.f64(out.backup_fraction);
    }

    fn work(out: &Out) -> u64 {
        out.packets
    }

    fn sim_us(out: &Out) -> u64 {
        // Integral tick intervals sum exactly in an f64 at these counts.
        out.span_ticks.round() as u64
    }

    fn attribute(e: &Evidence<'_>) -> (Vec<Row>, &'static [&'static str]) {
        let p = |name| e.probes.get(name);
        let fires = e.fires();
        let gaps = e.spans.span("workloads.next_gap").1 as f64;
        // run_soft draws one gap up front and one after every poll.
        let polls = (gaps - 1.0).max(0.0);
        let sweeps = e.counter("facility.backup_sweeps");
        let rows = vec![
            Row {
                layer: "st-workloads",
                what: "trigger-gap draws",
                count: gaps,
                unit_ns: e.span_mean_ns("workloads.next_gap"),
            },
            Row {
                layer: "st-core",
                what: "polls and sweeps with nothing due",
                count: (polls + sweeps - fires).max(0.0),
                unit_ns: p("facility.poll_not_due_ns"),
            },
            Row {
                layer: "st-core",
                what: "fires (schedule + fire, 1 pending)",
                count: fires,
                unit_ns: p("facility.fire_ns.n1"),
            },
            Row {
                layer: "st-tcp",
                what: "pacer releases",
                count: e.counter("tcp.pace.released"),
                unit_ns: p("tcp.pacer.on_transmit_ns"),
            },
        ];
        let uncounted: &'static [&'static str] =
            &["st-tcp run_soft loop and interval statistics (one Summary record per packet)"];
        (rows, uncounted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> Out {
        Out {
            target: 40,
            min_interval: 12,
            requested: PACKETS,
            packets: PACKETS,
            avg_interval: 41.0,
            std_dev: 30.0,
            span_ticks: 41.0 * (PACKETS - 1) as f64,
            backup_fraction: 0.01,
        }
    }

    #[test]
    fn check_accepts_a_plausible_row() {
        assert_eq!(Pacing::setup(1).check(&good()), Ok(()));
    }

    #[test]
    fn check_rejects_missing_packets() {
        let mut out = good();
        out.packets -= 1;
        assert!(Pacing::setup(1).check(&out).is_err());
    }

    #[test]
    fn check_rejects_a_table4_min12_average_outside_the_band() {
        let mut out = good();
        out.avg_interval = 47.0;
        assert!(Pacing::setup(1).check(&out).is_err());
        // Faster than the train-start edge allows: the pacer overran.
        out.avg_interval = 39.4;
        assert!(Pacing::setup(1).check(&out).is_err());
        // The band applies to that cell only.
        out.min_interval = 35;
        assert_eq!(Pacing::setup(1).check(&out), Ok(()));
    }

    #[test]
    fn the_same_seed_replays_and_another_seed_differs() {
        let mut a = Pacing::setup(7);
        let mut b = Pacing::setup(7);
        let mut c = Pacing::setup(8);
        let (x, y, z) = (
            a.op(1, &mut Spans::off()),
            b.op(1, &mut Spans::on()),
            c.op(1, &mut Spans::off()),
        );
        assert_eq!(x, y, "tracing spans must not change the output");
        assert_ne!(x, z);
    }
}
