//! The `server` workload: the closed-loop saturated HTTP server of
//! Table 8, run through `SaturationSim::run`.
//!
//! Set-up calibrates Flash and Apache (HTTP, 333 MHz Pentium II) to the
//! paper's interrupt-driven baselines exactly as Table 8 does. One op runs
//! both servers under each of three drivers — interrupt-driven, the
//! Mogul-Ramakrishnan hybrid and soft-timer polling at quota 5 — for a
//! fixed simulated length, so every op carries its own baseline for the
//! polling check.

use st_http::model::{HttpMode, ServerKind, ServerModel};
use st_http::saturation::{SaturationConfig, SaturationSim};
use st_kernel::CostModel;
use st_net::driver::DriverStrategy;
use st_sim::SimDuration;

use crate::harness::{op_seed, Digest, Spans, Workload};
use crate::layers::{Evidence, Row};
use crate::reference::Mix;

/// Simulated length of one `SaturationSim::run`.
const RUN_MS: u64 = 500;

/// The calibration band Table 8's tests hold the interrupt baseline to.
const BASELINE_BAND: f64 = 0.06;

/// The servers and the paper's interrupt-driven HTTP baselines (req/s).
const SERVERS: [(ServerKind, f64); 2] = [(ServerKind::Flash, 1376.0), (ServerKind::Apache, 854.0)];

/// The drivers each op cycles through; the first is the baseline.
const DRIVERS: [DriverStrategy; 3] = [
    DriverStrategy::InterruptDriven,
    DriverStrategy::Hybrid,
    DriverStrategy::SoftTimerPolling { quota: 5.0 },
];

/// One `SaturationSim::run`'s simulated output.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Index into [`DRIVERS`].
    pub driver: usize,
    /// Completed requests.
    pub requests: u64,
    /// Requests per simulated second.
    pub throughput: f64,
    /// Simulated microseconds elapsed.
    pub elapsed_us: u64,
    /// Soft-timer facility fires.
    pub facility_fires: u64,
    /// Sum of the facility's fire delays, ticks.
    pub facility_delay_ticks: u64,
}

/// One op: every driver on every server, in [`SERVERS`] order.
#[derive(Debug, Clone, PartialEq)]
pub struct Out {
    /// `runs[s][d]`: server `s` under driver `d`.
    pub runs: Vec<Vec<Run>>,
}

/// The calibrated server models.
pub struct Server {
    machine: CostModel,
    models: Vec<(ServerModel, f64)>,
    seed: u64,
}

impl Workload for Server {
    const WORK: &'static str = "requests";
    const DIGEST_OPS: u64 = 24;
    // About a tenth of an op, at a 0.55 scan share (see `crate::reference`).
    const REFERENCE: Mix = Mix {
        scans: 1400,
        heap_ops: 50000,
    };
    type Out = Out;

    fn setup(seed: u64) -> Server {
        let machine = CostModel::pentium_ii_333();
        let models = SERVERS
            .iter()
            .enumerate()
            .map(|(k, &(kind, target))| {
                let model = SaturationSim::calibrate_app_work(
                    machine,
                    ServerModel::uncalibrated(kind, HttpMode::Http, &machine),
                    target,
                    SimDuration::from_secs(1),
                    op_seed(seed, u64::MAX - k as u64),
                );
                (model, target)
            })
            .collect();
        Server {
            machine,
            models,
            seed,
        }
    }

    fn op(&mut self, index: u64, spans: &mut Spans) -> Out {
        let seed = op_seed(self.seed, index);
        let runs = self
            .models
            .iter()
            .map(|(model, _)| {
                DRIVERS
                    .iter()
                    .enumerate()
                    .map(|(d, &driver)| {
                        let mut cfg = SaturationConfig::baseline(self.machine, model.clone(), seed);
                        cfg.duration = SimDuration::from_millis(RUN_MS);
                        cfg.driver = driver;
                        let r = spans.time("http.run", || SaturationSim::run(cfg));
                        spans.count("http.requests", r.requests);
                        Run {
                            driver: d,
                            requests: r.requests,
                            throughput: r.throughput,
                            elapsed_us: r.elapsed.as_micros(),
                            facility_fires: r.facility_fires,
                            facility_delay_ticks: r.facility_delay_ticks,
                        }
                    })
                    .collect()
            })
            .collect();
        Out { runs }
    }

    fn check(&self, out: &Out) -> Result<(), String> {
        if out.runs.len() != self.models.len() {
            return Err(format!(
                "{} servers ran, not {}",
                out.runs.len(),
                self.models.len()
            ));
        }
        for (runs, &(_, target)) in out.runs.iter().zip(&self.models) {
            if runs.len() != DRIVERS.len() {
                return Err(format!("{} drivers ran, not {}", runs.len(), DRIVERS.len()));
            }
            if let Some(r) = runs.iter().find(|r| r.requests == 0) {
                return Err(format!("driver {} completed no requests", r.driver));
            }
            let base = runs[0].throughput;
            if (base - target).abs() / target >= BASELINE_BAND {
                return Err(format!(
                    "interrupt baseline {base:.1} req/s outside {BASELINE_BAND} of {target}"
                ));
            }
            let soft = runs[2].throughput;
            if soft <= base {
                return Err(format!(
                    "soft-timer polling {soft:.1} req/s not above interrupts {base:.1}"
                ));
            }
        }
        Ok(())
    }

    fn digest(out: &Out, d: &mut Digest) {
        for r in out.runs.iter().flatten() {
            d.u64(r.requests);
            d.f64(r.throughput);
            d.u64(r.elapsed_us);
            d.u64(r.facility_fires);
            d.u64(r.facility_delay_ticks);
        }
    }

    fn work(out: &Out) -> u64 {
        out.runs.iter().flatten().map(|r| r.requests).sum()
    }

    fn sim_us(out: &Out) -> u64 {
        out.runs.iter().flatten().map(|r| r.elapsed_us).sum()
    }

    fn attribute(e: &Evidence<'_>) -> (Vec<Row>, &'static [&'static str]) {
        let p = |name| e.probes.get(name);
        let rows = vec![
            Row {
                layer: "st-kernel",
                what: "trigger-state checks",
                count: e.triggers(),
                unit_ns: p("kernel.trigger_check_ns"),
            },
            Row {
                layer: "st-kernel",
                what: "backup sweeps",
                count: e.counter("kernel.backup_ticks"),
                unit_ns: p("facility.poll_not_due_ns"),
            },
            Row {
                layer: "st-core",
                what: "fires (schedule + fire, <=3 pending)",
                count: e.fires(),
                unit_ns: p("facility.fire_ns.n1"),
            },
        ];
        let uncounted: &'static [&'static str] = &[
            "st-sim engine dispatches inside SaturationSim::run (no external counter)",
            "st-http request and work-item handling",
            "st-net driver decisions (counted as net.poll.decisions; no probe)",
            "st-kernel CPU accounting",
        ];
        (rows, uncounted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> Server {
        let machine = CostModel::pentium_ii_333();
        Server {
            machine,
            models: SERVERS
                .iter()
                .map(|&(kind, target)| {
                    (
                        ServerModel::uncalibrated(kind, HttpMode::Http, &machine),
                        target,
                    )
                })
                .collect(),
            seed: 1,
        }
    }

    fn good() -> Out {
        let run = |driver, throughput: f64| Run {
            driver,
            requests: 300,
            throughput,
            elapsed_us: 500_000,
            facility_fires: 0,
            facility_delay_ticks: 0,
        };
        Out {
            runs: SERVERS
                .iter()
                .map(|&(_, t)| vec![run(0, t), run(1, t * 1.01), run(2, t * 1.1)])
                .collect(),
        }
    }

    #[test]
    fn check_accepts_a_plausible_op() {
        assert_eq!(world().check(&good()), Ok(()));
    }

    #[test]
    fn check_rejects_a_run_without_requests() {
        let mut out = good();
        out.runs[1][1].requests = 0;
        assert!(world().check(&out).is_err());
    }

    #[test]
    fn check_rejects_polling_no_faster_than_interrupts() {
        let mut out = good();
        out.runs[0][2].throughput = out.runs[0][0].throughput;
        assert!(world().check(&out).is_err());
    }

    #[test]
    fn check_rejects_a_baseline_outside_the_calibration_band() {
        let mut out = good();
        out.runs[1][0].throughput *= 0.93;
        assert!(world().check(&out).is_err());
    }
}
