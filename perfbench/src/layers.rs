//! Per-layer metrics and the attribution of wall time to layers.
//!
//! Counts come from the st-trace session that ran over the traced digest
//! ops; per-op costs come from the probes; spans are the benchmark's own
//! timings of the calls it makes into a layer. Attribution multiplies
//! each count by its probed cost and sets the sum against the untraced
//! wall time of the same ops; what it cannot count from outside is the
//! residual.

use st_kernel::trigger::TriggerSource;
use st_trace::Snapshot;

use crate::harness::{Spans, Workload};
use crate::probes::Probes;

/// What the traced digest ops left behind.
pub struct Evidence<'a> {
    /// The trace session over the traced digest ops.
    pub snap: &'a Snapshot,
    /// The benchmark's spans and counts over the same ops.
    pub spans: &'a Spans,
    /// Probed per-op costs.
    pub probes: &'a Probes,
    /// Untraced host nanoseconds of the digest ops.
    pub wall_ns: u64,
}

impl Evidence<'_> {
    /// Value of registry counter `name`.
    pub fn counter(&self, name: &str) -> f64 {
        self.snap.counter(name) as f64
    }

    /// Facility fires, trigger-state and backup.
    pub fn fires(&self) -> f64 {
        self.counter("facility.fired.trigger") + self.counter("facility.fired.backup")
    }

    /// Trigger states over every source.
    pub fn triggers(&self) -> f64 {
        TriggerSource::ALL
            .iter()
            .map(|s| self.counter(s.counter_key()))
            .sum()
    }

    /// Mean packets found per network poll.
    fn mean_found(&self) -> f64 {
        self.snap
            .registry
            .histogram("net.poll.found")
            .filter(|h| h.count() > 0)
            .map_or(0.0, |h| {
                h.buckets().map(|(v, c)| v * c as f64).sum::<f64>() / h.count() as f64
            })
    }

    /// Mean host ns of one call of span `name`, less the clock reads that
    /// timed it.
    pub fn span_mean_ns(&self, name: &str) -> f64 {
        let (ns, calls) = self.spans.span(name);
        if calls == 0 {
            return 0.0;
        }
        (ns as f64 / calls as f64 - self.probes.get("clock.pair_ns")).max(0.0)
    }

    /// Total host ms of span `name`.
    fn span_ms(&self, name: &str) -> f64 {
        self.spans.span(name).0 as f64 / 1e6
    }
}

/// One attributed line: a layer's count times its probed cost.
pub struct Row {
    /// Crate the work belongs to.
    pub layer: &'static str,
    /// What was counted.
    pub what: &'static str,
    /// How many.
    pub count: f64,
    /// Probed ns per one.
    pub unit_ns: f64,
}

impl Row {
    /// Attributed host ns.
    pub fn ns(&self) -> f64 {
        self.count * self.unit_ns
    }
}

/// The attribution of one workload's digest ops.
pub struct Attribution {
    /// Counted and probed work.
    pub rows: Vec<Row>,
    /// Work that has no counter visible from outside the program.
    pub uncounted: &'static [&'static str],
    /// Untraced wall ns the rows are set against.
    pub wall_ns: f64,
}

impl Attribution {
    /// Attributes the digest ops' wall time for workload `W`.
    pub fn of<W: Workload>(e: &Evidence<'_>) -> Attribution {
        let (rows, uncounted) = W::attribute(e);
        Attribution {
            rows,
            uncounted,
            wall_ns: e.wall_ns as f64,
        }
    }

    /// Share of the wall time no row accounts for, percent.
    pub fn residual_pct(&self) -> f64 {
        let counted: f64 = self.rows.iter().map(Row::ns).sum();
        100.0 * (self.wall_ns - counted) / self.wall_ns
    }

    /// Attributed ns of one layer.
    pub fn layer_ns(&self, layer: &str) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.layer == layer)
            .map(Row::ns)
            .sum()
    }
}

/// A per-layer metric: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

/// Every per-layer metric for one workload's traced run.
pub fn per_layer(e: &Evidence<'_>, a: &Attribution, overhead_pct: f64) -> Vec<Metric> {
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let fires = e.fires();
    let released = e.counter("tcp.pace.released");
    let mut m: Vec<Metric> = e
        .probes
        .all()
        .iter()
        .filter(|(name, _)| *name != "clock.pair_ns")
        .map(|&(name, v)| (name, "ns", v))
        .collect();
    m.extend([
        ("facility.fires", "count", fires),
        (
            "facility.scheduled",
            "count",
            e.counter("facility.scheduled"),
        ),
        ("facility.canceled", "count", e.counter("facility.canceled")),
        (
            "facility.backup_share",
            "ratio",
            share(e.counter("facility.fired.backup"), fires),
        ),
        (
            "facility.busy_ms",
            "ms",
            (a.layer_ns("st-core") + a.layer_ns("st-wheel")) / 1e6,
        ),
        ("kernel.triggers", "count", e.triggers()),
        (
            "kernel.backup_ticks",
            "count",
            e.counter("kernel.backup_ticks"),
        ),
        (
            "net.poll.decisions",
            "count",
            e.counter("net.poll.decisions"),
        ),
        ("net.poll.found_mean", "packets/poll", e.mean_found()),
        (
            "http.requests",
            "count",
            e.spans.counted("http.requests") as f64,
        ),
        ("http.run_ms", "ms", e.span_ms("http.run")),
        ("tcp.pace.released", "count", released),
        (
            "tcp.pace.backup_share",
            "ratio",
            share(e.counter("tcp.pace.released_by_backup"), released),
        ),
        ("tcp.run_soft_ms", "ms", e.span_ms("tcp.run_soft")),
        (
            "workloads.next_gap_ns",
            "ns",
            e.span_mean_ns("workloads.next_gap"),
        ),
        (
            "workloads.gaps",
            "count",
            e.spans.span("workloads.next_gap").1 as f64,
        ),
        ("trace.overhead_pct", "%", overhead_pct),
        ("attrib.residual_pct", "%", a.residual_pct()),
    ]);
    m
}
