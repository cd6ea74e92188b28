//! The closed-loop harness every workload runs under.
//!
//! One thread issues ops back to back; each op takes its inputs from the
//! workload seed and its index, so a seed fixes every op of a run. Op 0 is
//! the warm-up and belongs to set-up; the timed ops are 1, 2, 3, ... until
//! the run's seconds are spent. Each timed op is followed by the
//! benchmark's reference work (see [`crate::reference`]). Ops `1..=DIGEST_OPS` always run, so the
//! digest and the deterministic metrics over them do not depend on how
//! fast the host is.

use std::collections::BTreeMap;

use st_sim::SimRng;
use st_trace::{Snapshot, TraceConfig, TraceSession};

use crate::clock::Stopwatch;
use crate::layers::{Evidence, Row};
use crate::reference::{Mix, Reference};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 15;

/// Events kept by a trace session's ring. The benchmark reads only the
/// session's counters and histograms, so the ring stays small.
const TRACE_RING: usize = 4096;

/// One benchmark workload: set-up, ops, and the check of each op's output.
pub trait Workload: Sized {
    /// What `work_per_ref` counts for this workload, as printed beside it.
    const WORK: &'static str;
    /// Timed ops folded into the digest and replayed under tracing.
    const DIGEST_OPS: u64;
    /// The reference unit run after each timed op.
    const REFERENCE: Mix;
    /// One op's simulated output.
    type Out: PartialEq;

    /// Builds the workload's inputs from the seed (calibration, streams,
    /// the initial timer population).
    fn setup(seed: u64) -> Self;
    /// Runs op `index`. With `spans` on, the benchmark times the calls it
    /// makes into the layers' public functions.
    fn op(&mut self, index: u64, spans: &mut Spans) -> Self::Out;
    /// Checks one op's output.
    fn check(&self, out: &Self::Out) -> Result<(), String>;
    /// Folds one op's output into the run digest.
    fn digest(out: &Self::Out, d: &mut Digest);
    /// Units of work the op completed (requests, packets or ACKs).
    fn work(out: &Self::Out) -> u64;
    /// Simulated microseconds the op covered.
    fn sim_us(out: &Self::Out) -> u64;
    /// The traced digest ops' work as counted layer work times probed
    /// per-op costs, and what cannot be counted from outside the program.
    fn attribute(e: &Evidence<'_>) -> (Vec<Row>, &'static [&'static str]);
}

/// The seed of op `index` under workload seed `seed`.
pub fn op_seed(seed: u64, index: u64) -> u64 {
    SimRng::seed(seed).fork(index).next_u64()
}

/// FNV-1a over the simulated outputs of the digest ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    /// An empty digest.
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one value in.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a float in by its exact bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Host time the benchmark spent inside calls into a layer, plus counts
/// it keeps beside them. Off in the untraced runs: no clock is read then.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    spans: BTreeMap<&'static str, (u64, u64)>,
    counts: BTreeMap<&'static str, u64>,
}

impl Spans {
    /// Spans that record nothing (the untraced run).
    pub fn off() -> Spans {
        Spans::default()
    }

    /// Spans that record.
    pub fn on() -> Spans {
        Spans {
            on: true,
            ..Spans::default()
        }
    }

    /// Whether this run records spans.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Runs `f`, timing it under `name` when recording.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let sw = Stopwatch::start();
        let r = f();
        self.add_span(name, sw.elapsed_ns(), 1);
        r
    }

    /// Adds `calls` timed calls totalling `ns` to span `name`.
    pub fn add_span(&mut self, name: &'static str, ns: u64, calls: u64) {
        let e = self.spans.entry(name).or_insert((0, 0));
        e.0 += ns;
        e.1 += calls;
    }

    /// Adds `n` to count `name` when recording.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    /// Total host nanoseconds and calls of span `name`.
    pub fn span(&self, name: &str) -> (u64, u64) {
        self.spans.get(name).copied().unwrap_or((0, 0))
    }

    /// Every span as `(name, total ns, calls)`, in name order.
    pub fn spans(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        self.spans.iter().map(|(&n, &(ns, calls))| (n, ns, calls))
    }

    /// Value of count `name`.
    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

/// The `q`-quantile of sorted `xs` by linear interpolation.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// The median of `xs` (any order).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    quantile(&v, 0.5)
}

/// Percentiles `op_tail_ms` may report, in tenths of a percent.
const TAIL_LADDER: [u64; 4] = [500, 900, 990, 999];

/// The highest ladder percentile with at least ten samples beyond it among
/// `n` samples.
pub fn tail_percentile(n: usize) -> f64 {
    let n = n as u64;
    let permille = TAIL_LADDER
        .iter()
        .copied()
        .rfind(|p| n * (1000 - p) / 1000 >= 10)
        .unwrap_or(TAIL_LADDER[0]);
    permille as f64 / 10.0
}

/// Resident anonymous memory of this process now, MiB: the heap and
/// stacks, without the executable's and libraries' file pages. Read from
/// `smaps_rollup`, which walks the page tables; `RssAnon` in `status` comes
/// from per-CPU counters and is off by up to a few hundred KiB.
pub fn rss_anon_mib() -> f64 {
    let rollup = std::fs::read_to_string("/proc/self/smaps_rollup").unwrap_or_default();
    rollup
        .lines()
        .find_map(|l| l.strip_prefix("Anonymous:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Failed output checks: how many, and the first few messages.
#[derive(Debug, Default)]
pub struct Failures {
    /// Checks failed.
    pub count: u64,
    /// The first few messages.
    pub first: Vec<String>,
}

impl Failures {
    fn add(&mut self, what: String) {
        self.count += 1;
        if self.first.len() < 5 {
            self.first.push(what);
        }
    }
}

/// Sets the workload up once, warm-up op included: the world, the host
/// seconds it took, and the warm-up's check.
pub fn setup<W: Workload>(seed: u64) -> (W, f64, Result<(), String>) {
    let sw = Stopwatch::start();
    let mut w = W::setup(seed);
    let warm = w.op(0, &mut Spans::off());
    let secs = sw.elapsed_s();
    let check = w.check(&warm);
    (w, secs, check)
}

/// Outcome of the timed ops of one run.
#[derive(Default)]
pub struct Timed {
    /// Host seconds of each set-up, warm-up op included.
    pub setup_s: Vec<f64>,
    /// Host milliseconds of each timed op, in order.
    pub op_ms: Vec<f64>,
    /// Each timed op's host time in units of the reference run right
    /// after it.
    pub op_ref: Vec<f64>,
    /// Each timed op's work per reference unit.
    pub work_per_ref: Vec<f64>,
    /// Ops and warm-ups whose output check failed.
    pub failures: Failures,
    /// Units of work completed.
    pub work: u64,
    /// Simulated microseconds covered.
    pub sim_us: u64,
    /// Digest over ops `1..=DIGEST_OPS`.
    pub digest: Option<Digest>,
}

impl Timed {
    /// Host seconds summed over the timed ops.
    pub fn host_s(&self) -> f64 {
        self.op_ms.iter().sum::<f64>() / 1e3
    }

    fn add_setup(&mut self, secs: f64, check: Result<(), String>) {
        self.setup_s.push(secs);
        if let Err(e) = check {
            self.failures.add(format!("warm-up: {e}"));
        }
    }
}

/// The end-to-end run: sets the workload up [`SETUPS`] times and runs ops
/// on the first world, with no trace session and no spans, until `seconds`
/// of host time are spent and every digest op has run. Each op is followed
/// by the workload's reference unit. The other set-ups are spread over
/// the run and their worlds dropped at once, so the median set-up time
/// does not hang on the host's state in the run's first moments.
pub fn timed_ops<W: Workload>(seed: u64, seconds: f64) -> Timed {
    let mut t = Timed::default();
    let mut reference = Reference::new();
    let (mut w, secs, check) = setup::<W>(seed);
    t.add_setup(secs, check);
    let mut d = Digest::new();
    let run = Stopwatch::start();
    let mut index = 1;
    while index <= W::DIGEST_OPS || run.elapsed_s() < seconds {
        let due = seconds * t.setup_s.len() as f64 / SETUPS as f64;
        if t.setup_s.len() < SETUPS && run.elapsed_s() >= due {
            let (_, secs, check) = setup::<W>(seed);
            t.add_setup(secs, check);
        }
        let sw = Stopwatch::start();
        let out = w.op(index, &mut Spans::off());
        let op_ns = sw.elapsed_ns() as f64;
        let unit_ns = reference.unit_ns(W::REFERENCE);
        let op_ref = op_ns / unit_ns;
        t.op_ms.push(op_ns / 1e6);
        t.op_ref.push(op_ref);
        t.work_per_ref.push(W::work(&out) as f64 / op_ref);
        if let Err(e) = w.check(&out) {
            t.failures.add(format!("op {index}: {e}"));
        }
        t.work += W::work(&out);
        t.sim_us += W::sim_us(&out);
        if index <= W::DIGEST_OPS {
            W::digest(&out, &mut d);
            if index == W::DIGEST_OPS {
                t.digest = Some(d);
            }
        }
        index += 1;
    }
    while t.setup_s.len() < SETUPS {
        let (_, secs, check) = setup::<W>(seed);
        t.add_setup(secs, check);
    }
    t
}

/// The digest ops replayed under a trace session.
pub struct Replay {
    /// Their digest.
    pub digest: Digest,
    /// The trace session over them.
    pub snapshot: Snapshot,
    /// The replay set-up's warm-up check.
    pub check: Result<(), String>,
    /// Peak of [`rss_anon_mib`] sampled after the set-up and after each op.
    pub peak_anon_mib: f64,
}

/// Replays the digest ops on a fresh set-up under a trace session.
/// Simulated outputs must match the untraced ops exactly: tracing only
/// observes. The replay runs one world, before the timed run has touched
/// the heap, so it is where the workload's memory is sampled.
pub fn traced_replay<W: Workload>(seed: u64) -> Replay {
    let (mut w, _, check) = setup::<W>(seed);
    let mut peak_anon_mib = rss_anon_mib();
    let session = TraceSession::start(TraceConfig {
        capacity: TRACE_RING,
    });
    let mut digest = Digest::new();
    for index in 1..=W::DIGEST_OPS {
        let out = w.op(index, &mut Spans::off());
        W::digest(&out, &mut digest);
        peak_anon_mib = peak_anon_mib.max(rss_anon_mib());
    }
    Replay {
        digest,
        snapshot: session.finish(),
        check,
        peak_anon_mib,
    }
}

/// Outcome of the traced run's paired ops.
pub struct Paired {
    /// Untraced host nanoseconds of the digest ops.
    pub digest_wall_ns: u64,
    /// Untraced and traced host nanoseconds over the overhead pairs.
    pub untraced_ns: u64,
    /// See [`Paired::untraced_ns`].
    pub traced_ns: u64,
    /// Pairs run, digest ops included.
    pub pairs: u64,
    /// Pairs after the digest ops, which alone measure the overhead.
    pub overhead_pairs: u64,
    /// Ops whose check failed or whose twins disagreed.
    pub failures: Failures,
    /// Digests of the untraced and the traced digest ops.
    pub digests: (Digest, Digest),
    /// The trace session over the traced digest ops.
    pub snapshot: Snapshot,
    /// Spans recorded during the traced digest ops.
    pub spans: Spans,
}

/// The traced run: each op runs untraced on one set-up and traced on
/// another with identical inputs, and the outputs must be identical.
///
/// During the digest ops the traced twin also records spans, which read
/// the host clock around every layer call; those pairs give the layer
/// counts and spans. The pairs after them run the traced twin with spans
/// off, so their time difference is the trace session's overhead alone.
/// The twins alternate which runs first, and at least `DIGEST_OPS` such
/// pairs run.
pub fn paired_ops<W: Workload>(seed: u64, seconds: f64) -> Paired {
    let mut failures = Failures::default();
    let (mut a, _, check_a) = setup::<W>(seed);
    let (mut b, _, check_b) = setup::<W>(seed);
    for check in [check_a, check_b] {
        if let Err(e) = check {
            failures.add(format!("warm-up: {e}"));
        }
    }
    let (mut da, mut db) = (Digest::new(), Digest::new());
    let mut spans = Spans::on();
    let (mut untraced_ns, mut traced_ns, mut digest_wall_ns) = (0, 0, 0);
    let mut overhead_pairs = 0;
    let mut session = Some(TraceSession::start(TraceConfig {
        capacity: TRACE_RING,
    }));
    let mut snapshot = None;
    let run = Stopwatch::start();
    let mut index = 1;
    while index <= 2 * W::DIGEST_OPS || run.elapsed_s() < seconds {
        let in_digest = index <= W::DIGEST_OPS;
        let untraced = |a: &mut W| {
            let held = st_trace::suspend();
            let sw = Stopwatch::start();
            let out = a.op(index, &mut Spans::off());
            let ns = sw.elapsed_ns();
            st_trace::resume(held);
            (out, ns)
        };
        let mut traced = |b: &mut W| {
            let mut off = Spans::off();
            let sw = Stopwatch::start();
            let out = b.op(index, if in_digest { &mut spans } else { &mut off });
            (out, sw.elapsed_ns())
        };
        let ((out_a, ns_a), (out_b, ns_b)) = if index % 2 == 0 {
            let ua = untraced(&mut a);
            (ua, traced(&mut b))
        } else {
            let tb = traced(&mut b);
            (untraced(&mut a), tb)
        };

        for out in [&out_a, &out_b] {
            if let Err(e) = a.check(out) {
                failures.add(format!("op {index}: {e}"));
            }
        }
        if out_a != out_b {
            failures.add(format!("op {index}: traced output differs"));
        }
        if in_digest {
            digest_wall_ns += ns_a;
            W::digest(&out_a, &mut da);
            W::digest(&out_b, &mut db);
            if index == W::DIGEST_OPS {
                snapshot = session.take().map(TraceSession::finish);
                // The remaining pairs only measure overhead; their trace
                // session is discarded.
                session = Some(TraceSession::start(TraceConfig {
                    capacity: TRACE_RING,
                }));
            }
        } else {
            untraced_ns += ns_a;
            traced_ns += ns_b;
            overhead_pairs += 1;
        }
        index += 1;
    }
    drop(session);
    Paired {
        digest_wall_ns,
        untraced_ns,
        traced_ns,
        pairs: index - 1,
        overhead_pairs,
        failures,
        digests: (da, db),
        snapshot: snapshot.expect("the digest ops always run"),
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(15), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn op_seeds_differ_by_index_and_seed() {
        assert_eq!(op_seed(1, 2), op_seed(1, 2));
        assert_ne!(op_seed(1, 2), op_seed(1, 3));
        assert_ne!(op_seed(1, 2), op_seed(2, 2));
    }
}
