//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload server|pacing|conn_timers --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` first replays the digest ops under a trace session on a
//! fresh set-up, for the fire-delay percentile and the memory figure; it
//! then measures the end-to-end metrics with no trace session, each op's
//! host time in units of the reference work run right after it, and
//! requires the two digests identical. `--trace 1`
//! runs every op twice, untraced and traced, for the per-layer metrics,
//! the tracing overhead and the attribution of wall time to layers. The
//! last line of standard output is the result as one JSON object.

#![forbid(unsafe_code)]

mod clock;
mod conn_timers;
mod harness;
mod layers;
mod pacing;
mod probes;
mod reference;
mod server;

use std::process::ExitCode;

use harness::{Timed, Workload, SETUPS};
use layers::{Attribution, Evidence};
use probes::Probes;

/// The workloads.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Server,
    Pacing,
    ConnTimers,
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(match value.as_str() {
                    "server" => Kind::Server,
                    "pacing" => Kind::Pacing,
                    "conn_timers" => Kind::ConnTimers,
                    w => return Err(format!("unknown workload {w}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace {t}: expected 0 or 1")),
                })
            }
            f => return Err(format!("unknown flag {f}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A run's result: the JSON line's fields, plus the text report.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<layers::Metric>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                // JSON has no NaN or infinity; a non-finite metric is a bug
                // in the benchmark and fails the run below.
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn print_failures(failures: &harness::Failures) {
    for f in &failures.first {
        println!("  FAILED {f}");
    }
}

/// The end-to-end run.
fn untraced<W: Workload>(seed: u64, seconds: f64) -> Report {
    // The replay comes first, so the memory it samples does not depend on
    // what the timed ops left in the heap.
    let replay = harness::traced_replay::<W>(seed);
    let t = harness::timed_ops::<W>(seed, seconds);
    let setup_s = harness::median(&t.setup_s);
    let n = t.op_ms.len();
    let tail_pct = harness::tail_percentile(n);
    let sorted = |xs: &[f64]| {
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    };
    let (op_ms, op_ref) = (sorted(&t.op_ms), sorted(&t.op_ref));
    let op_p50_ms = harness::quantile(&op_ms, 0.5);
    let op_tail_ms = harness::quantile(&op_ms, tail_pct / 100.0);
    let op_p50_ref = harness::quantile(&op_ref, 0.5);
    let op_tail_ref = harness::quantile(&op_ref, tail_pct / 100.0);
    let host_s = t.host_s();
    let work_per_s = t.work as f64 / host_s;
    let work_per_ref = harness::median(&t.work_per_ref);
    let sim_ms_per_s = t.sim_us as f64 / 1e3 / host_s;
    let Timed {
        setup_s: setup_secs,
        failures,
        digest,
        ..
    } = t;
    let fire_delay_p99 = replay
        .snapshot
        .registry
        .histogram("facility.delay_ticks")
        .and_then(|h| h.quantile(0.99))
        .unwrap_or(f64::NAN);
    let digest = digest.expect("the digest ops always run");
    let same_replay = digest == replay.digest;
    let ref_ms = op_p50_ms / op_p50_ref;

    println!("setup_s              {setup_s:.4} s   (median of {SETUPS}: {setup_secs:?})",);
    println!("op_p50_ref           {op_p50_ref:.4} ref  (op time over reference-unit time)");
    println!("op_tail_ref          {op_tail_ref:.4} ref  (p{tail_pct} of {n} ops)");
    println!(
        "work_per_ref         {work_per_ref:.3} 1/ref  ({} per reference unit, median over ops)",
        W::WORK
    );
    println!(
        "fire_delay_p99_ticks {fire_delay_p99:.3} ticks  (over the {} digest ops)",
        W::DIGEST_OPS
    );
    println!(
        "peak_anon_mib        {:.3} MiB  (during the replay)",
        replay.peak_anon_mib
    );
    println!(
        "failed_frac          {} ({} of {n} ops)",
        failures.count as f64 / n as f64,
        failures.count
    );
    println!("host time, not normalized (a reference unit took {ref_ms:.4} ms at the median op):");
    println!("  op_p50_ms          {op_p50_ms:.4} ms");
    println!("  op_tail_ms         {op_tail_ms:.4} ms  (p{tail_pct})");
    println!("  {:<18} {work_per_s:.1} 1/s", format!("{}_per_s", W::WORK));
    println!("  sim_ms_per_s       {sim_ms_per_s:.2} ms/s");
    println!(
        "digest               {:016x}  (ops 1..={}; traced replay {:016x}: {})",
        digest.value(),
        W::DIGEST_OPS,
        replay.digest.value(),
        if same_replay {
            "identical"
        } else {
            "DIFFERENT"
        }
    );
    if let Err(e) = &replay.check {
        println!("  FAILED replay warm-up: {e}");
    }
    print_failures(&failures);

    let metrics = vec![
        ("setup_s", "s", setup_s),
        ("op_p50_ref", "ref", op_p50_ref),
        ("op_tail_ref", "ref", op_tail_ref),
        ("work_per_ref", "1/ref", work_per_ref),
        ("fire_delay_p99_ticks", "ticks", fire_delay_p99),
        ("peak_anon_mib", "MiB", replay.peak_anon_mib),
    ];
    let finite = metrics.iter().all(|m| m.2.is_finite() && m.2 > 0.0);
    Report {
        correct: failures.count == 0 && replay.check.is_ok() && same_replay && finite,
        attempted: n as u64,
        failed: failures.count,
        metrics,
    }
}

/// The traced run: per-layer metrics and attribution.
fn traced<W: Workload>(seed: u64, seconds: f64) -> Report {
    let p = harness::paired_ops::<W>(seed, seconds);
    let probes = Probes::run();
    let overhead_pct = 100.0 * (p.traced_ns as f64 / p.untraced_ns as f64 - 1.0);
    let e = Evidence {
        snap: &p.snapshot,
        spans: &p.spans,
        probes: &probes,
        wall_ns: p.digest_wall_ns,
    };
    let attribution = Attribution::of::<W>(&e);
    let metrics = layers::per_layer(&e, &attribution, overhead_pct);
    let same = p.digests.0 == p.digests.1;

    println!(
        "digest               {:016x}  (ops 1..={}; traced twin {:016x}: {})",
        p.digests.0.value(),
        W::DIGEST_OPS,
        p.digests.1.value(),
        if same { "identical" } else { "DIFFERENT" }
    );
    println!(
        "trace.overhead_pct   {overhead_pct:.2} %  ({} op pairs after the digest ops, untraced {:.3} s, traced {:.3} s)",
        p.overhead_pairs,
        p.untraced_ns as f64 / 1e9,
        p.traced_ns as f64 / 1e9
    );
    println!(
        "\nattribution over the {} digest ops (untraced wall {:.3} ms)",
        W::DIGEST_OPS,
        attribution.wall_ns / 1e6
    );
    println!(
        "  {:<13} {:<62} {:>12} {:>10} {:>10} {:>7}",
        "layer", "work", "count", "ns/one", "ms", "% wall"
    );
    for r in &attribution.rows {
        println!(
            "  {:<13} {:<62} {:>12.0} {:>10.1} {:>10.3} {:>7.2}",
            r.layer,
            r.what,
            r.count,
            r.unit_ns,
            r.ns() / 1e6,
            100.0 * r.ns() / attribution.wall_ns
        );
    }
    println!("  attrib.residual_pct {:.2} %", attribution.residual_pct());
    println!("  not countable from outside the program:");
    for u in attribution.uncounted {
        println!("    - {u}");
    }
    println!("\nspans timed from the benchmark (traced digest ops, clock reads included)");
    for (name, ns, calls) in p.spans.spans() {
        println!(
            "  {name:<24} {:>10.3} ms {calls:>10} calls {:>10.1} ns/call",
            ns as f64 / 1e6,
            ns as f64 / calls.max(1) as f64
        );
    }
    println!("\nper-layer metrics");
    for (name, unit, v) in &metrics {
        println!("  {name:<40} {v:>14.3} {unit}");
    }
    print_failures(&p.failures);

    let finite = metrics.iter().all(|m| m.2.is_finite());
    Report {
        correct: p.failures.count == 0 && same && finite,
        attempted: 2 * p.pairs,
        failed: p.failures.count,
        metrics,
    }
}

fn run<W: Workload>(args: &Args) -> Report {
    if args.trace {
        traced::<W>(args.seed, args.seconds)
    } else {
        untraced::<W>(args.seed, args.seconds)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {:?}  seed {}  seconds {}  trace {}",
        args.kind, args.seed, args.seconds, args.trace as u8
    );
    let report = match args.kind {
        Kind::Server => run::<server::Server>(&args),
        Kind::Pacing => run::<pacing::Pacing>(&args),
        Kind::ConnTimers => run::<conn_timers::ConnTimers>(&args),
    };
    // A failed check is reported in the result, not by the exit code.
    println!("{}", report.json());
    ExitCode::SUCCESS
}
