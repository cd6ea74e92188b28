//! The benchmark's only host-clock reads.
//!
//! Every host time the benchmark reports — op times, set-up times, spans
//! around layer calls and probe batches — comes through [`Stopwatch`], so
//! the one sanctioned wall-clock read lives here.

use std::time::Instant;

/// A started host-time measurement.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts measuring now.
    pub fn start() -> Stopwatch {
        // st-lint: allow(no-wall-clock) -- the benchmark measures host time by design
        Stopwatch(Instant::now())
    }

    /// Host nanoseconds since [`Stopwatch::start`].
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Host seconds since [`Stopwatch::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}
