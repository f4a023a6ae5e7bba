//! Host-cost benchmark of the KSR-1 simulator.
//!
//! One process, one thread, a closed loop: one job at a time, each on a
//! fresh machine. `--trace 0` measures the end-to-end metrics with
//! tracing off ([`timing`]); `--trace 1` is the separate layer run
//! ([`layers`]). See `README.md` for the workloads and metrics.

pub mod layers;
pub mod reference;
pub mod spans;
pub mod timing;
pub mod workload;

use ksr_core::Json;

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs (and microbenchmark checks) attempted.
    pub attempted: u64,
    /// How each failed one failed.
    pub failures: Vec<String>,
    /// The metrics of the run.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::from(self.failures.is_empty())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failures.len())),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
                    )
                })),
            ),
        ])
    }
}

/// Median of `values` (0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
