//! Machine-readable benchmark reports.
//!
//! Every figure and ablation binary, besides its human-readable table,
//! writes a `BENCH_<id>.json` file with the full point series (grid
//! coordinates, model-optimal and achieved values, per-point timing) and
//! the sweep's wall-clock accounting. `serial_millis` is the sum of
//! per-point evaluation times as observed during the run — on a host
//! with a core per worker this equals what a serial loop would have
//! cost, so `speedup = serial_millis / wall_millis` reports what the
//! parallel runner bought. On an oversubscribed host (more workers than
//! cores) contention inflates per-point times and the ratio
//! overestimates; compare `wall_millis` against an `MCSS_BENCH_THREADS=1`
//! run for a direct wall-clock measurement.
//!
//! The output directory defaults to the current directory and can be
//! redirected with the `MCSS_BENCH_DIR` environment variable.

use std::path::PathBuf;

use mcss::obs::MetricsSnapshot;
use serde::Serialize;

use crate::sweep::Timed;
use crate::Row;

/// One evaluated grid point of the series.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PointRecord {
    /// Row label (setup and/or κ band).
    pub label: String,
    /// Grid x coordinate (μ, channel rate, timeout…).
    pub x: f64,
    /// Model-optimal y value.
    pub optimal: f64,
    /// Measured y value.
    pub actual: f64,
    /// Wall-clock evaluation time of this point, milliseconds.
    pub millis: f64,
}

impl PointRecord {
    /// Builds a record from a timed sweep row.
    #[must_use]
    pub fn from_timed(row: &Timed<Row>) -> PointRecord {
        PointRecord {
            label: row.value.label.clone(),
            x: row.value.x,
            optimal: row.value.optimal,
            actual: row.value.actual,
            millis: row.millis,
        }
    }
}

/// A complete machine-readable benchmark run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BenchReport {
    /// Report identifier; the file is named `BENCH_<id>.json`.
    pub id: String,
    /// Sweep mode (`quick` or `full`).
    pub mode: String,
    /// Share codec the run encoded with (from `MCSS_CODEC`, default
    /// Shamir) — so reports from different codec matrix legs are
    /// distinguishable after the fact.
    pub codec: String,
    /// Worker threads the sweep ran with.
    pub threads: usize,
    /// Wall-clock time of the whole sweep, milliseconds.
    pub wall_millis: f64,
    /// Sum of per-point evaluation times — the serial-equivalent cost
    /// when each worker runs on its own core (see the module docs).
    pub serial_millis: f64,
    /// `serial_millis / wall_millis`: estimated parallel speedup.
    pub speedup: f64,
    /// The full point series, in grid order.
    pub points: Vec<PointRecord>,
    /// Global telemetry snapshot (span timings, registered counters)
    /// taken when the report was assembled. Empty when the workspace is
    /// built without the `telemetry` feature.
    pub telemetry: MetricsSnapshot,
}

impl BenchReport {
    /// Assembles a report from timed sweep rows.
    #[must_use]
    pub fn new(
        id: &str,
        mode: &str,
        threads: usize,
        wall_millis: f64,
        rows: &[Timed<Row>],
    ) -> BenchReport {
        let points: Vec<PointRecord> = rows.iter().map(PointRecord::from_timed).collect();
        let serial_millis: f64 = points.iter().map(|p| p.millis).sum();
        BenchReport {
            id: id.to_string(),
            mode: mode.to_string(),
            codec: mcss::codec::CodecId::from_env().name().to_string(),
            threads,
            wall_millis,
            serial_millis,
            speedup: if wall_millis > 0.0 {
                serial_millis / wall_millis
            } else {
                1.0
            },
            points,
            telemetry: mcss::obs::global_snapshot(),
        }
    }

    /// Serializes the report to pretty JSON.
    ///
    /// # Panics
    ///
    /// Never: the report contains only serializable primitives.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Writes `BENCH_<id>.json` into `MCSS_BENCH_DIR` (default: the
    /// current directory) and returns the path.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let dir = std::env::var("MCSS_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
        let path = PathBuf::from(dir).join(format!("BENCH_{}.json", self.id));
        std::fs::write(&path, self.to_json() + "\n")?;
        Ok(path)
    }

    /// Writes the report if emission is enabled for this process (the
    /// figure binaries enable it; library tests leave it off so `cargo
    /// test` writes no files). Benchmark output is best-effort, so
    /// filesystem failures only warn.
    pub fn emit(&self) {
        if !emission_enabled() {
            return;
        }
        match self.write() {
            Ok(path) => println!(
                "[bench] wrote {} ({} points, threads={}, speedup={:.2}x)",
                path.display(),
                self.points.len(),
                self.threads,
                self.speedup
            ),
            Err(err) => eprintln!("[bench] could not write BENCH_{}.json: {err}", self.id),
        }
    }
}

/// Writes `BENCH_<id>.json` for an arbitrary serializable value — the
/// escape hatch for binaries whose results are not sweep-shaped (the
/// kernel matrix and the server scaling sweep).
/// Honors the same `MCSS_BENCH_EMIT` gate and `MCSS_BENCH_DIR`
/// destination as [`BenchReport::emit`]; filesystem failures only warn.
pub fn emit_value(id: &str, value: &impl Serialize) {
    if !emission_enabled() {
        return;
    }
    let dir = std::env::var("MCSS_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = PathBuf::from(dir).join(format!("BENCH_{id}.json"));
    let json = serde_json::to_string_pretty(value).expect("bench value serializes");
    match std::fs::write(&path, json + "\n") {
        Ok(()) => println!("[bench] wrote {}", path.display()),
        Err(err) => eprintln!("[bench] could not write BENCH_{id}.json: {err}"),
    }
}

/// Turns on `BENCH_<id>.json` emission for this process. Every figure
/// and ablation binary calls this first thing in `main`.
pub fn enable_emission() {
    std::env::set_var("MCSS_BENCH_EMIT", "1");
}

fn emission_enabled() -> bool {
    std::env::var_os("MCSS_BENCH_EMIT").is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed_row(label: &str, x: f64, millis: f64) -> Timed<Row> {
        Timed {
            value: Row {
                label: label.into(),
                x,
                optimal: 2.0 * x,
                actual: 1.9 * x,
            },
            millis,
        }
    }

    #[test]
    fn accounts_serial_time_and_speedup() {
        let rows = vec![timed_row("a", 1.0, 30.0), timed_row("b", 2.0, 50.0)];
        let report = BenchReport::new("test", "quick", 4, 40.0, &rows);
        assert_eq!(report.serial_millis, 80.0);
        assert!((report.speedup - 2.0).abs() < 1e-12);
        assert_eq!(report.points.len(), 2);
        assert_eq!(report.mode, "quick");
    }

    #[test]
    fn json_round_trips_the_series() {
        let rows = vec![timed_row("k1", 1.5, 12.0)];
        let report = BenchReport::new("rt", "full", 2, 12.0, &rows);
        let json = report.to_json();
        let back: serde::Value = serde_json::from_str(&json).expect("parses");
        assert!(back.field("points").is_some());
        assert_eq!(back.field("threads"), Some(&serde::Value::Number(2.0)));
        assert!(json.contains("\"id\": \"rt\""));
        assert!(json.contains("\"label\": \"k1\""));
    }
}
