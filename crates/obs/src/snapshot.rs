//! Point-in-time metric snapshots and their export encodings.
//!
//! [`MetricsSnapshot`] is plain serializable data: JSON via serde,
//! Prometheus text exposition via [`MetricsSnapshot::to_prometheus`].
//! Snapshots from several sources (the global span registry, a host's
//! protocol metrics) compose with [`MetricsSnapshot::merge`].

use serde::Serialize;

use crate::Histogram;

/// A counter's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CounterSnapshot {
    /// Dotted metric name (e.g. `remicss.shares_sent.ch0`).
    pub name: String,
    /// The count.
    pub value: u64,
}

/// A gauge's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GaugeSnapshot {
    /// Dotted metric name.
    pub name: String,
    /// The level.
    pub value: i64,
}

/// A histogram's summary at snapshot time. Quantiles carry the unit of
/// the recorded samples (nanoseconds for span and delay histograms).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistogramSnapshot {
    /// Dotted metric name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Exact sum of the samples.
    pub sum: u64,
    /// Exact smallest sample (0 when empty).
    pub min: u64,
    /// Exact largest sample (0 when empty).
    pub max: u64,
    /// Mean sample.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
}

impl HistogramSnapshot {
    /// Summarizes `hist` under `name`.
    #[must_use]
    pub fn of(name: &str, hist: &Histogram) -> Self {
        HistogramSnapshot {
            name: name.to_string(),
            count: hist.count(),
            sum: hist.sum(),
            min: hist.min(),
            max: hist.max(),
            mean: hist.mean(),
            p50: hist.percentile(0.50),
            p90: hist.percentile(0.90),
            p99: hist.percentile(0.99),
            p999: hist.percentile(0.999),
        }
    }
}

/// Every registered metric, frozen at one instant.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histogram summaries, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]`; dotted names map
/// through `.` → `_`.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

impl MetricsSnapshot {
    /// Appends another snapshot's metrics (e.g. session metrics onto the
    /// global span registry's).
    pub fn merge(&mut self, other: MetricsSnapshot) {
        self.counters.extend(other.counters);
        self.gauges.extend(other.gauges);
        self.histograms.extend(other.histograms);
    }

    /// Whether nothing was captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Prometheus text exposition format: counters and gauges as-is,
    /// histograms as summaries with `quantile` labels plus `_sum`,
    /// `_count` and `_max` series.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            let n = prom_name(&c.name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {}\n", c.value));
        }
        for g in &self.gauges {
            let n = prom_name(&g.name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", g.value));
        }
        for h in &self.histograms {
            let n = prom_name(&h.name);
            out.push_str(&format!("# TYPE {n} summary\n"));
            for (q, v) in [
                ("0.5", h.p50),
                ("0.9", h.p90),
                ("0.99", h.p99),
                ("0.999", h.p999),
            ] {
                out.push_str(&format!("{n}{{quantile=\"{q}\"}} {v}\n"));
            }
            out.push_str(&format!(
                "{n}_sum {}\n{n}_count {}\n{n}_max {}\n",
                h.sum, h.count, h.max
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_concatenates() {
        let mut a = MetricsSnapshot::default();
        a.counters.push(CounterSnapshot {
            name: "a".into(),
            value: 1,
        });
        let mut b = MetricsSnapshot::default();
        b.gauges.push(GaugeSnapshot {
            name: "b".into(),
            value: -2,
        });
        a.merge(b);
        assert_eq!(a.counters.len(), 1);
        assert_eq!(a.gauges.len(), 1);
        assert!(!a.is_empty());
    }

    #[test]
    fn prometheus_encoding_shape() {
        let mut s = MetricsSnapshot::default();
        s.counters.push(CounterSnapshot {
            name: "remicss.shares_sent.ch0".into(),
            value: 7,
        });
        s.histograms.push(HistogramSnapshot {
            name: "shamir.split".into(),
            count: 3,
            sum: 12,
            min: 1,
            max: 9,
            mean: 4.0,
            p50: 4.0,
            p90: 8.0,
            p99: 9.0,
            p999: 9.0,
        });
        let text = s.to_prometheus();
        assert!(text.contains("# TYPE remicss_shares_sent_ch0 counter"));
        assert!(text.contains("remicss_shares_sent_ch0 7"));
        assert!(text.contains("shamir_split{quantile=\"0.99\"} 9"));
        assert!(text.contains("shamir_split_sum 12"));
        assert!(text.contains("shamir_split_count 3"));
        // A summary family without `_sum` cannot give a mean rate
        // (`rate(_sum) / rate(_count)`): every one carries both.
        let families: Vec<&str> = text
            .lines()
            .filter_map(|line| line.strip_prefix("# TYPE "))
            .filter_map(|rest| rest.strip_suffix(" summary"))
            .collect();
        assert_eq!(families, ["shamir_split"]);
        for family in families {
            for series in ["_sum", "_count"] {
                let prefix = format!("{family}{series} ");
                assert!(
                    text.lines().any(|line| line.starts_with(&prefix)),
                    "{family} has no {series}"
                );
            }
        }
    }

    #[test]
    fn histogram_snapshot_summarizes() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = HistogramSnapshot::of("t", &h);
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert!((s.mean - 500.5).abs() < 1.0);
        assert!((s.p50 - 500.0).abs() / 500.0 < 0.05, "p50 {}", s.p50);
        assert!((s.p99 - 990.0).abs() / 990.0 < 0.05, "p99 {}", s.p99);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let mut s = MetricsSnapshot::default();
        s.counters.push(CounterSnapshot {
            name: "x".into(),
            value: 1,
        });
        let json = serde_json::to_string(&s).expect("serializes");
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"x\""));
    }
}
