//! Workload names, metric records and the result line.

use std::fmt::Write as _;

use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MemBulk,
    MemFleet,
    MemHostile,
    LoopFleet,
    SimSession,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::MemBulk,
        Workload::MemFleet,
        Workload::MemHostile,
        Workload::LoopFleet,
        Workload::SimSession,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MemBulk => "mem_bulk",
            Workload::MemFleet => "mem_fleet",
            Workload::MemHostile => "mem_hostile",
            Workload::LoopFleet => "loop_fleet",
            Workload::SimSession => "sim_session",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One named reading. `spread` is present when the value is drawn from
/// several windows or repeats.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub spread: Option<Summary>,
}

impl Metric {
    /// A single reading of the metric `name` (its unit comes from the
    /// table in `spec.rs`).
    pub fn exact(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            unit: crate::spec::unit(name),
            spread: None,
        }
    }

    /// The median of `readings`, reported with its quartiles and count.
    pub fn median(name: &'static str, readings: &[f64]) -> Metric {
        let summary = Summary::of(readings);
        Metric {
            name,
            value: summary.median,
            unit: crate::spec::unit(name),
            spread: Some(summary),
        }
    }

    /// The fastest of `readings`, each the time of one fixed amount of
    /// work. What disturbs a window on a shared host (a neighbour on
    /// the sibling hyperthread or the memory bus) only ever adds time,
    /// in steps of a quarter of the reading, so the median window
    /// follows the host's mix of the minute while the fastest window
    /// follows the code: measured here, ten runs' medians spread 16 %
    /// of their median, their minima under 3 % once the thread changes
    /// CPU between windows (see `CpuRotation`). A window is sized to
    /// contain the loop's periodic work (at least one sweep-timer batch
    /// per shard), so being fastest is not a matter of what it skipped.
    pub fn fastest(name: &'static str, readings: &[f64]) -> Metric {
        let summary = Summary::of(readings);
        Metric {
            name,
            value: summary.min,
            unit: crate::spec::unit(name),
            spread: Some(summary),
        }
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Symbols the run attempted in its measured phase.
    pub attempted: u64,
    /// Symbols whose outcome was wrong (see each workload's checks).
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Every output check that did not hold; empty means correct.
    pub problems: Vec<String>,
    /// Context worth a line on stderr (warm-up length, generator lag).
    pub notes: Vec<String>,
    pub correct: bool,
}

impl Outcome {
    /// Records `problem` unless `holds`.
    pub fn check(&mut self, holds: bool, problem: impl FnOnce() -> String) {
        if !holds {
            self.problems.push(problem());
        }
    }

    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Settles `correct` from the collected problems.
    pub fn settle(mut self) -> Outcome {
        self.correct = self.problems.is_empty();
        self
    }

    /// The contract's result line.
    pub fn json_line(&self) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                line.push_str(", ");
            }
            let _ = write!(
                line,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        line.push_str("}}");
        line
    }

    /// One line per metric, notes and problems on stderr, then the
    /// result line.
    pub fn print(&self, workload: Workload) {
        for note in &self.notes {
            eprintln!("[{}] {note}", workload.name());
        }
        for problem in &self.problems {
            eprintln!("[{}] FAILED CHECK: {problem}", workload.name());
        }
        for m in &self.metrics {
            let mut line = format!(
                "{:<12} {:<34} {:>16} {}",
                workload.name(),
                m.name,
                json_number(m.value),
                m.unit
            );
            if let Some(s) = m.spread {
                let _ = write!(
                    line,
                    "  n={} min={} q1={} median={} q3={}",
                    s.n,
                    json_number(s.min),
                    json_number(s.q1),
                    json_number(s.median),
                    json_number(s.q3)
                );
            }
            println!("{line}");
        }
        println!("{}", self.json_line());
    }
}

/// Every digit of a finite value; a non-finite one (a harness bug)
/// becomes `null`, which no reader takes for a measurement.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.push(Metric::exact("setup_s", 0.25));
        o.push(Metric::median("ns_per_symbol", &[3.0, 1.0, 2.0]));
        let o = o.settle();
        assert_eq!(
            o.json_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"ns_per_symbol\": {\"value\": 2, \"unit\": \"ns\"}}}"
        );
        let parsed: serde::Value = serde_json::from_str(&o.json_line()).expect("valid JSON");
        assert!(parsed.field("metrics").is_some());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
