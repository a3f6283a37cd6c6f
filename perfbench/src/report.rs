//! The metric catalogue and the result line.
//!
//! Every metric the benchmark can print is declared here once, with its unit
//! and direction; a run must supply exactly the metrics of the table it
//! reports, so a missing or misspelled metric is an error, not a silently
//! absent number.

use crate::stats::valid_metric_name;
use std::fmt::Write as _;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// `higher` or `lower`: which way is better. For simulated statistics
    /// the direction is nominal — they are model outputs that a
    /// simulator-only change must leave identical.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics a user of the simulator sees, reported by untraced runs.
pub const END_TO_END: [MetricDef; 3] = [
    m("design_refs_per_s", "1/s", "higher"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Span names of the traced run, in the order they are reported.
pub const SPAN_LAYERS: [&str; 11] = [
    "run",
    "tracegen",
    "warm",
    "group",
    "fork",
    "measure",
    "journal",
    "warehouse.append",
    "warehouse.save",
    "warehouse.open",
    "warehouse.query",
];

/// Per-layer metrics, reported by traced runs: layer counters and times,
/// component replay, the deterministic model counts, tracing overhead, and
/// each span layer's self time and span count.
pub const PER_LAYER: [MetricDef; 62] = [
    m("workloads.tracegen_s", "s", "lower"),
    m("workloads.tracegen_refs_per_s", "1/s", "higher"),
    m("workloads.trace_mb", "MB", "lower"),
    m("sim.warm_s", "s", "lower"),
    m("sim.warm_refs", "count", "lower"),
    m("sim.warm_refs_per_s", "1/s", "higher"),
    m("sim.checkpoints", "count", "lower"),
    m("sim.checkpoint_mb", "MB", "lower"),
    m("sim.construct_ms_p50", "ms", "lower"),
    m("sim.forks", "count", "lower"),
    m("sim.fork_s", "s", "lower"),
    m("sim.fork_ms_p50", "ms", "lower"),
    m("sim.fork_ms_p90", "ms", "lower"),
    m("sim.measure_s", "s", "lower"),
    m("sim.measure_design_refs", "count", "higher"),
    m("sim.measure_design_refs_per_s", "1/s", "higher"),
    m("sim.members_per_pass", "count", "higher"),
    m("sim.engine_busy_frac", "ratio", "higher"),
    m("warehouse.append_s", "s", "lower"),
    m("warehouse.save_s", "s", "lower"),
    m("warehouse.open_s", "s", "lower"),
    m("warehouse.query_ms_p50", "ms", "lower"),
    m("warehouse.rows", "count", "higher"),
    m("cache.probe_fill_ns", "ns", "lower"),
    m("coherence.dir_op_ns", "ns", "lower"),
    m("os.access_ns", "ns", "lower"),
    m("core.place_ns", "ns", "lower"),
    m("cache.llc_hit_rate", "ratio", "higher"),
    m("cache.llc_evictions_per_kref", "1/kref", "lower"),
    m("cache.slice_load_skew", "ratio", "lower"),
    m("coherence.l1_to_l1_rate", "ratio", "lower"),
    m("mem.off_chip_rate", "ratio", "lower"),
    m("os.tlb_miss_rate", "ratio", "lower"),
    m("os.reclassifications", "count", "lower"),
    m("sim.results_digest", "hash48", "higher"),
    m("sim.rnuca_speedup_over_private", "ratio", "higher"),
    m("sim.rnuca_gap_to_ideal", "ratio", "lower"),
    m("trace.overhead", "ratio", "lower"),
    m("trace.traced_wall_s", "s", "lower"),
    m("trace.untraced_wall_s", "s", "lower"),
    m("span.run.self_s", "s", "lower"),
    m("span.run.count", "count", "lower"),
    m("span.tracegen.self_s", "s", "lower"),
    m("span.tracegen.count", "count", "lower"),
    m("span.warm.self_s", "s", "lower"),
    m("span.warm.count", "count", "lower"),
    m("span.group.self_s", "s", "lower"),
    m("span.group.count", "count", "lower"),
    m("span.fork.self_s", "s", "lower"),
    m("span.fork.count", "count", "lower"),
    m("span.measure.self_s", "s", "lower"),
    m("span.measure.count", "count", "lower"),
    m("span.journal.self_s", "s", "lower"),
    m("span.journal.count", "count", "lower"),
    m("span.warehouse.append.self_s", "s", "lower"),
    m("span.warehouse.append.count", "count", "lower"),
    m("span.warehouse.save.self_s", "s", "lower"),
    m("span.warehouse.save.count", "count", "lower"),
    m("span.warehouse.open.self_s", "s", "lower"),
    m("span.warehouse.open.count", "count", "lower"),
    m("span.warehouse.query.self_s", "s", "lower"),
    m("span.warehouse.query.count", "count", "lower"),
];

/// Measured values for one table of metrics.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    /// Records `value` for the metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }

    /// Checks the values against `table`: every metric present exactly
    /// once, nothing extra, every value finite.
    pub fn validate(&self, table: &[MetricDef]) -> Result<(), String> {
        for def in table {
            match self.values.iter().filter(|(n, _)| n == def.name).count() {
                1 => {}
                0 => return Err(format!("metric {} was not measured", def.name)),
                _ => return Err(format!("metric {} was measured twice", def.name)),
            }
        }
        for (name, value) in &self.values {
            if !valid_metric_name(name) {
                return Err(format!("metric name {name} breaks the naming rule"));
            }
            if !table.iter().any(|d| d.name == name) {
                return Err(format!("metric {name} is not declared"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
        }
        Ok(())
    }

    /// One human-readable line per metric: name, value, unit, direction.
    pub fn lines(&self, table: &[MetricDef]) -> Vec<String> {
        table
            .iter()
            .filter_map(|def| {
                let (_, v) = self.values.iter().find(|(n, _)| n == def.name)?;
                Some(format!(
                    "metric {:<34} {:>20} {:<7} ({} is better)",
                    def.name, v, def.unit, def.better
                ))
            })
            .collect()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of `table` with its unit.
    pub fn result_json(&self, table: &[MetricDef], attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            failed == 0
        );
        for (i, def) in table.iter().enumerate() {
            let value = self
                .values
                .iter()
                .find(|(n, _)| n == def.name)
                .map_or(0.0, |(_, v)| *v);
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest representation that round-trips.
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn all() -> Vec<MetricDef> {
        END_TO_END.iter().chain(&PER_LAYER).copied().collect()
    }

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let defs = all();
        let mut seen = HashSet::new();
        for d in &defs {
            assert!(valid_metric_name(d.name), "bad metric name {}", d.name);
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                d.unit
            );
            assert!(matches!(d.better, "higher" | "lower"), "{}", d.name);
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        for d in all() {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            doc.matches("\"better\"").count(),
            all().len(),
            "BENCHMARK.json declares metrics the program does not report"
        );
    }

    #[test]
    fn validation_catches_missing_extra_and_non_finite() {
        let mut ok = Metrics::default();
        for d in END_TO_END {
            ok.set(d.name, 1.5);
        }
        assert!(ok.validate(&END_TO_END).is_ok());
        let mut missing = Metrics::default();
        missing.set("setup_s", 1.0);
        assert!(missing.validate(&END_TO_END).is_err());
        let mut extra = Metrics::default();
        for d in END_TO_END {
            extra.set(d.name, 1.0);
        }
        extra.set("bogus", 1.0);
        assert!(extra.validate(&END_TO_END).is_err());
        let mut nan = Metrics::default();
        for d in END_TO_END {
            nan.set(d.name, f64::NAN);
        }
        assert!(nan.validate(&END_TO_END).is_err());
    }

    #[test]
    fn result_line_shape() {
        let mut v = Metrics::default();
        v.set("design_refs_per_s", 1234.5);
        v.set("setup_s", 0.25);
        v.set("peak_rss_mb", 100.0);
        assert_eq!(
            v.result_json(&END_TO_END, 40, 0),
            "{\"correct\": true, \"attempted\": 40, \"failed\": 0, \"metrics\": {\
             \"design_refs_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 100.0, \"unit\": \"MB\"}}}"
        );
        assert!(v
            .result_json(&END_TO_END, 40, 2)
            .starts_with("{\"correct\": false"));
    }
}
