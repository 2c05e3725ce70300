//! The metric registry and the result a workload process prints.
//!
//! Every metric a run can print is declared here with its unit and the
//! direction that counts as better; `BENCHMARK.json` must declare the same
//! names and units (checked by this module's tests).

use std::fmt::Write as _;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// Metrics of an untraced run.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", "lower"),
    def("peak_rss_mb", "MiB", "lower"),
    def("wall_s", "s", "lower"),
    def("cpu_s", "s", "lower"),
    def("throughput", "1/s", "higher"),
    def("latency_p50_us", "us", "lower"),
    def("latency_p99_us", "us", "lower"),
];

/// Metrics of a traced run. `host.steal_s` is measured by the runner
/// from `/proc/stat` around the workload process.
pub const PER_LAYER: &[Def] = &[
    // core::infer
    def("infer.hit_ns", "ns", "lower"),
    def("infer.self_ns", "ns", "lower"),
    def("infer.hit_rate", "ratio", "higher"),
    def("infer.evictions", "count", "lower"),
    def("infer.tier_evals", "count", "lower"),
    // core::eval
    def("eval.circuit_ms_p50", "ms", "lower"),
    def("eval.circuit_ms_p99", "ms", "lower"),
    def("eval.analytic_ns", "ns", "lower"),
    // pwmcell::testbench
    def("testbench.build_us", "us", "lower"),
    def("testbench.measure_ms", "ms", "lower"),
    // mssim::session preflight, mssim::analysis::plan
    def("session.lint_us", "us", "lower"),
    def("plan.compile_us", "us", "lower"),
    // mssim::analysis::{dcop, transient}, Newton, mos_batch, linear
    def("dcop.ms", "ms", "lower"),
    def("tran.ms", "ms", "lower"),
    def("tran.us_per_step", "us", "lower"),
    def("tran.steps_accepted", "count", "lower"),
    def("tran.steps_rejected", "count", "lower"),
    def("newton.iterations", "count", "lower"),
    def("newton.device_evals", "count", "lower"),
    def("newton.latency_hits", "count", "higher"),
    def("plan.factorizations", "count", "lower"),
    def("plan.bypasses", "count", "higher"),
    def("homotopy.gmin_steps", "count", "lower"),
    // core::faults, mssim::faults, mssim::analyze
    def("analyze.triage_ms", "ms", "lower"),
    def("faults.simulated", "count", "lower"),
    def("faults.transient_ms_p50", "ms", "lower"),
    def("faults.transient_ms_p99", "ms", "lower"),
    // bench::experiments
    def("figures.fig4_s", "s", "lower"),
    def("figures.fig5_s", "s", "lower"),
    def("figures.fig6_s", "s", "lower"),
    def("figures.table2_s", "s", "lower"),
    def("figures.fig8_s", "s", "lower"),
    def("figures.ablation_rout_s", "s", "lower"),
    def("figures.ablation_cout_s", "s", "lower"),
    def("figures.mc_s", "s", "lower"),
    def("figures.xval_s", "s", "lower"),
    def("figures.full_perceptron_s", "s", "lower"),
    // how well the trace explains the run
    def("replay.coverage", "ratio", "higher"),
    def("trace.unattributed_pct", "%", "lower"),
    def("trace.overhead_pct", "%", "lower"),
    // run context
    def("sweep.workers", "count", "higher"),
    def("host.steal_s", "s", "lower"),
];

/// Whether `name` is a valid metric name.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

fn lookup(name: &str) -> &'static Def {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the registry"))
}

/// What one workload process measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (queries, result rows, fault verdicts).
    pub attempted: u64,
    /// Operations that erred or gave a wrong answer.
    pub failed: u64,
    metrics: Vec<(&'static Def, f64, usize)>,
    notes: Vec<(String, String)>,
}

impl Outcome {
    /// Records a metric with the number of samples behind it.
    ///
    /// # Panics
    ///
    /// Panics if the metric is not declared in the registry.
    pub fn metric(&mut self, name: &str, value: f64, samples: usize) {
        self.metrics.push((lookup(name), value, samples));
    }

    /// Records a count metric (one sample).
    pub fn count(&mut self, name: &str, value: u64) {
        self.metric(name, value as f64, 1);
    }

    /// Attaches a free-form note to the printed result.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records 0, from no samples, for every per-layer metric of a layer
    /// this workload does no work in. `host.steal_s` is the runner's.
    pub fn zero_unmeasured_layers(&mut self) {
        for d in PER_LAYER {
            if d.name != "host.steal_s" && !self.metrics.iter().any(|(m, _, _)| m.name == d.name) {
                self.metrics.push((d, 0.0, 0));
            }
        }
    }

    /// The result line the runner parses.
    pub fn to_json(&self, workload: &str, seed: u64, trace: bool) -> String {
        let mut out = format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            u8::from(trace),
            self.attempted,
            self.failed
        );
        for (i, (d, v, n)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let value = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\":{{\"value\":{value:?},\"unit\":\"{}\",\"samples\":{n}}}",
                d.name, d.unit
            );
        }
        out.push_str("},\"notes\":{");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let v = v.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = write!(out, "{sep}\"{k}\":\"{v}\"");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
    }

    /// The text of the JSON object that declares `name`.
    fn declaration<'a>(json: &'a str, name: &str) -> Option<&'a str> {
        let at = json.find(&format!("\"name\": \"{name}\""))?;
        let end = at + json[at..].find('}')?;
        Some(&json[at..end])
    }

    #[test]
    fn every_metric_is_declared_with_its_unit_and_direction() {
        let json = benchmark_json();
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let body = &json[json.find(&format!("\"{section}\"")).expect(section)..];
            for d in defs {
                assert!(valid_name(d.name), "{} is not a valid name", d.name);
                let decl = declaration(body, d.name)
                    .unwrap_or_else(|| panic!("{} is not declared in {section}", d.name));
                assert!(
                    decl.contains(&format!("\"unit\": \"{}\"", d.unit)),
                    "{decl}"
                );
                assert!(
                    decl.contains(&format!("\"better\": \"{}\"", d.better)),
                    "{decl}"
                );
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn result_line_carries_value_unit_and_samples() {
        let mut o = Outcome::default();
        o.metric("wall_s", 1.5, 3);
        o.check(true);
        o.check(false);
        let line = o.to_json("campaigns", 1, false);
        assert!(line.contains("\"wall_s\":{\"value\":1.5,\"unit\":\"s\",\"samples\":3}"));
        assert!(line.contains("\"attempted\":2,\"failed\":1"));
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn undeclared_metrics_are_refused() {
        Outcome::default().metric("made_up", 1.0, 1);
    }
}
