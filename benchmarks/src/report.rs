//! One result type and one serializer for every workload.

use crate::spec::{Better, END_TO_END, PER_LAYER};
use neursc_serve::json::{self, Json};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
    /// How many samples the statistic was taken over.
    pub samples: usize,
    pub value: f64,
}

/// Looks `name` up in the spec tables and attaches its unit, direction and
/// bound. Panics on a name the spec does not list: every emitted metric
/// must be declared in `BENCHMARK.json`.
pub fn metric(name: &str, value: f64, samples: usize) -> Metric {
    assert!(value.is_finite(), "metric {name} is not finite: {value}");
    if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
        return Metric {
            name: m.name,
            unit: m.unit,
            better: m.better,
            bound: Some(m.bound),
            samples,
            value,
        };
    }
    let m = PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared in spec.rs"));
    Metric {
        name: m.name,
        unit: m.unit,
        better: m.better,
        bound: None,
        samples,
        value,
    }
}

/// The outcome of one run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// Ops executed in measured passes.
    pub attempted: u64,
    /// Ops that errored or whose output was not bit-identical to the first
    /// measured pass and to the reference.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result as the one line of JSON the driver reads: exactly
    /// `correct`, `attempted`, `failed` and `metrics: {name: {value, unit}}`.
    /// Direction and bound of a metric are in `BENCHMARK.json`, its sample
    /// count in [`RunResult::table`].
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render()
    }

    /// Reads a [`RunResult::result_line`] back (the parent reads its
    /// children's results this way); sample counts are not carried.
    pub fn from_result_line(
        workload: &str,
        seed: u64,
        traced: bool,
        line: &str,
    ) -> Result<RunResult, String> {
        let v = json::parse(line).map_err(|e| format!("result line: {e}"))?;
        let count = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("result line lacks `{k}`"))
        };
        let Some(Json::Obj(fields)) = v.get("metrics") else {
            return Err("result line lacks `metrics`".into());
        };
        let metrics = fields
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64);
                value
                    .map(|value| metric(name, value, 0))
                    .ok_or_else(|| format!("metric `{name}` lacks a value"))
            })
            .collect::<Result<_, _>>()?;
        Ok(RunResult {
            workload: workload.into(),
            seed,
            traced,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }

    /// A table for people: one metric per line, by name, with its unit.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} seed={} {}: attempted {} failed {}\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "end-to-end" },
            self.attempted,
            self.failed
        );
        for m in &self.metrics {
            // End-to-end metrics show their bound, layer metrics the
            // end-to-end metric they are expected to move. The driver reads
            // every layer metric from every workload, so a layer that is
            // not on this workload's path is printed too: 0 over 0 samples.
            let note = match m.bound {
                Some(b) => format!("bound {b}"),
                None if m.samples == 0 => "not on this workload's path".to_string(),
                None => PER_LAYER
                    .iter()
                    .find(|l| l.name == m.name)
                    .map_or(String::new(), |l| format!("-> {}", l.moves)),
            };
            out.push_str(&format!(
                "  {:<34} {:>14.6} {:<8} n={:<6} {:<6} is better  {note}\n",
                m.name,
                m.value,
                m.unit,
                m.samples,
                m.better.as_str()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            workload: "serve_yeast".into(),
            seed: 3,
            traced: false,
            attempted: 768,
            failed: 0,
            metrics: vec![
                metric("lat_p50_ms", 1.25, 256),
                metric("ok_share", 1.0, 768),
            ],
        }
    }

    #[test]
    fn result_line_round_trips_all_but_sample_counts() {
        let mut r = sample();
        let back = RunResult::from_result_line("serve_yeast", 3, false, &r.result_line());
        r.metrics.iter_mut().for_each(|m| m.samples = 0);
        assert_eq!(back, Ok(r));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let v = json::parse(&sample().result_line()).unwrap();
        let Json::Obj(fields) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let lat = v.get("metrics").and_then(|m| m.get("lat_p50_ms")).unwrap();
        assert_eq!(lat.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(lat.get("unit").and_then(Json::as_str), Some("ms"));
    }

    #[test]
    fn a_failed_op_makes_the_run_incorrect() {
        let mut r = sample();
        r.failed = 1;
        assert!(!r.correct());
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_names_are_rejected() {
        metric("made.up", 1.0, 1);
    }
}
