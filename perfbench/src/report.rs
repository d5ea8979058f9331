//! Command-line arguments, the metric catalogue, and the two output lines:
//! a run header and the result object.

use std::collections::BTreeMap;
use std::fmt::Display;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_rss_mb", "MB"), ("throughput", "1/s"), ("p50_ms", "ms")];

/// Per-layer metrics (`--trace 1`), with units. A workload that does not
/// exercise a layer reports 0 for it and lists it under `not_exercised`
/// in the header. A layer metric that was computed but is not finite makes
/// the run incorrect.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.http.rtt_ms", "ms"),
    ("serve.batch.wait_ms", "ms"),
    ("serve.batch.size", "count"),
    ("serve.cache.hit_rate", "ratio"),
    ("serve.cache.mb", "MB"),
    ("ppr.sparse_ms", "ms"),
    ("ppr.cache_build_s", "s"),
    ("graph.layering_ms", "ms"),
    ("graph.edges", "count"),
    ("graph.edges.l1", "count"),
    ("graph.edges.l2", "count"),
    ("graph.edges.l3", "count"),
    ("core.score_ms", "ms"),
    ("core.score_ns_per_edge", "ns"),
    ("datasets.load_s", "s"),
    ("dynamic.append_ms", "ms"),
    ("dynamic.tick_ms", "ms"),
    ("dynamic.tick.frontier_ms", "ms"),
    ("dynamic.tick.recompute_ms", "ms"),
    ("dynamic.tick.commit_ms", "ms"),
    ("dynamic.recompute_frac", "ratio"),
    ("dynamic.invalidated", "count"),
    ("train.epoch_s", "s"),
    ("train.extract_ms", "ms"),
    ("eval.recall_at_20", "ratio"),
    ("eval.ndcg_at_20", "ratio"),
    ("process.cpu_ms_per_op", "ms"),
    ("trace.covered_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

pub const WORKLOADS: &[&str] = &["serve-hot", "serve-cold", "update-mixed"];

/// Parsed `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" | "--seed" | "--seconds" | "--trace" => {
                    flags.insert(flag, value);
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
        let workload = get("--workload")?.to_string();
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload} (one of {WORKLOADS:?})"));
        }
        let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"));
        let seconds = num("--seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".to_string());
        }
        let trace = match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        };
        Ok(Self { workload, seed: num("--seed")?, seconds, trace })
    }
}

/// What one run found: the result line's fields plus the run header.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    header: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Adds a header field rendered as a JSON string or number.
    pub fn header(&mut self, key: &str, value: impl Display) {
        let v = value.to_string();
        let json = if v.parse::<f64>().is_ok_and(f64::is_finite) || v == "true" || v == "false" {
            v
        } else {
            format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\""))
        };
        self.header.push((key.to_string(), json));
    }

    /// Adds a header field that is already JSON.
    pub fn header_json(&mut self, key: &str, json: String) {
        self.header.push((key.to_string(), json));
    }

    /// The header line: every setting and count behind the result.
    pub fn header_line(&self) -> String {
        let fields: Vec<String> = self.header.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{\"header\":{{{}}}}}", fields.join(","))
    }

    /// The result line: the end-to-end or the per-layer metrics, every one
    /// of the catalogue, in catalogue order. A metric that is missing or not
    /// finite is printed as 0 (JSON has no NaN) and listed in the header.
    pub fn result_line(&mut self, trace: bool) -> String {
        let (catalogue, values) =
            if trace { (PER_LAYER, &self.layers) } else { (END_TO_END, &self.metrics) };
        let names = |keep: &dyn Fn(Option<&f64>) -> bool| -> Vec<&str> {
            catalogue.iter().map(|m| m.0).filter(|m| keep(values.get(m))).collect()
        };
        let missing = names(&|v| v.is_none());
        let non_finite = names(&|v| v.is_some_and(|v| !v.is_finite()));
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|&(name, unit)| {
                let v = values.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
                format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
            })
            .collect();
        let list = |names: &[&str]| {
            let quoted: Vec<String> = names.iter().map(|m| format!("\"{m}\"")).collect();
            format!("[{}]", quoted.join(","))
        };
        if trace {
            self.header_json("not_exercised", list(&missing));
        }
        self.header_json("not_finite", list(&non_finite));
        // Every end-to-end metric is measured on every workload, and every
        // computed metric is finite; anything else is a broken run, not a
        // figure (an empty latency sample must not read as 0 ms).
        let correct = self.correct && (trace || missing.is_empty()) && non_finite.is_empty();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line_flags() {
        let a = Args::parse(&argv("--workload serve-hot --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("serve-hot", 7, 10, true));
        assert!(Args::parse(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(Args::parse(&argv("--workload serve-hot --seed 1 --seconds 1")).is_err());
        assert!(Args::parse(&argv("--workload serve-hot --seed 1 --seconds 1 --trace 2")).is_err());
    }

    #[test]
    fn header_stays_json_for_any_value() {
        let mut r = Report::default();
        r.header("n", 3);
        r.header("p99_ms", f64::NAN);
        r.header("commit", "abc\"d");
        assert_eq!(
            r.header_line(),
            "{\"header\":{\"n\":3,\"p99_ms\":\"NaN\",\"commit\":\"abc\\\"d\"}}"
        );
    }

    #[test]
    fn result_line_lists_every_catalogue_metric() {
        let mut r = Report { correct: true, attempted: 3, ..Report::default() };
        r.metric("p50_ms", 1.5);
        let line = r.result_line(false);
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\":{{\"value\":")), "{name}");
            assert!(line.contains(&format!("\"unit\":\"{unit}\"")));
        }
        // The other end-to-end metrics are missing: not a correct run.
        assert!(line.starts_with("{\"correct\":false,\"attempted\":3,\"failed\":0,"));
        for (name, _) in END_TO_END {
            r.metric(name, 1.0);
        }
        assert!(r.result_line(false).starts_with("{\"correct\":true,"));
    }

    #[test]
    fn an_empty_latency_sample_is_not_a_correct_run() {
        let mut r = Report { correct: true, attempted: 3, ..Report::default() };
        for (name, _) in END_TO_END {
            r.metric(name, 1.0);
        }
        let empty: Vec<f64> = Vec::new();
        r.metric("p50_ms", crate::stats::quantile_sorted(&empty, 0.5));
        r.metric("throughput", crate::stats::median(&empty));
        let line = r.result_line(false);
        assert!(line.starts_with("{\"correct\":false,"), "{line}");
        assert!(line.contains("\"p50_ms\":{\"value\":0,"));
        assert!(r.header_line().contains("\"not_finite\":[\"throughput\",\"p50_ms\"]"));

        // The same holds for a per-layer metric that was computed.
        let mut t = Report { correct: true, attempted: 1, ..Report::default() };
        t.layer("trace.overhead_frac", f64::NAN);
        assert!(t.result_line(true).starts_with("{\"correct\":false,"));
        let mut u = Report { correct: true, attempted: 1, ..Report::default() };
        u.layer("serve.http.rtt_ms", 0.5);
        assert!(u.result_line(true).starts_with("{\"correct\":true,"));
    }
}
