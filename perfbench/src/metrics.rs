//! Named metrics and the result line the benchmark prints.

use std::fmt::Write;

/// A metric or unit name: 1–64 letters, digits, `_`, `.` and `-`, starting
/// with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// A unit: 1–16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || b"_/%.-".contains(&c))
}

/// Metrics in the order they were added; names are checked and unique.
#[derive(Default, Debug)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds a metric. Panics on a malformed or repeated name: metric names
    /// are constants of this benchmark, so that is a bug here.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_name(&name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?} for {name}");
        assert!(self.get(&name).is_none(), "metric {name} set twice");
        self.items.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.items
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.items.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }

    /// Adds every metric of `other`, in its order.
    pub fn extend(&mut self, other: &Metrics) {
        for (name, value, unit) in other.iter() {
            self.put(name, value, unit);
        }
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(value)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (never expected) become 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// The result line: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_and_unit_names_are_validated() {
        for ok in [
            "setup_s",
            "core.exp.table4_s",
            "net.loop_us_p99",
            "p50-ms",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            "pct%",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
        for ok in ["ms", "s", "1/s", "count", "%", "MiB", "ratio"] {
            assert!(valid_unit(ok), "{ok}");
        }
        assert!(!valid_unit("") && !valid_unit("per second") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    #[should_panic(expected = "set twice")]
    fn repeated_names_are_refused() {
        let mut m = Metrics::default();
        m.put("x", 1.0, "s");
        m.put("x", 2.0, "s");
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.203_456_789_1, "ms");
        m.put("count", 3.0, "count");
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034567891, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
