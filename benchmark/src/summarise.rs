//! The statistics behind `repeat.sh`: per workload × end-to-end metric, the
//! median, the quartiles and two spreads of N runs. `(max − min) ÷ median`
//! is judged against the bound `BENCHMARK.json` declares for the metric;
//! `(q3 − q1) ÷ median`, the statistic the benchmark driver judges, is
//! printed beside it.

use crate::stats::quartiles;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// `name → bound` of the declared end-to-end metrics.
fn bounds() -> Vec<(String, f64)> {
    let benchmark = serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("end_to_end array")
        .iter()
        .map(|m| (m.get("name").and_then(Value::as_str).expect("name").to_string(), m.get("bound").and_then(Value::as_f64).expect("bound")))
        .collect()
}

/// One metric's N values reduced to what the table prints.
#[derive(Debug, PartialEq)]
pub struct Spread {
    /// Median of the runs.
    pub median: f64,
    /// First and third quartile (Python's exclusive method).
    pub q1: f64,
    /// See `q1`.
    pub q3: f64,
    /// `(q3 − q1) ÷ median` — the driver's statistic.
    pub iqr_share: f64,
    /// `(max − min) ÷ median` — the one gated here.
    pub range_share: f64,
}

/// Reduces the values of one metric.
pub fn spread(values: &mut [f64]) -> Spread {
    let (q1, median, q3) = quartiles(values); // sorts
    let range = values[values.len() - 1] - values[0];
    Spread { median, q1, q3, iqr_share: (q3 - q1) / median, range_share: range / median }
}

/// Reads `workload<TAB>result-json` lines and prints the table. Returns the
/// process exit code: 1 when a run was incorrect or a metric's range
/// exceeds its bound.
pub fn run(path: &Path) -> Result<i32, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut incorrect = 0;
    for (no, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let (workload, json) = line
            .split_once('\t')
            .ok_or_else(|| format!("{}:{}: expected `workload<TAB>json`", path.display(), no + 1))?;
        let result = serde_json::from_str(json).map_err(|e| format!("{}:{}: {e}", path.display(), no + 1))?;
        if result.get("correct").and_then(Value::as_bool) != Some(true) {
            incorrect += 1;
        }
        let metrics = result
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{}:{}: no metrics", path.display(), no + 1))?;
        for (name, m) in metrics.iter() {
            let v = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{}:{}: {name} has no value", path.display(), no + 1))?;
            values.entry((workload.to_string(), name.clone())).or_default().push(v);
        }
    }
    let bounds = bounds();
    let mut over = 0;
    println!(
        "{:<20} {:<16} {:>3} {:>14} {:>14} {:>14} {:>9} {:>9} {:>7}",
        "workload", "metric", "n", "median", "q1", "q3", "range/med", "iqr/med", "bound"
    );
    for ((workload, name), v) in &mut values {
        let Some((_, bound)) = bounds.iter().find(|(n, _)| n == name) else {
            continue;
        };
        if v.len() < 2 {
            return Err(format!("{workload} {name}: {} run(s); a spread needs at least two", v.len()));
        }
        let s = spread(v);
        let verdict = if s.range_share > *bound { "  OVER" } else { "" };
        over += usize::from(s.range_share > *bound);
        println!(
            "{workload:<20} {name:<16} {:>3} {:>14.4} {:>14.4} {:>14.4} {:>9.5} {:>9.5} {:>7}{verdict}",
            v.len(),
            s.median,
            s.q1,
            s.q3,
            s.range_share,
            s.iqr_share,
            bound
        );
    }
    if incorrect > 0 {
        println!("{incorrect} run(s) reported incorrect answers");
    }
    if over > 0 {
        println!("{over} range(s) over their bound");
    }
    Ok(i32::from(incorrect > 0 || over > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_of_five_runs() {
        // quantiles([98, 99, 100, 101, 104], n=4) == [98.5, 100.0, 102.5]
        let s = spread(&mut [100.0, 98.0, 104.0, 99.0, 101.0]);
        assert_eq!((s.q1, s.median, s.q3), (98.5, 100.0, 102.5));
        assert!((s.iqr_share - 0.04).abs() < 1e-12);
        assert!((s.range_share - 0.06).abs() < 1e-12);
    }
}
