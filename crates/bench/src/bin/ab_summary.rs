//! `ab_summary`: the verdict table of an alternating A/B benchmark series.
//!
//! `scripts/ab.sh` runs `benchmark/run.sh` on two revisions in alternating
//! pairs and keeps each run's last stdout line, the result object
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! This reads those lines and prints, per workload and end-to-end metric
//! of `BENCHMARK.json`: both sides' median and quartiles, how many pairs
//! the change won, the gap between the medians against the parent's
//! quartile range, failed/attempted operations per side, and a verdict.
//!
//! ```text
//! ab_summary BENCHMARK.json RESULTS        # the table
//! ab_summary --workloads BENCHMARK.json    # the workload names, one a line
//! ab_summary --run-seconds BENCHMARK.json  # the length of one run
//! ```
//!
//! `RESULTS` holds one run a line: `workload<TAB>pair<TAB>side<TAB>line`,
//! `side` being `parent` or `change`. A run whose line does not parse is
//! counted as missing, and a pair missing either side is run but not won.
//!
//! The verdict is `worse` when the change's median is worse than the
//! parent's by more than the metric's `bound` (a share of the parent's
//! median), `claimable` when at least ten pairs were run, the change won
//! at least nine in ten of them and its median is better by more than the
//! parent's quartile range, and `within bound` otherwise. A workload
//! whose change fails a larger share of its operations is marked
//! `MORE FAILURES`, and one where a side left fewer results than it ran
//! is marked `MISSING <SIDE> RESULTS`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use scriptflow_bench::doc::{get, number, quartiles, text};
use scriptflow_datakit::codec::Json;

const USAGE: &str = "usage: ab_summary BENCHMARK.json RESULTS | \
                     ab_summary --workloads BENCHMARK.json | \
                     ab_summary --run-seconds BENCHMARK.json";

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

/// The workload names and end-to-end metrics of a `BENCHMARK.json`.
fn declared(benchmark: &Json) -> Result<(Vec<String>, Vec<Metric>), String> {
    let list = |key: &str| match get(benchmark, key) {
        Some(Json::Array(items)) => Ok(items),
        _ => Err(format!("BENCHMARK.json has no `{key}` list")),
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| text(w, "name").map(str::to_owned))
        .collect::<Option<Vec<_>>>()
        .ok_or("a workload has no name")?;
    let metrics = list("end_to_end")?
        .iter()
        .map(|m| {
            Some(Metric {
                name: text(m, "name")?.to_owned(),
                unit: text(m, "unit")?.to_owned(),
                lower_is_better: text(m, "better")? == "lower",
                bound: number(m, "bound")?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("an end-to-end metric lacks a name, unit, direction or bound")?;
    Ok((workloads, metrics))
}

/// Which revision a run measured; indexes a pair.
#[derive(Clone, Copy)]
enum Side {
    Parent,
    Change,
}

/// One run's result line, parsed; `None` when the run left no result.
type Run = Option<Json>;

/// `workload -> pair -> (parent run, change run)`, in name and pair order.
type Series = BTreeMap<String, BTreeMap<u32, [Run; 2]>>;

fn parse_results(results: &str) -> Result<Series, String> {
    let mut series = Series::new();
    for (n, line) in results.lines().enumerate().filter(|(_, l)| !l.is_empty()) {
        let bad = || {
            format!(
                "results line {}: expected workload, pair, side, result",
                n + 1
            )
        };
        let mut cols = line.splitn(4, '\t');
        let (Some(workload), Some(pair), Some(side)) = (cols.next(), cols.next(), cols.next())
        else {
            return Err(bad());
        };
        let pair: u32 = pair.parse().map_err(|_| bad())?;
        let side = match side {
            "parent" => Side::Parent,
            "change" => Side::Change,
            _ => return Err(bad()),
        };
        let run = Json::parse(cols.next().unwrap_or(""))
            .ok()
            .filter(|doc| get(doc, "metrics").is_some());
        let slot = series.entry(workload.to_owned()).or_default();
        slot.entry(pair).or_default()[side as usize] = run;
    }
    Ok(series)
}

fn metric_value(run: &Run, metric: &str) -> Option<f64> {
    number(get(get(run.as_ref()?, "metrics")?, metric)?, "value")
}

/// `(failed, attempted, runs with a result, runs)` over one side.
fn operations(pairs: &BTreeMap<u32, [Run; 2]>, side: Side) -> (u64, u64, usize, usize) {
    let runs = pairs.values().map(|p| &p[side as usize]);
    let count = |key| {
        runs.clone()
            .flatten()
            .filter_map(|r| number(r, key))
            .sum::<f64>() as u64
    };
    let present = runs.clone().flatten().count();
    (count("failed"), count("attempted"), present, pairs.len())
}

/// One metric's comparison over a workload's pairs.
struct Row {
    parent: (f64, f64, f64),
    change: (f64, f64, f64),
    wins: usize,
    pairs: usize,
}

impl Row {
    fn of(pairs: &BTreeMap<u32, [Run; 2]>, metric: &Metric) -> Option<Row> {
        let side = |s: Side| -> Vec<f64> {
            let runs = pairs.values().map(|p| &p[s as usize]);
            runs.filter_map(|r| metric_value(r, &metric.name)).collect()
        };
        let (parent, change) = (side(Side::Parent), side(Side::Change));
        if parent.is_empty() || change.is_empty() {
            return None;
        }
        let won = |[p, c]: &[Run; 2]| match (
            metric_value(p, &metric.name),
            metric_value(c, &metric.name),
        ) {
            (Some(p), Some(c)) if metric.lower_is_better => c < p,
            (Some(p), Some(c)) => c > p,
            _ => false,
        };
        Some(Row {
            parent: quartiles(parent),
            change: quartiles(change),
            wins: pairs.values().filter(|pair| won(pair)).count(),
            pairs: pairs.len(),
        })
    }

    /// Change over parent median, as a share of the parent's, signed so
    /// that positive is better.
    fn gain(&self, metric: &Metric) -> f64 {
        let delta = (self.change.1 - self.parent.1) / self.parent.1;
        if metric.lower_is_better {
            -delta
        } else {
            delta
        }
    }

    fn verdict(&self, metric: &Metric) -> &'static str {
        let gap = (self.change.1 - self.parent.1).abs();
        let iqr = self.parent.2 - self.parent.0;
        if -self.gain(metric) > metric.bound {
            "worse"
        } else if self.gain(metric) > 0.0
            && self.pairs >= 10
            && 10 * self.wins >= 9 * self.pairs
            && gap > iqr
        {
            "claimable"
        } else {
            "within bound"
        }
    }
}

/// A number with three significant digits or more, without exponent.
fn num(x: f64) -> String {
    match x.abs() {
        a if a >= 1e5 => format!("{x:.0}"),
        a if a >= 100.0 => format!("{x:.1}"),
        a if a >= 1.0 => format!("{x:.2}"),
        _ => format!("{x:.4}"),
    }
}

fn summary(benchmark: &Json, results: &str) -> Result<String, String> {
    let (workloads, metrics) = declared(benchmark)?;
    let series = parse_results(results)?;
    let mut out = String::new();
    let ordered = workloads
        .iter()
        .filter(|w| series.contains_key(*w))
        .chain(series.keys().filter(|w| !workloads.contains(w)));
    for workload in ordered {
        let pairs = &series[workload];
        let (pf, pa, pn, runs) = operations(pairs, Side::Parent);
        let (cf, ca, cn, _) = operations(pairs, Side::Change);
        let share = |f: u64, a: u64| f as f64 / a.max(1) as f64;
        let mut flag = String::new();
        if share(cf, ca) > share(pf, pa) {
            flag += "  MORE FAILURES";
        }
        for (side, present) in [("PARENT", pn), ("CHANGE", cn)] {
            if present < runs {
                flag += &format!("  MISSING {side} RESULTS");
            }
        }
        out += &format!(
            "{workload}: {runs} pairs; failed/attempted parent {pf}/{pa}, change {cf}/{ca}; \
             results parent {pn}/{runs}, change {cn}/{runs}{flag}\n"
        );
        for metric in &metrics {
            let Some(row) = Row::of(pairs, metric) else {
                out += &format!("  {:<13} no result on one side\n", metric.name);
                continue;
            };
            let (p, c) = (row.parent, row.change);
            out += &format!(
                "  {:<13} {} -> {} {} ({:+.1} %)  parent [{} .. {}]  change [{} .. {}]  \
                 wins {}/{}  gap {} vs parent IQR {}  {}\n",
                metric.name,
                num(p.1),
                num(c.1),
                metric.unit,
                100.0 * (c.1 - p.1) / p.1,
                num(p.0),
                num(p.2),
                num(c.0),
                num(c.2),
                row.wins,
                row.pairs,
                num((c.1 - p.1).abs()),
                num(p.2 - p.0),
                row.verdict(metric),
            );
        }
    }
    Ok(out)
}

fn run(args: &[String]) -> Result<String, String> {
    let read = |path: &String| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let benchmark = |path| Json::parse(&read(path)?).map_err(|e| format!("{path}: {e}"));
    match args {
        [flag, path] if flag == "--workloads" => {
            let (workloads, _) = declared(&benchmark(path)?)?;
            Ok(workloads.iter().map(|w| format!("{w}\n")).collect())
        }
        [flag, path] if flag == "--run-seconds" => {
            let seconds = number(&benchmark(path)?, "run_seconds")
                .ok_or("BENCHMARK.json has no `run_seconds`")?;
            Ok(format!("{seconds}\n"))
        }
        [path, results] if !path.starts_with("--") => summary(&benchmark(path)?, &read(results)?),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ab_summary: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = r#"{"workloads":[{"name":"slow"},{"name":"fast"},{"name":"gappy"}],
        "end_to_end":[
            {"name":"job_ms_p50","unit":"ms","better":"lower","bound":0.25},
            {"name":"tuples_per_s","unit":"1/s","better":"higher","bound":0.25}]}"#;

    fn line(failed: u32, p50: f64, tps: f64) -> String {
        format!(
            r#"{{"correct":true,"attempted":100,"failed":{failed},"metrics":{{"job_ms_p50":{{"value":{p50},"unit":"ms"}},"tuples_per_s":{{"value":{tps},"unit":"1/s"}}}}}}"#
        )
    }

    /// Ten pairs of `fast`: the change is 20 ms faster in nine and slower
    /// in one, and pushes fewer tuples; eleven pairs of `gappy`: the same
    /// nine wins and one loss, and one change run that left no result;
    /// three pairs of `slow`: 30 % slower, one change run crashed and one
    /// failed an operation.
    fn results() -> String {
        let mut rows = Vec::new();
        for (workload, pairs) in [("fast", 10u32), ("gappy", 11)] {
            for pair in 0..pairs {
                let p50 = 140.0 + f64::from(pair);
                let change = match pair {
                    4 => line(0, p50 + 1.0, 0.9e6),
                    10 => "thread 'main' panicked".into(),
                    _ => line(0, p50 - 20.0, 0.9e6),
                };
                rows.push(format!("{workload}\t{pair}\tparent\t{}", line(0, p50, 1e6)));
                rows.push(format!("{workload}\t{pair}\tchange\t{change}"));
            }
        }
        for pair in 0..3u32 {
            rows.push(format!(
                "slow\t{pair}\tchange\t{}",
                line(pair % 2, 130.0, 1e6)
            ));
            rows.push(format!("slow\t{pair}\tparent\t{}", line(0, 100.0, 1e6)));
        }
        rows[42] = "slow\t0\tchange\t".into();
        rows.join("\n")
    }

    #[test]
    fn verdicts_on_fixed_result_lines() {
        let benchmark = Json::parse(BENCHMARK).unwrap();
        let table = summary(&benchmark, &results()).unwrap();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(
            lines,
            [
                "slow: 3 pairs; failed/attempted parent 0/300, change 1/200; \
                 results parent 3/3, change 2/3  MORE FAILURES  MISSING CHANGE RESULTS",
                "  job_ms_p50    100.0 -> 130.0 ms (+30.0 %)  parent [100.0 .. 100.0]  \
                 change [130.0 .. 130.0]  wins 0/3  gap 30.00 vs parent IQR 0.0000  worse",
                "  tuples_per_s  1000000 -> 1000000 1/s (+0.0 %)  parent [1000000 .. 1000000]  \
                 change [1000000 .. 1000000]  wins 0/3  gap 0.0000 vs parent IQR 0.0000  \
                 within bound",
                "fast: 10 pairs; failed/attempted parent 0/1000, change 0/1000; \
                 results parent 10/10, change 10/10",
                "  job_ms_p50    144.5 -> 125.5 ms (-13.1 %)  parent [141.8 .. 147.2]  \
                 change [121.8 .. 128.2]  wins 9/10  gap 19.00 vs parent IQR 5.50  claimable",
                "  tuples_per_s  1000000 -> 900000 1/s (-10.0 %)  parent [1000000 .. 1000000]  \
                 change [900000 .. 900000]  wins 0/10  gap 100000 vs parent IQR 0.0000  \
                 within bound",
                // Nine wins in eleven pairs run is no claim, though the
                // ten pairs with both results would be.
                "gappy: 11 pairs; failed/attempted parent 0/1100, change 0/1000; \
                 results parent 11/11, change 10/11  MISSING CHANGE RESULTS",
                "  job_ms_p50    145.0 -> 125.5 ms (-13.4 %)  parent [142.0 .. 148.0]  \
                 change [121.8 .. 128.2]  wins 9/11  gap 19.50 vs parent IQR 6.00  within bound",
                "  tuples_per_s  1000000 -> 900000 1/s (-10.0 %)  parent [1000000 .. 1000000]  \
                 change [900000 .. 900000]  wins 0/11  gap 100000 vs parent IQR 0.0000  \
                 within bound",
            ]
        );
    }

    #[test]
    fn a_gap_inside_the_quartile_range_or_too_few_wins_is_no_claim() {
        let benchmark = Json::parse(BENCHMARK).unwrap();
        let (_, metrics) = declared(&benchmark).unwrap();
        let row = |parent, change, wins| Row {
            parent,
            change,
            wins,
            pairs: 10,
        };
        let p50 = &metrics[0];
        assert_eq!(
            row((90.0, 100.0, 110.0), (85.0, 95.0, 99.0), 10).verdict(p50),
            "within bound"
        );
        assert_eq!(
            row((99.0, 100.0, 101.0), (80.0, 90.0, 95.0), 8).verdict(p50),
            "within bound"
        );
        assert_eq!(
            row((99.0, 100.0, 101.0), (80.0, 90.0, 95.0), 9).verdict(p50),
            "claimable"
        );
        assert_eq!(
            row((99.0, 100.0, 101.0), (120.0, 126.0, 130.0), 0).verdict(p50),
            "worse"
        );
        let tps = &metrics[1];
        assert_eq!(
            row((9.0, 10.0, 11.0), (7.0, 7.4, 8.0), 0).verdict(tps),
            "worse"
        );
        assert_eq!(
            row((9.9, 10.0, 10.1), (11.0, 12.0, 13.0), 10).verdict(tps),
            "claimable"
        );
        // A claim rests on ten pairs run at least.
        let two = Row {
            pairs: 2,
            ..row((9.9, 10.0, 10.1), (11.0, 12.0, 13.0), 2)
        };
        assert_eq!(two.verdict(tps), "within bound");
    }

    #[test]
    fn workloads_and_malformed_input() {
        let (workloads, _) = declared(&Json::parse(BENCHMARK).unwrap()).unwrap();
        assert_eq!(workloads, ["slow", "fast", "gappy"]);
        assert!(declared(&Json::parse(r#"{"workloads":[]}"#).unwrap()).is_err());
        assert!(run(&[]).is_err());
        assert!(parse_results("fast\tx\tparent\t{}").is_err());
        assert!(parse_results("fast\t1\tboth\t{}").is_err());
        assert!(parse_results("fast\t1").is_err());
    }
}
