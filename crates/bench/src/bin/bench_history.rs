//! `bench_history`: append one benchmark run to the committed history.
//!
//! `benchmark/run.sh` with no arguments runs every workload untraced,
//! then traced, and writes `benchmark/out/summary.json`. This reads that
//! summary (never writing under `benchmark/`) and appends one line per
//! workload to `BENCH_history.jsonl`: the run's provenance, each
//! end-to-end metric's median and quartiles, and the traced run's
//! per-layer ladder. Before appending, it prints each workload's
//! difference from the last line recorded for that workload on a machine
//! with the same `nproc`, skipping lines of changes that did not land.
//!
//! ```text
//! bench_history [--input FILE] [--history FILE] [--label TEXT]
//! ```
//!
//! `--label` names the lines (default: the summary's commit).
//!
//! The `spill_cache` line also carries the per-leg medians of the traced
//! run, read from `trace_spill_cache.json` beside the summary: in each
//! `bench.pass` span, the `workflow.exec_live.run` children are the six
//! legs in the order the workload runs them.

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Component, Path};
use std::process::ExitCode;

use scriptflow_datakit::codec::Json;

const USAGE: &str = "usage: bench_history [--input FILE] [--history FILE] [--label TEXT]";

struct Args {
    input: String,
    history: String,
    label: Option<String>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        input: "benchmark/out/summary.json".into(),
        history: "BENCH_history.jsonl".into(),
        label: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--input" => args.input = value()?,
            "--history" => args.history = value()?,
            "--label" => args.label = Some(value()?),
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    if Path::new(&args.history)
        .components()
        .any(|c| c == Component::Normal("benchmark".as_ref()))
    {
        return Err(format!(
            "refusing to write {} under benchmark/",
            args.history
        ));
    }
    Ok(args)
}

/// Field `key` of a JSON object.
fn get<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    match doc {
        Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn text<'a>(doc: &'a Json, key: &str) -> Option<&'a str> {
    match get(doc, key) {
        Some(Json::Str(s)) => Some(s),
        _ => None,
    }
}

fn number(doc: &Json, key: &str) -> Option<f64> {
    match get(doc, key) {
        Some(Json::Float(x)) => Some(*x),
        Some(Json::Int(i)) => Some(*i as f64),
        _ => None,
    }
}

fn fields(doc: Option<&Json>) -> &[(String, Json)] {
    match doc {
        Some(Json::Object(fields)) => fields,
        _ => &[],
    }
}

/// `{name: {unit, median, q1, q3, n}}` from a run document's metric list
/// (quartiles only where the metric is a median of samples).
fn metrics_of(run: Option<&Json>) -> Json {
    let Some(Json::Array(metrics)) = run.and_then(|r| get(r, "metrics")) else {
        return Json::Object(Vec::new());
    };
    let metrics = metrics.iter().filter_map(|m| {
        let name = text(m, "name")?.to_owned();
        let mut entry = vec![
            ("unit".to_owned(), Json::Str(text(m, "unit")?.to_owned())),
            ("median".to_owned(), Json::Float(number(m, "value")?)),
        ];
        for key in ["q1", "q3", "n"] {
            if let Some(v) = get(m, key) {
                entry.push((key.to_owned(), v.clone()));
            }
        }
        Some((name, Json::Object(entry)))
    });
    Json::Object(metrics.collect())
}

/// `spill_cache`'s legs, in the order each of its passes runs them.
const SPILL_CACHE_LEGS: [&str; 6] = [
    "unbounded",
    "budgeted",
    "cold",
    "warm",
    "edited",
    "evicting",
];

/// Median of a non-empty sample.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// `{leg: {unit, median, n}}` over a traced `spill_cache` run's passes:
/// each `bench.pass` span's `workflow.exec_live.run` children, in start
/// order, are its legs, and a pass without exactly six is skipped. `None`
/// when no pass has six.
fn spill_cache_legs(trace: &Json) -> Option<Json> {
    let Some(Json::Array(spans)) = get(trace, "spans") else {
        return None;
    };
    let named = |name: &'static str| spans.iter().filter(move |s| text(s, "name") == Some(name));
    let mut runs: HashMap<i64, Vec<(f64, f64)>> = HashMap::new();
    for run in named("workflow.exec_live.run") {
        let (Some(Json::Int(parent)), Some(start), Some(end)) = (
            get(run, "parent"),
            number(run, "start_us"),
            number(run, "end_us"),
        ) else {
            continue;
        };
        runs.entry(*parent).or_default().push((start, end));
    }
    let mut legs: Vec<Vec<f64>> = vec![Vec::new(); SPILL_CACHE_LEGS.len()];
    for pass in named("bench.pass") {
        let Some(Json::Int(id)) = get(pass, "id") else {
            continue;
        };
        let Some(pass_runs) = runs.get_mut(id).filter(|r| r.len() == legs.len()) else {
            continue;
        };
        pass_runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (ms, (start, end)) in legs.iter_mut().zip(pass_runs.iter()) {
            ms.push((end - start) / 1e3);
        }
    }
    let passes = legs[0].len();
    if passes == 0 {
        return None;
    }
    let legs = SPILL_CACHE_LEGS.iter().zip(legs).map(|(name, ms)| {
        let entry = vec![
            ("unit".to_owned(), Json::Str("ms".into())),
            ("median".to_owned(), Json::Float(median(ms))),
            ("n".to_owned(), Json::Int(passes as i64)),
        ];
        ((*name).to_owned(), Json::Object(entry))
    });
    Some(Json::Object(legs.collect()))
}

/// One history line per workload of `summary`, in the order the
/// workloads first appear; `spill_cache`'s carries `legs` when given.
fn lines_of(summary: &Json, label: Option<&str>, legs: Option<&Json>) -> Result<Vec<Json>, String> {
    let provenance = get(summary, "provenance").ok_or("the summary has no provenance")?;
    let Some(Json::Array(runs)) = get(summary, "runs") else {
        return Err("the summary has no runs".into());
    };
    let label = label
        .or_else(|| text(provenance, "commit"))
        .unwrap_or("unknown");
    // (workload, untraced run, traced run)
    let mut by_workload: Vec<(&str, Option<&Json>, Option<&Json>)> = Vec::new();
    for run in runs {
        let workload = text(run, "workload").ok_or("a run has no workload")?;
        let i = match by_workload.iter().position(|(w, _, _)| *w == workload) {
            Some(i) => i,
            None => {
                by_workload.push((workload, None, None));
                by_workload.len() - 1
            }
        };
        if matches!(get(run, "trace"), Some(Json::Bool(true))) {
            by_workload[i].2 = Some(run);
        } else {
            by_workload[i].1 = Some(run);
        }
    }
    let lines = by_workload.into_iter().map(|(workload, untraced, traced)| {
        let both = || untraced.into_iter().chain(traced);
        let first = |key: &str| {
            both()
                .find_map(|r| get(r, key))
                .cloned()
                .unwrap_or(Json::Null)
        };
        let failed: i64 = both()
            .filter_map(|r| match get(r, "failed") {
                Some(Json::Int(n)) => Some(*n),
                _ => None,
            })
            .sum();
        let field = |k: &str, v: Json| (k.to_owned(), v);
        let mut line = vec![
            field("label", Json::Str(label.to_owned())),
            field("provenance", provenance.clone()),
            field("workload", Json::Str(workload.to_owned())),
            field("seed", first("seed")),
            field("seconds", first("seconds")),
            field("failed", Json::Int(failed)),
            field("metrics", metrics_of(untraced)),
            field("ladder", metrics_of(traced)),
        ];
        if let Some(legs) = legs.filter(|_| workload == "spill_cache") {
            line.push(field("legs", legs.clone()));
        }
        Json::Object(line)
    });
    Ok(lines.collect())
}

fn nproc(line: &Json) -> Option<f64> {
    number(get(line, "provenance")?, "nproc")
}

/// Print how `line` moved from `previous`, metric by metric; a value
/// outside the previous line's quartiles is marked `*`.
fn print_diff(previous: Option<&Json>, line: &Json) {
    let workload = text(line, "workload").unwrap_or("?");
    let Some(prev) = previous else {
        println!("{workload}: no earlier line at this nproc");
        return;
    };
    println!(
        "{workload}: against `{}`",
        text(prev, "label").unwrap_or("?")
    );
    for section in ["metrics", "ladder", "legs"] {
        for (name, now) in fields(get(line, section)) {
            let before = get(prev, section).and_then(|s| get(s, name));
            let (Some(b), Some(n)) = (
                before.and_then(|m| number(m, "median")),
                number(now, "median"),
            ) else {
                continue;
            };
            let change = if b == 0.0 {
                String::from("      -")
            } else {
                format!("{:+6.1} %", (n - b) / b.abs() * 100.0)
            };
            let quartile = |k| before.and_then(|m| number(m, k));
            let outside = match (quartile("q1"), quartile("q3")) {
                (Some(q1), Some(q3)) if n < q1 || n > q3 => " *",
                _ => "",
            };
            println!(
                "   {name:<46} {b:>14.4} -> {n:>14.4} {:<6} {change}{outside}",
                text(now, "unit").unwrap_or("")
            );
        }
    }
}

/// The last recorded line `line` is compared with: same workload, same
/// nproc, and of a change that landed (a line labelled "not landed"
/// records a change main never had).
fn previous<'a>(recorded: &'a [Json], line: &Json) -> Option<&'a Json> {
    let landed = |r: &Json| !text(r, "label").is_some_and(|l| l.contains("not landed"));
    recorded.iter().rev().find(|r| {
        text(r, "workload") == text(line, "workload") && nproc(r) == nproc(line) && landed(r)
    })
}

fn run(args: &Args) -> Result<(), String> {
    let summary = std::fs::read_to_string(&args.input)
        .map_err(|e| format!("cannot read {}: {e}", args.input))?;
    let summary = Json::parse(&summary).map_err(|e| format!("{}: {e}", args.input))?;
    let trace = Path::new(&args.input).with_file_name("trace_spill_cache.json");
    let legs = std::fs::read_to_string(&trace)
        .ok()
        .and_then(|doc| Json::parse(&doc).ok())
        .and_then(|doc| spill_cache_legs(&doc));
    if legs.is_none() {
        println!(
            "no spill_cache legs: {} has no pass of six",
            trace.display()
        );
    }
    let lines = lines_of(&summary, args.label.as_deref(), legs.as_ref())?;

    let history = match std::fs::read_to_string(&args.history) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("cannot read {}: {e}", args.history)),
    };
    let recorded = history
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| Json::parse(l).map_err(|e| format!("{}:{}: {e}", args.history, i + 1)))
        .collect::<Result<Vec<_>, _>>()?;

    for line in &lines {
        print_diff(previous(&recorded, line), line);
    }
    let mut out = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&args.history)
        .map_err(|e| format!("cannot open {}: {e}", args.history))?;
    for line in &lines {
        writeln!(out, "{}", line.to_string_compact())
            .map_err(|e| format!("cannot append to {}: {e}", args.history))?;
    }
    println!("appended {} line(s) to {}", lines.len(), args.history);
    Ok(())
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_history: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUMMARY: &str = r#"{"provenance":{"commit":"abc1234","nproc":2},"runs":[
        {"workload":"w","trace":false,"seed":1,"seconds":20,"failed":0,"metrics":[
            {"name":"job_ms_p50","unit":"ms","value":10.0,"n":5,"min":8.0,"q1":9.0,"median":10.0,"q3":11.0,"max":12.0},
            {"name":"setup_s","unit":"s","value":0.5}]},
        {"workload":"w","trace":true,"seed":1,"seconds":20,"failed":1,"metrics":[
            {"name":"rung","unit":"us","value":3.0}]}]}"#;

    #[test]
    fn one_line_per_workload_with_medians_quartiles_and_ladder() {
        let lines = lines_of(&Json::parse(SUMMARY).unwrap(), None, None).unwrap();
        assert_eq!(lines.len(), 1);
        assert_eq!(
            lines[0].to_string_compact(),
            r#"{"label":"abc1234","provenance":{"commit":"abc1234","nproc":2},"workload":"w","seed":1,"seconds":20,"failed":1,"metrics":{"job_ms_p50":{"unit":"ms","median":10.0,"q1":9.0,"q3":11.0,"n":5},"setup_s":{"unit":"s","median":0.5}},"ladder":{"rung":{"unit":"us","median":3.0}}}"#
        );
        assert_eq!(nproc(&lines[0]), Some(2.0));

        let recorded = [
            r#"{"label":"first","provenance":{"nproc":2},"workload":"w"}"#,
            r#"{"label":"other nproc","provenance":{"nproc":4},"workload":"w"}"#,
            r#"{"label":"last (not landed)","provenance":{"nproc":2},"workload":"w"}"#,
        ]
        .map(|l| Json::parse(l).unwrap());
        let got = previous(&recorded, &lines[0]).and_then(|r| text(r, "label"));
        assert_eq!(got, Some("first"));
    }

    #[test]
    fn spill_cache_legs_are_per_leg_medians_over_passes_of_six() {
        // Pass 1 runs six legs of 1..=6 ms, pass 2 of 3..=8 ms, out of
        // order; pass 3 has five, so it is skipped.
        let mut spans = Vec::new();
        for (pass, legs) in [(1, 6), (2, 6), (3, 5)] {
            spans.push(format!(
                r#"{{"id":{pass},"parent":null,"name":"bench.pass"}}"#
            ));
            for leg in (0..legs).rev() {
                let (start, ms) = (1000.0 * leg as f64, (leg + 1 + 2 * (pass - 1)) as f64);
                spans.push(format!(
                    r#"{{"id":{},"parent":{pass},"name":"workflow.exec_live.run","start_us":{start:.1},"end_us":{:.1}}}"#,
                    10 * pass + leg,
                    start + 1e3 * ms
                ));
            }
            spans.push(format!(
                r#"{{"id":{},"parent":{pass},"name":"workflow.sink.read"}}"#,
                100 + pass
            ));
        }
        let trace = Json::parse(&format!(r#"{{"spans":[{}]}}"#, spans.join(","))).unwrap();
        let legs = spill_cache_legs(&trace).expect("two passes of six");
        assert_eq!(
            legs.to_string_compact(),
            r#"{"unbounded":{"unit":"ms","median":2.0,"n":2},"budgeted":{"unit":"ms","median":3.0,"n":2},"cold":{"unit":"ms","median":4.0,"n":2},"warm":{"unit":"ms","median":5.0,"n":2},"edited":{"unit":"ms","median":6.0,"n":2},"evicting":{"unit":"ms","median":7.0,"n":2}}"#
        );
        let summary = SUMMARY.replace(r#""workload":"w""#, r#""workload":"spill_cache""#);
        let lines = lines_of(&Json::parse(&summary).unwrap(), None, Some(&legs)).unwrap();
        assert_eq!(get(&lines[0], "legs"), Some(&legs));
        assert!(spill_cache_legs(&Json::parse(r#"{"spans":[]}"#).unwrap()).is_none());
    }

    #[test]
    fn refuses_to_write_under_benchmark() {
        let args = |h: &str| parse_args(["--history", h].map(String::from).into_iter());
        assert!(args("benchmark/out/history.jsonl").is_err());
        assert!(args("./benchmark/h.jsonl").is_err());
        assert!(args("BENCH_history.jsonl").is_ok());
        assert!(parse_args(["--bogus".to_owned()].into_iter()).is_err());
    }
}
