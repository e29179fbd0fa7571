//! `spans`: where a traced benchmark pass spends its time, span by span.
//!
//! `benchmark/run.sh --workload W --trace 1` writes
//! `benchmark/out/trace_W.json`: every span of the traced passes with its
//! parent. This reads that document and prints, for each span name under
//! a `bench.pass` span (at any depth), how many such spans a pass holds
//! and their milliseconds a pass — summed over every instance, so spans
//! on several threads add up. Spans outside every pass (the ladder, the
//! warm-up) are not counted.
//!
//! With `--legs N`, a span name that occurs exactly `N` times in a pass
//! is read as `N` legs run in start order (a workload's DAGs, one
//! `workflow.exec_live.run` and one `workflow.sink.read` each), and each
//! leg's median over the passes that hold `N` is printed; passes holding
//! another number are skipped for that name.
//!
//! ```text
//! spans WORKLOAD [--input FILE] [--legs N]
//! ```

use std::collections::{BTreeMap, HashMap};
use std::process::ExitCode;

use scriptflow_bench::doc::{get, median, number, text};
use scriptflow_datakit::codec::Json;

const USAGE: &str = "usage: spans WORKLOAD [--input FILE] [--legs N]";

struct Args {
    input: String,
    legs: Option<usize>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut input = None;
    let mut legs = None;
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{arg} needs a value\n{USAGE}"));
        match arg.as_str() {
            "--input" => input = Some(value()?),
            "--legs" => {
                let n = value()?;
                let n = n.parse().ok().filter(|&n| n > 0);
                legs = Some(n.ok_or(format!("--legs takes a positive count\n{USAGE}"))?);
            }
            _ if arg.starts_with("--") => return Err(format!("unknown flag `{arg}`\n{USAGE}")),
            _ if workload.is_none() => workload = Some(arg),
            _ => return Err(format!("unexpected argument `{arg}`\n{USAGE}")),
        }
    }
    let input = match (input, workload) {
        (Some(input), _) => input,
        (None, Some(w)) => format!("benchmark/out/trace_{w}.json"),
        (None, None) => return Err(USAGE.to_owned()),
    };
    Ok(Args { input, legs })
}

/// Every span of every pass, by name: per pass, each instance's start and
/// length in milliseconds. Passes are in start order.
struct Passes {
    passes: Vec<BTreeMap<String, Vec<(f64, f64)>>>,
}

impl Passes {
    /// Group the spans of a trace document under the `bench.pass` span
    /// each descends from.
    fn of(trace: &Json) -> Result<Passes, String> {
        let Some(Json::Array(spans)) = get(trace, "spans") else {
            return Err("the document has no `spans` list".into());
        };
        struct Span<'a> {
            name: &'a str,
            parent: Option<i64>,
            start: f64,
            ms: f64,
        }
        let mut by_id = HashMap::new();
        for s in spans {
            let (Some(Json::Int(id)), Some(name), Some(start), Some(end)) = (
                get(s, "id"),
                text(s, "name"),
                number(s, "start_us"),
                number(s, "end_us"),
            ) else {
                return Err("a span lacks its id, name, start_us or end_us".into());
            };
            let parent = match get(s, "parent") {
                Some(Json::Int(p)) => Some(*p),
                _ => None,
            };
            let ms = (end - start) / 1e3;
            by_id.insert(
                *id,
                Span {
                    name,
                    parent,
                    start,
                    ms,
                },
            );
        }
        // The pass a span descends from: walk up to the first `bench.pass`
        // ancestor. A parent chain that loops or breaks is outside.
        let pass_of = |mut id: i64| {
            for _ in 0..by_id.len() {
                let parent = by_id.get(&id)?.parent?;
                if by_id.get(&parent)?.name == "bench.pass" {
                    return Some(parent);
                }
                id = parent;
            }
            None
        };
        let mut order: Vec<(f64, i64)> = (by_id.iter())
            .filter(|(_, s)| s.name == "bench.pass")
            .map(|(&id, s)| (s.start, id))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0));
        let index: HashMap<i64, usize> = (order.iter().enumerate())
            .map(|(i, &(_, id))| (id, i))
            .collect();
        let mut passes = vec![BTreeMap::<String, Vec<(f64, f64)>>::new(); order.len()];
        for (&id, span) in &by_id {
            if let Some(pass) = pass_of(id).and_then(|p| index.get(&p)) {
                let name = span.name.to_owned();
                passes[*pass]
                    .entry(name)
                    .or_default()
                    .push((span.start, span.ms));
            }
        }
        for spans in passes.iter_mut().flat_map(BTreeMap::values_mut) {
            spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        Ok(Passes { passes })
    }

    /// `(name, spans a pass, ms a pass)`, heaviest first: each averaged
    /// over every pass, a pass without the span counting zero.
    fn per_pass(&self) -> Vec<(String, f64, f64)> {
        let mut totals: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
        for spans in &self.passes {
            for (name, instances) in spans {
                let total = totals.entry(name).or_default();
                total.0 += instances.len();
                total.1 += instances.iter().map(|&(_, ms)| ms).sum::<f64>();
            }
        }
        let n = self.passes.len().max(1) as f64;
        let mut rows: Vec<(String, f64, f64)> = (totals.into_iter())
            .map(|(name, (count, ms))| (name.to_owned(), count as f64 / n, ms / n))
            .collect();
        rows.sort_by(|a, b| b.2.total_cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        rows
    }

    /// `(name, passes read, each leg's median ms)` for every span name
    /// some pass holds exactly `legs` of, in name order.
    fn legs(&self, legs: usize) -> Vec<(String, usize, Vec<f64>)> {
        let mut by_leg: BTreeMap<&str, Vec<Vec<f64>>> = BTreeMap::new();
        for spans in &self.passes {
            for (name, instances) in spans.iter().filter(|(_, i)| i.len() == legs) {
                let ms = by_leg.entry(name).or_insert_with(|| vec![Vec::new(); legs]);
                for (leg, &(_, span_ms)) in ms.iter_mut().zip(instances) {
                    leg.push(span_ms);
                }
            }
        }
        (by_leg.into_iter())
            .map(|(name, ms)| {
                let passes = ms[0].len();
                (
                    name.to_owned(),
                    passes,
                    ms.into_iter().map(median).collect(),
                )
            })
            .collect()
    }
}

/// The printed report of `passes`.
fn render(passes: &Passes, legs: Option<usize>) -> String {
    let mut out = format!("{} passes\n", passes.passes.len());
    out += &format!("{:<44} {:>10} {:>12}\n", "span", "count/pass", "ms/pass");
    for (name, count, ms) in passes.per_pass() {
        out += &format!("{name:<44} {count:>10.2} {ms:>12.3}\n");
    }
    if let Some(legs) = legs {
        out += &format!("\nmedian ms per leg, {legs} legs a pass:\n");
        for (name, read, medians) in passes.legs(legs) {
            let cells: Vec<String> = medians.iter().map(|ms| format!("{ms:.3}")).collect();
            out += &format!("{name:<44} {read:>3} passes  {}\n", cells.join("  "));
        }
    }
    out
}

fn run(args: &Args) -> Result<(), String> {
    let text =
        std::fs::read_to_string(&args.input).map_err(|e| format!("reading {}: {e}", args.input))?;
    let trace = Json::parse(&text).map_err(|e| format!("parsing {}: {e}", args.input))?;
    let passes = Passes::of(&trace)?;
    print!("{}: {}", args.input, render(&passes, args.legs));
    Ok(())
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("spans: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two passes of two legs each (`run` then `read`, the second pass's
    /// read with a child on another thread), a span outside every pass,
    /// and a third pass holding one leg.
    const TRACE: &str = r#"{"workload":"w","spans":[
        {"id":0,"parent":null,"name":"bench.pass","start_us":0.0,"end_us":100000.0},
        {"id":1,"parent":0,"name":"run","start_us":0.0,"end_us":30000.0},
        {"id":2,"parent":0,"name":"read","start_us":30000.0,"end_us":40000.0},
        {"id":3,"parent":0,"name":"run","start_us":40000.0,"end_us":60000.0},
        {"id":4,"parent":0,"name":"read","start_us":60000.0,"end_us":64000.0},
        {"id":5,"parent":null,"name":"bench.ladder","start_us":100000.0,"end_us":101000.0},
        {"id":6,"parent":5,"name":"run","start_us":100000.0,"end_us":101000.0},
        {"id":7,"parent":null,"name":"bench.pass","start_us":200000.0,"end_us":300000.0},
        {"id":8,"parent":7,"name":"run","start_us":200000.0,"end_us":250000.0},
        {"id":9,"parent":7,"name":"read","start_us":250000.0,"end_us":256000.0},
        {"id":10,"parent":9,"name":"decode","start_us":251000.0,"end_us":253000.0},
        {"id":11,"parent":7,"name":"run","start_us":256000.0,"end_us":266000.0},
        {"id":12,"parent":7,"name":"read","start_us":266000.0,"end_us":268000.0},
        {"id":13,"parent":null,"name":"bench.pass","start_us":400000.0,"end_us":410000.0},
        {"id":14,"parent":13,"name":"run","start_us":400000.0,"end_us":406000.0}
    ]}"#;

    #[test]
    fn counts_and_times_every_span_under_a_pass_and_medians_its_legs() {
        let passes = Passes::of(&Json::parse(TRACE).unwrap()).unwrap();
        assert_eq!(passes.passes.len(), 3);
        // `run`: 30 + 20 + 50 + 10 + 6 ms over three passes, five spans;
        // the ladder's `run` is outside every pass.
        let rows = passes.per_pass();
        let names: Vec<&str> = rows.iter().map(|r| r.0.as_str()).collect();
        assert_eq!(names, ["run", "read", "decode"]);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(rows[0].1, 5.0 / 3.0) && close(rows[0].2, 116.0 / 3.0));
        assert!(close(rows[1].1, 4.0 / 3.0) && close(rows[1].2, 22.0 / 3.0));
        assert!(close(rows[2].1, 1.0 / 3.0) && close(rows[2].2, 2.0 / 3.0));
        // Two legs: `run` 30/50 and 20/10, `read` 10/6 and 4/2 over the two
        // passes holding two; the third pass has one `run` and is skipped.
        let legs = passes.legs(2);
        assert_eq!(legs.len(), 2);
        assert_eq!((legs[0].0.as_str(), legs[0].1), ("read", 2));
        assert_eq!(legs[0].2, [8.0, 3.0]);
        assert_eq!((legs[1].0.as_str(), legs[1].1), ("run", 2));
        assert_eq!(legs[1].2, [40.0, 15.0]);
        assert_eq!(passes.legs(1)[0], ("decode".to_owned(), 1, vec![2.0]));
        let report = render(&passes, Some(2));
        assert!(report.starts_with("3 passes\n"), "{report}");
        assert!(
            report.contains("median ms per leg, 2 legs a pass:"),
            "{report}"
        );
    }

    #[test]
    fn arguments_and_malformed_documents_are_refused() {
        let args = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        let a = args(&["stream_relational", "--legs", "2"]).unwrap();
        assert_eq!(a.input, "benchmark/out/trace_stream_relational.json");
        assert_eq!(a.legs, Some(2));
        assert_eq!(args(&["--input", "t.json"]).unwrap().input, "t.json");
        for bad in [
            &[][..],
            &["w", "--legs", "0"],
            &["w", "x"],
            &["w", "--nope"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
        assert!(Passes::of(&Json::parse("{}").unwrap()).is_err());
        let nameless = r#"{"spans":[{"id":0,"parent":null,"start_us":0,"end_us":1}]}"#;
        assert!(Passes::of(&Json::parse(nameless).unwrap()).is_err());
    }
}
