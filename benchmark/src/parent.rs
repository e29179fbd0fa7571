//! The parent process: starts one child per workload, watches it, and
//! turns what it reported into the documents and the lines printed.
//!
//! A workload runs in a child of its own so that `peak_rss_mib` is the
//! workload's alone and a hang or an out-of-memory kill is contained:
//! the parent kills a child that has been silent for longer than its
//! deadline, charges the runs it still owed as failures, and goes on.

use std::io::{BufRead, BufReader};
use std::os::unix::process::ExitStatusExt;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use scriptflow_datakit::codec::Json;

use crate::report::{self, obj, Declaration, RunDoc};
use crate::{sysinfo, workloads, Args};

/// A silent child is killed after 20 × its warm-up pass, but not
/// before this long.
const MIN_SILENCE: Duration = Duration::from_secs(60);

/// No child may outlive this, whatever it prints: the driver gives a
/// run 180 s.
const HARD_LIMIT: Duration = Duration::from_secs(170);

/// Run `workload` in a child and return its document. A child that
/// dies yields a document with no metrics and the owed runs failed.
fn run_child(workload: &str, args: &Args, trace: bool) -> RunDoc {
    let _awake = sysinfo::KeepAwake::start();
    let exe = std::env::current_exe().expect("own executable path");
    let mut child = Command::new(exe)
        .args(["child", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn the workload child");
    let stdout = child.stdout.take().expect("child stdout is piped");
    let (tx, rx) = mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });

    let started = Instant::now();
    let mut silence = MIN_SILENCE;
    let (mut attempted, mut failed, mut owed) = (0u64, 0u64, 0u64);
    let mut result = None;
    let mut killed = None;
    loop {
        let left = HARD_LIMIT.saturating_sub(started.elapsed());
        match rx.recv_timeout(silence.min(left)) {
            Ok(line) => {
                let mut words = line.split(' ');
                match words.next() {
                    Some("warmup") => {
                        let ms: f64 = words.next().and_then(|w| w.parse().ok()).unwrap_or(0.0);
                        silence = MIN_SILENCE.max(Duration::from_secs_f64(20.0 * ms / 1e3));
                    }
                    Some("pass") => {
                        let mut n = || words.next().and_then(|w| w.parse().ok()).unwrap_or(0);
                        (attempted, failed, owed) = (n(), n(), n());
                    }
                    Some("result") => {
                        let text = line.strip_prefix("result ").unwrap_or("");
                        result = Some(Json::parse(text).and_then(|doc| RunDoc::from_json(&doc)));
                    }
                    _ => eprintln!("[{workload}] {line}"),
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let why = if left <= silence {
                    format!("ran past the {} s limit", HARD_LIMIT.as_secs())
                } else {
                    format!("was silent for {:.0} s", silence.as_secs_f64())
                };
                // The child may have exited in the meantime; then kill
                // fails and wait below reports how it really ended.
                if child.kill().is_ok() {
                    killed = Some(why);
                }
                break;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    let status = child.wait().expect("wait for the workload child");
    reader.join().expect("stdout reader does not panic");

    // The document of a child that reported and exited 0, or how a
    // child that did not came to its end.
    let ended = match (killed, result) {
        (Some(why), _) => Err(format!("child {why} and was killed")),
        (None, Some(Ok(doc))) if status.success() => Ok(doc),
        (None, Some(Err(e))) => Err(format!("child result unreadable: {e}")),
        (None, _) => Err(match status.signal() {
            Some(sig) => format!("child died of signal {sig}"),
            None => format!("child exited with {status} and no result"),
        }),
    };
    match ended {
        Ok(doc) => doc,
        Err(why) => {
            eprintln!("[{workload}] {why}; charging {owed} owed runs as failed");
            RunDoc {
                workload: workload.to_owned(),
                trace,
                seed: args.seed,
                seconds: args.seconds,
                attempted: (attempted + owed).max(1),
                failed: (failed + owed).max(1),
                setups: 0,
                passes: 0,
                jobs: 0,
                timed_wall_s: started.elapsed().as_secs_f64(),
                hung_calls: 0,
                peak_rss_mib: 0.0,
                failures: vec![why],
                metrics: Vec::new(),
            }
        }
    }
}

fn print_metrics(doc: &RunDoc) {
    let kind = if doc.trace { "traced" } else { "end to end" };
    println!(
        "== {} ({kind}): {} runs attempted, {} failed (failed_share {:.4}), {} passes, {} jobs, {:.1} s timed, child peak RSS {:.0} MiB",
        doc.workload,
        doc.attempted,
        doc.failed,
        doc.failed as f64 / doc.attempted.max(1) as f64,
        doc.passes,
        doc.jobs,
        doc.timed_wall_s,
        doc.peak_rss_mib
    );
    for f in &doc.failures {
        println!("   FAILED: {f}");
    }
    if doc.hung_calls > 0 {
        println!(
            "   NOTE: {} engine call(s) hung, were given up and tried again",
            doc.hung_calls
        );
    }
    for m in &doc.metrics {
        match m.summary {
            Some(s) if s.n > 1 => println!(
                "   {:<48} {:>16.4} {:<8} (n={}, q1 {:.4}, q3 {:.4})",
                m.name, m.value, m.unit, s.n, s.q1, s.q3
            ),
            _ => println!("   {:<48} {:>16.4} {}", m.name, m.value, m.unit),
        }
    }
}

fn run_and_record(workload: &str, args: &Args, trace: bool) -> RunDoc {
    let doc = run_child(workload, args, trace);
    report::write_doc(
        &format!("result_{workload}_trace{}.json", u8::from(trace)),
        &doc.to_json(),
    );
    doc
}

/// The driver's entry: one workload, one run, the contract line last.
pub fn run_one(args: &Args) -> Result<(), String> {
    let workload = args.workload.as_deref().ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    let doc = run_and_record(workload, args, args.trace);
    print_metrics(&doc);
    println!("{}", doc.contract_line());
    if doc.metrics.is_empty() {
        return Err(format!("{workload} produced no metrics"));
    }
    Ok(())
}

/// What is wrong with `doc`: failed runs, no metrics, or metric names
/// and units that differ from `BENCHMARK.json`.
fn problems_of(decl: &Declaration, doc: &RunDoc) -> Vec<String> {
    let mut problems = decl.mismatches(doc);
    if !doc.correct() || doc.metrics.is_empty() {
        problems.push(format!(
            "{}: {} of {} runs failed",
            doc.workload, doc.failed, doc.attempted
        ));
    }
    problems
}

/// Every workload with tracing off, then every workload traced; prints
/// every metric by name with its unit.
pub fn run_all(args: &Args) -> Result<(), String> {
    let decl = Declaration::load()?;
    let mut docs = Vec::new();
    for trace in [false, true] {
        for workload in workloads::NAMES {
            let doc = run_and_record(workload, args, trace);
            print_metrics(&doc);
            docs.push(doc);
        }
    }
    report::write_doc(
        "summary.json",
        &obj([
            ("provenance", report::provenance()),
            (
                "runs",
                Json::Array(docs.iter().map(RunDoc::to_json).collect()),
            ),
        ]),
    );
    let problems: Vec<String> = docs.iter().flat_map(|d| problems_of(&decl, d)).collect();
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

/// A/A: every workload twice with the same seed; fails if an end-to-end
/// metric of the second run differs from the first by more than its
/// bound, if any run failed, or if the metric names differ from
/// `BENCHMARK.json`.
pub fn selftest(args: &Args) -> Result<(), String> {
    let decl = Declaration::load()?;
    let mut problems = Vec::new();
    for workload in workloads::NAMES {
        let a = run_and_record(workload, args, false);
        let b = run_and_record(workload, args, false);
        problems.extend(problems_of(&decl, &a));
        problems.extend(problems_of(&decl, &b));
        println!("== {workload}: A/A");
        for d in &decl.end_to_end {
            let value = |doc: &RunDoc| {
                doc.metrics
                    .iter()
                    .find(|m| m.name == d.name)
                    .map(|m| m.value)
            };
            let (Some(x), Some(y), Some(bound)) = (value(&a), value(&b), d.bound) else {
                continue;
            };
            let diff = (y - x).abs() / x.abs();
            let verdict = if diff <= bound { "ok" } else { "OVER" };
            println!(
                "   {:<18} {:>14.4} {:>14.4} {:<6} differ by {:>6.2} % (bound {:>4.0} %) {verdict}",
                d.name,
                x,
                y,
                d.unit,
                diff * 100.0,
                bound * 100.0
            );
            if diff > bound {
                problems.push(format!(
                    "{workload}: {} differs by {:.1} % between two runs of the same code (bound {:.0} %)",
                    d.name,
                    diff * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    // The ladder is the same in every traced run; one checks its names.
    let traced = run_and_record(workloads::NAMES[0], args, true);
    print_metrics(&traced);
    problems.extend(problems_of(&decl, &traced));
    if problems.is_empty() {
        println!("selftest passed");
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}
