//! The child process: runs one workload and reports to its parent.
//!
//! On standard output the child writes one line per event — `warmup
//! <ms>` after each warm-up pass, `pass <attempted> <failed> <owed>`
//! after each timed pass (the parent's heartbeat, and what it charges a
//! child that dies), and finally `result <json>`.

use std::time::{Duration, Instant};

use scriptflow_datakit::codec::Json;

use crate::report::{self, obj, Metric, RunDoc};
use crate::workloads::paper_tasks::PaperTasks;
use crate::workloads::service_mix::ServiceMix;
use crate::workloads::spill_cache::SpillCache;
use crate::workloads::stream_relational::StreamRelational;
use crate::workloads::{self, Tally, Workload};
use crate::{ladder, span, stats, sysinfo, Args};

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;

/// Run the workload `args` names and print the result document.
pub fn main(args: &Args) -> Result<(), String> {
    let workload = args.workload.as_deref().ok_or("child needs --workload")?;
    let doc = match workload {
        "paper_tasks" => drive::<PaperTasks>(workload, args),
        "stream_relational" => drive::<StreamRelational>(workload, args),
        "spill_cache" => drive::<SpillCache>(workload, args),
        "service_mix" => drive::<ServiceMix>(workload, args),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {})",
                workloads::NAMES.join(", ")
            ))
        }
    };
    println!("result {}", doc.to_json().to_string_compact());
    Ok(())
}

/// Passes until `seconds` have gone by (at least one), reporting each
/// to the parent. Returns the wall-clock and the passes done.
fn timed_section<W: Workload>(
    w: &mut W,
    expected: &W::Expected,
    seconds: f64,
    tally: &mut Tally,
) -> (Duration, usize) {
    let start = Instant::now();
    let mut passes = 0usize;
    loop {
        let _s = span::enter("bench.pass");
        w.pass(Some(expected), tally);
        passes += 1;
        let elapsed = start.elapsed().as_secs_f64();
        let per_pass = elapsed / passes as f64;
        let owed_passes = ((seconds - elapsed) / per_pass).ceil().max(0.0) as u64;
        println!(
            "pass {} {} {}",
            tally.attempted,
            tally.failed,
            owed_passes * w.runs_per_pass()
        );
        if elapsed >= seconds {
            return (start.elapsed(), passes);
        }
    }
}

fn peak_rss_mib() -> f64 {
    sysinfo::peak_rss_bytes() as f64 / (1 << 20) as f64
}

/// Set up `W`, warm it up, and time the set-up; returns the instance
/// of the last repetition and every repetition's duration in seconds.
fn set_up<W: Workload>(seed: u64, seconds: u64, reps: usize) -> (W, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        // One instance at a time, so set-up repetitions do not stack up
        // in peak RSS.
        drop(last.take());
        let start = Instant::now();
        let mut w = {
            let _s = span::enter("bench.setup");
            W::setup(seed)
        };
        let warm = Instant::now();
        {
            let _s = span::enter("bench.warmup_pass");
            w.pass(None, &mut Tally::default());
        }
        times.push(start.elapsed().as_secs_f64());
        let warm = warm.elapsed().as_secs_f64();
        println!("warmup {:.3}", warm * 1e3);
        let owed = (seconds as f64 / warm).ceil() as u64 * w.runs_per_pass();
        println!("pass 0 0 {owed}");
        last = Some(w);
    }
    (last.expect("at least one set-up repetition"), times)
}

fn drive<W: Workload>(name: &str, args: &Args) -> RunDoc {
    if args.trace {
        return drive_traced::<W>(name, args);
    }
    let (mut w, setups) = set_up::<W>(args.seed, args.seconds, SETUP_REPS);
    let expected = w.reference();

    let mut tally = Tally::default();
    let hung_before = workloads::hung().1;
    let (wall, passes) = timed_section(&mut w, &expected, args.seconds as f64, &mut tally);
    // Time spent waiting for a hung engine call is not time the
    // workload was running.
    let wall = wall - (workloads::hung().1 - hung_before);
    drop(w);

    let jobs = stats::sorted(&tally.job_ms);
    let metrics = vec![
        Metric::median_of("setup_s", "s", &setups),
        Metric::median_of("job_ms_p50", "ms", &jobs),
        Metric::single("job_ms_p95", "ms", stats::percentile(&jobs, 95.0)),
        Metric::single(
            "tuples_per_s",
            "1/s",
            tally.tuples as f64 / wall.as_secs_f64(),
        ),
    ];
    RunDoc {
        workload: name.to_owned(),
        trace: false,
        seed: args.seed,
        seconds: args.seconds,
        attempted: tally.attempted,
        failed: tally.failed,
        setups: setups.len(),
        passes,
        jobs: jobs.len(),
        timed_wall_s: wall.as_secs_f64(),
        hung_calls: workloads::hung().0,
        peak_rss_mib: peak_rss_mib(),
        failures: tally.failures,
        metrics,
    }
}

/// The traced run: the same passes once with the span recorder and the
/// engine's progress sampling off and once with both on, then the
/// layer ladder under the recorder; writes the trace and reports the
/// per-layer metrics.
fn drive_traced<W: Workload>(name: &str, args: &Args) -> RunDoc {
    span::enable(true);
    let (mut w, setups) = set_up::<W>(args.seed, args.seconds, 1);
    let expected = {
        let _s = span::enter("bench.reference");
        w.reference()
    };
    span::enable(false);
    let section = args.seconds as f64 / 4.0;
    let mut tally = Tally::default();

    let cpu_before = sysinfo::process_cpu();
    let (off_wall, off_passes) = timed_section(&mut w, &expected, section, &mut tally);
    let off_cpu = sysinfo::process_cpu() - cpu_before;
    let off_jobs = tally.job_ms.len();
    span::enable(true);
    workloads::trace_engine(true);
    let (on_wall, on_passes) = timed_section(&mut w, &expected, section, &mut tally);
    workloads::trace_engine(false);
    drop(w);

    let per_pass = |wall: Duration, passes: usize| wall.as_secs_f64() / passes as f64;
    let overhead = per_pass(on_wall, on_passes) / per_pass(off_wall, off_passes) - 1.0;
    let mut metrics = vec![
        Metric::single("bench.trace_overhead_share", "share", overhead),
        // Process CPU over the untraced passes: shows a wall-clock gain
        // bought with more cores or with spinning.
        Metric::single(
            "bench.cpu_ms_per_job",
            "ms",
            off_cpu.as_secs_f64() * 1e3 / off_jobs as f64,
        ),
        // Before the ladder, whose scaling rung needs gigabytes.
        Metric::single("bench.peak_rss_mib", "MiB", peak_rss_mib()),
    ];
    println!("pass {} {} 0", tally.attempted, tally.failed);
    metrics.extend(ladder::run(args.seed, &mut tally));
    span::enable(false);

    let spans = span::take();
    let table = span::self_time_table(&spans);
    let coverage = span::pass_coverage(&spans, "bench.pass");
    eprintln!(
        "self times in the traced passes sum to {:.3} of their wall-clock × generator threads",
        coverage.share()
    );
    eprintln!("self time by span name ({name}, traced passes and ladder):");
    for row in &table {
        eprintln!(
            "  {:<44} {:>7} × {:>11.3} ms inclusive {:>11.3} ms self",
            row.name,
            row.count,
            row.inclusive_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        );
    }
    let trace = obj([
        ("provenance", report::provenance()),
        ("workload", Json::Str(name.to_owned())),
        ("seed", Json::Int(args.seed as i64)),
        ("untraced_passes", Json::Int(off_passes as i64)),
        (
            "untraced_wall_ms",
            Json::Float(off_wall.as_secs_f64() * 1e3),
        ),
        ("traced_passes", Json::Int(on_passes as i64)),
        ("traced_wall_ms", Json::Float(on_wall.as_secs_f64() * 1e3)),
        ("trace_overhead_share", Json::Float(overhead)),
        ("pass_wall_ms", Json::Float(coverage.wall_ns as f64 / 1e6)),
        (
            "pass_wall_x_threads_ms",
            Json::Float(coverage.budget_ns as f64 / 1e6),
        ),
        (
            "pass_self_sum_ms",
            Json::Float(coverage.self_sum_ns as f64 / 1e6),
        ),
        (
            "self_time",
            Json::Array(
                table
                    .iter()
                    .map(|r| {
                        obj([
                            ("name", Json::Str(r.name.clone())),
                            ("count", Json::Int(r.count as i64)),
                            ("inclusive_ms", Json::Float(r.inclusive_ns as f64 / 1e6)),
                            ("self_ms", Json::Float(r.self_ns as f64 / 1e6)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "spans",
            Json::Array(
                spans
                    .iter()
                    .map(|s| {
                        obj([
                            ("id", Json::Int(i64::from(s.id))),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Int(i64::from(p))),
                            ),
                            ("name", Json::Str(s.name.clone())),
                            ("thread", Json::Int(i64::from(s.thread))),
                            ("job", Json::Int(s.job as i64)),
                            ("start_us", Json::Float(s.start_ns as f64 / 1e3)),
                            ("end_us", Json::Float(s.end_ns as f64 / 1e3)),
                            (
                                "attrs",
                                Json::Object(
                                    s.attrs
                                        .iter()
                                        .map(|(k, v)| (k.clone(), Json::Float(*v)))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    report::write_doc(&format!("trace_{name}.json"), &trace);

    RunDoc {
        workload: name.to_owned(),
        trace: true,
        seed: args.seed,
        seconds: args.seconds,
        attempted: tally.attempted,
        failed: tally.failed,
        setups: setups.len(),
        passes: off_passes + on_passes,
        jobs: tally.job_ms.len(),
        timed_wall_s: (off_wall + on_wall).as_secs_f64(),
        hung_calls: workloads::hung().0,
        peak_rss_mib: peak_rss_mib(),
        failures: tally.failures,
        metrics,
    }
}
