//! The repo benchmark: four workloads measured end to end, a per-layer
//! ladder timed from outside the engine, and a traced run. See
//! `benchmark/README.md` for what each number means and why.
//!
//! ```text
//! benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark/run.sh                 # every workload, untraced then traced
//! benchmark/run.sh selftest        # A/A: two runs must agree within bounds
//! ```

mod child;
mod ladder;
mod parent;
mod report;
mod span;
mod stats;
mod sysinfo;
mod workloads;

use std::process::ExitCode;

/// Command-line arguments shared by every mode.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `child`, `selftest`, or none (run the named workload, or all).
    pub mode: Option<String>,
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            mode: None,
            workload: None,
            seed: 1,
            seconds: 0,
            trace: false,
        };
        let mut it = argv.into_iter();
        while let Some(a) = it.next() {
            let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
            match a.as_str() {
                "--workload" => args.workload = Some(value("--workload")?),
                "--seed" => {
                    args.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    args.seconds = value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    args.trace = match value("--trace")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                    }
                }
                "child" | "selftest" if args.mode.is_none() => args.mode = Some(a),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if args.seconds == 0 {
            args.seconds = report::Declaration::load()?.run_seconds;
        }
        Ok(args)
    }
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match (args.mode.as_deref(), &args.workload) {
            (Some("child"), _) => child::main(&args),
            (Some("selftest"), _) => parent::selftest(&args),
            (_, Some(_)) => parent::run_one(&args),
            (_, None) => parent::run_all(&args),
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        Args::parse(words.iter().map(|w| (*w).to_owned()))
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse(&[
            "--workload",
            "spill_cache",
            "--seed",
            "42",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("spill_cache"));
        assert_eq!((a.seed, a.seconds, a.trace, a.mode), (42, 15, true, None));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&["--seconds", "5", "--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "5", "--seed"]).is_err());
        assert!(parse(&["--seconds", "5", "bogus"]).is_err());
        assert_eq!(
            parse(&["selftest", "--seconds", "5"])
                .unwrap()
                .mode
                .as_deref(),
            Some("selftest")
        );
    }
}
