//! `paper_tasks`: the paper's four DAGs on the live backend.
//!
//! It is what the paper measures. UDF and `mlkit` compute and realistic
//! fan-out dominate, so engine-overhead optimisations should not move
//! it and kernel- or task-level ones should.

use std::time::{Duration, Instant};

use scriptflow_core::{BackendKind, Calibration};
use scriptflow_tasks::dice::DiceParams;
use scriptflow_tasks::gotta::GottaParams;
use scriptflow_tasks::kge::KgeParams;
use scriptflow_tasks::wef::WefParams;
use scriptflow_tasks::{dice, gotta, kge, wef, BackendRun};

use super::{edge_tuples, guarded, retry_hung, Tally, Timed, Workload};
use crate::{span, sysinfo};

// Half the sizes ISSUE 11 names (2 000 / 20 000 / 1 600 / 68 000): the
// driver's time budget leaves ~1 s for a pass, and set-up runs it thrice.
pub const DICE_PAIRS: usize = 1_000;
pub const WEF_TWEETS: usize = 10_000;
pub const GOTTA_PARAGRAPHS: usize = 800;
pub const KGE_PRODUCTS: usize = 34_000;

/// The four tasks, in pass order.
pub const TASKS: [&str; 4] = ["dice", "wef", "gotta", "kge"];

pub struct PaperTasks {
    pub cal: Calibration,
    pub dice: DiceParams,
    pub wef: WefParams,
    pub gotta: GottaParams,
    pub kge: KgeParams,
}

/// Per task, the script paradigm's rows and the simulator's rows; a
/// live run must equal both.
pub struct Expected {
    script: [Vec<String>; 4],
    sim: [Vec<String>; 4],
}

impl PaperTasks {
    /// The tasks at the given sizes, seeded with `seed`.
    pub fn sized(seed: u64, sizes: [usize; 4]) -> PaperTasks {
        let workers = sysinfo::load_width();
        let mut dice = DiceParams::new(sizes[0], workers);
        let mut wef = WefParams::new(sizes[1]);
        let mut gotta = GottaParams::new(sizes[2], workers);
        let mut kge = KgeParams::new(sizes[3], workers);
        dice.seed = seed;
        wef.seed = seed;
        gotta.seed = seed;
        kge.seed = seed;
        PaperTasks {
            cal: Calibration::paper(),
            dice,
            wef,
            gotta,
            kge,
        }
    }

    /// Run task `i` on `kind`; the job clock covers dataset generation,
    /// DAG build, the run and reading the sink, which the task drivers
    /// do in one call.
    pub fn run(
        &self,
        i: usize,
        kind: BackendKind,
    ) -> Result<(Timed<Vec<String>>, BackendRun), String> {
        retry_hung(TASKS[i], || {
            span::next_job();
            let _s = span::enter(&format!("tasks.{}.run_workflow_on", TASKS[i]));
            let start = Instant::now();
            let (cal, dice, wef, gotta, kge) = (
                self.cal.clone(),
                self.dice.clone(),
                self.wef.clone(),
                self.gotta.clone(),
                self.kge.clone(),
            );
            let run = guarded("run_workflow_on", move || match i {
                0 => dice::workflow::run_workflow_on(&dice, &cal, kind),
                1 => wef::workflow::run_workflow_on(&wef, &cal, kind),
                2 => gotta::workflow::run_workflow_on(&gotta, &cal, kind),
                _ => kge::workflow::run_workflow_on(&kge, &cal, kind),
            })?;
            Some(run.map_err(|e| e.to_string()).map(|run| {
                let timed = Timed {
                    elapsed: start.elapsed(),
                    output: run.run.output.clone(),
                    tuples: edge_tuples(&run.trace),
                };
                (timed, run)
            }))
        })
    }

    /// Task `i` as a notebook script: `(rows, wall-clock)`.
    pub fn run_script(&self, i: usize) -> Result<(Vec<String>, Duration), String> {
        let _s = span::enter(&format!("tasks.{}.run_script", TASKS[i]));
        let start = Instant::now();
        let run = match i {
            0 => dice::script::run_script(&self.dice, &self.cal),
            1 => wef::script::run_script(&self.wef, &self.cal),
            2 => gotta::script::run_script(&self.gotta, &self.cal),
            _ => kge::script::run_script(&self.kge, &self.cal),
        }
        .map_err(|e| format!("{e:?}"))?;
        Ok((run.output, start.elapsed()))
    }
}

impl Workload for PaperTasks {
    type Expected = Expected;

    fn setup(seed: u64) -> PaperTasks {
        PaperTasks::sized(
            seed,
            [DICE_PAIRS, WEF_TWEETS, GOTTA_PARAGRAPHS, KGE_PRODUCTS],
        )
    }

    fn runs_per_pass(&self) -> u64 {
        TASKS.len() as u64
    }

    fn reference(&self) -> Expected {
        let script = [0, 1, 2, 3].map(|i| {
            self.run_script(i)
                .unwrap_or_else(|e| panic!("{} script reference: {e}", TASKS[i]))
                .0
        });
        let sim = [0, 1, 2, 3].map(|i| {
            self.run(i, BackendKind::Sim)
                .unwrap_or_else(|e| panic!("{} sim reference: {e}", TASKS[i]))
                .0
                .output
        });
        Expected { script, sim }
    }

    fn pass(&mut self, expected: Option<&Expected>, tally: &mut Tally) {
        let mut job = Duration::ZERO;
        for (i, task) in TASKS.iter().enumerate() {
            let outcome = self.run(i, BackendKind::Live).map(|(timed, _)| timed);
            let _s = span::enter("bench.row_check");
            job += tally.run(task, outcome, |rows| {
                expected.is_none_or(|e| *rows == e.script[i] && *rows == e.sim[i])
            });
        }
        tally.job_ms.push(job.as_secs_f64() * 1e3);
    }
}
