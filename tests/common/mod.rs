//! Thread-drain accounting shared by the chaos suites.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// One thread-counting test at a time per suite (each integration test
/// binary compiles its own copy of this module, and so of this lock).
static COUNTING: Mutex<()> = Mutex::new(());

/// Start a thread-counting test: take the suite's lock, then the
/// baseline [`assert_threads_drained`] compares against. A test that
/// failed while holding the lock must not fail the tests after it.
/// The baseline is at least the calling thread: a `/proc/self/task` scan
/// can skip entries, the caller's too, while other threads exit under it.
pub fn thread_baseline() -> (MutexGuard<'static, ()>, usize) {
    let serial = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    (serial, live_threads().max(1))
}

/// Live engine threads of the calling test, itself included.
///
/// Every entry of `/proc/self/task` is one thread, but not every thread
/// is the engine's: libtest runs each test on a thread of its own, and
/// the tests waiting for [`COUNTING`] are such threads, coming and going
/// while the holder counts. So this counts by kernel thread name
/// (`comm`): libtest names each test's thread after the test and a
/// thread inherits the `comm` of the thread that spawned it, so a solo
/// run's pool threads carry the calling test's name; service workers name
/// themselves `wf-svc-<i>`, and the lock keeps other tests' workers out.
/// (`comm` keeps 15 bytes: a test that runs beside this suite's counting
/// tests without the lock needs a name that differs from theirs by then.)
///
/// procfs is Linux-only, hence the gate; other platforms get the
/// portable fallback below.
#[cfg(target_os = "linux")]
fn live_threads() -> usize {
    use std::fs::{read_dir, read_to_string};
    let mine = read_to_string("/proc/thread-self/comm").expect("procfs is available");
    read_dir("/proc/self/task")
        .expect("procfs is available")
        .filter_map(Result::ok)
        // A task that exits mid-scan has no `comm` left to read.
        .filter_map(|task| read_to_string(task.path().join("comm")).ok())
        .filter(|comm| *comm == mine || comm.starts_with("wf-svc-"))
        .count()
}

/// Assert this test's thread count returns to at most `baseline`,
/// polling briefly: pool threads are joined before `run_observed`
/// returns, but the OS may report the task entry a beat longer.
#[cfg(target_os = "linux")]
pub fn assert_threads_drained(baseline: usize, context: &str) {
    use std::time::{Duration, Instant};
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = live_threads();
        if now <= baseline {
            return;
        }
        if Instant::now() > deadline {
            panic!("{context}: {now} threads alive, baseline {baseline}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Portable fallback: no procfs to count tasks with. The pool joins
/// every worker handle before `run_observed` returns, so reaching this
/// call at all already proves the threads were joined — the baseline is
/// meaningless off-Linux and the assertion degrades to that proof.
#[cfg(not(target_os = "linux"))]
fn live_threads() -> usize {
    0
}

#[cfg(not(target_os = "linux"))]
pub fn assert_threads_drained(_baseline: usize, _context: &str) {}
