//! Process-level measurements from `/proc` and the process CPU clock
//! (64-bit Linux only, like the rest of the benchmark's environment).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `PRIO_PROCESS` of Linux; with `who` 0 it names the calling thread.
const PRIO_PROCESS: i32 = 0;

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    fn setpriority(which: i32, who: u32, priority: i32) -> i32;
}

/// User + system CPU time this process has used, threads that have
/// exited included, at the kernel's nanosecond resolution (the tick
/// counts of `/proc/self/stat` are 10 ms wide).
pub fn process_cpu() -> Duration {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, writable `struct timespec` as 64-bit
    // Linux lays it out, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(time.tv_sec as u64, time.tv_nsec as u32)
}

fn status_kib(key: &str) -> u64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has {key}"))
}

/// Peak resident set size of this process, in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    status_kib("VmHWM") * 1024
}

/// Current resident set size of this process, in bytes (`VmRSS`).
pub fn rss_bytes() -> u64 {
    status_kib("VmRSS") * 1024
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Generator threads and operator parallelism: `min(nproc, 4)`.
pub fn load_width() -> usize {
    nproc().min(4)
}

/// Keeps every core out of its idle state while a workload runs: one
/// spinning thread per core at the lowest priority (nice 19), which the
/// scheduler runs only where nothing else wants the core.
///
/// The engine's pipelines sleep and wake threads thousands of times a
/// second. On a virtual machine, waking a core that has halted costs a
/// trip through the host, and how long that takes changes with the
/// host's load for minutes at a time: the same workload measured 608 to
/// 903 ms a pass without this and 623 to 793 ms with it, and system
/// time per pass stopped tripling. It is the sandbox's stand-in for
/// `idle=poll`; it lives in the parent, so the child's CPU clock does
/// not see it and it dies with the process.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let spinners = (0..nproc())
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // SAFETY: a plain system call on integers; on Linux
                    // `who` 0 with `PRIO_PROCESS` is the calling thread.
                    let lowered = unsafe { setpriority(PRIO_PROCESS, 0, 19) } == 0;
                    // At normal priority a spinner would take half a
                    // core from the workload; better none at all.
                    // The flag publishes nothing else: relaxed is enough.
                    while lowered && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, spinners }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            // A spinner cannot panic; nothing to report either way.
            let _ = spinner.join();
        }
    }
}
