//! In-memory span recorder for the traced pass.
//!
//! The benchmark wraps every call it makes into a layer of the program
//! in a span: name, start, end, the span that caused it, and the job it
//! belongs to. With the recorder off (every end-to-end run) entering a
//! span is one atomic load. Spans live in memory until the run ends and
//! are then written out with a self-time table: a span's self time is
//! its duration minus the part of it its child spans cover.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the recorder's
/// epoch (the first span of the process).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub thread: u32,
    pub job: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Numbers attached by the caller, e.g. an operator's busy seconds
    /// on its run span.
    pub attrs: Vec<(String, f64)>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static NEXT_JOB: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static JOB: Cell<u64> = const { Cell::new(0) };
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::SeqCst);
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    // A panic while the lock is held can only happen mid-`push`; the
    // vector is still valid, so recover it.
    SPANS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Turn recording on or off. Spans already open keep recording.
pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// True while the traced pass is recording.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// Start a new job: every span this thread opens from now on carries
/// its identifier.
pub fn next_job() {
    if enabled() {
        JOB.with(|j| j.set(NEXT_JOB.fetch_add(1, Ordering::SeqCst)));
    }
}

/// This thread's innermost open span, to hand to a thread it spawns.
pub fn current() -> Option<u32> {
    STACK.with(|s| s.borrow().last().copied())
}

/// Open this thread's spans under `parent` (a span of the thread that
/// spawned it) instead of as roots.
pub fn adopt(parent: Option<u32>) {
    if let Some(id) = parent {
        STACK.with(|s| s.borrow_mut().push(id));
    }
}

/// An open span; closes when dropped.
pub struct Guard(Option<u32>);

/// Open a span named `name` under this thread's innermost open span.
pub fn enter(name: &str) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let start_ns = now_ns();
    let mut all = spans();
    let id = all.len() as u32;
    all.push(Span {
        id,
        parent,
        name: name.to_owned(),
        thread: THREAD.with(|t| *t),
        job: JOB.with(Cell::get),
        start_ns,
        end_ns: start_ns,
        attrs: Vec::new(),
    });
    drop(all);
    STACK.with(|s| s.borrow_mut().push(id));
    Guard(Some(id))
}

impl Guard {
    /// Attach a number to the span (ignored while recording is off).
    pub fn attr(&self, key: &str, value: f64) {
        if let Some(id) = self.0 {
            if let Some(span) = spans().get_mut(id as usize) {
                span.attrs.push((key.to_owned(), value));
            }
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(id) = self.0 {
            let end = now_ns();
            if let Some(span) = spans().get_mut(id as usize) {
                span.end_ns = end;
            }
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if s.last() == Some(&id) {
                    s.pop();
                }
            });
        }
    }
}

/// Every span recorded so far, leaving the recorder empty.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *spans())
}

/// Self time of every span, in the order of `spans`: the span's
/// duration minus the union of its children's intervals, each clipped
/// to the span. Children that overlap one another (spans opened on
/// other threads under one parent) are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// One line of the self-time table: every span of one name.
#[derive(Debug, Clone, PartialEq)]
pub struct NameTotals {
    pub name: String,
    pub count: u64,
    pub inclusive_ns: u64,
    pub self_ns: u64,
}

/// Inclusive and self time per span name, largest self time first
/// (ties by name, so the table repeats exactly).
pub fn self_time_table(spans: &[Span]) -> Vec<NameTotals> {
    let mut by_name: BTreeMap<&str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let row = by_name.entry(&s.name).or_insert_with(|| NameTotals {
            name: s.name.clone(),
            count: 0,
            inclusive_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.inclusive_ns += s.end_ns - s.start_ns;
        row.self_ns += self_ns;
    }
    let mut rows: Vec<NameTotals> = by_name.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.name.cmp(&b.name)));
    rows
}

/// How the self times inside the spans named `root` add up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coverage {
    /// Wall-clock of the roots.
    pub wall_ns: u64,
    /// Wall-clock of each root times the threads that worked under it.
    pub budget_ns: u64,
    /// Self time of every span in the roots' subtrees.
    pub self_sum_ns: u64,
}

impl Coverage {
    /// Self-time sum over wall-clock × threads; 1.0 when every thread
    /// was inside some span for the whole of its root.
    pub fn share(&self) -> f64 {
        self.self_sum_ns as f64 / self.budget_ns as f64
    }
}

/// [`Coverage`] of the subtrees under the spans named `root`. The
/// threads of a root are those that opened a span directly under it
/// from another thread, or the root's own thread when none did.
pub fn pass_coverage(spans: &[Span], root: &str) -> Coverage {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let parent_of = |s: &Span| s.parent.and_then(|p| index.get(&p)).map(|&i| &spans[i]);
    let root_of = |s: &Span| {
        let mut at = Some(s);
        while let Some(span) = at {
            if span.name == root {
                return Some(span.id);
            }
            at = parent_of(span);
        }
        None
    };
    let mut workers: BTreeMap<u32, std::collections::BTreeSet<u32>> = BTreeMap::new();
    let mut self_sum_ns = 0;
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let Some(root_id) = root_of(s) else { continue };
        self_sum_ns += self_ns;
        let threads = workers.entry(root_id).or_default();
        if parent_of(s).is_some_and(|p| p.id == root_id && p.thread != s.thread) {
            threads.insert(s.thread);
        }
    }
    let mut cov = Coverage {
        wall_ns: 0,
        budget_ns: 0,
        self_sum_ns,
    };
    for (root_id, threads) in &workers {
        let r = &spans[index[root_id]];
        let wall = r.end_ns - r.start_ns;
        cov.wall_ns += wall;
        cov.budget_ns += wall * threads.len().max(1) as u64;
    }
    cov
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            thread: 0,
            job: 0,
            start_ns,
            end_ns,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, None, "pass", 0, 100),
            span(1, Some(0), "build", 10, 30),
            span(2, Some(0), "run", 30, 90),
            span(3, Some(2), "wait", 40, 60),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 40, 20]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = [
            span(0, None, "pass", 100, 200),
            span(1, Some(0), "a", 110, 150),
            span(2, Some(0), "b", 140, 170),
            // Starts before and ends after its parent: clipped to it.
            span(3, Some(0), "c", 50, 105),
            span(4, Some(0), "d", 190, 400),
        ];
        // Covered: [100,105) + [110,170) + [190,200) = 75.
        assert_eq!(self_times(&spans)[0], 25);
    }

    #[test]
    fn missing_parent_makes_a_root() {
        let spans = [span(5, Some(99), "orphan", 0, 10)];
        assert_eq!(self_times(&spans), vec![10]);
    }

    #[test]
    fn table_groups_by_name_and_sorts_by_self_time() {
        let spans = [
            span(0, None, "pass", 0, 100),
            span(1, Some(0), "run", 0, 40),
            span(2, Some(0), "run", 40, 90),
        ];
        let table = self_time_table(&spans);
        assert_eq!(table[0].name, "run");
        assert_eq!(
            (table[0].count, table[0].inclusive_ns, table[0].self_ns),
            (2, 90, 90)
        );
        assert_eq!((table[1].name.as_str(), table[1].self_ns), ("pass", 10));
    }

    #[test]
    fn coverage_counts_worker_threads_under_the_root() {
        let mut spans = vec![
            span(0, None, "setup", 0, 50),
            span(1, None, "pass", 100, 200),
            span(2, Some(1), "gen", 100, 200),
            span(3, Some(1), "gen", 100, 190),
            span(4, Some(3), "job", 120, 180),
        ];
        spans[2].thread = 1;
        spans[3].thread = 2;
        spans[4].thread = 2;
        let cov = pass_coverage(&spans, "pass");
        assert_eq!(
            (cov.wall_ns, cov.budget_ns, cov.self_sum_ns),
            (100, 200, 190)
        );
        assert!((cov.share() - 0.95).abs() < 1e-12);
        // One thread: the subtree's self times are the root's duration.
        let solo = [
            span(0, None, "pass", 0, 100),
            span(1, Some(0), "run", 10, 60),
        ];
        assert_eq!(pass_coverage(&solo, "pass").share(), 1.0);
    }

    #[test]
    fn recorder_nests_spans_per_thread() {
        // The only test that touches the global recorder.
        enable(true);
        next_job();
        {
            let outer = enter("outer");
            outer.attr("x", 1.5);
            let _inner = enter("inner");
        }
        enable(false);
        let _off = enter("off");
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[0].attrs, vec![("x".to_owned(), 1.5)]);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[1].job, spans[0].job);
        assert!(spans[0].job > 0);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
