//! CPU pools: k-server resources with earliest-free FCFS assignment.

use crate::time::{SimDuration, SimTime};

/// A pool of identical CPUs on one machine.
///
/// The model is intentionally coarse but captures what the experiments
/// need: a work item asks for `n` CPUs for a duration; the pool assigns
/// the `n` earliest-free CPUs and returns when the work starts and
/// finishes. This reproduces Ray's `num_cpus` resource accounting (a task
/// declaring 1 CPU waits until one is free) and Texera's worker threads
/// competing for cores on a machine.
#[derive(Debug, Clone)]
pub struct CpuPool {
    free_at: Vec<SimTime>,
}

/// When a reserved work item runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// When the CPUs became available and the work began.
    pub start: SimTime,
    /// When the work completes and the CPUs free up.
    pub finish: SimTime,
}

impl CpuPool {
    /// A pool of `cpus` CPUs, all free at time zero.
    pub fn new(cpus: usize) -> Self {
        assert!(cpus > 0, "a CPU pool needs at least one CPU");
        CpuPool {
            free_at: vec![SimTime::ZERO; cpus],
        }
    }

    /// Total CPUs in the pool.
    pub fn capacity(&self) -> usize {
        self.free_at.len()
    }

    /// CPUs idle at time `now`.
    pub fn idle_at(&self, now: SimTime) -> usize {
        self.free_at.iter().filter(|t| **t <= now).count()
    }

    /// The earliest time at which `cpus` CPUs will be simultaneously free.
    pub fn earliest_start(&self, now: SimTime, cpus: usize) -> SimTime {
        assert!(
            cpus <= self.free_at.len(),
            "requested {cpus} CPUs from a pool of {}",
            self.free_at.len()
        );
        let mut frees: Vec<SimTime> = self.free_at.clone();
        frees.sort_unstable();
        frees[cpus - 1].max(now)
    }

    /// Reserve `cpus` CPUs for `duration`, no earlier than `now`.
    ///
    /// Picks the `cpus` earliest-free CPUs (FCFS); the work starts when the
    /// last of them frees up (or at `now`, whichever is later) and holds
    /// them until `start + duration`.
    pub fn reserve(&mut self, now: SimTime, cpus: usize, duration: SimDuration) -> Reservation {
        assert!(cpus > 0, "must reserve at least one CPU");
        assert!(
            cpus <= self.free_at.len(),
            "requested {cpus} CPUs from a pool of {}",
            self.free_at.len()
        );
        // Indices of the `cpus` earliest-free CPUs.
        let mut order: Vec<usize> = (0..self.free_at.len()).collect();
        order.sort_by_key(|&i| self.free_at[i]);
        let chosen = &order[..cpus];
        let start = chosen
            .iter()
            .map(|&i| self.free_at[i])
            .max()
            .expect("chosen is non-empty")
            .max(now);
        let finish = start + duration;
        for &i in chosen {
            self.free_at[i] = finish;
        }
        Reservation { start, finish }
    }

    /// Reserve a *malleable* work item: `total_work` CPU-seconds that may
    /// spread across up to `max_cpus` CPUs (perfectly parallel region).
    ///
    /// Used for model training/inference kernels whose internal
    /// parallelism the paper contrasts (Ray pinned PyTorch to 1 CPU;
    /// Texera let it use the whole machine).
    pub fn reserve_malleable(
        &mut self,
        now: SimTime,
        max_cpus: usize,
        total_work: SimDuration,
    ) -> Reservation {
        let cpus = max_cpus.min(self.capacity()).max(1);
        let per_cpu = total_work.scale(1.0 / cpus as f64);
        self.reserve(now, cpus, per_cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }
    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn single_cpu_serializes() {
        let mut pool = CpuPool::new(1);
        let r1 = pool.reserve(SimTime::ZERO, 1, d(100));
        let r2 = pool.reserve(SimTime::ZERO, 1, d(50));
        assert_eq!(r1.start, t(0));
        assert_eq!(r1.finish, t(100));
        assert_eq!(r2.start, t(100));
        assert_eq!(r2.finish, t(150));
    }

    #[test]
    fn parallel_cpus_overlap() {
        let mut pool = CpuPool::new(4);
        let rs: Vec<_> = (0..4)
            .map(|_| pool.reserve(SimTime::ZERO, 1, d(100)))
            .collect();
        for r in &rs {
            assert_eq!(r.start, t(0));
            assert_eq!(r.finish, t(100));
        }
        // Fifth task waits for a core.
        let r5 = pool.reserve(SimTime::ZERO, 1, d(100));
        assert_eq!(r5.start, t(100));
    }

    #[test]
    fn multi_cpu_reservation_waits_for_all() {
        let mut pool = CpuPool::new(2);
        pool.reserve(SimTime::ZERO, 1, d(100));
        // Asking for both CPUs must wait for the busy one.
        let r = pool.reserve(SimTime::ZERO, 2, d(10));
        assert_eq!(r.start, t(100));
        assert_eq!(r.finish, t(110));
    }

    #[test]
    fn now_lower_bounds_start() {
        let mut pool = CpuPool::new(2);
        let r = pool.reserve(t(500), 1, d(10));
        assert_eq!(r.start, t(500));
    }

    #[test]
    fn idle_accounting() {
        let mut pool = CpuPool::new(3);
        assert_eq!(pool.idle_at(SimTime::ZERO), 3);
        pool.reserve(SimTime::ZERO, 2, d(100));
        assert_eq!(pool.idle_at(t(50)), 1);
        assert_eq!(pool.idle_at(t(100)), 3);
    }

    #[test]
    fn earliest_start_matches_reserve() {
        let mut pool = CpuPool::new(2);
        pool.reserve(SimTime::ZERO, 1, d(100));
        pool.reserve(SimTime::ZERO, 1, d(200));
        assert_eq!(pool.earliest_start(SimTime::ZERO, 1), t(100));
        assert_eq!(pool.earliest_start(SimTime::ZERO, 2), t(200));
        let r = pool.reserve(SimTime::ZERO, 1, d(5));
        assert_eq!(r.start, t(100));
    }

    #[test]
    fn malleable_spreads_work() {
        let mut pool = CpuPool::new(8);
        // 800µs of work over up to 8 CPUs → 100µs wall.
        let r = pool.reserve_malleable(SimTime::ZERO, 8, d(800));
        assert_eq!(r.finish, t(100));
        // Limited to 1 CPU → full 800µs wall (the Ray num_cpus=1 case).
        let mut pool1 = CpuPool::new(8);
        let r1 = pool1.reserve_malleable(SimTime::ZERO, 1, d(800));
        assert_eq!(r1.finish, t(800));
    }

    #[test]
    #[should_panic(expected = "requested 3 CPUs")]
    fn over_capacity_panics() {
        CpuPool::new(2).reserve(SimTime::ZERO, 3, d(1));
    }
}
