//! Property tests over the simulation substrate's invariants. Each is a
//! loop over seeded cases: case `i` draws its inputs from
//! `SplitMix64::new(i)`, and a failure names that seed.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use scriptflow_simcluster::des::{self, Scheduler, SimModel};
use scriptflow_simcluster::store::StoreConfig;
use scriptflow_simcluster::{CpuPool, ObjectStoreModel, SimDuration, SimTime, SplitMix64};

const CASES: u64 = 128;

/// Check `property` on `CASES` seeded input streams. The failing case's
/// own assertion is printed as it unwinds; this names the seed to replay.
fn for_seeds(property: impl Fn(&mut SplitMix64)) {
    for seed in 0..CASES {
        let outcome = catch_unwind(AssertUnwindSafe(|| property(&mut SplitMix64::new(seed))));
        assert!(
            outcome.is_ok(),
            "property failed on SplitMix64::new({seed})"
        );
    }
}

fn vec_of<T>(
    rng: &mut SplitMix64,
    len: Range<usize>,
    mut item: impl FnMut(&mut SplitMix64) -> T,
) -> Vec<T> {
    (0..rng.range(len)).map(|_| item(rng)).collect()
}

/// CPU pool conservation: total reserved CPU-time never exceeds
/// capacity × makespan, and no reservation starts before `now`.
#[test]
fn cpu_pool_conserves_capacity() {
    for_seeds(|rng| {
        let cpus = rng.range(1..8usize);
        let jobs = vec_of(rng, 1..40, |r| (r.range(1..500u64), r.range(1..4usize)));
        let mut pool = CpuPool::new(cpus);
        let mut total_work = 0u64;
        let mut makespan = SimTime::ZERO;
        for (dur, want) in jobs {
            let want = want.min(cpus);
            let r = pool.reserve(SimTime::ZERO, want, SimDuration::from_micros(dur));
            assert!(r.start >= SimTime::ZERO);
            assert_eq!(r.finish.as_micros() - r.start.as_micros(), dur);
            total_work += dur * want as u64;
            makespan = makespan.max(r.finish);
        }
        assert!(
            total_work <= cpus as u64 * makespan.as_micros(),
            "work {total_work} exceeds {cpus} CPUs over {makespan}"
        );
    });
}

/// FCFS: a later single-CPU reservation never starts before an
/// earlier one issued at the same instant.
#[test]
fn cpu_pool_is_fcfs() {
    for_seeds(|rng| {
        let durations = vec_of(rng, 2..30, |r| r.range(1..300u64));
        let mut pool = CpuPool::new(2);
        let mut last_start = SimTime::ZERO;
        for d in durations {
            let r = pool.reserve(SimTime::ZERO, 1, SimDuration::from_micros(d));
            assert!(r.start >= last_start, "start went backwards");
            last_start = r.start;
        }
    });
}

/// Object store accounting: resident bytes equal puts minus deletes,
/// and get costs grow monotonically with object size.
#[test]
fn object_store_accounting() {
    for_seeds(|rng| {
        let sizes = vec_of(rng, 1..30, |r| r.range(1..10_000u64));
        let mut store = ObjectStoreModel::new(StoreConfig {
            op_latency: SimDuration::from_micros(5),
            copy_bytes_per_sec: 1e6,
            capacity_bytes: u64::MAX,
            spill_penalty: 2.0,
        });
        let mut ids = Vec::new();
        let mut expected = 0u64;
        for s in &sizes {
            let (id, _) = store.put(*s);
            ids.push((id, *s));
            expected += s;
            assert_eq!(store.resident_bytes(), expected);
        }
        // Bigger objects cost at least as much to fetch.
        let mut by_size = ids.clone();
        by_size.sort_by_key(|(_, s)| *s);
        let costs: Vec<u64> = by_size
            .iter()
            .map(|(id, _)| store.get(*id).unwrap().as_micros())
            .collect();
        for w in costs.windows(2) {
            assert!(w[0] <= w[1]);
        }
        for (id, s) in ids {
            store.delete(id).unwrap();
            expected -= s;
            assert_eq!(store.resident_bytes(), expected);
        }
    });
}

/// DES causality: events always fire in nondecreasing time order, for
/// arbitrary schedules with chained follow-ups.
#[test]
fn des_time_is_monotone() {
    for_seeds(|rng| {
        let seeds = vec_of(rng, 1..50, |r| {
            (r.range(0..10_000u64), r.range(0..4u64) as u8)
        });
        struct Chain {
            fired: Vec<u64>,
        }
        impl SimModel for Chain {
            type Event = u8;
            fn handle(&mut self, now: SimTime, hops: u8, sched: &mut Scheduler<u8>) {
                self.fired.push(now.as_micros());
                if hops > 0 {
                    sched.schedule_after(SimDuration::from_micros(17), hops - 1);
                }
            }
        }
        let mut model = Chain { fired: Vec::new() };
        let mut sched = Scheduler::new();
        let mut expected_events = 0u64;
        for (t, hops) in &seeds {
            sched.schedule_at(SimTime::from_micros(*t), *hops);
            expected_events += 1 + u64::from(*hops);
        }
        des::run(&mut model, &mut sched);
        assert_eq!(model.fired.len() as u64, expected_events);
        for w in model.fired.windows(2) {
            assert!(w[0] <= w[1], "time went backwards: {:?}", w);
        }
    });
}
