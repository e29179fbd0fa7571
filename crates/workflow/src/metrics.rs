//! Execution instrumentation: operator states and tuple counts.
//!
//! Texera's GUI "utilizes different colors to visually represent the
//! status of each operator … and provides information about the amount of
//! data being processed by each operator" (§III-A). These types are that
//! information; [`crate::gui`] renders them.

use std::iter::Sum;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, Ordering};

use scriptflow_simcluster::{Language, SimDuration, SimTime};

use crate::dag::Workflow;

/// Lifecycle state of an operator, as displayed in the GUI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperatorState {
    /// Workers created, no data processed yet.
    Initializing,
    /// At least one worker has processed data.
    Running,
    /// Execution paused by the user.
    Paused,
    /// A worker's run quantum faulted and a retry budget remains: the
    /// faulted quantum is being replayed with its held input batch (see
    /// [`crate::retry`]). Clears to [`OperatorState::Completed`] when
    /// the replay finishes the operator; exhausting the budget moves to
    /// [`OperatorState::Failed`] instead.
    Retrying,
    /// All workers finished.
    Completed,
    /// All workers finished, but an upstream failure truncated this
    /// operator's input: its output covers only the data that arrived
    /// before the failure (the drain path's partial-result marker).
    Degraded,
    /// A worker hit an error; the error is reported at this operator.
    Failed,
}

impl OperatorState {
    /// The GUI colour conventionally associated with the state.
    pub fn color(&self) -> &'static str {
        match self {
            OperatorState::Initializing => "gray",
            OperatorState::Running => "blue",
            OperatorState::Paused => "yellow",
            OperatorState::Retrying => "purple",
            OperatorState::Completed => "green",
            OperatorState::Degraded => "orange",
            OperatorState::Failed => "red",
        }
    }

    /// The state's display label, stable across releases — the string
    /// used by the JSON trace export ([`crate::trace::TraceJson`]).
    pub fn label(&self) -> &'static str {
        match self {
            OperatorState::Initializing => "Initializing",
            OperatorState::Running => "Running",
            OperatorState::Paused => "Paused",
            OperatorState::Retrying => "Retrying",
            OperatorState::Completed => "Completed",
            OperatorState::Degraded => "Degraded",
            OperatorState::Failed => "Failed",
        }
    }

    /// Parse a [`OperatorState::label`] back into a state (the JSON
    /// trace import path).
    pub fn parse(label: &str) -> Option<OperatorState> {
        match label {
            "Initializing" => Some(OperatorState::Initializing),
            "Running" => Some(OperatorState::Running),
            "Paused" => Some(OperatorState::Paused),
            "Retrying" => Some(OperatorState::Retrying),
            "Completed" => Some(OperatorState::Completed),
            "Degraded" => Some(OperatorState::Degraded),
            "Failed" => Some(OperatorState::Failed),
            _ => None,
        }
    }

    /// True for states an operator never leaves
    /// (`Completed`/`Degraded`/`Failed`).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            OperatorState::Completed | OperatorState::Degraded | OperatorState::Failed
        )
    }
}

/// Defines a counter family from one field list: a struct of `u64`
/// counters with its sum, and the lock-free mirror a live
/// [`crate::trace_live::OperatorProbe`] accumulates it in from pool
/// threads. A family whose fields carry wire keys also gets its
/// [`crate::trace::TraceJson`] key table, in key order. A new counter is
/// one more entry in its family plus the call that increments it.
macro_rules! counter_family {
    (
        $(#[$meta:meta])* $name:ident, $atomic:ident {
            $($(#[$doc:meta])* $field:ident => $key:literal,)+
        }
    ) => {
        counter_family! { $(#[$meta])* $name, $atomic { $($(#[$doc])* $field,)+ } }

        impl $name {
            /// `(wire key, value)` per counter, in `TraceJson` key order.
            pub fn wire(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$(($key, self.$field)),+].into_iter()
            }

            /// Rebuild a counter set from its wire form: `value_of` is
            /// asked for each key once.
            pub fn from_wire(mut value_of: impl FnMut(&str) -> u64) -> Self {
                $name { $($field: value_of($key)),+ }
            }
        }
    };
    (
        $(#[$meta:meta])* $name:ident, $atomic:ident {
            $($(#[$doc:meta])* $field:ident,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[$doc])* pub $field: u64,)+
        }

        impl $name {
            /// True when nothing was counted.
            pub fn is_zero(&self) -> bool {
                ($(self.$field)|+) == 0
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, other: $name) {
                $(self.$field += other.$field;)+
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                iter.fold($name::default(), |mut acc, c| {
                    acc += c;
                    acc
                })
            }
        }

        /// Lock-free mirror of the family, written from pool threads.
        /// The values publish no other data, so every access is relaxed.
        #[derive(Debug, Default)]
        pub(crate) struct $atomic {
            $(pub(crate) $field: AtomicU64,)+
        }

        impl $atomic {
            // Families counted one event at a time never add in bulk.
            #[allow(dead_code)]
            pub(crate) fn add(&self, c: &$name) {
                $(if c.$field != 0 {
                    self.$field.fetch_add(c.$field, Ordering::Relaxed);
                })+
            }

            pub(crate) fn load(&self) -> $name {
                $name { $($field: self.$field.load(Ordering::Relaxed)),+ }
            }
        }
    };
}

counter_family! {
    /// The data counters one operator accumulates while it runs —
    /// everything beyond the Fig.-9 tuple counts. One value of this
    /// type travels unchanged from the operator's
    /// [`crate::OutputCollector`] through the executors' telemetry
    /// ([`crate::trace_live::LiveTracer`] or the simulator's
    /// per-operator state) into [`OperatorMetrics`],
    /// [`crate::trace::OperatorSnapshot`], `TraceJson` and the run
    /// totals ([`RunMetrics::totals`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::OpCounters;
    ///
    /// let mut total = OpCounters::default();
    /// assert!(total.is_zero());
    /// total += OpCounters { spilled_blocks: 2, spilled_bytes: 64, ..OpCounters::default() };
    /// total += OpCounters { spilled_blocks: 1, ..OpCounters::default() };
    /// assert_eq!(total.spilled_blocks, 3);
    /// assert!(total.wire().any(|(key, v)| key == "spilledBytes" && v == 64));
    /// ```
    OpCounters, AtomicOpCounters {
        /// Whole input batches dropped by the operator's zone-map check
        /// (per-batch min/max statistics proved no row could pass) without
        /// reading their columns.
        batches_skipped => "batchesSkipped",
        /// Compressed blocks written to the spill store when the operator's
        /// buffered state outgrew its memory budget. 0 without a budget.
        spilled_blocks => "spilledBlocks",
        /// 1 when the operator was served from the result cache (it never
        /// ran; a replay source emitted its sealed output). 0 otherwise.
        cache_hits => "cacheHits",
        /// Cache entries evicted to admit the operator's published output
        /// (non-zero only when the run's cache has a byte budget; counted
        /// when the run commits).
        cache_evictions => "cacheEvictions",
        /// Compressed bytes across all spilled blocks.
        spilled_bytes => "spilledBytes",
        /// Spilled blocks read back (partition joins, run merges).
        spill_reads => "spillReads",
        /// 1 when the operator ran under a result cache, missed, and
        /// recorded its output for publication. 0 otherwise.
        cache_misses => "cacheMisses",
        /// Compressed bytes decoded from the cache to serve the operator
        /// (non-zero only with `cache_hits`).
        cache_bytes => "cacheBytes",
    }
}

counter_family! {
    /// The scheduler counters one operator accumulates: what the engine
    /// did on its behalf, beside what it computed ([`OpCounters`]). The
    /// pooled live engine fills every field; the simulator fills only
    /// the two retry counters (it has no quanta, mailboxes or
    /// backpressure), so the others read 0 there. Summed over a run
    /// ([`RunMetrics::sched_totals`]) they are the scheduling fields of
    /// [`crate::PoolStats`]. Not part of `TraceJson`.
    ///
    /// # Examples
    ///
    /// ```
    /// use scriptflow_workflow::SchedCounters;
    ///
    /// let ops = [
    ///     SchedCounters { quanta: 3, batches_sent: 2, ..SchedCounters::default() },
    ///     SchedCounters { quanta: 1, retries_attempted: 1, ..SchedCounters::default() },
    /// ];
    /// let run: SchedCounters = ops.into_iter().sum();
    /// assert_eq!((run.quanta, run.batches_sent, run.retries_attempted), (4, 2, 1));
    /// ```
    SchedCounters, AtomicSchedCounters {
        /// Run quanta the operator's tasks executed.
        quanta,
        /// Batches the operator's tasks delivered into a mailbox.
        batches_sent,
        /// Times a producer found one of the operator's mailboxes full and
        /// yielded — charged to the full mailbox's operator, the
        /// backpressure source, not the producer.
        backpressure_stalls,
        /// Faulted steps of the operator replayed under a
        /// [`crate::retry::RetryPolicy`] budget (0 without a policy).
        retries_attempted,
        /// Workers of the operator that replayed at least one faulted step
        /// and still finished cleanly.
        retries_succeeded,
    }
}

/// Per-operator runtime telemetry: the two numbers on every box in the
/// paper's Fig. 9 (input and output tuples) plus the operator's
/// [`OpCounters`].
#[derive(Debug, Clone)]
pub struct OperatorMetrics {
    /// Operator display name.
    pub name: String,
    /// Implementation language.
    pub language: Language,
    /// Configured worker count.
    pub workers: usize,
    /// Tuples received across all workers.
    pub input_tuples: u64,
    /// Tuples emitted across all workers.
    pub output_tuples: u64,
    /// Data counters summed across all workers.
    pub counters: OpCounters,
    /// Scheduler counters summed across all workers.
    pub sched: SchedCounters,
    /// Summed busy time across workers.
    pub busy: SimDuration,
    /// Current lifecycle state.
    pub state: OperatorState,
}

impl OperatorMetrics {
    /// Fraction of the makespan this operator's workers were busy, summed
    /// across workers and normalized (1.0 = every worker busy the whole
    /// run).
    pub fn utilization(&self, makespan: SimTime) -> f64 {
        let denom = makespan.as_secs_f64() * self.workers.max(1) as f64;
        if denom <= 0.0 {
            return 0.0;
        }
        self.busy.as_secs_f64() / denom
    }

    /// Fresh counters for an operator.
    pub fn new(name: impl Into<String>, language: Language, workers: usize) -> Self {
        OperatorMetrics {
            name: name.into(),
            language,
            workers,
            input_tuples: 0,
            output_tuples: 0,
            counters: OpCounters::default(),
            sched: SchedCounters::default(),
            busy: SimDuration::ZERO,
            state: OperatorState::Initializing,
        }
    }

    /// The telemetry every run of `wf` starts from, one entry per
    /// operator in [`crate::OpId`] order. Both executors and the service
    /// build their per-operator state from this.
    ///
    /// The hit counters are primed from the marker the planner leaves on
    /// a cache-aware workflow (see [`crate::cache`]): a replay node is
    /// one hit, with its served bytes. A served operator's instances
    /// never execute, so these cannot flow through an
    /// [`crate::OutputCollector`]. (Misses are primed from the plan's
    /// recordings.)
    pub fn for_workflow(wf: &Workflow) -> Vec<OperatorMetrics> {
        wf.ops()
            .iter()
            .map(|n| {
                let desc = n.desc();
                let mut m = OperatorMetrics::new(&desc.name, desc.language, n.parallelism);
                if let Some((_blocks, bytes)) = desc.cache_replay {
                    m.counters.cache_hits = 1;
                    m.counters.cache_bytes = bytes;
                }
                m
            })
            .collect()
    }
}

/// Whole-run metrics returned by the executors.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Virtual end-to-end time (submission to final result).
    pub makespan: SimTime,
    /// Per-operator counters, indexed by [`crate::OpId`].
    pub operators: Vec<OperatorMetrics>,
    /// Total parallel worker processes used (the paper's parallelism
    /// metric).
    pub total_workers: usize,
    /// DES events processed (simulated executor only; 0 for live runs).
    pub events: u64,
}

impl RunMetrics {
    /// Total tuples that reached any sink operator.
    pub fn sink_tuples(&self) -> u64 {
        self.operators
            .iter()
            .filter(|m| m.output_tuples == 0 && m.input_tuples > 0)
            .map(|m| m.input_tuples)
            .sum()
    }

    /// The run's data counters: the sum over its operators.
    pub fn totals(&self) -> OpCounters {
        self.operators.iter().map(|m| m.counters).sum()
    }

    /// The run's scheduler counters: the sum over its operators.
    pub fn sched_totals(&self) -> SchedCounters {
        self.operators.iter().map(|m| m.sched).sum()
    }

    /// Look up an operator's metrics by name.
    pub fn by_name(&self, name: &str) -> Option<&OperatorMetrics> {
        self.operators.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_colors() {
        assert_eq!(OperatorState::Running.color(), "blue");
        assert_eq!(OperatorState::Retrying.color(), "purple");
        assert_eq!(OperatorState::Completed.color(), "green");
        assert_eq!(OperatorState::Degraded.color(), "orange");
        assert_eq!(OperatorState::Failed.color(), "red");
    }

    #[test]
    fn state_labels_roundtrip() {
        for s in [
            OperatorState::Initializing,
            OperatorState::Running,
            OperatorState::Paused,
            OperatorState::Retrying,
            OperatorState::Completed,
            OperatorState::Degraded,
            OperatorState::Failed,
        ] {
            assert_eq!(OperatorState::parse(s.label()), Some(s));
        }
        assert_eq!(OperatorState::parse("nope"), None);
        assert!(OperatorState::Failed.is_terminal());
        assert!(OperatorState::Degraded.is_terminal());
        assert!(!OperatorState::Running.is_terminal());
        assert!(!OperatorState::Retrying.is_terminal());
    }

    #[test]
    fn utilization_normalizes_by_workers_and_makespan() {
        let mut m = OperatorMetrics::new("op", Language::Python, 2);
        m.busy = SimDuration::from_secs(5);
        let u = m.utilization(SimTime::from_micros(10_000_000));
        assert!((u - 0.25).abs() < 1e-9, "{u}");
        assert_eq!(m.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn counters_add_sum_and_mirror_atomically() {
        let a = OpCounters {
            batches_skipped: 2,
            spilled_bytes: 100,
            ..OpCounters::default()
        };
        let b = OpCounters {
            spilled_bytes: 28,
            cache_hits: 1,
            ..OpCounters::default()
        };
        let total: OpCounters = [a, b].into_iter().sum();
        assert_eq!(total.batches_skipped, 2);
        assert_eq!(total.spilled_bytes, 128);
        assert_eq!(total.cache_hits, 1);
        assert!(!total.is_zero() && OpCounters::default().is_zero());

        let mirror = AtomicOpCounters::default();
        mirror.add(&a);
        mirror.add(&b);
        assert_eq!(mirror.load(), total);

        // Every field has a distinct wire key and survives the wire.
        let keys: std::collections::BTreeSet<_> = total.wire().map(|(k, _)| k).collect();
        assert_eq!(keys.len(), total.wire().count());
        let back = OpCounters::from_wire(|key| {
            total.wire().find(|(k, _)| *k == key).map_or(0, |(_, v)| v)
        });
        assert_eq!(back, total);
    }

    #[test]
    fn metrics_lookup() {
        let m = RunMetrics {
            makespan: SimTime::from_micros(10),
            operators: vec![
                OperatorMetrics::new("scan", Language::Python, 2),
                OperatorMetrics::new("sink", Language::Python, 1),
            ],
            total_workers: 3,
            events: 42,
        };
        assert!(m.by_name("scan").is_some());
        assert!(m.by_name("zzz").is_none());
    }
}
