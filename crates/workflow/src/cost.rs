//! Virtual-cost profiles and engine configuration.

use scriptflow_simcluster::{ClusterSpec, LanguageTable, SimDuration};

use crate::retry::{RetryConfig, RetryPolicy};

/// Per-operator virtual costs, calibrated in "Python time" — the
/// language table scales them for other languages.
#[derive(Debug, Clone)]
pub struct CostProfile {
    /// One-time setup per worker instance (open files, load models,
    /// allocate state).
    pub setup: SimDuration,
    /// CPU time per input tuple.
    pub per_tuple: SimDuration,
    /// Per-port overrides of `per_tuple` (port index, cost). Multi-port
    /// operators like a join often pay differently for build vs probe
    /// tuples.
    pub per_tuple_ports: Vec<(usize, SimDuration)>,
    /// Fixed overhead per batch (dispatch, framing).
    pub per_batch: SimDuration,
    /// If true, per-tuple work is *malleable*: it may spread over the idle
    /// CPUs of the worker's machine (PyTorch-style internal parallelism,
    /// which Texera leaves unrestricted — §IV-A "worker configuration").
    pub malleable: bool,
    /// Utilization exponent for malleable work: a kernel on `c` CPUs runs
    /// at `c^u` effective parallelism (single-process kernels cannot
    /// saturate a whole machine; u < 1 models the efficiency loss).
    pub malleable_utilization: f64,
    /// Place every worker of this operator on the same machine (model /
    /// data locality — large-model operators avoid re-shipping the
    /// checkpoint). Colocated malleable workers share the machine's CPUs.
    pub colocate: bool,
    /// Extra per-tuple cost paid by each worker's first
    /// [`CostProfile::warmup_tuples`] tuples (interpreter/vectorization
    /// warm-up before steady-state throughput).
    pub warmup_extra: SimDuration,
    /// How many tuples the warm-up penalty applies to.
    pub warmup_tuples: u64,
    /// Input port the warm-up applies to (a join warms up on its probe
    /// port, not while building).
    pub warmup_port: usize,
}

impl Default for CostProfile {
    /// A cheap relational operator: ~2 µs per tuple, negligible setup.
    fn default() -> Self {
        CostProfile {
            setup: SimDuration::from_micros(500),
            per_tuple: SimDuration::from_micros(2),
            per_tuple_ports: Vec::new(),
            per_batch: SimDuration::from_micros(50),
            malleable: false,
            malleable_utilization: 1.0,
            colocate: false,
            warmup_extra: SimDuration::ZERO,
            warmup_tuples: 0,
            warmup_port: 0,
        }
    }
}

impl CostProfile {
    /// Convenience: a profile with the given per-tuple cost in µs.
    pub fn per_tuple_micros(us: u64) -> Self {
        CostProfile {
            per_tuple: SimDuration::from_micros(us),
            ..CostProfile::default()
        }
    }

    /// Builder-style per-port override of the per-tuple cost.
    pub fn with_port_cost(mut self, port: usize, per_tuple: SimDuration) -> Self {
        self.per_tuple_ports.push((port, per_tuple));
        self
    }

    /// The per-tuple cost effective on `port`.
    pub fn per_tuple_on(&self, port: usize) -> SimDuration {
        self.per_tuple_ports
            .iter()
            .find(|(p, _)| *p == port)
            .map(|(_, d)| *d)
            .unwrap_or(self.per_tuple)
    }
}

/// Engine-level knobs of the simulated workflow executor.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The cluster the workflow runs on.
    pub cluster: ClusterSpec,
    /// Language cost table.
    pub languages: LanguageTable,
    /// Tuples per batch on edges (Texera auto-tunes this; the engine
    /// exposes it as a config so experiments can sweep it).
    pub batch_size: usize,
    /// Serialization cost per byte crossing an operator boundary, in
    /// seconds (charged on top of language boundary costs). This is the
    /// "runtime overhead" of §III-D.
    pub serde_secs_per_byte: f64,
    /// Fixed (de)serialization cost per tuple at each operator boundary,
    /// charged as *throughput* work on the consuming worker (Python
    /// object pickling dominates Texera's per-tuple overhead; byte-
    /// proportional costs alone underestimate it).
    pub serde_per_tuple: scriptflow_simcluster::SimDuration,
    /// When false, every edge becomes blocking: downstream operators only
    /// start after upstream completion. Ablation knob isolating the
    /// pipelining benefit the paper credits for Fig. 13a.
    pub pipelining: bool,
    /// Per-operator retry budgets for faulted run quanta (see
    /// [`crate::retry`]). Disabled by default, so configurations that
    /// never touch it reproduce the pre-retry engines exactly. Both
    /// executors honor it: the pooled live executor replays the held
    /// input batch after the backoff, the simulator re-delivers the
    /// batch as a fresh virtual quantum.
    pub retry: RetryConfig,
    /// Simulator only: when true, its edges carry sealed
    /// [`scriptflow_datakit::ColumnarBatch`] payloads, operators run their
    /// `on_batch` columnar kernels (zone-map batch skipping, monomorphic
    /// loops) and service time takes [`EngineConfig::columnar_discount`].
    /// Off by default: the row path is the calibrated baseline and the
    /// oracle the live engine is compared against. The live engine picks
    /// each edge's layout itself ([`crate::LiveExecutor::with_columnar`]).
    pub columnar: bool,
    /// Fraction of the row-path per-tuple compute cost that survives on
    /// the columnar path in the simulator (< 1.0 is a speedup; the
    /// calibrated value lives in `scriptflow_core::Calibration`). Ignored
    /// unless [`EngineConfig::columnar`] is set.
    pub columnar_discount: f64,
    /// Memory budget in bytes for each blocking operator's buffered state
    /// (hash join build table, aggregation groups, sort buffer). `None`
    /// (the default) means unbounded — the pre-spill behaviour, and the
    /// setting under which every paper anchor is reproduced
    /// byte-identically. Past the budget an operator hash-partitions its
    /// state into the compressed block store and recurses on overflow
    /// partitions. Every blocking operator of a run gets this one value
    /// (see [`crate::Operator::set_memory_budget`]).
    pub memory_budget: Option<usize>,
    /// Virtual time the simulator charges per compressed block written to
    /// the spill store. Ignored when nothing spills.
    pub spill_write_per_block: SimDuration,
    /// Virtual time the simulator charges per compressed block read back
    /// from the spill store. Ignored when nothing spills.
    pub spill_read_per_block: SimDuration,
    /// Fingerprint-keyed result cache for incremental re-execution, or
    /// `None` (the default) for the memoization-free engines under which
    /// every paper anchor is reproduced byte-identically. When set, both
    /// executors consult the cache before running: operators whose
    /// fingerprint (spec ⊕ upstream cone, Merkle-style) has a sealed
    /// entry are *served* — replaced by a replay source reading the
    /// cached segment — and the untouched cone upstream of them is
    /// skipped entirely; cache-miss operators are recorded and published
    /// back on clean completion. Share one cache across runs (or
    /// tenants, via the service) to get edit-rerun memoization.
    pub result_cache: Option<std::sync::Arc<crate::cache::ResultCache>>,
    /// Virtual time the simulator charges per compressed block decoded
    /// from a cached result segment when serving a hit. Ignored unless
    /// [`EngineConfig::result_cache`] is set.
    pub cache_read_per_block: SimDuration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cluster: ClusterSpec::paper_cluster(),
            languages: LanguageTable::default(),
            batch_size: 400,
            serde_secs_per_byte: 4e-9,
            serde_per_tuple: SimDuration::from_micros(2),
            pipelining: true,
            retry: RetryConfig::default(),
            columnar: false,
            columnar_discount: 0.55,
            memory_budget: None,
            spill_write_per_block: SimDuration::from_micros(2_500),
            spill_read_per_block: SimDuration::from_micros(1_200),
            result_cache: None,
            cache_read_per_block: SimDuration::from_micros(900),
        }
    }
}

impl EngineConfig {
    /// Config with pipelining disabled (ablation).
    pub fn without_pipelining(mut self) -> Self {
        self.pipelining = false;
        self
    }

    /// Config with serde boundary costs disabled (ablation).
    pub fn without_serde_cost(mut self) -> Self {
        self.serde_secs_per_byte = 0.0;
        self.serde_per_tuple = SimDuration::ZERO;
        self
    }

    /// Serde cost for `bytes` crossing one edge.
    pub fn serde_cost(&self, bytes: usize) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 * self.serde_secs_per_byte)
    }

    /// Config with the same [`RetryPolicy`] for every operator.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = RetryConfig::uniform(policy);
        self
    }

    /// Config with the simulator's columnar batch path toggled (see
    /// [`EngineConfig::columnar`]).
    pub fn with_columnar(mut self, enabled: bool) -> Self {
        self.columnar = enabled;
        self
    }

    /// Config with a blocking-operator memory budget (see
    /// [`EngineConfig::memory_budget`]).
    pub fn with_memory_budget(mut self, bytes: Option<usize>) -> Self {
        self.memory_budget = bytes;
        self
    }

    /// Config serving and recording through `cache` (see
    /// [`EngineConfig::result_cache`]).
    pub fn with_result_cache(mut self, cache: std::sync::Arc<crate::cache::ResultCache>) -> Self {
        self.result_cache = Some(cache);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_is_cheap() {
        let p = CostProfile::default();
        assert!(p.per_tuple < SimDuration::from_millis(1));
        assert!(!p.malleable);
    }

    #[test]
    fn builders() {
        let p = CostProfile::per_tuple_micros(10).with_port_cost(1, SimDuration::from_micros(3));
        assert_eq!(p.per_tuple, SimDuration::from_micros(10));
        assert_eq!(p.per_tuple_on(0), SimDuration::from_micros(10));
        assert_eq!(p.per_tuple_on(1), SimDuration::from_micros(3));
    }

    #[test]
    fn serde_cost_scales() {
        let cfg = EngineConfig::default();
        assert!(cfg.serde_cost(1_000_000) > cfg.serde_cost(1_000));
        let off = EngineConfig::default().without_serde_cost();
        assert_eq!(off.serde_cost(1_000_000), SimDuration::ZERO);
    }

    #[test]
    fn ablation_toggles() {
        let cfg = EngineConfig::default().without_pipelining();
        assert!(!cfg.pipelining);
        assert!(EngineConfig::default().pipelining);
    }

    #[test]
    fn columnar_defaults_off_and_builder_enables() {
        let cfg = EngineConfig::default();
        assert!(
            !cfg.columnar,
            "default config must reproduce the row-path engines"
        );
        assert!(cfg.columnar_discount > 0.0 && cfg.columnar_discount < 1.0);
        assert!(EngineConfig::default().with_columnar(true).columnar);
    }

    #[test]
    fn retry_defaults_off_and_builder_enables() {
        assert!(
            !EngineConfig::default().retry.enabled(),
            "default config must reproduce the pre-retry engines"
        );
        let cfg = EngineConfig::default().with_retry(RetryPolicy::attempts(3));
        assert_eq!(cfg.retry.policy.max_attempts, 3);
    }

    #[test]
    fn result_cache_defaults_off_and_builder_enables() {
        let cfg = EngineConfig::default();
        assert!(
            cfg.result_cache.is_none(),
            "default config must reproduce the memoization-free engines"
        );
        assert!(cfg.cache_read_per_block > SimDuration::ZERO);
        let cache = std::sync::Arc::new(crate::cache::ResultCache::new());
        let on = EngineConfig::default().with_result_cache(cache);
        assert!(on.result_cache.is_some());
    }

    #[test]
    fn memory_budget_defaults_unbounded_and_builder_sets() {
        let cfg = EngineConfig::default();
        assert!(
            cfg.memory_budget.is_none(),
            "default config must reproduce the pre-spill engines"
        );
        assert!(cfg.spill_write_per_block > SimDuration::ZERO);
        assert!(cfg.spill_read_per_block > SimDuration::ZERO);
        let tiny = EngineConfig::default().with_memory_budget(Some(4096));
        assert_eq!(tiny.memory_budget, Some(4096));
    }
}
