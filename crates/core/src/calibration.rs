//! Calibrated cost constants for the task implementations.
//!
//! Every virtual-time constant the four tasks charge lives here, with the
//! paper anchor it was fitted against. The experiment suite reads these
//! through [`Calibration::paper`]; ablation studies perturb individual
//! fields. Times are *Python-calibrated* — the language table scales
//! them for operators implemented in other languages.
//!
//! Fitting notes (all anchors from §IV of the paper):
//!
//! * **DICE** — script is linear at ≈1.18 s/file-pair with ≈3 s fixed
//!   (Fig. 13a: 14.71 s @10 → 239.54 s @200); the workflow's pipelined
//!   stages overlap to ≈0.54 s/pair (10.73 → 107.83).
//! * **WEF** — both paradigms are linear at ≈6.44 s/tweet with no
//!   parallelism (Fig. 13b), Texera ≈2% ahead.
//! * **GOTTA** — script ≈100 s/paragraph with a ≈63 s floor from putting
//!   the 1.59 GB model in the object store and paying a get per task
//!   (Fig. 13d); Texera broadcasts once and lets the kernel use the
//!   machine (≈26 s/paragraph, ≈40 s floor).
//! * **KGE** — script ≈13.4–14.4 ms/product (Fig. 13c); the workflow's
//!   dominant scoring operator plus per-tuple serde makes it ≈28–50%
//!   slower; swapping the Python join pipeline for Scala recovers ≈28 s
//!   at 6.8 k but is hidden behind the scoring bottleneck at 68 k
//!   (Table I).

use scriptflow_simcluster::SimDuration;

/// The complete constant table.
#[derive(Debug, Clone)]
pub struct Calibration {
    // ----- DICE (data wrangling) ------------------------------------
    /// Script: parse one annotation+text file pair (I/O + regex).
    pub dice_script_parse_per_pair: SimDuration,
    /// Script: wrangle (filter/join/link) one file pair's annotations.
    pub dice_script_wrangle_per_pair: SimDuration,
    /// Script: per-pair driver-side result collection (not distributed).
    pub dice_script_collect_per_pair: SimDuration,
    /// Script: fixed driver setup.
    pub dice_script_setup: SimDuration,
    /// Workflow: per-annotation cost of the parse operator.
    pub dice_wf_parse_per_annotation: SimDuration,
    /// Workflow: per-annotation cost of the event-entity join (probe).
    pub dice_wf_join_per_annotation: SimDuration,
    /// Workflow: per-sentence cost of building the link operator's
    /// boundary index (paid by every link worker — sentences broadcast).
    pub dice_wf_link_build_per_sentence: SimDuration,
    /// Workflow: per-annotation cost of probing the link operator.
    pub dice_wf_link_probe_per_annotation: SimDuration,

    // ----- WEF (model training) -------------------------------------
    /// Fine-tuning work per (tweet × epoch × model-head).
    pub wef_work_per_tweet_epoch: SimDuration,
    /// Training epochs (paper-equivalent fine-tuning budget).
    pub wef_epochs: usize,
    /// Fixed cost of loading one pre-trained base model.
    pub wef_model_load: SimDuration,
    /// Multiplier on the workflow engine's training throughput relative
    /// to the notebook (Texera's iterative feeding beats the hand-built
    /// DataLoader by ≈2%, Fig. 13b).
    pub wef_wf_train_discount: f64,

    // ----- GOTTA (one-step inference) --------------------------------
    /// Generation work per question at 1 CPU, before batching
    /// amortization.
    pub gotta_work_per_question: SimDuration,
    /// Questions prepared per paragraph.
    pub gotta_questions_per_paragraph: usize,
    /// Script: fixed driver setup (tokenizer init, model load from disk
    /// before the object-store put).
    pub gotta_script_setup: SimDuration,
    /// Workflow: one-time model load/init per inference worker.
    pub gotta_wf_model_setup: SimDuration,
    /// Kernel batching amortization: total generation work scales as
    /// `P^exponent` in the paragraph count (both paradigms' Fig. 13d
    /// curves are sublinear — larger inputs fill the generation batches
    /// better).
    pub gotta_script_batch_exponent: f64,
    /// Same amortization exponent for the workflow engine's feeding.
    pub gotta_wf_batch_exponent: f64,
    /// Malleable-kernel utilization exponent (PyTorch on `c` CPUs runs at
    /// `c^u` effective parallelism when Texera leaves it unrestricted).
    pub gotta_malleable_utilization: f64,
    /// Serialized model size (the paper's 1.59 GB BART checkpoint).
    pub gotta_model_bytes: u64,

    // ----- KGE (multi-step inference) ---------------------------------
    /// Script per-product cost (vectorized pandas pipeline + scoring).
    pub kge_script_per_product: SimDuration,
    /// Workflow: per-product cost of the dominant scoring operator.
    pub kge_wf_score_per_product: SimDuration,
    /// Workflow: per-product cost of the stock filter operator.
    pub kge_wf_filter_per_product: SimDuration,
    /// Workflow: steady-state per-product cost of the embedding join
    /// (probe side), in Python — the Table I swap target.
    pub kge_wf_join_per_product: SimDuration,
    /// Python join vectorization warm-up: extra per-tuple cost for the
    /// first [`Calibration::kge_py_warmup_tuples`] probes. This is what
    /// makes the Scala swap matter at 6.8k but vanish at 68k (Table I).
    pub kge_py_join_warmup: SimDuration,
    /// Number of probe tuples the warm-up penalty covers.
    pub kge_py_warmup_tuples: u64,
    /// Workflow: per-product cost of the top-k ranking operator.
    pub kge_wf_rank_per_product: SimDuration,
    /// Workflow: per-product cost of the reverse-lookup operator.
    pub kge_wf_lookup_per_product: SimDuration,
    /// Workflow: per-entry cost of building the embedding hash table.
    pub kge_wf_build_per_entry: SimDuration,
    /// Per-worker setup of a Python UDF operator (interpreter boot +
    /// numpy/torch imports).
    pub kge_py_op_setup: SimDuration,
    /// Per-worker setup of a built-in Scala operator.
    pub kge_scala_op_setup: SimDuration,
    /// Embedding vector dimensionality in the synthetic catalogue.
    pub kge_embedding_dim: usize,
    /// Results returned (top-k).
    pub kge_top_k: usize,

    // ----- Engine-level -----------------------------------------------
    /// Per-tuple (de)serialization cost at every workflow operator
    /// boundary, Python side (§III-D runtime overhead).
    pub wf_serde_per_tuple: SimDuration,
    /// Workflow edge batch size.
    pub wf_batch_size: usize,
    /// Workflow pipelining (ablation knob: false inserts a stage barrier
    /// on every edge).
    pub wf_pipelining: bool,
    /// Simulator's columnar batch path (zone-map skipping + column
    /// kernels + the discount below); the live engine picks its layout
    /// from the DAG and ignores it. False for the paper fit — every
    /// Fig. 13/Table I anchor was calibrated against the row engine — so
    /// enabling it is an explicit ablation, not a drift of the baselines.
    pub wf_columnar: bool,
    /// Fraction of the row-path per-tuple compute cost remaining on the
    /// columnar path (simulator discount; fitted against the live
    /// engine's measured row-vs-columnar throughput ratio on the
    /// relational kernels).
    pub wf_columnar_discount: f64,
    /// Memory budget (bytes) for every blocking workflow operator.
    /// `None` for the paper fit — every anchor ran fully in RAM — so a
    /// budget is an explicit ablation (the fig13-spill study), never a
    /// drift of the baselines.
    pub wf_memory_budget: Option<usize>,
    /// Virtual I/O charged per compressed spill block written (flush to
    /// the block store). Inert while `wf_memory_budget` is `None`.
    pub wf_spill_write_per_block: SimDuration,
    /// Virtual I/O charged per spilled block read back (partition joins,
    /// run merges).
    pub wf_spill_read_per_block: SimDuration,
    /// Fingerprint-keyed operator result cache (incremental
    /// re-execution). False for the paper fit — every anchor is a cold,
    /// memoization-free run — so enabling it is an explicit edit-rerun
    /// study, never a drift of the baselines.
    pub wf_result_cache: bool,
    /// Virtual I/O charged per compressed cached block decoded when a
    /// cache hit serves an operator's sealed output. Inert while
    /// `wf_result_cache` is false.
    pub wf_cache_read_per_block: SimDuration,
    /// Byte budget for the result cache; `None` (the paper fit and the
    /// default) leaves it unbounded. When set, the cache evicts
    /// big-and-cheap-to-recompute entries first (cost-aware, priced by
    /// this calibration's per-operator cost model). Inert while
    /// `wf_result_cache` is false.
    pub wf_cache_byte_budget: Option<u64>,
}

impl Calibration {
    /// The constants fitted to the paper's reported numbers.
    pub fn paper() -> Self {
        Calibration {
            dice_script_parse_per_pair: SimDuration::from_millis(430),
            dice_script_wrangle_per_pair: SimDuration::from_millis(635),
            dice_script_collect_per_pair: SimDuration::from_millis(120),
            dice_script_setup: SimDuration::from_millis(2_500),
            dice_wf_parse_per_annotation: SimDuration::from_micros(16_000),
            dice_wf_join_per_annotation: SimDuration::from_micros(11_000),
            dice_wf_link_build_per_sentence: SimDuration::from_micros(25_000),
            dice_wf_link_probe_per_annotation: SimDuration::from_micros(10_000),

            wef_work_per_tweet_epoch: SimDuration::from_micros(533_000),
            wef_epochs: 3,
            wef_model_load: SimDuration::from_millis(1_500),
            wef_wf_train_discount: 0.978,

            gotta_work_per_question: SimDuration::from_micros(47_930_000),
            gotta_questions_per_paragraph: 3,
            gotta_script_setup: SimDuration::from_micros(17_400_000),
            gotta_wf_model_setup: SimDuration::from_secs(30),
            gotta_script_batch_exponent: 0.811,
            gotta_wf_batch_exponent: 0.932,
            gotta_malleable_utilization: 0.72,
            gotta_model_bytes: 1_590_000_000,

            kge_script_per_product: SimDuration::from_micros(14_150),
            kge_wf_score_per_product: SimDuration::from_micros(18_000),
            kge_wf_filter_per_product: SimDuration::from_micros(500),
            kge_wf_join_per_product: SimDuration::from_micros(1_500),
            kge_py_join_warmup: SimDuration::from_micros(18_000),
            kge_py_warmup_tuples: 6_800,
            kge_wf_rank_per_product: SimDuration::from_micros(900),
            kge_wf_lookup_per_product: SimDuration::from_micros(850),
            kge_wf_build_per_entry: SimDuration::from_micros(280),
            kge_py_op_setup: SimDuration::from_micros(2_500_000),
            kge_scala_op_setup: SimDuration::from_micros(200_000),
            kge_embedding_dim: 16,
            kge_top_k: 10,

            wf_serde_per_tuple: SimDuration::from_micros(950),
            wf_batch_size: 400,
            wf_pipelining: true,
            wf_columnar: false,
            wf_columnar_discount: 0.55,
            wf_memory_budget: None,
            wf_spill_write_per_block: SimDuration::from_micros(2_500),
            wf_spill_read_per_block: SimDuration::from_micros(1_200),
            wf_result_cache: false,
            wf_cache_read_per_block: SimDuration::from_micros(900),
            wf_cache_byte_budget: None,
        }
    }

    /// The paper constants with the columnar batch path enabled (the
    /// EXPERIMENTS.md columnar on/off ablation).
    pub fn paper_columnar() -> Self {
        Calibration {
            wf_columnar: true,
            ..Calibration::paper()
        }
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_are_positive() {
        let c = Calibration::paper();
        assert!(c.dice_script_parse_per_pair > SimDuration::ZERO);
        assert!(c.wef_epochs > 0);
        assert!(c.gotta_questions_per_paragraph > 0);
        assert!(c.kge_embedding_dim > 0);
        assert!(c.kge_top_k > 0);
        assert!(c.wf_batch_size > 0);
        assert!(c.wf_columnar_discount > 0.0 && c.wf_columnar_discount < 1.0);
    }

    #[test]
    fn paper_fit_keeps_memory_unbounded() {
        let c = Calibration::paper();
        assert!(
            c.wf_memory_budget.is_none(),
            "every Fig. 13/Table I anchor ran fully in RAM"
        );
        assert!(c.wf_spill_write_per_block > SimDuration::ZERO);
        assert!(c.wf_spill_read_per_block > SimDuration::ZERO);
    }

    #[test]
    fn paper_fit_keeps_result_cache_off() {
        let c = Calibration::paper();
        assert!(
            !c.wf_result_cache,
            "every Fig. 13/Table I anchor is a cold, memoization-free run"
        );
        assert!(c.wf_cache_read_per_block > SimDuration::ZERO);
        // Serving a cached block must be cheaper than the write/read
        // spill round-trip it replaces, or memoization could never pay.
        assert!(c.wf_cache_read_per_block < c.wf_spill_write_per_block);
    }

    #[test]
    fn paper_fit_keeps_columnar_off() {
        assert!(
            !Calibration::paper().wf_columnar,
            "the Fig. 13/Table I anchors were fitted against the row engine"
        );
        let on = Calibration::paper_columnar();
        assert!(on.wf_columnar);
        assert_eq!(on.wf_batch_size, Calibration::paper().wf_batch_size);
    }

    #[test]
    fn script_kge_anchor_is_close_to_fig13c() {
        // 68k products at the calibrated per-product rate must land near
        // the paper's 975.46 s (within a scheduling-overhead margin).
        let c = Calibration::paper();
        let total = c.kge_script_per_product.as_secs_f64() * 68_000.0;
        assert!((900.0..1050.0).contains(&total), "total {total}");
    }

    #[test]
    fn wef_anchor_matches_fig13b_slope() {
        // ≈6.44 s/tweet over 4 heads: per-head-epoch cost × heads ×
        // epochs should be near that slope.
        let c = Calibration::paper();
        let per_tweet = c.wef_work_per_tweet_epoch.as_secs_f64() * 4.0 * c.wef_epochs as f64;
        assert!((6.0..7.0).contains(&per_tweet), "per tweet {per_tweet}");
    }
}
