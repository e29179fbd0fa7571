//! # scriptflow-core
//!
//! The paper's primary contribution, as a library: a framework for
//! comparing data-science platform paradigms.
//!
//! The paper compares the script paradigm (Jupyter + Ray) and the
//! GUI-workflow paradigm (Texera) across four tasks and four experiment
//! families. This crate defines the comparison vocabulary everything
//! else plugs into:
//!
//! * [`paradigm::Paradigm`] — which side of the comparison a run belongs
//!   to,
//! * [`metrics::ExecutionMetrics`] / [`metrics::RunReport`] — the paper's
//!   §IV-B measurement set (total execution time, number of parallel
//!   processes, lines of code, number of operators),
//! * [`report`] — tables and figure series rendered exactly like the
//!   paper's artifacts (Table I, Figs. 12–14),
//! * [`experiment`] — a registry of runnable experiments, each producing
//!   one paper artifact plus the paper's reference numbers for
//!   side-by-side comparison,
//! * [`backend`] — the execution-substrate vocabulary
//!   ([`backend::BackendKind`]: deterministic simulator vs pooled live
//!   executor) that experiment configs and CLI flags thread down to the
//!   task drivers,
//! * [`calibration`] — the single home of every tunable cost constant
//!   used by the task implementations,
//! * [`fingerprint`] — the stable content-hashing vocabulary behind
//!   incremental re-execution (operator memoization keyed by
//!   [`fingerprint::OpFingerprint`]).

#![warn(missing_docs)]

pub mod backend;
pub mod calibration;
pub mod experiment;
pub mod fingerprint;
pub mod metrics;
pub mod paradigm;
pub mod report;

pub use backend::{BackendChoice, BackendKind};
pub use calibration::Calibration;
pub use experiment::{Artifact, Experiment, ExperimentMeta, Registry};
pub use fingerprint::{Fingerprinter, OpFingerprint};
pub use metrics::{ExecutionMetrics, RunReport};
pub use paradigm::Paradigm;
pub use report::{Figure, Series, Table};
