//! # scriptflow-datakit
//!
//! Data model substrate shared by both paradigm engines.
//!
//! The paper's two systems (Texera and Jupyter/Ray) both move *tuples* of
//! typed values between processing steps. This crate provides that common
//! vocabulary:
//!
//! * [`Value`] — a dynamically typed scalar/list cell value,
//! * [`Schema`] / [`Field`] — named, typed column descriptors,
//! * [`Tuple`] — one row bound to a shared schema,
//! * [`Batch`] — a schema-homogeneous group of tuples (the unit the
//!   workflow engine pipelines),
//! * [`ColumnarBatch`] — the same data as typed column vectors with
//!   sealed per-column min/max/null statistics, the engine's fast path
//!   (zone-map batch skipping + monomorphic kernels),
//! * [`codec`] — CSV and JSONL encode/decode used by the synthetic dataset
//!   generators and by the serialization-cost accounting,
//! * [`key`] — hashable normalized key forms for joins and partitioning,
//! * [`blockstore`] — column-major blocks with stat-carrying headers grouped
//!   under segment manifests, the durable spill format blocking operators
//!   use when they outgrow their memory budget.
//!
//! Everything here is deterministic and allocation-conscious: tuple byte
//! sizes ([`Value::encoded_len`]) feed the cluster simulator's
//! serialization/network cost model, so they must be stable across runs.

#![warn(missing_docs)]

pub mod batch;
pub mod blockstore;
pub mod codec;
pub mod column;
pub mod error;
pub mod frame;
pub mod key;
pub mod schema;
pub mod tuple;
pub mod value;

pub use batch::{Batch, BatchBuilder, SharedBatch};
pub use blockstore::{BlockAppender, CompressedBlock, Segment, SegmentManifest};
pub use column::{Bitmap, CmpOp, ColStats, ColumnVec, ColumnarBatch, StrVec};
pub use error::{DataError, DataResult};
pub use frame::{DataFrame, MergeHow};
pub use key::{HashKey, KeyRef};
pub use schema::{Field, Schema, SchemaRef};
pub use tuple::{Tuple, TupleBuilder};
pub use value::{DataType, Value};
