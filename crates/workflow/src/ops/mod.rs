//! Built-in operator library.
//!
//! Texera ships a broad palette of off-the-shelf operators "ranging from
//! simple filtering and projection to visualization" (§I); this module is
//! the analogue. Every factory supports `with_cost`, `with_language`, and
//! `with_parallel_hint` style configuration so tasks can model the exact
//! operator mix the paper used.

mod aggregate;
mod hash_join;
mod io;
mod relational;
mod scan;
mod sink;
mod sort;
mod udf;
mod union;

use std::sync::Arc;

use scriptflow_datakit::{DataResult, SchemaRef};

pub use aggregate::{AggFn, AggregateOp};
pub use hash_join::{HashJoinOp, JoinType};
pub use io::{csv_scan, jsonl_scan, TextFormat, TextSinkHandle, TextSinkOp};
pub use relational::{DistinctOp, FilterOp, LimitOp, ProjectOp};
pub use scan::ScanOp;
pub use sink::{SinkHandle, SinkOp};
pub use sort::{SortOp, SortOrder};
pub use udf::{StatefulUdfOp, UdfOp};
pub use union::UnionOp;

/// Column names resolved to indices against the schema they were last
/// resolved for.
type ResolvedColumns = Option<(SchemaRef, Vec<usize>)>;

/// `names` as column indices into `schema`, memoized in `slot`: an
/// operator instance resolves its key columns once, and again only if a
/// tuple arrives under a different [`SchemaRef`].
fn resolve_columns<'a>(
    slot: &'a mut ResolvedColumns,
    schema: &SchemaRef,
    names: &[String],
) -> DataResult<&'a [usize]> {
    if !slot.as_ref().is_some_and(|(s, _)| Arc::ptr_eq(s, schema)) {
        let indices = names
            .iter()
            .map(|c| schema.index_of(c))
            .collect::<DataResult<Vec<_>>>()?;
        *slot = Some((schema.clone(), indices));
    }
    Ok(&slot.as_ref().expect("resolved above").1)
}
