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
pub use hash_join::HashJoinOp;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheReplayOp, ResultCache};
    use crate::operator::OperatorFactory;
    use scriptflow_core::fingerprint::OpFingerprint;
    use scriptflow_datakit::{Batch, CmpOp, DataType, Schema, Value};
    use scriptflow_simcluster::{Language, SimDuration};

    /// One instance of each of the 14 built-in factories (`FilterOp` in
    /// both its forms).
    fn built_ins() -> Vec<Arc<dyn OperatorFactory>> {
        let schema = Schema::of(&[("id", DataType::Int), ("name", DataType::Str)]);
        let rows = [(1, "a"), (2, "b"), (3, "c")]
            .iter()
            .map(|&(id, name)| vec![Value::Int(id), Value::Str(name.into())])
            .collect();
        let batch = Batch::from_rows(schema.clone(), rows).unwrap();
        let cache = ResultCache::new();
        cache.publish(OpFingerprint(7), &schema, batch.tuples());
        let entry = cache.lookup(OpFingerprint(7)).unwrap();
        vec![
            Arc::new(ScanOp::new("scan", batch)),
            Arc::new(FilterOp::cmp("cmp", "id", CmpOp::Gt, Value::Int(1))),
            Arc::new(FilterOp::new("closure", |_| Ok(true))),
            Arc::new(ProjectOp::new("project", &["name"])),
            Arc::new(LimitOp::new("limit", 2)),
            Arc::new(DistinctOp::new("distinct", &["id"])),
            Arc::new(SortOp::new("sort", &[("id", SortOrder::Descending)])),
            Arc::new(AggregateOp::new(
                "aggregate",
                &["name"],
                vec![AggFn::Count("n".into()), AggFn::Sum("id".into())],
            )),
            Arc::new(HashJoinOp::new("join", &["id"], &["id"])),
            Arc::new(UnionOp::new("union", 3)),
            Arc::new(UdfOp::new("udf", (*schema).clone(), |t, _, out| {
                out.emit(t);
                Ok(())
            })),
            Arc::new(
                StatefulUdfOp::new(
                    "stateful",
                    2,
                    (*schema).clone(),
                    || (),
                    |_, _, _, _| Ok(()),
                    |_, _, _| Ok(()),
                )
                .with_blocking_ports(vec![0]),
            ),
            Arc::new(SinkOp::new("sink")),
            Arc::new(TextSinkOp::new("text", TextFormat::Csv)),
            Arc::new(CacheReplayOp::new(
                "replay",
                schema,
                entry,
                SimDuration::from_micros(900),
            )),
        ]
    }

    /// The descriptor contract: every field of every built-in factory's
    /// descriptor is what its getter returned before the descriptor
    /// existed, and every `fingerprint()` is the value recorded at that
    /// commit (b107d71) — on-disk cache keys cannot drift. Columns: name,
    /// ports, blocking ports, setup µs, per-tuple µs, batch kernel,
    /// source, commutative inputs, shared state, replay marker, digest.
    #[test]
    fn descriptors_and_fingerprints_match_the_recorded_table() {
        type Row = (
            &'static str,
            usize,
            &'static [usize],
            (u64, u64),
            [bool; 4],
            Option<(u64, u64)>,
            u128,
        );
        const KERNEL: [bool; 4] = [true, false, false, false];
        const SOURCE: [bool; 4] = [false, true, false, false];
        const COMMUTES: [bool; 4] = [false, false, true, false];
        const SHARED: [bool; 4] = [false, false, false, true];
        const PLAIN: [bool; 4] = [false; 4];
        #[rustfmt::skip]
        let table: [Row; 15] = [
            ("scan", 0, &[], (500, 4), SOURCE, None, 0xafc94173de29b80bf537161e99d5ccc7),
            ("cmp", 1, &[], (500, 2), KERNEL, None, 0xb5db0f333a555c78ec7e1c23d5e63bc3),
            ("closure", 1, &[], (500, 2), PLAIN, None, 0xefca5ddb419f114fb7c3d0c622fe1879),
            ("project", 1, &[], (500, 1), PLAIN, None, 0xd19307e7564f17ca5df0bf0a4d2fdf16),
            ("limit", 1, &[], (500, 2), PLAIN, None, 0x214f797c4f26b8adcf93ec334b2653a0),
            ("distinct", 1, &[], (500, 2), PLAIN, None, 0x51e83714d6e5394a3a15d75ce00813fd),
            ("sort", 1, &[0], (500, 3), PLAIN, None, 0xf638990b414a2f4e7193125ca2b4dcb3),
            ("aggregate", 1, &[0], (500, 2), KERNEL, None, 0xeef5794d7d7ea5cf1ed5e10eac417427),
            ("join", 2, &[0], (500, 3), KERNEL, None, 0x6cb9c6e490a6ffbf98909f564344ae05),
            ("union", 3, &[], (500, 1), COMMUTES, None, 0x6748bf21d1ca6d7f9ff1a0dde527c3d3),
            ("udf", 1, &[], (500, 5), PLAIN, None, 0xbc704ee94b51830a6b8a84c473b2e5ad),
            ("stateful", 2, &[0], (500, 5), PLAIN, None, 0xbcee5a3db9d0260881604173017e6c63),
            ("sink", 1, &[], (500, 1), SHARED, None, 0x40ceff6675b77168b11f5f9b70214d3d),
            // `shared` was false at b107d71: the buffer was shared and unreported.
            ("text", 1, &[], (500, 8), SHARED, None, 0xb892556c7949aa533342469a82f70ee8),
            // The entry's one block stored 34 bytes as PackBits'd tagged rows.
            ("replay", 0, &[], (900, 0), SOURCE, Some((1, 21)), 0x0583d40b045d4b860371d121cfca0c7c),
        ];
        let factories = built_ins();
        assert_eq!(factories.len(), table.len());
        for (f, (name, ports, blocking, (setup, per_tuple), flags, replay, digest)) in
            factories.iter().zip(table)
        {
            let d = f.descriptor();
            assert_eq!(d.name, name);
            assert_eq!(d.input_ports, ports, "{name}");
            assert_eq!(d.blocking_ports, blocking, "{name}");
            assert_eq!(d.language, Language::Python, "{name}");
            let cost = (d.cost.setup.as_micros(), d.cost.per_tuple.as_micros());
            assert_eq!(cost, (setup, per_tuple), "{name}");
            let got = [
                d.batch_kernel,
                d.source,
                d.commutative_inputs,
                d.shared_state.is_some(),
            ];
            assert_eq!(got, flags, "{name}");
            assert_eq!(d.source, f.source_partitions(1).is_some(), "{name}");
            assert_eq!(d.cache_replay, replay, "{name}");
            assert_eq!(f.fingerprint().0, digest, "{name}");
        }
    }
}
