//! Tuple partitioning across an operator's parallel workers.
//!
//! Two layers:
//!
//! * [`PartitionStrategy`] — the *declared* policy carried by a DAG edge
//!   (what the GUI shows and the builder validates).
//! * [`CompiledPartitioner`] — the *executable* form, produced once per
//!   edge at DAG-build time: hash column names are resolved to column
//!   indices against the producer's propagated output schema, so the
//!   per-tuple routing path does no name lookups and no allocation.
//!
//! Both executors route through the compiled form
//! ([`CompiledPartitioner::route_by_index`]); the name-based
//! [`PartitionStrategy::route`] remains for ad-hoc callers and tests.

use scriptflow_datakit::{ColumnarBatch, DataResult, HashKey, KeyRef, Schema, Tuple};

use crate::operator::{WorkflowError, WorkflowResult};

/// How tuples flowing along an edge are distributed among the downstream
/// operator's workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Cycle through workers — the default for stateless operators.
    RoundRobin,
    /// Route by hash of the named columns — required upstream of stateful
    /// keyed operators (joins, group-bys) running with parallelism > 1.
    Hash(Vec<String>),
    /// Copy every tuple to every worker (e.g. broadcasting a small
    /// dimension table to all join workers).
    Broadcast,
    /// Send everything to worker 0 (forces a single-instance operator).
    Single,
}

impl PartitionStrategy {
    /// Route `tuple` (the `seq`-th on this edge) to worker indices.
    ///
    /// Returns one index for all strategies except `Broadcast`, which
    /// returns all of `0..workers`. This is the name-resolving slow path;
    /// executors use [`CompiledPartitioner`] instead.
    pub fn route(&self, tuple: &Tuple, seq: u64, workers: usize) -> WorkflowResult<Vec<usize>> {
        debug_assert!(workers > 0);
        Ok(match self {
            PartitionStrategy::RoundRobin => vec![(seq % workers as u64) as usize],
            PartitionStrategy::Hash(cols) => {
                let key = hash_key_by_name(tuple, cols)?;
                vec![key.bucket(workers)]
            }
            PartitionStrategy::Broadcast => (0..workers).collect(),
            PartitionStrategy::Single => vec![0],
        })
    }

    /// Compile against the producing operator's output schema.
    ///
    /// Resolves hash column names to indices; unknown columns surface here
    /// — at DAG-build time — instead of on the first routed tuple.
    pub fn compile(&self, schema: &Schema) -> WorkflowResult<CompiledPartitioner> {
        Ok(match self {
            PartitionStrategy::RoundRobin => CompiledPartitioner::RoundRobin,
            PartitionStrategy::Hash(cols) => {
                let mut indices = Vec::with_capacity(cols.len());
                for c in cols {
                    indices.push(schema.index_of(c).map_err(|e| WorkflowError::DataError {
                        operator: "<partitioner>".into(),
                        error: e,
                    })?);
                }
                CompiledPartitioner::Hash { indices }
            }
            PartitionStrategy::Broadcast => CompiledPartitioner::Broadcast,
            PartitionStrategy::Single => CompiledPartitioner::Single,
        })
    }

    /// Human-readable label for GUI rendering.
    pub fn label(&self) -> String {
        match self {
            PartitionStrategy::RoundRobin => "round-robin".into(),
            PartitionStrategy::Hash(cols) => format!("hash({})", cols.join(", ")),
            PartitionStrategy::Broadcast => "broadcast".into(),
            PartitionStrategy::Single => "single".into(),
        }
    }
}

/// Composite hash key from named columns without building a borrowed name
/// slice per tuple (the old per-tuple `Vec<&str>` allocation).
fn hash_key_by_name(tuple: &Tuple, cols: &[String]) -> WorkflowResult<HashKey> {
    let wrap = |e| WorkflowError::DataError {
        operator: "<partitioner>".into(),
        error: e,
    };
    if cols.len() == 1 {
        return HashKey::from_value(tuple.get(&cols[0]).map_err(wrap)?).map_err(wrap);
    }
    let mut parts = Vec::with_capacity(cols.len());
    for c in cols {
        parts.push(HashKey::from_value(tuple.get(c).map_err(wrap)?).map_err(wrap)?);
    }
    Ok(HashKey::Composite(parts))
}

/// A partition strategy compiled for one edge: name resolution already
/// done, per-tuple routing is index arithmetic only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompiledPartitioner {
    /// Cycle through workers by edge sequence number.
    RoundRobin,
    /// Hash of pre-resolved column indices.
    Hash {
        /// Column indices into the producer's output schema.
        indices: Vec<usize>,
    },
    /// Copy to every worker. Has no single route; callers detect this via
    /// [`CompiledPartitioner::is_broadcast`] and share the batch instead.
    Broadcast,
    /// Everything to worker 0.
    Single,
}

impl CompiledPartitioner {
    /// True for the broadcast strategy, which routes whole batches (every
    /// worker sees every tuple) rather than individual tuples.
    pub fn is_broadcast(&self) -> bool {
        matches!(self, CompiledPartitioner::Broadcast)
    }

    /// Worker index for `tuple`, the `seq`-th on this edge — the
    /// allocation-free fast path shared by both executors.
    ///
    /// Not defined for `Broadcast` (which has no single destination);
    /// calling it there is an executor bug and returns an error.
    pub fn route_by_index(&self, tuple: &Tuple, seq: u64, workers: usize) -> WorkflowResult<usize> {
        debug_assert!(workers > 0);
        match self {
            CompiledPartitioner::RoundRobin => Ok((seq % workers as u64) as usize),
            CompiledPartitioner::Hash { indices } => {
                let key = HashKey::from_tuple_indexed(tuple, indices).map_err(|e| {
                    WorkflowError::DataError {
                        operator: "<partitioner>".into(),
                        error: e,
                    }
                })?;
                Ok(key.bucket(workers))
            }
            CompiledPartitioner::Single => Ok(0),
            CompiledPartitioner::Broadcast => Err(WorkflowError::OperatorFailed {
                operator: "<partitioner>".into(),
                message: "broadcast edges route whole batches, not single tuples".into(),
            }),
        }
    }

    /// Scatter owned `tuples` into per-worker buffers without cloning:
    /// each tuple *moves* into exactly one buffer. `seq` is the edge's
    /// per-producer sequence counter and advances by one per tuple.
    ///
    /// `out` must have one buffer per downstream worker; buffers are
    /// appended to (callers reuse them across batches). Not defined for
    /// `Broadcast` — share the batch instead of scattering it.
    pub fn scatter(
        &self,
        tuples: Vec<Tuple>,
        seq: &mut u64,
        out: &mut [Vec<Tuple>],
    ) -> WorkflowResult<()> {
        debug_assert!(!out.is_empty());
        debug_assert!(!self.is_broadcast());
        let workers = out.len();
        for t in tuples {
            let w = self.route_by_index(&t, *seq, workers)?;
            *seq += 1;
            out[w].push(t);
        }
        Ok(())
    }

    /// [`CompiledPartitioner::scatter`] for a sealed columnar batch on a
    /// hash edge: the row *indices* each worker receives, keys read from
    /// the typed key columns. Row `i` lands on the worker `scatter` would
    /// move tuple `i` to, and `seq` advances the same way, so a run may mix
    /// the two freely on one edge. Every other strategy moves a sealed
    /// batch whole and has no row indices.
    pub(crate) fn scatter_indices(
        &self,
        batch: &ColumnarBatch,
        seq: &mut u64,
        out: &mut [Vec<u32>],
    ) -> WorkflowResult<()> {
        let CompiledPartitioner::Hash { indices } = self else {
            return Err(WorkflowError::OperatorFailed {
                operator: "<partitioner>".into(),
                message: "only hash edges scatter a sealed batch by row".into(),
            });
        };
        for i in 0..batch.len() {
            let key = key_at(batch, indices, i).map_err(|e| WorkflowError::DataError {
                operator: "<partitioner>".into(),
                error: e,
            })?;
            *seq += 1;
            out[key.bucket(out.len())].push(i as u32);
        }
        Ok(())
    }
}

/// [`HashKey::from_tuple_indexed`] over row `row` of a columnar batch,
/// read off the typed columns.
fn key_at(batch: &ColumnarBatch, indices: &[usize], row: usize) -> DataResult<HashKey> {
    let cell = |c: usize| batch.column(c).key_at(row).map(KeyRef::to_key);
    if let [only] = indices {
        return cell(*only);
    }
    indices
        .iter()
        .map(|&c| cell(c))
        .collect::<DataResult<Vec<_>>>()
        .map(HashKey::Composite)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scriptflow_datakit::{DataType, Schema, Value};

    fn tuple(id: i64) -> Tuple {
        Tuple::new(Schema::of(&[("id", DataType::Int)]), vec![Value::Int(id)]).unwrap()
    }

    #[test]
    fn round_robin_cycles() {
        let s = PartitionStrategy::RoundRobin;
        let routes: Vec<usize> = (0..6)
            .map(|i| s.route(&tuple(0), i, 3).unwrap()[0])
            .collect();
        assert_eq!(routes, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn hash_is_deterministic_and_key_stable() {
        let s = PartitionStrategy::Hash(vec!["id".into()]);
        for id in 0..50 {
            let a = s.route(&tuple(id), 0, 4).unwrap();
            let b = s.route(&tuple(id), 99, 4).unwrap();
            assert_eq!(a, b, "same key must route identically regardless of seq");
        }
    }

    #[test]
    fn hash_unknown_column_errors() {
        let s = PartitionStrategy::Hash(vec!["nope".into()]);
        assert!(s.route(&tuple(1), 0, 2).is_err());
    }

    #[test]
    fn broadcast_hits_every_worker() {
        let s = PartitionStrategy::Broadcast;
        assert_eq!(s.route(&tuple(1), 0, 4).unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn single_pins_worker_zero() {
        let s = PartitionStrategy::Single;
        for seq in 0..5 {
            assert_eq!(s.route(&tuple(7), seq, 4).unwrap(), vec![0]);
        }
    }

    #[test]
    fn labels() {
        assert_eq!(
            PartitionStrategy::Hash(vec!["a".into(), "b".into()]).label(),
            "hash(a, b)"
        );
        assert_eq!(PartitionStrategy::RoundRobin.label(), "round-robin");
    }

    #[test]
    fn compiled_matches_named_route() {
        let schema = Schema::of(&[("id", DataType::Int)]);
        for strategy in [
            PartitionStrategy::RoundRobin,
            PartitionStrategy::Hash(vec!["id".into()]),
            PartitionStrategy::Single,
        ] {
            let compiled = strategy.compile(&schema).unwrap();
            for id in 0..40 {
                for seq in 0..5 {
                    let slow = strategy.route(&tuple(id), seq, 4).unwrap();
                    let fast = compiled.route_by_index(&tuple(id), seq, 4).unwrap();
                    assert_eq!(slow, vec![fast], "{strategy:?} id={id} seq={seq}");
                }
            }
        }
    }

    #[test]
    fn compile_rejects_unknown_hash_column() {
        let schema = Schema::of(&[("id", DataType::Int)]);
        let err = PartitionStrategy::Hash(vec!["missing".into()])
            .compile(&schema)
            .unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
    }

    #[test]
    fn broadcast_has_no_single_route() {
        let compiled = CompiledPartitioner::Broadcast;
        assert!(compiled.is_broadcast());
        assert!(compiled.route_by_index(&tuple(1), 0, 4).is_err());
    }

    #[test]
    fn scatter_indices_lands_every_row_where_scatter_lands_its_tuple() {
        let schema = Schema::of(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("w", DataType::Float),
            ("ok", DataType::Bool),
        ]);
        let tuples: Vec<Tuple> = (0..97i64)
            .map(|i| {
                let cell = |null_every: i64, v: Value| {
                    if i % null_every == 0 {
                        Value::Null
                    } else {
                        v
                    }
                };
                Tuple::new(
                    schema.clone(),
                    vec![
                        cell(7, Value::Int(i % 13)),
                        cell(5, Value::Str(format!("n{}", i % 11))),
                        cell(9, Value::Float(if i % 4 == 0 { -0.0 } else { i as f64 })),
                        cell(6, Value::Bool(i % 2 == 0)),
                    ],
                )
                .unwrap()
            })
            .collect();
        let batch = ColumnarBatch::from_tuples(schema.clone(), &tuples);
        for strategy in [
            PartitionStrategy::Hash(vec!["id".into()]),
            PartitionStrategy::Hash(vec!["name".into()]),
            PartitionStrategy::Hash(vec!["w".into()]),
            PartitionStrategy::Hash(vec!["ok".into(), "name".into(), "id".into()]),
        ] {
            let compiled = strategy.compile(&schema).unwrap();
            // Not a multiple of the worker count: the sequence carries
            // over from whatever the edge routed before.
            let (mut seq_rows, mut seq_cols) = (5u64, 5u64);
            let mut by_rows: Vec<Vec<Tuple>> = vec![Vec::new(); 3];
            let mut by_cols: Vec<Vec<u32>> = vec![Vec::new(); 3];
            compiled
                .scatter(tuples.clone(), &mut seq_rows, &mut by_rows)
                .unwrap();
            compiled
                .scatter_indices(&batch, &mut seq_cols, &mut by_cols)
                .unwrap();
            assert_eq!(seq_rows, seq_cols, "{strategy:?}");
            for (rows, indices) in by_rows.iter().zip(&by_cols) {
                assert_eq!(*rows, batch.take(indices).to_tuples(), "{strategy:?}");
            }
        }
        for whole in [
            CompiledPartitioner::RoundRobin,
            CompiledPartitioner::Broadcast,
            CompiledPartitioner::Single,
        ] {
            let mut by_cols: Vec<Vec<u32>> = vec![Vec::new(); 3];
            assert!(whole.scatter_indices(&batch, &mut 0, &mut by_cols).is_err());
        }
    }

    #[test]
    fn scatter_moves_each_tuple_exactly_once() {
        let schema = Schema::of(&[("id", DataType::Int)]);
        let compiled = PartitionStrategy::Hash(vec!["id".into()])
            .compile(&schema)
            .unwrap();
        let tuples: Vec<Tuple> = (0..100).map(tuple).collect();
        let mut seq = 0u64;
        let mut bufs: Vec<Vec<Tuple>> = vec![Vec::new(); 4];
        compiled.scatter(tuples, &mut seq, &mut bufs).unwrap();
        assert_eq!(seq, 100);
        let total: usize = bufs.iter().map(Vec::len).sum();
        assert_eq!(total, 100);
        // Same key → same bucket as the slow path.
        for (w, buf) in bufs.iter().enumerate() {
            for t in buf {
                let slow = PartitionStrategy::Hash(vec!["id".into()])
                    .route(t, 0, 4)
                    .unwrap();
                assert_eq!(slow, vec![w]);
            }
        }
    }
}
