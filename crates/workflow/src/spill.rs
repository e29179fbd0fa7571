//! Shared spill machinery for budget-bounded blocking operators.
//!
//! When a blocking operator (hash join build, aggregation, sort) outgrows
//! its memory budget it hash-partitions state into [`PartitionWriter`]s,
//! which buffer tuples or sealed batches and flush them as column-major
//! blocks into the datakit block store. Sealed partitions come back as
//! [`Segment`]s whose manifests carry counts and sizes only (rows, blocks,
//! bytes) — no column statistics, so every partition is read back whole.
//! Every write and read is counted on the [`OutputCollector`] so both
//! executors can charge spill I/O and surface it in telemetry.

use std::ops::Range;

use scriptflow_datakit::blockstore::{BlockAppender, CompressedBlock, Segment};
use scriptflow_datakit::{ColumnarBatch, DataResult, SchemaRef, Tuple};

use crate::operator::{OutputCollector, WorkflowError, WorkflowResult};

/// Fan-out of one round of hash partitioning. Eight-way matches the
/// grace-join literature's usual small fan-out and keeps recursion depth
/// shallow for realistic skew.
pub const SPILL_FANOUT: usize = 8;

/// Maximum recursive repartitioning depth before an overflow partition is
/// processed in memory regardless of budget (guards against all-equal-key
/// partitions that no salt can split).
pub const SPILL_MAX_DEPTH: u32 = 4;

/// Row cap per spilled block when sealing a pre-sorted run.
pub const SPILL_BLOCK_ROWS: usize = 512;

/// Deterministic in-memory footprint estimate of a buffered tuple: its
/// stable wire size plus per-row bookkeeping overhead. Budgets compare
/// against sums of this, so the estimate only needs to be stable and
/// monotone in the data, not exact.
pub fn tuple_footprint(t: &Tuple) -> usize {
    t.encoded_len() + 24
}

/// The footprint [`tuple_footprint`] gives row `i` of `batch`, read off
/// the columns without building the tuple.
fn row_footprint(batch: &ColumnarBatch, i: usize) -> usize {
    let arity = batch.schema().arity();
    (0..arity)
        .map(|j| batch.column(j).encoded_len_at(i))
        .sum::<usize>()
        + 24
}

/// Buffers rows bound for one spill partition and flushes them to the
/// block store whenever the buffer outgrows the flush threshold.
///
/// Rows arrive one tuple at a time ([`PartitionWriter::push`]) or as
/// sealed batches ([`PartitionWriter::push_batch`]); either way a block
/// is cut at the row whose footprint takes the buffer to the threshold,
/// so the blocks depend on the rows only, not on how they arrived.
///
/// Buffered-but-unflushed rows live in operator instance state, so a
/// faulted run quantum replays them exactly once along with everything
/// else the instance holds — durability of the spill path does not depend
/// on flush boundaries.
#[derive(Debug, Default)]
pub struct PartitionWriter {
    schema: Option<SchemaRef>,
    /// Row ranges of the sealed batches buffered, in push order.
    pieces: Vec<(ColumnarBatch, Range<usize>)>,
    /// Tuples buffered, all after the rows of `pieces`.
    buffer: Vec<Tuple>,
    buffer_bytes: usize,
    appender: BlockAppender,
}

impl PartitionWriter {
    /// An empty writer; the schema is captured from the first push.
    pub fn new() -> Self {
        PartitionWriter::default()
    }

    /// Buffer one tuple, flushing a block once `flush_at` bytes are held.
    pub fn push(&mut self, tuple: Tuple, flush_at: usize, out: &mut OutputCollector) {
        if self.schema.is_none() {
            self.schema = Some(tuple.schema().clone());
        }
        self.buffer_bytes += tuple_footprint(&tuple);
        self.buffer.push(tuple);
        if self.buffer_bytes >= flush_at.max(1) {
            self.flush(out);
        }
    }

    /// Buffer the rows of `batch` in order, flushing a block at each row
    /// that brings the buffer to `flush_at` bytes — the blocks
    /// [`PartitionWriter::push`] of each row would cut. A block that holds
    /// rows of this batch only is sealed from it in place.
    pub fn push_batch(
        &mut self,
        batch: &ColumnarBatch,
        flush_at: usize,
        out: &mut OutputCollector,
    ) {
        if self.schema.is_none() {
            self.schema = Some(batch.schema().clone());
        }
        self.seal_buffer();
        let mut start = 0;
        for i in 0..batch.len() {
            self.buffer_bytes += row_footprint(batch, i);
            if self.buffer_bytes >= flush_at.max(1) {
                self.pieces.push((batch.clone(), start..i + 1));
                self.flush(out);
                start = i + 1;
            }
        }
        if start < batch.len() {
            self.pieces.push((batch.clone(), start..batch.len()));
        }
    }

    /// The buffered tuples as one more piece, so pieces keep row order.
    fn seal_buffer(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let schema = self
            .schema
            .clone()
            .expect("non-empty spill buffer always has a schema");
        let batch = ColumnarBatch::from_tuples(schema, &self.buffer);
        self.pieces.push((batch, 0..self.buffer.len()));
        self.buffer.clear();
    }

    /// Flush the buffered rows as one block (no-op when empty).
    pub fn flush(&mut self, out: &mut OutputCollector) {
        self.seal_buffer();
        let bytes = match self.pieces.as_slice() {
            [] => return,
            [(batch, rows)] => self.appender.append_range(batch, rows.clone()),
            pieces => {
                let schema = self.schema.clone().expect("pieces imply a schema");
                self.appender.append(&ColumnarBatch::concat(schema, pieces))
            }
        };
        out.note_spill_write(bytes as u64);
        self.pieces.clear();
        self.buffer_bytes = 0;
    }

    /// Rows held, flushed or buffered.
    pub fn rows(&self) -> u64 {
        let pieces: usize = self.pieces.iter().map(|(_, rows)| rows.len()).sum();
        self.appender.row_count() + (pieces + self.buffer.len()) as u64
    }

    /// True when nothing was ever pushed.
    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }

    /// Flush any remainder and seal into an immutable segment.
    pub fn seal(mut self, out: &mut OutputCollector) -> Segment {
        self.flush(out);
        self.appender.seal()
    }
}

/// Rows → blocks, the one way a run of rows reaches the block store:
/// `tuples` appended to `app` in blocks of at most [`SPILL_BLOCK_ROWS`].
pub(crate) fn append_rows(app: &mut BlockAppender, schema: &SchemaRef, tuples: &[Tuple]) {
    for chunk in tuples.chunks(SPILL_BLOCK_ROWS) {
        app.append(&ColumnarBatch::from_tuples(schema.clone(), chunk));
    }
}

/// Blocks → rows, the one place stored blocks become tuples again: each
/// decoded as a batch (a cache replay's sealed decoder, over one block)
/// and unrolled before the next, so only one block's columns are held.
pub(crate) fn decode_rows(blocks: &[CompressedBlock]) -> DataResult<Vec<Tuple>> {
    let mut rows = Vec::new();
    for block in blocks {
        rows.extend(block.decode()?.to_tuples());
    }
    Ok(rows)
}

/// One spilled block's rows for operator `name`, charging its spill read.
pub(crate) fn read_block(
    block: &CompressedBlock,
    name: &str,
    out: &mut OutputCollector,
) -> WorkflowResult<Vec<Tuple>> {
    out.note_spill_read();
    decode_rows(std::slice::from_ref(block)).map_err(|e| WorkflowError::from_data(name, e))
}

/// Seal an already-ordered slice of tuples (e.g. a sorted run) into a
/// segment of bounded-size blocks, charging one spill write per block.
pub fn seal_run(schema: &SchemaRef, tuples: &[Tuple], out: &mut OutputCollector) -> Segment {
    let mut app = BlockAppender::new();
    append_rows(&mut app, schema, tuples);
    let seg = app.seal();
    for block in seg.blocks() {
        out.note_spill_write(block.compressed_bytes() as u64);
    }
    seg
}

/// Decode every row of a segment back into tuples, charging one spill
/// read per block.
pub fn read_segment(seg: &Segment, out: &mut OutputCollector) -> DataResult<Vec<Tuple>> {
    seg.blocks().iter().for_each(|_| out.note_spill_read());
    decode_rows(seg.blocks())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scriptflow_datakit::{DataType, Schema, Value};

    fn tuples(n: i64) -> (SchemaRef, Vec<Tuple>) {
        let schema = Schema::of(&[("id", DataType::Int), ("tag", DataType::Str)]);
        let ts = (0..n)
            .map(|i| {
                Tuple::new(
                    schema.clone(),
                    vec![Value::Int(i), Value::Str(format!("t{i}"))],
                )
                .unwrap()
            })
            .collect();
        (schema, ts)
    }

    #[test]
    fn writer_flushes_blocks_and_counts_spill_io() {
        let (_, ts) = tuples(100);
        let mut out = OutputCollector::new();
        let mut w = PartitionWriter::new();
        for t in ts.clone() {
            w.push(t, 200, &mut out); // tiny threshold: many blocks
        }
        let seg = w.seal(&mut out);
        assert_eq!(seg.manifest().row_count, 100);
        assert!(seg.manifest().block_count > 1);
        assert_eq!(out.spilled_blocks(), seg.manifest().block_count);
        assert!(out.counters().spilled_bytes > 0);

        let back = read_segment(&seg, &mut out).unwrap();
        assert_eq!(out.counters().spill_reads, seg.manifest().block_count);
        let rows: Vec<_> = back.iter().map(|t| t.values().to_vec()).collect();
        let want: Vec<_> = ts.iter().map(|t| t.values().to_vec()).collect();
        assert_eq!(rows, want);
    }

    /// A writer cuts the same blocks whether its rows arrive one tuple at
    /// a time, as sealed batches of any length, or as a mix of both.
    #[test]
    fn batches_and_tuples_cut_the_same_blocks() {
        let (schema, ts) = tuples(300);
        let batch = ColumnarBatch::from_tuples(schema, &ts);
        let seal = |push: &dyn Fn(&mut PartitionWriter, &mut OutputCollector)| {
            let mut out = OutputCollector::new();
            let mut w = PartitionWriter::new();
            push(&mut w, &mut out);
            assert_eq!(w.rows(), 300);
            let seg = w.seal(&mut out);
            let blocks: Vec<_> = (seg.blocks().iter())
                .map(|b| (b.rows(), b.compressed_bytes(), format!("{:?}", b.decode())))
                .collect();
            (
                blocks,
                out.counters().spilled_blocks,
                out.counters().spilled_bytes,
            )
        };
        for flush_at in [1, 100, 700, 4096, usize::MAX] {
            let by_tuple = seal(&|w, out| ts.iter().for_each(|t| w.push(t.clone(), flush_at, out)));
            assert!(by_tuple.1 > 0);
            for len in [1, 7, 64, 300] {
                let by_batch = seal(&|w, out| {
                    for piece in batch.chunks(len) {
                        w.push_batch(&piece, flush_at, out);
                    }
                });
                assert_eq!(by_batch, by_tuple, "flush at {flush_at}, batches of {len}");
                // Every third piece as tuples.
                let mixed = seal(&|w, out| {
                    for (k, piece) in batch.chunks(len).enumerate() {
                        if k % 3 == 1 {
                            piece
                                .to_tuples()
                                .into_iter()
                                .for_each(|t| w.push(t, flush_at, out));
                        } else {
                            w.push_batch(&piece, flush_at, out);
                        }
                    }
                });
                assert_eq!(
                    mixed, by_tuple,
                    "flush at {flush_at}, mixed pieces of {len}"
                );
            }
        }
    }

    #[test]
    fn seal_run_bounds_block_size() {
        let (schema, ts) = tuples((SPILL_BLOCK_ROWS as i64) + 10);
        let mut out = OutputCollector::new();
        let seg = seal_run(&schema, &ts, &mut out);
        assert_eq!(seg.manifest().block_count, 2);
        assert_eq!(seg.manifest().row_count, ts.len() as u64);
        assert_eq!(out.spilled_blocks(), 2);
    }

    #[test]
    fn empty_writer_seals_to_empty_segment() {
        let mut out = OutputCollector::new();
        let seg = PartitionWriter::new().seal(&mut out);
        assert!(seg.is_empty());
        assert_eq!(out.spilled_blocks(), 0);
    }
}
