//! Compressed block store for sealed columnar batches.
//!
//! Blocking operators that outgrow their memory budget persist state here:
//! a sealed [`ColumnarBatch`] becomes a [`CompressedBlock`] — a run-length
//! compressed byte payload plus the batch's per-column min/max/null
//! statistics carried into the block header — and a [`BlockAppender`]
//! groups consecutive blocks under a [`SegmentManifest`] holding the block
//! count, row count, byte totals, and the *merged* column statistics
//! (databend's `BlockAppender`/`SegmentInfo` layout). The manifest stats
//! double as a zone map: a probe-side batch whose key range is disjoint
//! from a spilled partition's merged range can skip that partition without
//! decompressing a single block.
//!
//! The value codec is a byte-exact binary encoding (floats round-trip by
//! bit pattern, so NaN and signed zeros survive), and the compressor is a
//! dependency-free PackBits-style RLE. Neither aims to win benchmarks;
//! both are deterministic, which is what the calibrated spill cost model
//! and the exactly-once replay tests rely on.

use std::cmp::Ordering;

use crate::column::{cmp_values, BatchStats, ColStats, ColumnarBatch};
use crate::error::{DataError, DataResult};
use crate::schema::SchemaRef;
use crate::value::Value;

// ---------------------------------------------------------------------------
// Value codec
// ---------------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_BYTES: u8 = 5;
const TAG_LIST: u8 = 6;

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            out.push(TAG_BYTES);
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
        }
        Value::List(vs) => {
            out.push(TAG_LIST);
            out.extend_from_slice(&(vs.len() as u32).to_le_bytes());
            for v in vs {
                encode_value(v, out);
            }
        }
    }
}

fn decode_err(message: impl Into<String>) -> DataError {
    DataError::Decode {
        line: 0,
        message: message.into(),
    }
}

fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> DataResult<&'a [u8]> {
    let end = pos
        .checked_add(n)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| decode_err("truncated block payload"))?;
    let slice = &buf[*pos..end];
    *pos = end;
    Ok(slice)
}

fn take_u32(buf: &[u8], pos: &mut usize) -> DataResult<usize> {
    let b = take(buf, pos, 4)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
}

fn decode_value(buf: &[u8], pos: &mut usize) -> DataResult<Value> {
    let tag = take(buf, pos, 1)?[0];
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL => Value::Bool(take(buf, pos, 1)?[0] != 0),
        TAG_INT => {
            let b = take(buf, pos, 8)?;
            Value::Int(i64::from_le_bytes(b.try_into().expect("8 bytes")))
        }
        TAG_FLOAT => {
            let b = take(buf, pos, 8)?;
            Value::Float(f64::from_bits(u64::from_le_bytes(
                b.try_into().expect("8 bytes"),
            )))
        }
        TAG_STR => {
            let len = take_u32(buf, pos)?;
            let b = take(buf, pos, len)?;
            Value::Str(
                std::str::from_utf8(b)
                    .map_err(|_| decode_err("invalid utf-8 in string cell"))?
                    .to_owned(),
            )
        }
        TAG_BYTES => {
            let len = take_u32(buf, pos)?;
            Value::Bytes(take(buf, pos, len)?.into())
        }
        TAG_LIST => {
            let len = take_u32(buf, pos)?;
            let mut vs = Vec::with_capacity(len.min(4096));
            for _ in 0..len {
                vs.push(decode_value(buf, pos)?);
            }
            Value::List(vs)
        }
        other => return Err(decode_err(format!("unknown value tag {other}"))),
    })
}

// ---------------------------------------------------------------------------
// PackBits-style run-length compression
// ---------------------------------------------------------------------------

/// Compress a byte stream with PackBits-style run-length encoding.
///
/// Control byte `n <= 127` copies `n + 1` literal bytes; `n >= 129`
/// repeats the following byte `257 - n` times; `128` is reserved. Runs of
/// three or more identical bytes are folded; everything else is emitted as
/// literal spans of at most 128 bytes.
pub fn compress(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw.len() / 2 + 8);
    let mut i = 0;
    while i < raw.len() {
        // Length of the run starting at `i`.
        let mut run = 1;
        while run < 128 && i + run < raw.len() && raw[i + run] == raw[i] {
            run += 1;
        }
        if run >= 3 {
            out.push((257 - run) as u8);
            out.push(raw[i]);
            i += run;
            continue;
        }
        // Literal span: scan until a foldable run begins or we hit 128.
        let start = i;
        i += run;
        while i < raw.len() && i - start < 128 {
            let mut r = 1;
            while r < 3 && i + r < raw.len() && raw[i + r] == raw[i] {
                r += 1;
            }
            if r >= 3 {
                break;
            }
            i += 1;
        }
        let span = (i - start).min(128);
        out.push((span - 1) as u8);
        out.extend_from_slice(&raw[start..start + span]);
        i = start + span;
    }
    out
}

/// Invert [`compress`]. Fails on truncated payloads or the reserved
/// control byte.
pub fn decompress(data: &[u8]) -> DataResult<Vec<u8>> {
    let mut out = Vec::with_capacity(data.len() * 2);
    let mut pos = 0;
    while pos < data.len() {
        let control = data[pos];
        pos += 1;
        if control <= 127 {
            let n = control as usize + 1;
            out.extend_from_slice(take(data, &mut pos, n)?);
        } else if control == 128 {
            return Err(decode_err("reserved PackBits control byte 128"));
        } else {
            let n = 257 - control as usize;
            let b = take(data, &mut pos, 1)?[0];
            out.resize(out.len() + n, b);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Blocks, appender, segments
// ---------------------------------------------------------------------------

/// One sealed batch, compressed, with its statistics in the header.
#[derive(Debug, Clone)]
pub struct CompressedBlock {
    schema: SchemaRef,
    rows: usize,
    raw_bytes: usize,
    data: Vec<u8>,
    stats: BatchStats,
}

impl CompressedBlock {
    /// Seal a columnar batch into a compressed block, carrying the batch's
    /// per-column statistics into the block header.
    pub fn seal(batch: &ColumnarBatch) -> CompressedBlock {
        let mut raw = Vec::new();
        for row in batch.to_rows() {
            for v in &row {
                encode_value(v, &mut raw);
            }
        }
        CompressedBlock {
            schema: batch.schema().clone(),
            rows: batch.len(),
            raw_bytes: raw.len(),
            data: compress(&raw),
            stats: batch.stats().clone(),
        }
    }

    /// Decompress and decode back into a columnar batch (statistics are
    /// re-sealed from the decoded rows and match the header).
    pub fn decode(&self) -> DataResult<ColumnarBatch> {
        let raw = decompress(&self.data)?;
        if raw.len() != self.raw_bytes {
            return Err(decode_err(format!(
                "block decompressed to {} bytes, expected {}",
                raw.len(),
                self.raw_bytes
            )));
        }
        let arity = self.schema.arity();
        let mut pos = 0;
        let mut rows = Vec::with_capacity(self.rows);
        for _ in 0..self.rows {
            let mut row = Vec::with_capacity(arity);
            for _ in 0..arity {
                row.push(decode_value(&raw, &mut pos)?);
            }
            rows.push(row);
        }
        if pos != raw.len() {
            return Err(decode_err("trailing bytes after last row"));
        }
        ColumnarBatch::from_rows(self.schema.clone(), rows)
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Uncompressed payload size in bytes.
    pub fn raw_bytes(&self) -> usize {
        self.raw_bytes
    }

    /// Compressed payload size in bytes.
    pub fn compressed_bytes(&self) -> usize {
        self.data.len()
    }

    /// Per-column statistics sealed into the block header.
    pub fn stats(&self) -> &BatchStats {
        &self.stats
    }

    /// Schema of the stored rows.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }
}

/// Summary of a sealed [`Segment`]: block count, row count, byte totals,
/// and merged per-column statistics (databend's `SegmentInfo` shape).
#[derive(Debug, Clone)]
pub struct SegmentManifest {
    /// Number of blocks in the segment.
    pub block_count: u64,
    /// Total rows across all blocks.
    pub row_count: u64,
    /// Total uncompressed bytes.
    pub raw_bytes: u64,
    /// Total compressed bytes.
    pub compressed_bytes: u64,
    /// Column statistics merged over every block; `None` for an empty
    /// segment.
    pub stats: Option<BatchStats>,
}

impl SegmentManifest {
    /// Merged statistics of column `i`, if the segment is non-empty.
    pub fn column_stats(&self, i: usize) -> Option<&ColStats> {
        self.stats.as_ref().map(|s| s.column(i))
    }
}

/// True when no value in `a`'s `[min, max]` range can equal a value in
/// `b`'s — the zone-map partition-skip rule. Conservative: unknown or
/// incomparable ranges are never disjoint. Null semantics are the
/// caller's: this compares ranges only, and null keys carry no range.
pub fn ranges_disjoint(a: &ColStats, b: &ColStats) -> bool {
    let (Some(amin), Some(amax)) = (&a.min, &a.max) else {
        return false;
    };
    let (Some(bmin), Some(bmax)) = (&b.min, &b.max) else {
        return false;
    };
    matches!(cmp_values(amax, bmin), Some(Ordering::Less))
        || matches!(cmp_values(amin, bmax), Some(Ordering::Greater))
}

/// Accumulates sealed blocks and folds their header statistics into the
/// running segment totals (databend's `BlockAppender` role).
#[derive(Debug, Default)]
pub struct BlockAppender {
    blocks: Vec<CompressedBlock>,
    row_count: u64,
    raw_bytes: u64,
    compressed_bytes: u64,
    merged: Option<BatchStats>,
    /// Columns whose merged range became unknowable (a block held valid
    /// rows but no range, or ranges were incomparable across blocks).
    poisoned: Vec<bool>,
}

impl BlockAppender {
    /// An empty appender; the schema is taken from the first block.
    pub fn new() -> BlockAppender {
        BlockAppender::default()
    }

    /// Seal `batch` into a block, append it, and return the compressed
    /// size of the new block in bytes.
    pub fn append(&mut self, batch: &ColumnarBatch) -> usize {
        let block = CompressedBlock::seal(batch);
        let compressed = block.compressed_bytes();
        self.fold_stats(&block);
        self.row_count += block.rows() as u64;
        self.raw_bytes += block.raw_bytes() as u64;
        self.compressed_bytes += compressed as u64;
        self.blocks.push(block);
        compressed
    }

    fn fold_stats(&mut self, block: &CompressedBlock) {
        let stats = block.stats();
        let Some(merged) = self.merged.as_mut() else {
            self.merged = Some(stats.clone());
            self.poisoned = stats
                .columns
                .iter()
                .map(|c| {
                    let valid = block.rows() as u64 - c.null_count;
                    valid > 0 && (c.min.is_none() || c.max.is_none())
                })
                .collect();
            return;
        };
        for (i, col) in stats.columns.iter().enumerate() {
            let acc = &mut merged.columns[i];
            acc.null_count += col.null_count;
            let valid = block.rows() as u64 - col.null_count;
            if valid == 0 {
                continue; // all-null block: identity for the range fold
            }
            match (&col.min, &col.max) {
                (Some(min), Some(max)) => {
                    if !self.poisoned[i] {
                        match &acc.min {
                            Some(m) => match cmp_values(min, m) {
                                Some(Ordering::Less) => acc.min = Some(min.clone()),
                                Some(_) => {}
                                None => self.poisoned[i] = true,
                            },
                            None => acc.min = Some(min.clone()),
                        }
                    }
                    if !self.poisoned[i] {
                        match &acc.max {
                            Some(m) => match cmp_values(max, m) {
                                Some(Ordering::Greater) => acc.max = Some(max.clone()),
                                Some(_) => {}
                                None => self.poisoned[i] = true,
                            },
                            None => acc.max = Some(max.clone()),
                        }
                    }
                }
                _ => self.poisoned[i] = true,
            }
        }
        for (i, &p) in self.poisoned.iter().enumerate() {
            if p {
                merged.columns[i].min = None;
                merged.columns[i].max = None;
            }
        }
    }

    /// Rows appended so far.
    pub fn row_count(&self) -> u64 {
        self.row_count
    }

    /// Blocks appended so far.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Seal the appender into an immutable segment with its manifest.
    pub fn seal(self) -> Segment {
        let mut stats = self.merged;
        if let Some(s) = stats.as_mut() {
            for (i, &p) in self.poisoned.iter().enumerate() {
                if p {
                    s.columns[i].min = None;
                    s.columns[i].max = None;
                }
            }
        }
        Segment {
            manifest: SegmentManifest {
                block_count: self.blocks.len() as u64,
                row_count: self.row_count,
                raw_bytes: self.raw_bytes,
                compressed_bytes: self.compressed_bytes,
                stats,
            },
            blocks: self.blocks,
        }
    }
}

/// An immutable, sealed group of compressed blocks plus its manifest.
#[derive(Debug, Clone)]
pub struct Segment {
    manifest: SegmentManifest,
    blocks: Vec<CompressedBlock>,
}

impl Segment {
    /// The segment manifest.
    pub fn manifest(&self) -> &SegmentManifest {
        &self.manifest
    }

    /// The sealed blocks, in append order.
    pub fn blocks(&self) -> &[CompressedBlock] {
        &self.blocks
    }

    /// True when the segment holds no rows.
    pub fn is_empty(&self) -> bool {
        self.manifest.row_count == 0
    }

    /// Serialize the segment — schema, manifest, blocks, statistics —
    /// into a self-contained byte image ending in an FNV-1a checksum.
    /// [`Segment::decode`] inverts it exactly; any mutation of the image
    /// (truncation, bit flips, a forged manifest count) fails decoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.manifest.compressed_bytes as usize + 256);
        out.extend_from_slice(SEGMENT_MAGIC);
        let schema = self
            .blocks
            .first()
            .map(|b| b.schema().clone())
            .unwrap_or_else(crate::schema::Schema::empty);
        encode_schema(&schema, &mut out);
        out.extend_from_slice(&self.manifest.block_count.to_le_bytes());
        out.extend_from_slice(&self.manifest.row_count.to_le_bytes());
        out.extend_from_slice(&self.manifest.raw_bytes.to_le_bytes());
        out.extend_from_slice(&self.manifest.compressed_bytes.to_le_bytes());
        encode_opt_stats(self.manifest.stats.as_ref(), &mut out);
        for block in &self.blocks {
            out.extend_from_slice(&(block.rows as u32).to_le_bytes());
            out.extend_from_slice(&(block.raw_bytes as u32).to_le_bytes());
            out.extend_from_slice(&(block.data.len() as u32).to_le_bytes());
            out.extend_from_slice(&block.data);
            encode_opt_stats(Some(&block.stats), &mut out);
        }
        let sum = fnv1a64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parse a byte image produced by [`Segment::encode`], validating the
    /// trailing checksum, the magic header, and every cross-count (block
    /// count, row sums, byte sums) against the embedded manifest. Returns
    /// a [`DataError::Decode`] on any mismatch — callers treat that as a
    /// cache miss, never a panic.
    pub fn decode(buf: &[u8]) -> DataResult<Segment> {
        if buf.len() < SEGMENT_MAGIC.len() + 8 {
            return Err(decode_err("segment image too short"));
        }
        let (body, sum_bytes) = buf.split_at(buf.len() - 8);
        let want = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
        if fnv1a64(body) != want {
            return Err(decode_err("segment checksum mismatch"));
        }
        let mut pos = 0;
        if take(body, &mut pos, SEGMENT_MAGIC.len())? != SEGMENT_MAGIC {
            return Err(decode_err("bad segment magic"));
        }
        let schema = decode_schema(body, &mut pos)?;
        let block_count = take_u64(body, &mut pos)?;
        let row_count = take_u64(body, &mut pos)?;
        let raw_bytes = take_u64(body, &mut pos)?;
        let compressed_bytes = take_u64(body, &mut pos)?;
        let stats = decode_opt_stats(body, &mut pos, schema.arity())?;
        // Never trust the manifest's count for preallocation: cap by what
        // the remaining bytes could plausibly hold (each block needs at
        // least its 12-byte header).
        let cap = (block_count as usize).min(body.len().saturating_sub(pos) / 12 + 1);
        let mut blocks = Vec::with_capacity(cap);
        let (mut rows_sum, mut raw_sum, mut comp_sum) = (0u64, 0u64, 0u64);
        for _ in 0..block_count {
            let rows = take_u32(body, &mut pos)?;
            let block_raw = take_u32(body, &mut pos)?;
            let data_len = take_u32(body, &mut pos)?;
            let data = take(body, &mut pos, data_len)?.to_vec();
            let bstats = decode_opt_stats(body, &mut pos, schema.arity())?
                .ok_or_else(|| decode_err("block missing statistics"))?;
            rows_sum += rows as u64;
            raw_sum += block_raw as u64;
            comp_sum += data.len() as u64;
            blocks.push(CompressedBlock {
                schema: schema.clone(),
                rows,
                raw_bytes: block_raw,
                data,
                stats: bstats,
            });
        }
        if pos != body.len() {
            return Err(decode_err("trailing bytes after last block"));
        }
        if rows_sum != row_count || raw_sum != raw_bytes || comp_sum != compressed_bytes {
            return Err(decode_err(format!(
                "segment manifest disagrees with blocks: rows {rows_sum}/{row_count}, \
                 raw {raw_sum}/{raw_bytes}, compressed {comp_sum}/{compressed_bytes}"
            )));
        }
        Ok(Segment {
            manifest: SegmentManifest {
                block_count,
                row_count,
                raw_bytes,
                compressed_bytes,
                stats,
            },
            blocks,
        })
    }
}

// ---------------------------------------------------------------------------
// Segment persistence codec
// ---------------------------------------------------------------------------

/// Magic + version prefix of an encoded segment image.
const SEGMENT_MAGIC: &[u8] = b"SFSEG1";

/// FNV-1a over `bytes` — the trailing integrity checksum of an encoded
/// segment. Deterministic and dependency-free, like the rest of the
/// codec.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn take_u64(buf: &[u8], pos: &mut usize) -> DataResult<u64> {
    let b = take(buf, pos, 8)?;
    Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

fn dtype_tag(dt: crate::value::DataType) -> u8 {
    use crate::value::DataType::*;
    match dt {
        Null => TAG_NULL,
        Bool => TAG_BOOL,
        Int => TAG_INT,
        Float => TAG_FLOAT,
        Str => TAG_STR,
        Bytes => TAG_BYTES,
        List => TAG_LIST,
    }
}

fn dtype_from_tag(tag: u8) -> DataResult<crate::value::DataType> {
    use crate::value::DataType::*;
    Ok(match tag {
        TAG_NULL => Null,
        TAG_BOOL => Bool,
        TAG_INT => Int,
        TAG_FLOAT => Float,
        TAG_STR => Str,
        TAG_BYTES => Bytes,
        TAG_LIST => List,
        other => return Err(decode_err(format!("unknown dtype tag {other}"))),
    })
}

fn encode_schema(schema: &SchemaRef, out: &mut Vec<u8>) {
    out.extend_from_slice(&(schema.arity() as u32).to_le_bytes());
    for f in schema.fields() {
        out.extend_from_slice(&(f.name().len() as u32).to_le_bytes());
        out.extend_from_slice(f.name().as_bytes());
        out.push(dtype_tag(f.dtype()));
    }
}

fn decode_schema(buf: &[u8], pos: &mut usize) -> DataResult<SchemaRef> {
    let arity = take_u32(buf, pos)?;
    let mut fields = Vec::with_capacity(arity.min(4096));
    for _ in 0..arity {
        let len = take_u32(buf, pos)?;
        let name = std::str::from_utf8(take(buf, pos, len)?)
            .map_err(|_| decode_err("invalid utf-8 in field name"))?
            .to_owned();
        let dtype = dtype_from_tag(take(buf, pos, 1)?[0])?;
        fields.push(crate::schema::Field::new(name, dtype));
    }
    crate::schema::Schema::new(fields)
        .map(std::sync::Arc::new)
        .map_err(|e| decode_err(format!("invalid persisted schema: {e}")))
}

fn encode_opt_value(v: Option<&Value>, out: &mut Vec<u8>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            encode_value(v, out);
        }
    }
}

fn decode_opt_value(buf: &[u8], pos: &mut usize) -> DataResult<Option<Value>> {
    match take(buf, pos, 1)?[0] {
        0 => Ok(None),
        1 => Ok(Some(decode_value(buf, pos)?)),
        other => Err(decode_err(format!("bad option tag {other}"))),
    }
}

fn encode_opt_stats(stats: Option<&BatchStats>, out: &mut Vec<u8>) {
    let Some(stats) = stats else {
        out.push(0);
        return;
    };
    out.push(1);
    out.extend_from_slice(&(stats.columns.len() as u32).to_le_bytes());
    for c in &stats.columns {
        encode_opt_value(c.min.as_ref(), out);
        encode_opt_value(c.max.as_ref(), out);
        out.extend_from_slice(&c.null_count.to_le_bytes());
    }
}

fn decode_opt_stats(buf: &[u8], pos: &mut usize, arity: usize) -> DataResult<Option<BatchStats>> {
    match take(buf, pos, 1)?[0] {
        0 => Ok(None),
        1 => {
            let cols = take_u32(buf, pos)?;
            if cols != arity {
                return Err(decode_err(format!(
                    "statistics cover {cols} columns, schema has {arity}"
                )));
            }
            let mut columns = Vec::with_capacity(cols.min(4096));
            for _ in 0..cols {
                let min = decode_opt_value(buf, pos)?;
                let max = decode_opt_value(buf, pos)?;
                let null_count = take_u64(buf, pos)?;
                columns.push(ColStats {
                    min,
                    max,
                    null_count,
                });
            }
            Ok(Some(BatchStats { columns }))
        }
        other => Err(decode_err(format!("bad stats tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple::Tuple;
    use crate::value::DataType;

    fn batch(rows: &[(i64, &str, f64)]) -> ColumnarBatch {
        let schema = Schema::of(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("score", DataType::Float),
        ]);
        let tuples: Vec<Tuple> = rows
            .iter()
            .map(|(i, n, s)| {
                Tuple::new(
                    schema.clone(),
                    vec![Value::Int(*i), Value::Str((*n).into()), Value::Float(*s)],
                )
                .unwrap()
            })
            .collect();
        ColumnarBatch::from_tuples(schema, &tuples)
    }

    #[test]
    fn packbits_roundtrip_with_runs_and_literals() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![7],
            vec![1, 2, 3],
            vec![0; 1000],
            (0..=255u8).collect(),
            [vec![9u8; 200], (0..100u8).collect(), vec![9u8; 2]].concat(),
        ];
        for raw in cases {
            let packed = compress(&raw);
            assert_eq!(decompress(&packed).unwrap(), raw);
        }
    }

    #[test]
    fn packbits_compresses_runs() {
        let raw = vec![42u8; 10_000];
        let packed = compress(&raw);
        assert!(packed.len() < raw.len() / 10);
    }

    #[test]
    fn decompress_rejects_reserved_control() {
        assert!(decompress(&[128]).is_err());
        assert!(decompress(&[5, 1, 2]).is_err()); // truncated literal span
    }

    #[test]
    fn block_roundtrip_preserves_rows_and_stats() {
        let b = batch(&[(3, "c", 0.5), (1, "a", -2.0), (2, "b", f64::MAX)]);
        let block = CompressedBlock::seal(&b);
        assert_eq!(block.rows(), 3);
        let decoded = block.decode().unwrap();
        assert_eq!(decoded.to_rows(), b.to_rows());
        assert_eq!(decoded.stats(), block.stats());
    }

    #[test]
    fn block_roundtrip_preserves_float_bit_patterns() {
        let schema = Schema::of(&[("x", DataType::Float)]);
        let rows = vec![
            vec![Value::Float(f64::NAN)],
            vec![Value::Float(-0.0)],
            vec![Value::Float(f64::INFINITY)],
            vec![Value::Null],
        ];
        let b = ColumnarBatch::from_rows(schema, rows).unwrap();
        let decoded = CompressedBlock::seal(&b).decode().unwrap();
        let out = decoded.to_rows();
        match &out[0][0] {
            Value::Float(x) => assert!(x.is_nan()),
            other => panic!("expected NaN, got {other:?}"),
        }
        match &out[1][0] {
            Value::Float(x) => assert!(x.to_bits() == (-0.0f64).to_bits()),
            other => panic!("expected -0.0, got {other:?}"),
        }
        assert_eq!(out[2][0], Value::Float(f64::INFINITY));
        assert!(out[3][0].is_null());
    }

    #[test]
    fn appender_merges_stats_across_blocks() {
        let mut app = BlockAppender::new();
        app.append(&batch(&[(5, "m", 1.0), (9, "z", 2.0)]));
        app.append(&batch(&[(1, "a", -3.0)]));
        let seg = app.seal();
        let m = seg.manifest();
        assert_eq!(m.block_count, 2);
        assert_eq!(m.row_count, 3);
        assert!(m.raw_bytes >= m.row_count * 3);
        let id = m.column_stats(0).unwrap();
        assert_eq!(id.min, Some(Value::Int(1)));
        assert_eq!(id.max, Some(Value::Int(9)));
        assert_eq!(id.null_count, 0);
        let name = m.column_stats(1).unwrap();
        assert_eq!(name.min, Some(Value::Str("a".into())));
        assert_eq!(name.max, Some(Value::Str("z".into())));
    }

    #[test]
    fn nan_block_poisons_merged_range_but_keeps_null_counts() {
        let schema = Schema::of(&[("x", DataType::Float)]);
        let clean = ColumnarBatch::from_rows(
            schema.clone(),
            vec![vec![Value::Float(1.0)], vec![Value::Null]],
        )
        .unwrap();
        let nan = ColumnarBatch::from_rows(schema, vec![vec![Value::Float(f64::NAN)]]).unwrap();
        let mut app = BlockAppender::new();
        app.append(&clean);
        app.append(&nan);
        let seg = app.seal();
        let st = seg.manifest().column_stats(0).unwrap();
        assert_eq!(st.min, None);
        assert_eq!(st.max, None);
        assert_eq!(st.null_count, 1);
    }

    #[test]
    fn all_null_block_is_identity_for_range_merge() {
        let schema = Schema::of(&[("x", DataType::Int)]);
        let vals = ColumnarBatch::from_rows(schema.clone(), vec![vec![Value::Int(4)]]).unwrap();
        let nulls = ColumnarBatch::from_rows(schema, vec![vec![Value::Null]]).unwrap();
        let mut app = BlockAppender::new();
        app.append(&vals);
        app.append(&nulls);
        let seg = app.seal();
        let st = seg.manifest().column_stats(0).unwrap();
        assert_eq!(st.min, Some(Value::Int(4)));
        assert_eq!(st.max, Some(Value::Int(4)));
        assert_eq!(st.null_count, 1);
    }

    #[test]
    fn empty_segment_has_no_stats() {
        let seg = BlockAppender::new().seal();
        assert!(seg.is_empty());
        assert_eq!(seg.manifest().block_count, 0);
        assert!(seg.manifest().stats.is_none());
    }

    #[test]
    fn segment_image_roundtrips_blocks_manifest_and_stats() {
        let mut app = BlockAppender::new();
        app.append(&batch(&[(5, "m", 1.0), (9, "z", 2.0)]));
        app.append(&batch(&[(1, "a", -3.0)]));
        let seg = app.seal();
        let image = seg.encode();
        let back = Segment::decode(&image).unwrap();
        let (m, n) = (seg.manifest(), back.manifest());
        assert_eq!(m.block_count, n.block_count);
        assert_eq!(m.row_count, n.row_count);
        assert_eq!(m.raw_bytes, n.raw_bytes);
        assert_eq!(m.compressed_bytes, n.compressed_bytes);
        assert_eq!(m.column_stats(0).unwrap(), n.column_stats(0).unwrap());
        for (a, b) in seg.blocks().iter().zip(back.blocks()) {
            assert_eq!(a.decode().unwrap().to_rows(), b.decode().unwrap().to_rows());
            assert_eq!(a.stats(), b.stats());
        }
    }

    #[test]
    fn empty_segment_image_roundtrips() {
        let image = BlockAppender::new().seal().encode();
        let back = Segment::decode(&image).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.manifest().block_count, 0);
    }

    #[test]
    fn segment_decode_rejects_every_single_byte_corruption() {
        let mut app = BlockAppender::new();
        app.append(&batch(&[(5, "m", 1.0), (9, "z", 2.0)]));
        let image = app.seal().encode();
        // Truncations at every length.
        for cut in 0..image.len() {
            assert!(
                Segment::decode(&image[..cut]).is_err(),
                "truncation to {cut} bytes must not decode"
            );
        }
        // Bit flips at every position (checksum catches body flips; a
        // flipped checksum byte mismatches the clean body).
        for i in 0..image.len() {
            let mut bad = image.clone();
            bad[i] ^= 0x40;
            assert!(
                Segment::decode(&bad).is_err(),
                "flip at byte {i} must not decode"
            );
        }
    }

    #[test]
    fn ranges_disjoint_rule() {
        let lo = ColStats {
            min: Some(Value::Int(1)),
            max: Some(Value::Int(10)),
            null_count: 0,
        };
        let hi = ColStats {
            min: Some(Value::Int(11)),
            max: Some(Value::Int(20)),
            null_count: 0,
        };
        let overlap = ColStats {
            min: Some(Value::Int(5)),
            max: Some(Value::Int(15)),
            null_count: 0,
        };
        let unknown = ColStats {
            min: None,
            max: None,
            null_count: 3,
        };
        assert!(ranges_disjoint(&lo, &hi));
        assert!(ranges_disjoint(&hi, &lo));
        assert!(!ranges_disjoint(&lo, &overlap));
        assert!(!ranges_disjoint(&lo, &unknown));
        assert!(!ranges_disjoint(&unknown, &hi));
    }
}
