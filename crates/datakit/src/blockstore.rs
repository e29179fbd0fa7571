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

use crate::column::{cmp_values, BatchStats, ColStats, ColumnVec, ColumnarBatch};
use crate::error::{DataError, DataResult};
use crate::schema::{Field, Schema, SchemaRef};
use crate::value::{DataType, Value};

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

fn encode_int(i: i64, out: &mut Vec<u8>) {
    out.push(TAG_INT);
    out.extend_from_slice(&i.to_le_bytes());
}

fn encode_float(x: f64, out: &mut Vec<u8>) {
    out.push(TAG_FLOAT);
    out.extend_from_slice(&x.to_bits().to_le_bytes());
}

fn encode_bool(b: bool, out: &mut Vec<u8>) {
    out.push(TAG_BOOL);
    out.push(u8::from(b));
}

fn encode_str(s: &str, out: &mut Vec<u8>) {
    out.push(TAG_STR);
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => encode_bool(*b, out),
        Value::Int(i) => encode_int(*i, out),
        Value::Float(x) => encode_float(*x, out),
        Value::Str(s) => encode_str(s, out),
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

/// Write row `i` of `col` as [`encode_value`] writes the boxed cell, read
/// off the typed vector: no [`Value`] and no owned string is built.
fn encode_cell(col: &ColumnVec, i: usize, out: &mut Vec<u8>) {
    match col {
        ColumnVec::Int { data, validity } if validity.is_valid(i) => encode_int(data[i], out),
        ColumnVec::Float { data, validity } if validity.is_valid(i) => encode_float(data[i], out),
        ColumnVec::Bool { data, validity } if validity.is_valid(i) => encode_bool(data[i], out),
        ColumnVec::Str { data, validity } if validity.is_valid(i) => encode_str(data.get(i), out),
        ColumnVec::Mixed(data) => encode_value(&data[i], out),
        _ => out.push(TAG_NULL),
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

fn take_u64(buf: &[u8], pos: &mut usize) -> DataResult<u64> {
    let b = take(buf, pos, 8)?;
    Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

/// A length-prefixed UTF-8 string, borrowed from the payload.
fn take_str<'a>(buf: &'a [u8], pos: &mut usize) -> DataResult<&'a str> {
    let len = take_u32(buf, pos)?;
    std::str::from_utf8(take(buf, pos, len)?)
        .map_err(|_| decode_err("invalid utf-8 in string cell"))
}

fn decode_value(buf: &[u8], pos: &mut usize) -> DataResult<Value> {
    let tag = take(buf, pos, 1)?[0];
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL => Value::Bool(take(buf, pos, 1)?[0] != 0),
        TAG_INT => Value::Int(take_u64(buf, pos)? as i64),
        TAG_FLOAT => Value::Float(f64::from_bits(take_u64(buf, pos)?)),
        TAG_STR => Value::Str(take_str(buf, pos)?.to_owned()),
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

/// The tag of a dense column's next cell: `true` for a value of
/// `field`'s type, `false` for a null, and for any other the type
/// mismatch the checked row constructor reports.
fn take_dense_tag(buf: &[u8], pos: &mut usize, field: &Field) -> DataResult<bool> {
    let tag = take(buf, pos, 1)?[0];
    if tag == TAG_NULL || tag == dtype_tag(field.dtype()) {
        return Ok(tag != TAG_NULL);
    }
    Err(DataError::TypeMismatch {
        column: field.name().to_owned(),
        expected: field.dtype().to_string(),
        actual: dtype_from_tag(tag)?.to_string(),
    })
}

/// Read one cell onto the end of `col`, a [`ColumnVec::with_capacity`] of
/// `field`'s type. A boxed column takes every value;
/// [`ColumnarBatch::from_columns`] checks those.
fn decode_cell(buf: &[u8], pos: &mut usize, col: &mut ColumnVec, field: &Field) -> DataResult<()> {
    match col {
        ColumnVec::Int { data, validity } => {
            let valid = take_dense_tag(buf, pos, field)?;
            data.push(if valid { take_u64(buf, pos)? as i64 } else { 0 });
            validity.push(valid);
        }
        ColumnVec::Float { data, validity } => {
            let valid = take_dense_tag(buf, pos, field)?;
            let bits = if valid { take_u64(buf, pos)? } else { 0 };
            data.push(f64::from_bits(bits));
            validity.push(valid);
        }
        ColumnVec::Bool { data, validity } => {
            let valid = take_dense_tag(buf, pos, field)?;
            data.push(valid && take(buf, pos, 1)?[0] != 0);
            validity.push(valid);
        }
        ColumnVec::Str { data, validity } => {
            let valid = take_dense_tag(buf, pos, field)?;
            data.push(if valid { take_str(buf, pos)? } else { "" });
            validity.push(valid);
        }
        ColumnVec::Mixed(cells) => cells.push(decode_value(buf, pos)?),
    }
    Ok(())
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
    decompress_onto(data, usize::MAX, &mut out)?;
    Ok(out)
}

/// Most bytes one compressed byte can stand for (a two-byte run of 128).
const MAX_EXPANSION: usize = 64;

/// [`decompress`] onto the end of `out`, giving up once the payload has
/// produced more than `limit` bytes.
fn decompress_onto(data: &[u8], limit: usize, out: &mut Vec<u8>) -> DataResult<()> {
    let start = out.len();
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
        if out.len() - start > limit {
            return Err(decode_err(format!(
                "block decompressed to more than {limit} bytes"
            )));
        }
    }
    Ok(())
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
        let raw = encode_rows(batch);
        CompressedBlock {
            schema: batch.schema().clone(),
            rows: batch.len(),
            raw_bytes: raw.len(),
            data: compress(&raw),
            stats: batch.stats().clone(),
        }
    }

    /// Decompress and decode back into a columnar batch (statistics are
    /// re-sealed from the decoded columns and match the header).
    pub fn decode(&self) -> DataResult<ColumnarBatch> {
        decode_blocks(std::slice::from_ref(self))
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

/// The payload of a block: `batch`'s cells row by row, each written
/// straight off its column.
fn encode_rows(batch: &ColumnarBatch) -> Vec<u8> {
    let columns: Vec<&ColumnVec> = (0..batch.schema().arity())
        .map(|j| batch.column(j))
        .collect();
    let mut raw = Vec::with_capacity(batch.len() * columns.len() * 9);
    for i in 0..batch.len() {
        for col in &columns {
            encode_cell(col, i, &mut raw);
        }
    }
    raw
}

/// Most bytes `block`'s payload could decompress to, whatever its header
/// claims: a compressed byte stands for at most `MAX_EXPANSION`.
fn payload_room(block: &CompressedBlock) -> usize {
    let expands_to = block.data.len().saturating_mul(MAX_EXPANSION);
    block.raw_bytes.min(expands_to)
}

/// Most rows of `arity` cells `blocks` could hold, whatever their headers
/// claim: a cell is at least its tag byte.
fn row_room(blocks: &[CompressedBlock], arity: usize) -> usize {
    let room = |b: &CompressedBlock| b.rows.min(payload_room(b) / arity.max(1));
    blocks.iter().map(room).sum()
}

/// Decode consecutive blocks of one schema — a segment's, or one block —
/// into one batch: every block's cells land in one typed builder per
/// column, sealed once through [`ColumnarBatch::from_columns`]. No blocks
/// decode to the empty batch of the empty schema.
///
/// The blocks' headers are untrusted: the builders are sized for no more
/// rows than the blocks' bytes could hold (`row_room`), and a row count
/// the payload cannot fill is a [`DataError::Decode`].
pub fn decode_blocks(blocks: &[CompressedBlock]) -> DataResult<ColumnarBatch> {
    let schema = blocks
        .first()
        .map_or_else(Schema::empty, |b| b.schema.clone());
    let fields = schema.fields();
    let room = row_room(blocks, fields.len());
    let mut columns: Vec<ColumnVec> = fields
        .iter()
        .map(|f| ColumnVec::with_capacity(f.dtype(), room))
        .collect();
    let (mut raw, mut rows) = (Vec::new(), 0);
    for block in blocks {
        raw.clear();
        raw.reserve(payload_room(block));
        decompress_onto(&block.data, block.raw_bytes, &mut raw)?;
        if raw.len() != block.raw_bytes {
            return Err(decode_err(format!(
                "block decompressed to {} bytes, expected {}",
                raw.len(),
                block.raw_bytes
            )));
        }
        let mut pos = 0;
        // A row of no columns is no bytes: its header's count is all
        // there is of it.
        let with_cells = if fields.is_empty() { 0 } else { block.rows };
        for _ in 0..with_cells {
            for (col, field) in columns.iter_mut().zip(fields) {
                decode_cell(&raw, &mut pos, col, field)?;
            }
        }
        if pos != raw.len() {
            return Err(decode_err("trailing bytes after last row"));
        }
        rows += block.rows;
    }
    if fields.is_empty() {
        return Ok(ColumnarBatch::seal(schema, Vec::new(), rows));
    }
    ColumnarBatch::from_columns(schema, columns)
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
            .unwrap_or_else(Schema::empty);
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
    /// cache miss, never a panic. A block's row count is checked against
    /// its payload when the block is decoded; rows of an empty schema have
    /// no payload to check, so an image holding any is refused here.
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
            // A row of no columns is no bytes: nothing in the image could
            // bound such a block's count, so it may claim none.
            if schema.arity() == 0 && rows > 0 {
                return Err(decode_err("block of no columns claims rows"));
            }
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

fn dtype_tag(dt: DataType) -> u8 {
    use DataType::*;
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

fn dtype_from_tag(tag: u8) -> DataResult<DataType> {
    use DataType::*;
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
        fields.push(Field::new(name, dtype));
    }
    Schema::new(fields)
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
    use crate::tuple::Tuple;
    use scriptflow_simcluster::SplitMix64;

    /// The boxed-row encoder the column walk replaced, kept as its
    /// oracle: every cell a [`Value`], every row a `Vec`.
    fn encode_boxed(batch: &ColumnarBatch) -> Vec<u8> {
        let mut raw = Vec::new();
        for row in batch.to_rows() {
            for v in &row {
                encode_value(v, &mut raw);
            }
        }
        raw
    }

    /// The boxed-row decoder, likewise: rows of values through the
    /// checked row constructor.
    fn decode_boxed(block: &CompressedBlock) -> DataResult<ColumnarBatch> {
        let raw = decompress(&block.data)?;
        if raw.len() != block.raw_bytes {
            return Err(decode_err("length"));
        }
        let mut pos = 0;
        let mut rows = Vec::new();
        for _ in 0..block.rows {
            let mut row = Vec::new();
            for _ in 0..block.schema.arity() {
                row.push(decode_value(&raw, &mut pos)?);
            }
            rows.push(row);
        }
        if pos != raw.len() {
            return Err(decode_err("trailing"));
        }
        ColumnarBatch::from_rows(block.schema.clone(), rows)
    }

    /// A block over `raw` as its decompressed payload, claiming `rows`.
    fn forged(schema: &SchemaRef, rows: usize, raw: &[u8]) -> CompressedBlock {
        CompressedBlock {
            schema: schema.clone(),
            rows,
            raw_bytes: raw.len(),
            data: compress(raw),
            stats: BatchStats { columns: vec![] },
        }
    }

    /// Every `DataType`, a null in every column, `NaN` and `-0.0`, empty
    /// and multi-byte strings, bytes, a nested list. Row 0 holds the NaN.
    fn every_type() -> ColumnarBatch {
        let schema = Schema::of(&[
            ("n", DataType::Null),
            ("b", DataType::Bool),
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("s", DataType::Str),
            ("y", DataType::Bytes),
            ("l", DataType::List),
        ]);
        let nested = Value::List(vec![
            Value::Int(1),
            Value::List(vec![Value::Str("é".into()), Value::Null]),
            Value::Float(-0.0),
        ]);
        let rows = vec![
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(i64::MIN),
                Value::Float(f64::NAN),
                Value::Str(String::new()),
                Value::Bytes(vec![0u8, 255, 7].into()),
                nested,
            ],
            vec![Value::Null; 7],
            vec![
                Value::Null,
                Value::Bool(false),
                Value::Int(-1),
                Value::Float(-0.0),
                Value::Str("日本語 🦀".into()),
                Value::Bytes(Vec::new().into()),
                Value::List(vec![]),
            ],
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(7),
                Value::Float(1.5),
                Value::Str("a".into()),
                Value::Bytes(vec![9u8; 300].into()),
                Value::List(vec![Value::Bool(false)]),
            ],
        ];
        ColumnarBatch::from_rows(schema, rows).unwrap()
    }

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

    #[test]
    fn wire_format_is_the_boxed_encoders_byte_for_byte() {
        let b = every_type();
        let want = encode_boxed(&b);
        assert_eq!(encode_rows(&b), want);
        let block = CompressedBlock::seal(&b);
        assert_eq!(block.raw_bytes(), want.len());
        assert_eq!(decompress(&block.data).unwrap(), want);

        // Back to the same cells bit for bit (`NaN != NaN`, so the float
        // column is compared re-encoded), validity and statistics.
        let back = block.decode().unwrap();
        assert_eq!(encode_boxed(&back), want);
        assert_eq!(back.stats(), b.stats());
        assert_eq!(back.stats(), block.stats());
        for j in (0..7).filter(|&j| j != 3) {
            assert_eq!(back.column(j), b.column(j), "column {j}");
        }
        let no_nan = b.take(&[1, 2, 3]);
        assert_eq!(CompressedBlock::seal(&no_nan).decode().unwrap(), no_nan);
        assert_eq!(decode_boxed(&block).unwrap().stats(), back.stats());

        // All the blocks of a segment into one batch, and none.
        let mut app = BlockAppender::new();
        app.append(&no_nan);
        app.append(&no_nan.take(&[2, 0]));
        let whole = decode_blocks(app.seal().blocks()).unwrap();
        assert_eq!(whole, b.take(&[1, 2, 3, 3, 1]));
        assert!(decode_blocks(&[]).unwrap().is_empty());

        // A cell of another type in a dense column is the type mismatch
        // the checked row constructor reports.
        for (dtype, wrong) in [
            (DataType::Bool, Value::Int(1)),
            (DataType::Int, Value::Float(1.0)),
            (DataType::Float, Value::Str("1".into())),
            (DataType::Str, Value::Bool(true)),
        ] {
            let schema = Schema::of(&[("ok", DataType::Int), ("c", dtype)]);
            let row = vec![Value::Int(0), wrong];
            let mut raw = Vec::new();
            row.iter().for_each(|v| encode_value(v, &mut raw));
            let got = forged(&schema, 1, &raw).decode().unwrap_err();
            assert!(matches!(got, DataError::TypeMismatch { .. }), "{got:?}");
            assert_eq!(
                got,
                ColumnarBatch::from_rows(schema, vec![row]).unwrap_err()
            );
        }
        // A row of no columns is no bytes; its count still round-trips.
        let none = ColumnarBatch::from_tuples(
            Schema::empty(),
            &vec![Tuple::new(Schema::empty(), vec![]).unwrap(); 3],
        );
        let back = CompressedBlock::seal(&none).decode().unwrap();
        assert_eq!((back.len(), back.to_tuples().len()), (3, 3));
    }

    #[test]
    fn forged_row_count_is_a_decode_error_not_an_allocation() {
        // Raise the manifest's row count and the one block's together,
        // under a fresh checksum: the envelope still agrees with itself.
        let forge = |seg: &Segment| {
            let mut image = seg.encode();
            let mut head = SEGMENT_MAGIC.to_vec();
            encode_schema(seg.blocks()[0].schema(), &mut head);
            let row_count = head.len() + 8;
            let mut stats = Vec::new();
            encode_opt_stats(seg.manifest().stats.as_ref(), &mut stats);
            let block_rows = head.len() + 32 + stats.len();
            image[row_count..row_count + 8].copy_from_slice(&u64::from(u32::MAX).to_le_bytes());
            image[block_rows..block_rows + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let body = image.len() - 8;
            let sum = fnv1a64(&image[..body]);
            image[body..].copy_from_slice(&sum.to_le_bytes());
            image
        };
        let mut app = BlockAppender::new();
        app.append(&batch(&[(5, "m", 1.0), (9, "z", 2.0)]));
        let seg = app.seal();
        let image = forge(&seg);

        let forged = Segment::decode(&image).expect("the envelope is consistent");
        assert_eq!(forged.manifest().row_count, u64::from(u32::MAX));
        let block = &forged.blocks()[0];
        assert_eq!(block.rows(), u32::MAX as usize);
        // 4 billion rows of three cells cannot fit the payload's few
        // dozen bytes: the builders are sized for what those could hold,
        // and the payload runs out in its third row.
        assert!(row_room(forged.blocks(), 3) <= block.raw_bytes() / 3);
        assert!(payload_room(block) <= block.raw_bytes().min(image.len() * MAX_EXPANSION));
        for got in [block.decode(), decode_blocks(forged.blocks())] {
            assert!(
                matches!(&got, Err(DataError::Decode { message, .. }) if message.contains("truncated")),
                "{got:?}"
            );
        }
        // Rows of no columns have no payload to run out: an image may
        // not hold any, so none reach `to_tuples`.
        let mut app = BlockAppender::new();
        app.append(&ColumnarBatch::seal(Schema::empty(), Vec::new(), 3));
        let none = app.seal();
        for image in [none.encode(), forge(&none)] {
            let got = Segment::decode(&image);
            assert!(
                matches!(&got, Err(DataError::Decode { message, .. }) if message.contains("no columns")),
                "{got:?}"
            );
        }
        // A run-length bomb stops at the header's size, not at its end.
        let bomb = CompressedBlock {
            data: [129u8, 0].repeat(1 << 16),
            ..seg.blocks()[0].clone()
        };
        let mut out = Vec::new();
        assert!(decompress_onto(&bomb.data, bomb.raw_bytes, &mut out).is_err());
        assert!(out.len() <= bomb.raw_bytes + 128);
        assert!(bomb.decode().is_err());
    }

    /// Second piece of the decoder fuzz: payloads mutated, truncated and
    /// extended, compressed and decompressed. The column decoder never
    /// panics, answers `Ok` exactly when the boxed decoder does, and with
    /// the same batch.
    #[test]
    fn mutated_payloads_decode_as_the_boxed_decoder_or_fail() {
        let mut rng = SplitMix64::new(0x5EED_B10C);
        let bases = [
            every_type(),
            batch(&[(3, "c", 0.5), (1, "", -2.0), (2, "héllo", f64::MAX)]),
        ];
        let (mut served, mut refused) = (0, 0);
        for case in 0..6_000 {
            let base = &bases[case % bases.len()];
            let sealed = CompressedBlock::seal(base);
            let mut block = sealed.clone();
            // Mutate the decompressed payload (and re-compress it) or the
            // compressed bytes as they are.
            let on_raw = rng.bool(0.6);
            let mut bytes = if on_raw {
                encode_rows(base)
            } else {
                sealed.data.clone()
            };
            match rng.range(0..4usize) {
                0 => {
                    for _ in 0..rng.range(1..4usize) {
                        let at = rng.range(0..bytes.len());
                        bytes[at] ^= 1 << rng.range(0..8usize);
                    }
                }
                1 => {
                    let at = rng.range(0..bytes.len());
                    bytes[at] = rng.range(0..8usize) as u8; // a tag, often
                }
                2 => bytes.truncate(rng.range(0..bytes.len())),
                _ => {
                    let extra = rng.range(1..12usize);
                    bytes.extend((0..extra).map(|_| rng.next_u64() as u8));
                }
            }
            if on_raw {
                block.raw_bytes = bytes.len();
                block.data = compress(&bytes);
            } else {
                block.data = bytes;
            }
            if rng.bool(0.2) {
                block.rows = rng.range(0..block.rows + 3);
            }
            let (got, want) = (block.decode(), decode_boxed(&block));
            match (&got, &want) {
                (Ok(got), Ok(want)) => {
                    served += 1;
                    assert_eq!(got.len(), block.rows);
                    assert_eq!(encode_boxed(got), encode_boxed(want), "case {case}");
                    assert_eq!(got.stats(), want.stats(), "case {case}");
                    let columns = (0..got.schema().arity()).map(|j| got.column(j).clone());
                    ColumnarBatch::from_columns(got.schema().clone(), columns.collect())
                        .expect("a decoded batch is one the checked constructor accepts");
                }
                (Err(_), Err(_)) => refused += 1,
                _ => panic!("case {case}: column decoder {got:?}, boxed decoder {want:?}"),
            }
        }
        println!("decoder fuzz: {served} served, {refused} refused, 0 panics");
        assert!(served > 100 && refused > 1_000, "{served} / {refused}");
    }
}
