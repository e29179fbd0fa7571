//! Block store for sealed columnar batches.
//!
//! Blocking operators that outgrow their memory budget, and the result
//! cache, persist batches here: a sealed [`ColumnarBatch`] — or a range of
//! its rows — becomes a [`CompressedBlock`], a column-major byte payload
//! plus the rows' per-column min/max/null statistics carried into the
//! block header, and a [`BlockAppender`] groups consecutive blocks under a
//! [`SegmentManifest`] holding the block count, row count, byte totals,
//! and the *merged* column statistics (databend's
//! `BlockAppender`/`SegmentInfo` layout). The manifest stats double as a
//! zone map: a probe-side batch whose key range is disjoint from a spilled
//! partition's merged range can skip that partition without decoding a
//! single block.
//!
//! # Payload
//!
//! One section per column, in schema order. A typed column opens with its
//! validity — a flag byte, all valid or a bitmap follows — and then holds
//! every row's value, the placeholder under a null included, so a block
//! decodes to the very columns it was sealed from:
//!
//! * `Int` — frame of reference: a base `i64` and a byte width (1, 2, 4 or
//!   8) of each value's wrapping offset from it;
//! * `Float` — the 8 little-endian bytes of the bit pattern, so NaN and
//!   signed zeros survive;
//! * `Bool` — a bitmap;
//! * `Str` — a length width (1, 2 or 4), the lengths, then the bytes;
//! * a boxed (`Mixed`) column — every cell tagged, no validity flag.
//!
//! The narrow integer offsets are the only compression: a byte-level
//! run-length pass cost more to run than it saved on spilled and cached
//! blocks. A block's "compressed" size is its stored payload, its raw size
//! the plain typed one (8 B per int or float cell, 1 B per bool, 4 B plus
//! the length per string, the tagged size of a boxed cell). The codec is
//! deterministic, which the calibrated spill cost model and the
//! exactly-once replay tests rely on.

use std::cmp::Ordering;
use std::ops::Range;

use crate::codec::Json;
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

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => out.extend_from_slice(&[TAG_BOOL, u8::from(*b)]),
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

/// `n` items of `size` bytes each.
fn take_n<'a>(buf: &'a [u8], pos: &mut usize, n: usize, size: usize) -> DataResult<&'a [u8]> {
    let len = n
        .checked_mul(size)
        .ok_or_else(|| decode_err("truncated block payload"))?;
    take(buf, pos, len)
}

fn take_u32(buf: &[u8], pos: &mut usize) -> DataResult<usize> {
    let b = take(buf, pos, 4)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
}

fn take_u64(buf: &[u8], pos: &mut usize) -> DataResult<u64> {
    let b = take(buf, pos, 8)?;
    Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

/// One value inside `depth` enclosing lists. Lists nest at most
/// [`Json::MAX_DEPTH`] deep, as JSON documents do: the decoder recurses
/// once per level, so a forged image of unbounded nesting would overflow
/// the stack.
fn decode_value(buf: &[u8], pos: &mut usize, depth: usize) -> DataResult<Value> {
    let tag = take(buf, pos, 1)?[0];
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL => Value::Bool(take(buf, pos, 1)?[0] != 0),
        TAG_INT => Value::Int(take_u64(buf, pos)? as i64),
        TAG_FLOAT => Value::Float(f64::from_bits(take_u64(buf, pos)?)),
        TAG_STR => {
            let len = take_u32(buf, pos)?;
            let s = std::str::from_utf8(take(buf, pos, len)?)
                .map_err(|_| decode_err("invalid utf-8 in string cell"))?;
            Value::Str(s.to_owned())
        }
        TAG_BYTES => {
            let len = take_u32(buf, pos)?;
            Value::Bytes(take(buf, pos, len)?.into())
        }
        TAG_LIST if depth == Json::MAX_DEPTH => {
            return Err(decode_err(format!(
                "list nested deeper than {}",
                Json::MAX_DEPTH
            )))
        }
        TAG_LIST => {
            let len = take_u32(buf, pos)?;
            let mut vs = Vec::with_capacity(len.min(4096));
            for _ in 0..len {
                vs.push(decode_value(buf, pos, depth + 1)?);
            }
            Value::List(vs)
        }
        other => return Err(decode_err(format!("unknown value tag {other}"))),
    })
}

// ---------------------------------------------------------------------------
// Column codec
// ---------------------------------------------------------------------------

/// Validity flag: every row of the column is valid.
const ALL_VALID: u8 = 0;
/// Validity flag: a bitmap of the rows follows.
const WITH_NULLS: u8 = 1;

/// Smallest of `widths` (ascending byte counts) that holds `max`.
fn width_for(max: u64, widths: &[usize]) -> usize {
    let fits = |&w: &usize| w == 8 || max >> (8 * w) == 0;
    let mut holding = widths.iter().copied().filter(fits);
    holding.next().expect("the widest width holds every value")
}

/// Append `values` truncated to `width` little-endian bytes each.
fn put_uints(values: impl Iterator<Item = u64>, width: usize, out: &mut Vec<u8>) {
    match width {
        1 => out.extend(values.map(|v| v as u8)),
        2 => values.for_each(|v| out.extend_from_slice(&(v as u16).to_le_bytes())),
        4 => values.for_each(|v| out.extend_from_slice(&(v as u32).to_le_bytes())),
        _ => values.for_each(|v| out.extend_from_slice(&v.to_le_bytes())),
    }
}

/// Call `f` with each `width`-byte little-endian integer of `bytes`.
fn for_each_uint(bytes: &[u8], width: usize, mut f: impl FnMut(u64)) {
    match width {
        1 => bytes.iter().for_each(|&b| f(b.into())),
        2 => bytes
            .chunks_exact(2)
            .for_each(|c| f(u16::from_le_bytes([c[0], c[1]]).into())),
        4 => bytes
            .chunks_exact(4)
            .for_each(|c| f(u32::from_le_bytes(c.try_into().expect("4 bytes")).into())),
        _ => bytes
            .chunks_exact(8)
            .for_each(|c| f(u64::from_le_bytes(c.try_into().expect("8 bytes")))),
    }
}

/// A width byte, which must be one of `widths`.
fn take_width(buf: &[u8], pos: &mut usize, widths: &[usize]) -> DataResult<usize> {
    let w = take(buf, pos, 1)?[0] as usize;
    if widths.contains(&w) {
        Ok(w)
    } else {
        Err(decode_err(format!("bad byte width {w}")))
    }
}

/// Append `bits` packed eight to a byte, lowest bit first.
fn put_bits(bits: impl Iterator<Item = bool>, out: &mut Vec<u8>) {
    let (mut byte, mut n) = (0u8, 0);
    for bit in bits {
        byte |= u8::from(bit) << n;
        n += 1;
        if n == 8 {
            out.push(byte);
            (byte, n) = (0, 0);
        }
    }
    if n > 0 {
        out.push(byte);
    }
}

/// Bit `i` of a [`put_bits`] bitmap.
fn bit(bits: &[u8], i: usize) -> bool {
    bits[i / 8] >> (i % 8) & 1 != 0
}

/// Write rows `rows` of `col` as one column section and return their
/// plain typed size.
fn encode_column(col: &ColumnVec, rows: Range<usize>, out: &mut Vec<u8>) -> usize {
    let n = rows.len();
    let validity = match col {
        ColumnVec::Mixed(cells) => {
            let start = out.len();
            cells[rows].iter().for_each(|v| encode_value(v, out));
            return out.len() - start;
        }
        ColumnVec::Int { validity, .. }
        | ColumnVec::Float { validity, .. }
        | ColumnVec::Bool { validity, .. }
        | ColumnVec::Str { validity, .. } => validity,
    };
    if validity.count_invalid_in(rows.clone()) == 0 {
        out.push(ALL_VALID);
    } else {
        out.push(WITH_NULLS);
        put_bits(rows.clone().map(|i| validity.is_valid(i)), out);
    }
    match col {
        ColumnVec::Int { data, .. } => {
            let data = &data[rows];
            let base = data.iter().copied().min().unwrap_or(0);
            let offsets = || data.iter().map(move |&v| v.wrapping_sub(base) as u64);
            let width = width_for(offsets().max().unwrap_or(0), &[1, 2, 4, 8]);
            out.extend_from_slice(&base.to_le_bytes());
            out.push(width as u8);
            put_uints(offsets(), width, out);
            8 * n
        }
        ColumnVec::Float { data, .. } => {
            put_uints(data[rows].iter().map(|x| x.to_bits()), 8, out);
            8 * n
        }
        ColumnVec::Bool { data, .. } => {
            put_bits(data[rows].iter().copied(), out);
            n
        }
        ColumnVec::Str { data, .. } => {
            let lens = || data.iter_rows(rows.clone()).map(|s| s.len() as u64);
            let width = width_for(lens().max().unwrap_or(0), &[1, 2, 4]);
            out.push(width as u8);
            put_uints(lens(), width, out);
            let bytes = data.span(rows.clone());
            out.extend_from_slice(bytes.as_bytes());
            4 * n + bytes.len()
        }
        ColumnVec::Mixed(_) => unreachable!("boxed columns were written above"),
    }
}

/// Read one column section of `rows` rows onto the end of `col` and
/// return their plain typed size. Every count and width is checked
/// against the bytes left before a cell is pushed; a boxed column's
/// cells are checked against its type by [`ColumnarBatch::from_columns`].
fn decode_column(
    buf: &[u8],
    pos: &mut usize,
    rows: usize,
    col: &mut ColumnVec,
) -> DataResult<usize> {
    let nulls = match col {
        ColumnVec::Mixed(cells) => {
            let start = *pos;
            for _ in 0..rows {
                cells.push(decode_value(buf, pos, 0)?);
            }
            return Ok(*pos - start);
        }
        ColumnVec::Int { .. }
        | ColumnVec::Float { .. }
        | ColumnVec::Bool { .. }
        | ColumnVec::Str { .. } => match take(buf, pos, 1)?[0] {
            ALL_VALID => None,
            WITH_NULLS => Some(take(buf, pos, rows.div_ceil(8))?),
            other => return Err(decode_err(format!("bad validity flag {other}"))),
        },
    };
    let (plain, bits) = match col {
        ColumnVec::Int { data, validity } => {
            let base = take_u64(buf, pos)? as i64;
            let width = take_width(buf, pos, &[1, 2, 4, 8])?;
            let offsets = take_n(buf, pos, rows, width)?;
            for_each_uint(offsets, width, |d| data.push(base.wrapping_add(d as i64)));
            (8 * rows, validity)
        }
        ColumnVec::Float { data, validity } => {
            let cells = take_n(buf, pos, rows, 8)?;
            for_each_uint(cells, 8, |x| data.push(f64::from_bits(x)));
            (8 * rows, validity)
        }
        ColumnVec::Bool { data, validity } => {
            let cells = take(buf, pos, rows.div_ceil(8))?;
            data.extend((0..rows).map(|i| bit(cells, i)));
            (rows, validity)
        }
        ColumnVec::Str { data, validity } => {
            let width = take_width(buf, pos, &[1, 2, 4])?;
            let lens = take_n(buf, pos, rows, width)?;
            let mut total = 0usize;
            for_each_uint(lens, width, |len| {
                total = total.saturating_add(len as usize)
            });
            let text = std::str::from_utf8(take(buf, pos, total)?)
                .map_err(|_| decode_err("invalid utf-8 in string column"))?;
            let (mut at, mut cut_ok) = (0, true);
            for_each_uint(lens, width, |len| {
                let end = at + len as usize;
                match text.get(at..end) {
                    Some(s) => data.push(s),
                    None => cut_ok = false,
                }
                at = end;
            });
            if !cut_ok {
                return Err(decode_err("string cut inside a utf-8 character"));
            }
            (4 * rows + total, validity)
        }
        ColumnVec::Mixed(_) => unreachable!("boxed columns were read above"),
    };
    match nulls {
        None => (0..rows).for_each(|_| bits.push(true)),
        Some(map) => (0..rows).for_each(|i| bits.push(bit(map, i))),
    }
    Ok(plain)
}

// ---------------------------------------------------------------------------
// Blocks, appender, segments
// ---------------------------------------------------------------------------

/// One sealed batch, encoded column by column, with its statistics in the
/// header.
#[derive(Debug, Clone)]
pub struct CompressedBlock {
    schema: SchemaRef,
    rows: usize,
    raw_bytes: usize,
    data: Vec<u8>,
    stats: BatchStats,
}

impl CompressedBlock {
    /// Seal a columnar batch into a block, carrying the batch's
    /// per-column statistics into the block header.
    pub fn seal(batch: &ColumnarBatch) -> CompressedBlock {
        CompressedBlock::seal_range(batch, 0..batch.len())
    }

    /// Seal rows `rows` of `batch` in place: the block [`CompressedBlock::seal`]
    /// makes of [`ColumnarBatch::take`] of those rows, without the gather.
    fn seal_range(batch: &ColumnarBatch, rows: Range<usize>) -> CompressedBlock {
        let arity = batch.schema().arity();
        let mut data = Vec::with_capacity(rows.len() * arity * 8 + arity * 16);
        let raw_bytes = (0..arity)
            .map(|j| encode_column(batch.column(j), rows.clone(), &mut data))
            .sum();
        let stats = batch.stats_over(rows.clone());
        CompressedBlock {
            schema: batch.schema().clone(),
            rows: rows.len(),
            raw_bytes,
            data,
            stats,
        }
    }

    /// Decode back into a columnar batch (its statistics, computed from
    /// the decoded columns when read, match the header).
    pub fn decode(&self) -> DataResult<ColumnarBatch> {
        decode_blocks(std::slice::from_ref(self))
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Plain typed size of the stored cells in bytes.
    pub fn raw_bytes(&self) -> usize {
        self.raw_bytes
    }

    /// Stored payload size in bytes.
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

/// Most rows of `fields` `blocks` could hold, whatever their headers
/// claim: a row costs at least a bit in a bool column, eight bytes in a
/// float column and a byte in any other.
fn row_room(blocks: &[CompressedBlock], fields: &[Field]) -> usize {
    let bits: usize = fields
        .iter()
        .map(|f| match f.dtype() {
            DataType::Bool => 1,
            DataType::Float => 64,
            _ => 8,
        })
        .sum();
    let room = |b: &CompressedBlock| b.rows.min(b.data.len().saturating_mul(8) / bits.max(1));
    blocks.iter().map(room).sum()
}

/// Decode consecutive blocks of one schema — a segment's, or one block —
/// into one batch: every block's columns land in one typed builder per
/// column, sealed once through [`ColumnarBatch::from_columns`]. No blocks
/// decode to the empty batch of the empty schema.
///
/// The blocks' headers are untrusted: the builders are sized for no more
/// rows than the blocks' bytes could hold (`row_room`), and a row count
/// the payload cannot fill, or a raw size it does not add up to, is a
/// [`DataError::Decode`].
pub fn decode_blocks(blocks: &[CompressedBlock]) -> DataResult<ColumnarBatch> {
    let schema = blocks
        .first()
        .map_or_else(Schema::empty, |b| b.schema.clone());
    let fields = schema.fields();
    let room = row_room(blocks, fields);
    let mut columns: Vec<ColumnVec> = fields
        .iter()
        .map(|f| ColumnVec::with_capacity(f.dtype(), room))
        .collect();
    let mut rows = 0;
    for block in blocks {
        let mut pos = 0;
        let mut plain = 0;
        for col in &mut columns {
            plain += decode_column(&block.data, &mut pos, block.rows, col)?;
        }
        if pos != block.data.len() {
            return Err(decode_err("trailing bytes after last column"));
        }
        if plain != block.raw_bytes {
            return Err(decode_err(format!(
                "block holds {plain} plain bytes, header says {}",
                block.raw_bytes
            )));
        }
        // A row of no columns is no bytes: then its header's count is all
        // there is of it.
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
    /// Total plain typed bytes ([`CompressedBlock::raw_bytes`]).
    pub raw_bytes: u64,
    /// Total stored payload bytes.
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

    /// Seal `batch` into a block, append it, and return the stored size
    /// of the new block in bytes.
    pub fn append(&mut self, batch: &ColumnarBatch) -> usize {
        self.append_range(batch, 0..batch.len())
    }

    /// [`BlockAppender::append`] of rows `rows` of `batch`, sealed in
    /// place: the block of [`ColumnarBatch::take`] of those rows, without
    /// the gather.
    pub fn append_range(&mut self, batch: &ColumnarBatch, rows: Range<usize>) -> usize {
        let block = CompressedBlock::seal_range(batch, rows);
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

/// An immutable, sealed group of blocks plus its manifest.
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
    /// into a self-contained byte image ending in a checksum.
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
        let sum = checksum(&out);
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
        if checksum(body) != want {
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

/// Magic + version prefix of an encoded segment image. Version 2 is the
/// column-major payload; an image of any other version is a decode error.
const SEGMENT_MAGIC: &[u8] = b"SFSEG2";

/// The trailing integrity checksum of an encoded segment: FNV-1a folded
/// over 8-byte little-endian words, then the tail bytes one by one, then
/// the length. A change within one word always changes the sum (every
/// step is a bijection of the running state). Deterministic and
/// dependency-free, like the rest of the codec.
fn checksum(bytes: &[u8]) -> u64 {
    let fold = |h: u64, x: u64| (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    let h = words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        fold(h, u64::from_le_bytes(w.try_into().expect("8 bytes")))
    });
    let h = tail.iter().fold(h, |h, &b| fold(h, b.into()));
    fold(h, bytes.len() as u64)
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
        1 => Ok(Some(decode_value(buf, pos, 0)?)),
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

    /// The smallest of 1, 2, 4 and 8 bytes that holds `max`, spelled out.
    fn boxed_width(max: u64) -> usize {
        match max {
            0..=0xff => 1,
            0x100..=0xffff => 2,
            0x1_0000..=0xffff_ffff => 4,
            _ => 8,
        }
    }

    /// Bit `i` of each of `bits`, packed eight to a byte, lowest first.
    fn boxed_bitmap(bits: &[bool]) -> Vec<u8> {
        bits.chunks(8)
            .map(|c| c.iter().rev().fold(0u8, |b, &x| b << 1 | u8::from(x)))
            .collect()
    }

    /// The column-major payload written from boxed rows (`to_rows`), the
    /// oracle of the typed walk: a null's placeholder is the one
    /// [`ColumnarBatch::from_rows`] puts there.
    fn encode_boxed(batch: &ColumnarBatch) -> Vec<u8> {
        let rows = batch.to_rows();
        let mut out = Vec::new();
        for (j, field) in batch.schema().fields().iter().enumerate() {
            let cells: Vec<&Value> = rows.iter().map(|r| &r[j]).collect();
            let dtype = field.dtype();
            if !matches!(
                dtype,
                DataType::Int | DataType::Float | DataType::Bool | DataType::Str
            ) {
                cells.iter().for_each(|v| encode_value(v, &mut out));
                continue;
            }
            let valid: Vec<bool> = cells.iter().map(|v| !v.is_null()).collect();
            if valid.iter().all(|&v| v) {
                out.push(0);
            } else {
                out.push(1);
                out.extend(boxed_bitmap(&valid));
            }
            match dtype {
                DataType::Int => {
                    let xs: Vec<i64> = cells.iter().map(|v| v.as_int().unwrap_or(0)).collect();
                    let base = xs.iter().copied().min().unwrap_or(0);
                    let offsets: Vec<u64> =
                        xs.iter().map(|&x| x.wrapping_sub(base) as u64).collect();
                    let width = boxed_width(offsets.iter().copied().max().unwrap_or(0));
                    out.extend(base.to_le_bytes());
                    out.push(width as u8);
                    offsets
                        .iter()
                        .for_each(|d| out.extend(&d.to_le_bytes()[..width]));
                }
                DataType::Float => cells.iter().for_each(|v| {
                    let x = if let Value::Float(x) = v { *x } else { 0.0 };
                    out.extend(x.to_bits().to_le_bytes());
                }),
                DataType::Bool => {
                    let bs: Vec<bool> = cells.iter().map(|v| v.as_bool() == Some(true)).collect();
                    out.extend(boxed_bitmap(&bs));
                }
                _ => {
                    let ss: Vec<&str> = cells.iter().map(|v| v.as_str().unwrap_or("")).collect();
                    let width = boxed_width(ss.iter().map(|s| s.len() as u64).max().unwrap_or(0));
                    out.push(width as u8);
                    ss.iter()
                        .for_each(|s| out.extend(&(s.len() as u64).to_le_bytes()[..width]));
                    ss.iter().for_each(|s| out.extend(s.as_bytes()));
                }
            }
        }
        out
    }

    /// Plain typed size of `batch`'s cells, summed from boxed rows.
    fn plain_boxed(batch: &ColumnarBatch) -> usize {
        let fields = batch.schema().fields();
        let cell = |dtype: DataType, v: &Value| match dtype {
            DataType::Int | DataType::Float => 8,
            DataType::Bool => 1,
            DataType::Str => 4 + v.as_str().map_or(0, str::len),
            _ => {
                let mut tagged = Vec::new();
                encode_value(v, &mut tagged);
                tagged.len()
            }
        };
        let rows = batch.to_rows();
        let row = |r: &Vec<Value>| -> usize {
            fields.iter().zip(r).map(|(f, v)| cell(f.dtype(), v)).sum()
        };
        rows.iter().map(row).sum()
    }

    /// The boxed decoder, likewise: every column read into `Value`s, cut
    /// string by string, and the rows through the checked row constructor.
    fn decode_boxed(block: &CompressedBlock) -> DataResult<ColumnarBatch> {
        let (buf, n) = (&block.data[..], block.rows);
        let (mut pos, mut plain) = (0, 0);
        let mut columns: Vec<Vec<Value>> = Vec::new();
        for field in block.schema.fields() {
            let dtype = field.dtype();
            if !matches!(
                dtype,
                DataType::Int | DataType::Float | DataType::Bool | DataType::Str
            ) {
                let start = pos;
                let cells = (0..n).map(|_| decode_value(buf, &mut pos, 0));
                columns.push(cells.collect::<DataResult<_>>()?);
                plain += pos - start;
                continue;
            }
            let bit = |bits: &[u8], i: usize| bits[i / 8] & (1 << (i % 8)) != 0;
            let valid: Vec<bool> = match take(buf, &mut pos, 1)?[0] {
                0 => vec![true; n],
                1 => {
                    let bits = take(buf, &mut pos, n.div_ceil(8))?;
                    (0..n).map(|i| bit(bits, i)).collect()
                }
                _ => return Err(decode_err("validity flag")),
            };
            let cells: Vec<Value> = match dtype {
                DataType::Int => {
                    let base = take_u64(buf, &mut pos)? as i64;
                    let width = take(buf, &mut pos, 1)?[0] as usize;
                    if ![1, 2, 4, 8].contains(&width) {
                        return Err(decode_err("int width"));
                    }
                    let bytes = take(buf, &mut pos, n * width)?;
                    plain += 8 * n;
                    let offset = |c: &[u8]| {
                        let mut word = [0u8; 8];
                        word[..width].copy_from_slice(c);
                        u64::from_le_bytes(word) as i64
                    };
                    let cells = bytes.chunks(width);
                    cells
                        .map(|c| Value::Int(base.wrapping_add(offset(c))))
                        .collect()
                }
                DataType::Float => {
                    plain += 8 * n;
                    let cells = take(buf, &mut pos, n * 8)?.chunks(8);
                    let bits = |c: &[u8]| u64::from_le_bytes(c.try_into().unwrap());
                    cells
                        .map(|c| Value::Float(f64::from_bits(bits(c))))
                        .collect()
                }
                DataType::Bool => {
                    plain += n;
                    let bits = take(buf, &mut pos, n.div_ceil(8))?;
                    (0..n).map(|i| Value::Bool(bit(bits, i))).collect()
                }
                _ => {
                    let width = take(buf, &mut pos, 1)?[0] as usize;
                    if ![1, 2, 4].contains(&width) {
                        return Err(decode_err("length width"));
                    }
                    let lens: Vec<usize> = take(buf, &mut pos, n * width)?
                        .chunks(width)
                        .map(|c| c.iter().rev().fold(0, |l, &b| l << 8 | b as usize))
                        .collect();
                    let mut cells = Vec::new();
                    for len in lens {
                        let s = std::str::from_utf8(take(buf, &mut pos, len)?)
                            .map_err(|_| decode_err("utf-8"))?;
                        plain += 4 + len;
                        cells.push(Value::Str(s.to_owned()));
                    }
                    cells
                }
            };
            let cells = cells.into_iter().zip(valid);
            columns.push(
                cells
                    .map(|(v, ok)| if ok { v } else { Value::Null })
                    .collect(),
            );
        }
        if pos != buf.len() || plain != block.raw_bytes {
            return Err(decode_err("trailing bytes or plain size"));
        }
        let rows = (0..n).map(|i| columns.iter().map(|c| c[i].clone()).collect());
        ColumnarBatch::from_rows(block.schema.clone(), rows.collect())
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

    /// Wide columns: both `i64` extremes, a string long enough for
    /// two-byte lengths, eleven bools (a bitmap's partial byte).
    fn wide() -> ColumnarBatch {
        let schema = Schema::of(&[
            ("i", DataType::Int),
            ("s", DataType::Str),
            ("b", DataType::Bool),
        ]);
        let rows = (0..11)
            .map(|k| {
                vec![
                    match k % 3 {
                        0 => Value::Int(i64::MIN),
                        1 => Value::Int(i64::MAX),
                        _ => Value::Null,
                    },
                    Value::Str("ü".repeat(k * 40)),
                    if k == 5 {
                        Value::Null
                    } else {
                        Value::Bool(k % 2 == 0)
                    },
                ]
            })
            .collect();
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

    /// One int column over `values`, sealed.
    fn ints(values: impl Iterator<Item = i64>) -> CompressedBlock {
        let rows = values.map(|v| vec![Value::Int(v)]).collect();
        let schema = Schema::of(&[("x", DataType::Int)]);
        CompressedBlock::seal(&ColumnarBatch::from_rows(schema, rows).unwrap())
    }

    #[test]
    fn column_sections_roundtrip_every_width() {
        // Offsets of one, two, four and eight bytes, lengths of one, two
        // and four, and bitmaps of whole and partial bytes.
        for (span, width) in [(0, 1), (255, 1), (256, 2), (65_536, 4), (1 << 32, 8)] {
            let block = ints([-3, -3 + span].into_iter());
            assert_eq!(block.data[1 + 8], width, "span {span}");
            assert_eq!(block.compressed_bytes(), 1 + 8 + 1 + 2 * width as usize);
            let back = block.decode().unwrap().to_rows();
            assert_eq!(back, [[Value::Int(-3)], [Value::Int(-3 + span)]]);
        }
        let schema = Schema::of(&[("s", DataType::Str), ("b", DataType::Bool)]);
        for (len, width) in [(0, 1), (255, 1), (256, 2), (70_000, 4)] {
            for rows in [1, 8, 9] {
                let cells = (0..rows).map(|k| {
                    let s = Value::Str("x".repeat(if k == 0 { len } else { 1 }));
                    vec![s, Value::Bool(k % 3 == 0)]
                });
                let b = ColumnarBatch::from_rows(schema.clone(), cells.collect()).unwrap();
                let block = CompressedBlock::seal(&b);
                assert_eq!(block.data[1], width, "length {len}");
                assert_eq!(block.decode().unwrap(), b);
            }
        }
    }

    #[test]
    fn int_offsets_take_the_narrowest_width() {
        // 512 ids a thousand apart from a large base: one byte of flag,
        // eight of base, one of width and two per cell.
        let block = ints((0..512).map(|i| 1_000_000_000_000 + i * 100));
        assert_eq!(block.compressed_bytes(), 10 + 512 * 2);
        assert_eq!(block.raw_bytes(), 512 * 8);
        // A column spanning the whole of `i64` wraps into eight bytes.
        let block = ints([i64::MIN, 0, i64::MAX].into_iter());
        assert_eq!(block.compressed_bytes(), 10 + 3 * 8);
        let back = block.decode().unwrap().to_rows();
        assert_eq!(back[2][0], Value::Int(i64::MAX));
    }

    #[test]
    fn decode_rejects_bad_flags_widths_and_cuts() {
        let sealed = CompressedBlock::seal(&batch(&[(5, "é", 1.0), (9, "z", 2.0)]));
        let forge = |at: usize, byte: u8| {
            let mut block = sealed.clone();
            block.data[at] = byte;
            block.decode()
        };
        assert!(forge(0, 2).is_err(), "validity flag");
        for width in [0, 3, 9] {
            assert!(forge(9, width).is_err(), "int width {width}");
        }
        // `id` is flag, base, width and two offsets: `name` starts at 12.
        assert!(forge(13, 5).is_err(), "length width");
        // "é" is two bytes: a first length of 1 cuts it.
        let got = forge(14, 1).unwrap_err();
        assert!(
            matches!(&got, DataError::Decode { message, .. } if message.contains("utf-8")),
            "{got:?}"
        );
        let raw = CompressedBlock {
            raw_bytes: sealed.raw_bytes + 1,
            ..sealed.clone()
        };
        assert!(
            raw.decode().is_err(),
            "raw size the payload does not add up to"
        );
        let mut long = sealed.clone();
        long.data.push(0);
        assert!(long.decode().is_err(), "trailing byte");
    }

    #[test]
    fn block_roundtrip_preserves_rows_and_stats() {
        let b = batch(&[(3, "c", 0.5), (1, "a", -2.0), (2, "b", f64::MAX)]);
        let block = CompressedBlock::seal(&b);
        assert_eq!(block.rows(), 3);
        let decoded = block.decode().unwrap();
        assert_eq!(decoded.to_rows(), b.to_rows());
        assert_eq!(decoded.stats(), *block.stats());
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
        // A version-1 image under its own byte-serial checksum is refused
        // by magic, not read.
        let mut v1 = image[..image.len() - 8].to_vec();
        v1[..SEGMENT_MAGIC.len()].copy_from_slice(b"SFSEG1");
        let sum = v1.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        v1.extend(sum.to_le_bytes());
        assert!(Segment::decode(&v1).is_err());
        v1.truncate(v1.len() - 8);
        v1.extend(checksum(&v1).to_le_bytes());
        let got = Segment::decode(&v1);
        assert!(
            matches!(&got, Err(DataError::Decode { message, .. }) if message.contains("magic")),
            "{got:?}"
        );
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
        for b in [every_type(), wide()] {
            let want = encode_boxed(&b);
            let block = CompressedBlock::seal(&b);
            assert_eq!(block.data, want);
            assert_eq!(block.raw_bytes(), plain_boxed(&b));

            // Back to the same cells bit for bit (`NaN != NaN`, so the
            // float column is compared re-encoded), validity and
            // statistics.
            let back = block.decode().unwrap();
            assert_eq!(encode_boxed(&back), want);
            assert_eq!(back.stats(), b.stats());
            assert_eq!(back.stats(), *block.stats());
            assert_eq!(decode_boxed(&block).unwrap().stats(), back.stats());
        }
        let b = every_type();
        let back = CompressedBlock::seal(&b).decode().unwrap();
        for j in (0..7).filter(|&j| j != 3) {
            assert_eq!(back.column(j), b.column(j), "column {j}");
        }
        let no_nan = b.take(&[1, 2, 3]);
        assert_eq!(CompressedBlock::seal(&no_nan).decode().unwrap(), no_nan);

        // All the blocks of a segment into one batch, and none.
        let mut app = BlockAppender::new();
        app.append(&no_nan);
        app.append(&no_nan.take(&[2, 0]));
        let whole = decode_blocks(app.seal().blocks()).unwrap();
        assert_eq!(whole, b.take(&[1, 2, 3, 3, 1]));
        assert!(decode_blocks(&[]).unwrap().is_empty());

        // A row of no columns is no bytes; its count still round-trips.
        let none = ColumnarBatch::from_tuples(
            Schema::empty(),
            &vec![Tuple::new(Schema::empty(), vec![]).unwrap(); 3],
        );
        let back = CompressedBlock::seal(&none).decode().unwrap();
        assert_eq!((back.len(), back.to_tuples().len()), (3, 3));
    }

    #[test]
    fn a_range_seals_the_block_of_its_gathered_rows() {
        let b = wide();
        // A placeholder under a null is stored as is: gathered rows keep
        // theirs, and so does a range.
        let schema = Schema::of(&[("x", DataType::Int)]);
        let validity = [true, false, true].into_iter().collect::<Vec<_>>();
        let mut bits = crate::column::Bitmap::new();
        validity.iter().for_each(|&v| bits.push(v));
        let odd = ColumnVec::Int {
            data: vec![4, 1_000_000, 6],
            validity: bits,
        };
        let odd = ColumnarBatch::from_columns(schema, vec![odd]).unwrap();
        for batch in [b, odd] {
            let n = batch.len();
            for (start, end) in [(0, n), (0, 1), (1, n), (2, 3), (n, n)] {
                let idx: Vec<u32> = (start as u32..end as u32).collect();
                let want = CompressedBlock::seal(&batch.take(&idx));
                let got = CompressedBlock::seal_range(&batch, start..end);
                assert_eq!(got.data, want.data, "rows {start}..{end}");
                assert_eq!(
                    (got.rows, got.raw_bytes, &got.stats),
                    (want.rows, want.raw_bytes, &want.stats)
                );
                assert_eq!(got.decode().unwrap(), batch.take(&idx));
            }
        }
    }

    #[test]
    fn nesting_is_bounded_at_json_depth() {
        let nest = |depth: usize| (0..depth).fold(Value::Int(1), |v, _| Value::List(vec![v]));
        let schema = Schema::of(&[("l", DataType::List)]);
        let at = ColumnarBatch::from_rows(schema.clone(), vec![vec![nest(Json::MAX_DEPTH)]]);
        let at = at.unwrap();
        assert_eq!(CompressedBlock::seal(&at).decode().unwrap(), at);
        let over = ColumnarBatch::from_rows(schema.clone(), vec![vec![nest(Json::MAX_DEPTH + 1)]]);
        let got = CompressedBlock::seal(&over.unwrap()).decode();
        assert!(
            matches!(&got, Err(DataError::Decode { message, .. }) if message.contains("nested")),
            "{got:?}"
        );

        // A million nested lists in a manifest's `min`, under a valid
        // checksum: refused, not recursed into.
        let mut body = SEGMENT_MAGIC.to_vec();
        encode_schema(&schema, &mut body);
        body.extend([0u8; 32]);
        body.extend([1, 1, 0, 0, 0, 1]);
        for _ in 0..1_000_000 {
            body.extend([TAG_LIST, 1, 0, 0, 0]);
        }
        body.extend(checksum(&body).to_le_bytes());
        let got = Segment::decode(&body);
        assert!(
            matches!(&got, Err(DataError::Decode { message, .. }) if message.contains("nested")),
            "{got:?}"
        );
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
            let sum = checksum(&image[..body]);
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
        // 4 billion rows of an int, a string and a float cannot fit the
        // payload's few dozen bytes: the builders are sized for what those
        // could hold, and the first column runs out.
        let fields = block.schema().fields();
        assert!(row_room(forged.blocks(), fields) <= block.compressed_bytes() / 10);
        for got in [block.decode(), decode_blocks(forged.blocks())] {
            assert!(
                matches!(&got, Err(DataError::Decode { message, .. }) if message.contains("truncated")),
                "{got:?}"
            );
        }
        // A bool column is a bit a row: its room is eight rows a byte.
        let bools = Schema::of(&[("b", DataType::Bool)]);
        let bools = ColumnarBatch::from_rows(bools, vec![vec![Value::Bool(true)]; 16]).unwrap();
        let block = CompressedBlock {
            rows: u32::MAX as usize,
            ..CompressedBlock::seal(&bools)
        };
        assert_eq!(block.compressed_bytes(), 3);
        assert_eq!(
            row_room(std::slice::from_ref(&block), block.schema().fields()),
            24
        );
        assert!(block.decode().is_err());
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
    }

    /// Second piece of the decoder fuzz: payloads mutated, truncated and
    /// extended, under headers claiming the sealed or a forged row count.
    /// The column decoder never panics, answers `Ok` exactly when the
    /// boxed decoder does, and with the same batch.
    #[test]
    fn mutated_payloads_decode_as_the_boxed_decoder_or_fail() {
        let mut rng = SplitMix64::new(0x5EED_B10C);
        let bases = [
            every_type(),
            batch(&[(3, "c", 0.5), (1, "", -2.0), (2, "héllo", f64::MAX)]),
            wide(),
        ];
        let (mut served, mut refused) = (0, 0);
        for case in 0..6_000 {
            let base = &bases[case % bases.len()];
            let mut block = CompressedBlock::seal(base);
            let bytes = &mut block.data;
            match rng.range(0..4usize) {
                0 => {
                    for _ in 0..rng.range(1..4usize) {
                        let at = rng.range(0..bytes.len());
                        bytes[at] ^= 1 << rng.range(0..8usize);
                    }
                }
                1 => {
                    let at = rng.range(0..bytes.len());
                    bytes[at] = rng.range(0..9usize) as u8; // a tag, flag or width, often
                }
                2 => bytes.truncate(rng.range(0..bytes.len())),
                _ => {
                    let extra = rng.range(1..12usize);
                    bytes.extend((0..extra).map(|_| rng.next_u64() as u8));
                }
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
        assert_eq!((served, refused), (1_443, 4_557));
    }
}
