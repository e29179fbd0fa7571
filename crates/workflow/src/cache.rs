//! Fingerprint-keyed result cache: incremental re-execution across
//! edits, backends, tenants, and — with a persistent root — process
//! restarts.
//!
//! Every built [`Workflow`] node carries a Merkle-style
//! [`OpFingerprint`] — a content address of "this operator's spec plus
//! everything upstream of it". The [`ResultCache`] maps fingerprints to
//! sealed operator outputs, stored as block-store [`Segment`]s (the
//! same column-major blocks the spill path writes), so a cached result
//! costs its stored bytes, not live tuples. A recording encodes each
//! batch it is teed range by range in place, while the run goes; a
//! replay decodes the blocks into one typed builder per column.
//!
//! Execution is cache-aware through **planning**. [`prepare`] rewrites a
//! workflow before it runs:
//!
//! * a needed node whose fingerprint has a sealed entry is **served** —
//!   replaced by a [`CacheReplayOp`] source that decodes the segment,
//!   sealed for column readers and as rows otherwise (the simulator charges
//!   [`EngineConfig::cache_read_per_block`] per decoded block via the
//!   replay op's setup cost);
//! * nodes upstream of only served/unneeded consumers are **skipped** —
//!   dropped from the plan entirely, the "recompute only the edited
//!   cone" effect;
//! * everything else is **computed**, by the operator's own factory;
//!   the plan marks each cacheable computed node with a
//!   [`CacheRecording`], and the executor running the plan tees that
//!   node's output into it at the one place output leaves an operator
//!   to be routed — a source's where its partitions are produced.
//!
//! A recording holds blocks, sealed as output is teed, and the rows teed
//! since its last full block. Recordings are published only by
//! [`commit_recordings`], which cuts those rows, admits every entry and
//! rewrites the `MANIFEST` once; the
//! executors call it only after a run completes **cleanly** — no faults
//! injected, no retries spent. A faulted quantum's partial output is
//! discarded before it reaches the tee, but its forwarded prefix and the
//! replay of the rest can reach it in an order no clean run produces;
//! discarding the whole recording set is the write-then-rename
//! discipline that keeps partial or duplicated output out of the cache
//! (pinned by `tests/cache_chaos.rs`).
//!
//! # Bounded growth: cost-aware eviction
//!
//! [`ResultCache::with_byte_budget`] caps the cache's stored
//! footprint. When a publish would exceed the budget, victims are chosen
//! by `bytes × recompute-cheapness`: each entry carries the calibrated
//! recompute cost of the operator that produced it
//! (`setup + per_tuple × rows`, straight from the operator's
//! [`CostProfile`], whose constants come from `core::calibration`), and
//! the entry with the highest `bytes / recompute-cost` ratio goes first
//! — large, cheap-to-recompute scan/filter outputs are evicted while
//! expensive transformer-stage outputs are kept. Ties break by insertion
//! order, so the same publish sequence under the same budget always
//! evicts the same victims. `ResultCache::bytes()` never exceeds the
//! budget after a publish returns.
//!
//! # Durability: the on-disk segment root
//!
//! [`ResultCache::persistent`] roots the cache in a directory (exposed
//! to tools via the `SCRIPTFLOW_CACHE_DIR` environment variable and
//! [`ResultCache::from_env`]). Every published entry is also written as
//! `<fingerprint>.seg` — a checksummed [`Segment::encode`] image — and
//! indexed by a `MANIFEST` file mapping fingerprints to row/block/byte
//! counts and recompute cost. Both writes are
//! write-temp-then-rename, mirroring the in-memory no-partial-
//! publication invariant: a crash mid-publish never exposes a partial
//! entry. Reopening the directory serves the same sealed rows to a new
//! process; a corrupt or truncated entry (checksum, magic, count, or
//! manifest mismatch) degrades to a cache miss — the bad file and its
//! manifest line are dropped, never surfaced as an error.
//!
//! [`EngineConfig::cache_read_per_block`]: crate::EngineConfig
//! [`EngineConfig::result_cache`]: crate::EngineConfig
//! [`CostProfile`]: crate::cost::CostProfile

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use scriptflow_core::fingerprint::OpFingerprint;
use scriptflow_datakit::blockstore::{decode_blocks, BlockAppender, CompressedBlock, Segment};
use scriptflow_datakit::{ColumnarBatch, Schema, SchemaRef, Tuple};
use scriptflow_simcluster::SimDuration;

use crate::backend::EngineRun;
use crate::cost::CostProfile;
use crate::dag::{OpId, Workflow, WorkflowBuilder};
use crate::metrics::{OpCounters, OperatorMetrics};
use crate::operator::{
    deal_round_robin, Emitted, OpDescriptor, Operator, OperatorFactory, OutputCollector,
    WorkflowError, WorkflowResult,
};
use crate::spill::{append_rows, decode_rows, SPILL_BLOCK_ROWS};
use crate::sync::lock;
use crate::trace::ProgressTrace;

/// One sealed cache entry: an operator's complete output multiset as a
/// block-store segment, whose manifest holds the counters telemetry
/// reports when the entry is served.
#[derive(Debug)]
pub struct CacheEntry {
    segment: Segment,
}

impl CacheEntry {
    fn seal(schema: &SchemaRef, tuples: &[Tuple]) -> CacheEntry {
        let mut app = BlockAppender::new();
        append_rows(&mut app, schema, tuples);
        CacheEntry {
            segment: app.seal(),
        }
    }

    /// Rows recorded in this entry.
    pub fn rows(&self) -> u64 {
        self.segment.manifest().row_count
    }

    /// Compressed blocks backing this entry.
    pub fn blocks(&self) -> u64 {
        self.segment.manifest().block_count
    }

    /// Compressed bytes backing this entry.
    pub fn bytes(&self) -> u64 {
        self.segment.manifest().compressed_bytes
    }

    /// Decode the full output multiset back into tuples, in recorded
    /// order.
    pub fn tuples(&self) -> Vec<Tuple> {
        decode_rows(self.segment.blocks()).expect("sealed cache blocks always round-trip")
    }
}

/// Where a stored entry's payload currently lives.
#[derive(Debug)]
enum Slot {
    /// Decoded and resident.
    Loaded(Arc<CacheEntry>),
    /// On disk only (a persistent cache after reopen); loaded — and
    /// validated against the manifest counts — on first lookup.
    Disk,
}

/// Bookkeeping for one cache entry. The counts are authoritative (the
/// eviction policy and the byte ledger run off them even while the
/// payload is still on disk); a loaded slot's segment must agree with
/// them or the entry is dropped as corrupt.
#[derive(Debug)]
struct Stored {
    slot: Slot,
    /// Insertion order, the deterministic eviction tie-breaker.
    seq: u64,
    rows: u64,
    blocks: u64,
    bytes: u64,
    /// Calibrated cost of recomputing this output, in virtual
    /// microseconds (`setup + per_tuple × rows` of the producing
    /// operator).
    cost_micros: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    entries: HashMap<u128, Stored>,
    bytes: u64,
    budget: Option<u64>,
    seq: u64,
    evictions: u64,
    evicted_bytes: u64,
}

/// What one [`ResultCache::publish_costed`] call did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PublishOutcome {
    /// Compressed bytes added (0 when the fingerprint already had an
    /// entry — first writer wins — or the entry was not admitted).
    pub added: u64,
    /// False when the entry alone exceeds the byte budget and was
    /// rejected outright.
    pub admitted: bool,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Compressed bytes those victims released.
    pub evicted_bytes: u64,
}

/// A process-wide result cache, shareable across runs, backends, and
/// (via the service layer) tenants.
///
/// Unbounded by default; [`ResultCache::with_byte_budget`] turns on
/// cost-aware eviction, and [`ResultCache::persistent`] roots the cache
/// in a directory that survives the process (see the module docs).
#[derive(Debug, Default)]
pub struct ResultCache {
    inner: Mutex<CacheInner>,
    disk: Option<DiskStore>,
}

impl ResultCache {
    /// An empty, unbounded, in-memory cache.
    pub fn new() -> Self {
        ResultCache::default()
    }

    /// Cap the cache at `bytes` compressed bytes, evicting by
    /// `bytes × recompute-cheapness` (see the module docs).
    pub fn with_byte_budget(self, bytes: u64) -> Self {
        self.set_byte_budget(Some(bytes));
        self
    }

    /// Install (or clear) the byte budget, evicting immediately if the
    /// current footprint exceeds the new cap.
    pub fn set_byte_budget(&self, bytes: Option<u64>) {
        let mut inner = lock(&self.inner);
        inner.budget = bytes;
        let swept = evict_to_budget(&mut inner, self.disk.as_ref(), None);
        if swept.0 > 0 {
            self.sync_manifest(&inner);
        }
    }

    /// The configured byte budget, if any.
    pub fn byte_budget(&self) -> Option<u64> {
        lock(&self.inner).budget
    }

    /// Open (or create) a cache rooted at `dir`. Entries published here
    /// are also written as checksummed segment files and indexed by a
    /// `MANIFEST`, so reopening the same directory — in this process or
    /// the next — serves the same sealed rows. Stale temp files from a
    /// crashed publish are swept on open; a corrupt manifest degrades to
    /// an empty cache.
    pub fn persistent(dir: impl AsRef<Path>) -> io::Result<ResultCache> {
        let disk = DiskStore {
            dir: dir.as_ref().to_path_buf(),
        };
        std::fs::create_dir_all(&disk.dir)?;
        disk.sweep_temp_files();
        let mut inner = disk.load_manifest();
        // Do not trust manifest lines whose segment file is missing.
        let CacheInner { entries, bytes, .. } = &mut inner;
        entries.retain(|fp, stored| {
            let ok = disk.entry_path(*fp).is_file();
            if !ok {
                *bytes = bytes.saturating_sub(stored.bytes);
            }
            ok
        });
        Ok(ResultCache {
            inner: Mutex::new(inner),
            disk: Some(disk),
        })
    }

    /// The persistent cache named by `SCRIPTFLOW_CACHE_DIR`, if the
    /// variable is set and the directory is usable.
    pub fn from_env() -> Option<ResultCache> {
        let dir = std::env::var_os("SCRIPTFLOW_CACHE_DIR")?;
        ResultCache::persistent(dir).ok()
    }

    /// The cache a calibrated run asks for: persistent when
    /// `SCRIPTFLOW_CACHE_DIR` is set (in-memory otherwise), bounded when
    /// the calibration carries a byte budget.
    pub fn for_run(budget: Option<u64>) -> Arc<ResultCache> {
        let cache = ResultCache::from_env().unwrap_or_default();
        Arc::new(match budget {
            Some(b) => cache.with_byte_budget(b),
            None => cache,
        })
    }

    /// The sealed entry for `fp`, if one has been published (and, for a
    /// persistent cache, still decodes cleanly — a corrupt or truncated
    /// segment file is dropped here and reported as a miss).
    pub fn lookup(&self, fp: OpFingerprint) -> Option<Arc<CacheEntry>> {
        let mut inner = lock(&self.inner);
        let stored = inner.entries.get(&fp.0)?;
        if let Slot::Loaded(entry) = &stored.slot {
            return Some(Arc::clone(entry));
        }
        let (rows, blocks, bytes) = (stored.rows, stored.blocks, stored.bytes);
        let disk = self
            .disk
            .as_ref()
            .expect("disk slots exist only in persistent caches");
        match disk.load_entry(fp.0, rows, blocks, bytes) {
            Ok(entry) => {
                let entry = Arc::new(entry);
                if let Some(stored) = inner.entries.get_mut(&fp.0) {
                    stored.slot = Slot::Loaded(Arc::clone(&entry));
                }
                Some(entry)
            }
            Err(_) => {
                // Corrupt, truncated, or forged: degrade to a miss.
                if let Some(stored) = inner.entries.remove(&fp.0) {
                    inner.bytes = inner.bytes.saturating_sub(stored.bytes);
                }
                disk.remove_entry(fp.0);
                self.sync_manifest(&inner);
                None
            }
        }
    }

    /// Seal `tuples` under `fp` and return the compressed bytes added.
    ///
    /// Idempotent: publishing a fingerprint that already has an entry is
    /// a no-op returning 0 — first writer wins, which is what
    /// single-flight needs when two tenants race the same prefix. The
    /// entry carries no recompute cost, so under a budget it is treated
    /// as maximally cheap; use [`ResultCache::publish_costed`] to keep
    /// expensive outputs resident.
    pub fn publish(&self, fp: OpFingerprint, schema: &SchemaRef, tuples: &[Tuple]) -> u64 {
        self.publish_costed(fp, schema, tuples, SimDuration::ZERO)
            .added
    }

    /// Seal `tuples` under `fp`, recording `recompute_cost` (the
    /// calibrated cost of re-running the producing operator) for the
    /// eviction policy. Under a byte budget this evicts cheapest-per-byte
    /// victims until the cache fits; the just-published entry is never
    /// its own victim, but an entry larger than the whole budget is
    /// rejected (`admitted: false`).
    pub fn publish_costed(
        &self,
        fp: OpFingerprint,
        schema: &SchemaRef,
        tuples: &[Tuple],
        recompute_cost: SimDuration,
    ) -> PublishOutcome {
        // Seal outside the lock; insertion re-checks for a racing writer.
        self.publish_entry(fp, CacheEntry::seal(schema, tuples), recompute_cost)
    }

    /// Admit one sealed `entry` under `fp` and index it.
    fn publish_entry(
        &self,
        fp: OpFingerprint,
        entry: CacheEntry,
        recompute_cost: SimDuration,
    ) -> PublishOutcome {
        let mut inner = lock(&self.inner);
        let seq = inner.seq;
        let out = self.insert_entry(&mut inner, fp, entry, recompute_cost);
        if inner.seq != seq {
            self.sync_manifest(&inner);
        }
        out
    }

    /// The one way into the cache: admit a sealed `entry` under `fp`,
    /// writing its segment image when the cache is persistent and
    /// evicting to the budget, and leave the `MANIFEST` to the caller.
    fn insert_entry(
        &self,
        inner: &mut CacheInner,
        fp: OpFingerprint,
        entry: CacheEntry,
        recompute_cost: SimDuration,
    ) -> PublishOutcome {
        let bytes = entry.bytes();
        if inner.entries.contains_key(&fp.0) {
            return PublishOutcome {
                added: 0,
                admitted: true,
                evictions: 0,
                evicted_bytes: 0,
            };
        }
        if inner.budget.is_some_and(|b| bytes > b) {
            return PublishOutcome {
                added: 0,
                admitted: false,
                evictions: 0,
                evicted_bytes: 0,
            };
        }
        let entry = Arc::new(entry);
        inner.seq += 1;
        let seq = inner.seq;
        if let Some(disk) = &self.disk {
            // Atomic publish: the segment image lands under its final
            // name only via rename, so a crash mid-write leaves a temp
            // file (swept on reopen), never a partial entry.
            let _ = disk.write_entry(fp.0, &entry.segment.encode());
        }
        inner.entries.insert(
            fp.0,
            Stored {
                rows: entry.rows(),
                blocks: entry.blocks(),
                bytes,
                slot: Slot::Loaded(entry),
                seq,
                cost_micros: recompute_cost.as_micros(),
            },
        );
        inner.bytes += bytes;
        let (evictions, evicted_bytes) = evict_to_budget(inner, self.disk.as_ref(), Some(fp.0));
        PublishOutcome {
            added: bytes,
            admitted: true,
            evictions,
            evicted_bytes,
        }
    }

    /// Rewrite the on-disk manifest to match `inner` (no-op for
    /// in-memory caches). Write errors are swallowed: the in-memory
    /// cache stays correct, and at worst a reopen misses entries.
    fn sync_manifest(&self, inner: &CacheInner) {
        if let Some(disk) = &self.disk {
            let _ = disk.write_manifest(inner);
        }
    }

    /// Total compressed bytes held (never exceeds the byte budget after
    /// a publish returns).
    pub fn bytes(&self) -> u64 {
        lock(&self.inner).bytes
    }

    /// Number of sealed entries held.
    pub fn entries(&self) -> usize {
        lock(&self.inner).entries.len()
    }

    /// Entries evicted since the cache was created.
    pub fn evictions(&self) -> u64 {
        lock(&self.inner).evictions
    }

    /// Compressed bytes released by eviction since the cache was
    /// created (`bytes() == Σ published − Σ evicted`, minus corrupt
    /// entries dropped on load).
    pub fn evicted_bytes(&self) -> u64 {
        lock(&self.inner).evicted_bytes
    }

    /// Fingerprints currently resident, sorted (a deterministic view
    /// for eviction tests and debugging).
    pub fn fingerprints(&self) -> Vec<OpFingerprint> {
        let inner = lock(&self.inner);
        let mut fps: Vec<u128> = inner.entries.keys().copied().collect();
        fps.sort_unstable();
        fps.into_iter().map(OpFingerprint).collect()
    }
}

/// Evict until the footprint fits the budget, never touching `protect`
/// (the entry just published). Victim order is by descending
/// `bytes / recompute-cost` — the biggest, cheapest-to-recompute entry
/// goes first — with insertion order then fingerprint as deterministic
/// tie-breakers. Returns `(entries evicted, bytes released)`.
fn evict_to_budget(
    inner: &mut CacheInner,
    disk: Option<&DiskStore>,
    protect: Option<u128>,
) -> (u64, u64) {
    let Some(budget) = inner.budget else {
        return (0, 0);
    };
    if inner.bytes <= budget {
        return (0, 0);
    }
    // Integer scoring keeps victim choice exact and platform-independent:
    // score = bytes × 1e6 / (1 + cost_micros), in u128 so it cannot
    // overflow or round through floats.
    let mut victims: Vec<(u128, u64, u128)> = inner
        .entries
        .iter()
        .filter(|(fp, _)| Some(**fp) != protect)
        .map(|(fp, s)| {
            let score = (s.bytes as u128) * 1_000_000 / (1 + s.cost_micros as u128);
            (score, s.seq, *fp)
        })
        .collect();
    victims.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    let (mut evicted, mut released) = (0u64, 0u64);
    for (_, _, fp) in victims {
        if inner.bytes <= budget {
            break;
        }
        let Some(stored) = inner.entries.remove(&fp) else {
            continue;
        };
        inner.bytes = inner.bytes.saturating_sub(stored.bytes);
        inner.evictions += 1;
        inner.evicted_bytes += stored.bytes;
        if let Some(disk) = disk {
            disk.remove_entry(fp);
        }
        evicted += 1;
        released += stored.bytes;
    }
    (evicted, released)
}

// ---------------------------------------------------------------------------
// On-disk store
// ---------------------------------------------------------------------------

/// Header line of a cache manifest; bump the version on layout changes.
const MANIFEST_HEADER: &str = "scriptflow-cache v1";

/// The persistent root: `<fp:032x>.seg` segment images plus a `MANIFEST`
/// index. All writes are write-temp-then-rename.
#[derive(Debug)]
struct DiskStore {
    dir: PathBuf,
}

impl DiskStore {
    fn entry_path(&self, fp: u128) -> PathBuf {
        self.dir.join(format!("{fp:032x}.seg"))
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("MANIFEST")
    }

    /// Remove temp files a crashed publish may have left behind.
    fn sweep_temp_files(&self) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for e in entries.flatten() {
            if e.path().extension().is_some_and(|x| x == "tmp") {
                let _ = std::fs::remove_file(e.path());
            }
        }
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, path)
    }

    fn write_entry(&self, fp: u128, image: &[u8]) -> io::Result<()> {
        self.write_atomic(&self.entry_path(fp), image)
    }

    fn remove_entry(&self, fp: u128) {
        let _ = std::fs::remove_file(self.entry_path(fp));
    }

    /// Read, checksum-verify, and cross-validate one segment image
    /// against the manifest's counts, then decode every block once: the
    /// envelope and the checksum vouch for the image, not for the
    /// payloads inside it, and this is the only place an entry's bytes
    /// come from outside the process — past it [`CacheEntry::tuples`] is
    /// infallible. Any disagreement is a decode error, which the caller
    /// turns into a miss.
    fn load_entry(&self, fp: u128, rows: u64, blocks: u64, bytes: u64) -> io::Result<CacheEntry> {
        let image = std::fs::read(self.entry_path(fp))?;
        let corrupt = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_owned());
        let segment = Segment::decode(&image).map_err(|e| corrupt(&e.to_string()))?;
        let m = segment.manifest();
        if m.row_count != rows || m.block_count != blocks || m.compressed_bytes != bytes {
            return Err(corrupt("segment disagrees with the cache manifest"));
        }
        for block in segment.blocks() {
            block.decode().map_err(|e| corrupt(&e.to_string()))?;
        }
        Ok(CacheEntry { segment })
    }

    /// Serialize the index: one `fp rows blocks bytes cost` line per
    /// entry, fingerprint-sorted for deterministic images.
    fn write_manifest(&self, inner: &CacheInner) -> io::Result<()> {
        let mut lines: Vec<(u128, String)> = inner
            .entries
            .iter()
            .map(|(fp, s)| {
                (
                    *fp,
                    format!(
                        "{fp:032x} {} {} {} {}\n",
                        s.rows, s.blocks, s.bytes, s.cost_micros
                    ),
                )
            })
            .collect();
        lines.sort_unstable_by_key(|(fp, _)| *fp);
        let mut out = String::with_capacity(lines.len() * 64 + 32);
        out.push_str(MANIFEST_HEADER);
        out.push('\n');
        for (_, line) in lines {
            out.push_str(&line);
        }
        self.write_atomic(&self.manifest_path(), out.as_bytes())
    }

    /// Parse the manifest into cache bookkeeping with every payload
    /// still on disk. A missing manifest is an empty cache; a bad header
    /// or a malformed line degrades by dropping what cannot be parsed, a
    /// repeated fingerprint keeps its first line, and a line whose bytes
    /// would overflow the running total is dropped, so the ledger is
    /// always the sum over the entries it holds. Only a line's first
    /// five fields are read: an index written with a trailing owner
    /// column (which may hold spaces) reopens with every entry.
    fn load_manifest(&self) -> CacheInner {
        let mut inner = CacheInner::default();
        let Ok(text) = std::fs::read_to_string(self.manifest_path()) else {
            return inner;
        };
        let mut lines = text.lines();
        if lines.next() != Some(MANIFEST_HEADER) {
            return inner;
        }
        for line in lines {
            let mut parts = line.split(' ');
            let Some(fp) = parts.next().and_then(|s| u128::from_str_radix(s, 16).ok()) else {
                continue;
            };
            let Some(rows) = parts.next().and_then(|s| s.parse().ok()) else {
                continue;
            };
            let Some(blocks) = parts.next().and_then(|s| s.parse().ok()) else {
                continue;
            };
            let Some(bytes) = parts.next().and_then(|s| s.parse().ok()) else {
                continue;
            };
            let Some(cost_micros) = parts.next().and_then(|s| s.parse().ok()) else {
                continue;
            };
            // The first line for a fingerprint wins, and a line whose
            // bytes would overflow the ledger is forged.
            let total = inner.bytes.checked_add(bytes);
            let (Some(total), false) = (total, inner.entries.contains_key(&fp)) else {
                continue;
            };
            inner.seq += 1;
            inner.bytes = total;
            inner.entries.insert(
                fp,
                Stored {
                    slot: Slot::Disk,
                    seq: inner.seq,
                    rows,
                    blocks,
                    bytes,
                    cost_micros,
                },
            );
        }
        inner
    }
}

/// A cache-hit stand-in: a source operator that replays one sealed
/// [`CacheEntry`] under the served operator's original name and schema.
///
/// The simulator charges the read cost of a hit through the replay op's
/// one-time setup — `cache_read_per_block × blocks` on a single worker —
/// so serving a segment costs virtual time proportional to its size
/// without any event-loop changes.
pub struct CacheReplayOp {
    desc: OpDescriptor,
    schema: SchemaRef,
    entry: Arc<CacheEntry>,
}

impl CacheReplayOp {
    pub(crate) fn new(
        name: &str,
        schema: SchemaRef,
        entry: Arc<CacheEntry>,
        read_per_block: SimDuration,
    ) -> Self {
        CacheReplayOp {
            desc: OpDescriptor {
                cost: CostProfile {
                    setup: read_per_block * entry.blocks(),
                    per_tuple: SimDuration::ZERO,
                    per_batch: SimDuration::ZERO,
                    ..CostProfile::default()
                },
                source: true,
                cache_replay: Some((entry.blocks(), entry.bytes())),
                ..OpDescriptor::new(name, 0)
            },
            schema,
            entry,
        }
    }
}

/// Replay sources never receive tuples (mirrors the scan instance).
struct CacheReplayInstance;

impl Operator for CacheReplayInstance {
    fn on_tuple(
        &mut self,
        _tuple: Tuple,
        _port: usize,
        _out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        Err(WorkflowError::OperatorFailed {
            operator: "<cache-replay>".into(),
            message: "cache replay sources do not accept input".into(),
        })
    }
}

impl OperatorFactory for CacheReplayOp {
    fn descriptor(&self) -> &OpDescriptor {
        &self.desc
    }

    fn output_schema(&self, inputs: &[SchemaRef]) -> WorkflowResult<Schema> {
        debug_assert!(inputs.is_empty());
        Ok((*self.schema).clone())
    }

    fn create(&self) -> Box<dyn Operator> {
        Box::new(CacheReplayInstance)
    }

    fn source_partitions(&self, workers: usize) -> Option<Vec<Vec<Tuple>>> {
        Some(deal_round_robin(self.entry.tuples(), workers))
    }

    /// A hit is a sealed source, as a scan is: the engine asks for this
    /// exactly when every consumer reads columns, and the entry's blocks
    /// become one batch without a row being built.
    fn source_columnar(&self) -> Option<ColumnarBatch> {
        let blocks = self.entry.segment.blocks();
        Some(decode_blocks(blocks).expect("sealed cache blocks always round-trip"))
    }
}

/// The teed output of one cache-miss operator across all of its worker
/// instances, awaiting publication on clean run completion. Names the
/// plan node it records and carries that operator's calibrated cost
/// profile so publication can price eviction correctly.
pub struct CacheRecording {
    /// The node of [`CachePlan::wf`] whose output this is.
    pub(crate) op: OpId,
    fingerprint: OpFingerprint,
    schema: SchemaRef,
    name: String,
    setup: SimDuration,
    per_tuple: SimDuration,
    /// What was routed, in routing order, sealed as it arrives
    /// ([`CacheRecording::tee`]).
    sealed: Mutex<Sealing>,
}

/// The blocks a recording has cut so far, and the rows teed since the
/// last cut: fewer than [`SPILL_BLOCK_ROWS`], all after those blocks.
#[derive(Debug, Default)]
struct Sealing {
    blocks: BlockAppender,
    pending: Vec<Tuple>,
}

impl Sealing {
    /// Cut the pending rows into blocks: every full one, and with `all`
    /// the remainder too — the blocks [`append_rows`] cuts of them.
    fn cut(&mut self, schema: &SchemaRef, all: bool) {
        let n = match all {
            true => self.pending.len(),
            false => self.pending.len() / SPILL_BLOCK_ROWS * SPILL_BLOCK_ROWS,
        };
        if n > 0 {
            append_rows(&mut self.blocks, schema, &self.pending[..n]);
            self.pending.drain(..n);
        }
    }
}

impl CacheRecording {
    /// Record one run of the operator's output, as it leaves to be
    /// routed, cutting the blocks the test oracle `seal_runs` cuts of the
    /// runs recorded so far: row runs are concatenated and cut every
    /// [`SPILL_BLOCK_ROWS`] rows; a sealed batch ends the pending rows'
    /// last block and is sealed in place range by range. A batch's blocks
    /// hold its rows only, so they are sealed before the lock is taken
    /// and workers teeing batches do not take turns encoding.
    pub(crate) fn tee(&self, run: Emitted) {
        match run {
            Emitted::Rows(mut rows) if !rows.is_empty() => {
                let mut sealed = lock(&self.sealed);
                sealed.pending.append(&mut rows);
                sealed.cut(&self.schema, false);
            }
            Emitted::Columnar(batch) if !batch.is_empty() => {
                let blocks: Vec<CompressedBlock> = (0..batch.len())
                    .step_by(SPILL_BLOCK_ROWS)
                    .map(|start| {
                        let end = batch.len().min(start + SPILL_BLOCK_ROWS);
                        CompressedBlock::seal_range(&batch, start..end)
                    })
                    .collect();
                let mut sealed = lock(&self.sealed);
                sealed.cut(&self.schema, true);
                for block in blocks {
                    sealed.blocks.push(block);
                }
            }
            _ => {}
        }
    }
}

/// One miss per recorded operator in a run's initial telemetry — the
/// dual of the hit [`OperatorMetrics::for_workflow`] reads off a replay
/// factory.
pub(crate) fn prime_misses(recordings: &[CacheRecording], ops: &mut [OperatorMetrics]) {
    for r in recordings {
        ops[r.op.0].counters.cache_misses = 1;
    }
}

/// How [`prepare`] disposed of one original node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeFate {
    /// Runs in the plan (marked for recording when cacheable).
    Computed,
    /// Replaced by a [`CacheReplayOp`] serving a sealed entry.
    Served,
    /// Dropped: every consumer is served or itself skipped.
    Skipped,
}

/// A cache-aware execution plan: the rewritten workflow plus everything
/// the executor needs to account for and commit the run.
pub struct CachePlan {
    /// The workflow to actually execute (served nodes replaced, skipped
    /// nodes dropped).
    pub wf: Workflow,
    /// One per cache-miss node of `wf`, in node order: filled by the
    /// executor, published via [`commit_recordings`] only on clean
    /// success.
    pub recordings: Vec<CacheRecording>,
    /// Nodes served from the cache.
    pub hits: u64,
    /// Cacheable nodes that ran and recorded.
    pub misses: u64,
    /// Compressed blocks decoded to serve the hits.
    pub hit_blocks: u64,
    /// Compressed bytes decoded to serve the hits.
    pub hit_bytes: u64,
}

/// Plan `wf` against `cache`: classify every node as computed, served,
/// or skipped (see the module docs) and rebuild the workflow
/// accordingly. `read_per_block` is the virtual cost the simulator
/// charges per decoded block when serving a hit.
///
/// An operator is *cacheable* when its worker instances are
/// self-contained (no [`OpDescriptor::shared_state`] — a sink's
/// rows live in shared state the cache must not alias) and it has at
/// least one consumer to serve.
pub fn prepare(wf: &Workflow, cache: &ResultCache, read_per_block: SimDuration) -> CachePlan {
    let n = wf.ops().len();

    let cacheable =
        |id: OpId| wf.op(id).desc().shared_state.is_none() && !wf.out_edges(id).is_empty();

    // Classify in reverse topological order: sinks are always computed
    // (their rows are the run's results); a non-sink is needed only if
    // some consumer computes, and a needed node is served on a hit.
    let mut fate = vec![NodeFate::Skipped; n];
    let mut hit: Vec<Option<Arc<CacheEntry>>> = vec![None; n];
    for &id in wf.topo_order().iter().rev() {
        let consumers = wf.out_edges(id);
        let needed = consumers.is_empty()
            || consumers
                .iter()
                .any(|(_, e)| fate[e.to.0] == NodeFate::Computed);
        if !needed {
            continue;
        }
        if cacheable(id) {
            if let Some(entry) = cache.lookup(wf.fingerprint(id)) {
                hit[id.0] = Some(entry);
                fate[id.0] = NodeFate::Served;
                continue;
            }
        }
        fate[id.0] = NodeFate::Computed;
    }

    // Rebuild, preserving original node order for deterministic ids.
    let mut b = WorkflowBuilder::new();
    let mut mapped: Vec<Option<OpId>> = vec![None; n];
    let mut recordings = Vec::new();
    let (mut hits, mut misses, mut hit_blocks, mut hit_bytes) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..n {
        let id = OpId(i);
        let node = wf.op(id);
        match fate[i] {
            NodeFate::Skipped => {}
            NodeFate::Served => {
                let entry = hit[i].clone().expect("served nodes carry their entry");
                hits += 1;
                hit_blocks += entry.blocks();
                hit_bytes += entry.bytes();
                let replay = CacheReplayOp::new(
                    &node.desc().name,
                    wf.schema(id).clone(),
                    entry,
                    read_per_block,
                );
                mapped[i] = Some(b.add(Arc::new(replay), 1));
            }
            NodeFate::Computed => {
                let planned = b.add(Arc::clone(&node.factory), node.parallelism);
                mapped[i] = Some(planned);
                if cacheable(id) {
                    misses += 1;
                    let desc = node.desc();
                    recordings.push(CacheRecording {
                        op: planned,
                        fingerprint: wf.fingerprint(id),
                        schema: wf.schema(id).clone(),
                        name: desc.name.clone(),
                        setup: desc.cost.setup,
                        per_tuple: desc.cost.per_tuple,
                        sealed: Mutex::default(),
                    });
                }
            }
        }
    }
    for e in wf.edges() {
        // Served consumers take no inputs; edges into skipped nodes
        // vanish with them.
        if fate[e.to.0] != NodeFate::Computed {
            continue;
        }
        let from = mapped[e.from.0].expect("a computed node's inputs are never skipped");
        let to = mapped[e.to.0].expect("computed nodes are in the plan");
        b.connect(from, to, e.to_port, e.partition.clone());
    }
    let planned = b
        .build()
        .expect("replanning a validated workflow cannot fail");

    CachePlan {
        wf: planned,
        recordings,
        hits,
        misses,
        hit_blocks,
        hit_bytes,
    }
}

/// What committing a run's recordings did, including which operators'
/// publications triggered evictions (for per-operator telemetry).
#[derive(Debug, Default)]
pub struct CommitStats {
    /// Compressed bytes added to the cache.
    pub published: u64,
    /// Entries evicted to admit this run's publications.
    pub evictions: u64,
    /// Compressed bytes those victims released.
    pub evicted_bytes: u64,
    /// Evictions attributed to each publishing operator, by name.
    pub per_op: Vec<(String, u64)>,
}

/// Publish every recording of a **cleanly** completed run, emptying the
/// recordings, and report the bytes added and what they evicted. Each
/// entry is admitted, and evicts to the budget, on its own; a persistent
/// cache's `MANIFEST` is then written once for the whole commit. Callers
/// must not commit after a run that saw faults or retries: this
/// discard-on-dirty rule is what keeps partial or duplicated segments
/// out of the cache. Each entry is priced at the producing operator's
/// calibrated recompute cost, `setup + per_tuple × rows`, so the
/// eviction policy keeps expensive outputs resident.
pub fn commit_recordings(recordings: &[CacheRecording], cache: &ResultCache) -> CommitStats {
    let mut stats = CommitStats::default();
    let mut inner = lock(&cache.inner);
    let seq = inner.seq;
    for r in recordings {
        let mut sealed = std::mem::take(&mut *lock(&r.sealed));
        sealed.cut(&r.schema, true);
        let rows = sealed.blocks.row_count();
        let cost = r.setup + r.per_tuple * rows;
        let entry = CacheEntry {
            segment: sealed.blocks.seal(),
        };
        let out = cache.insert_entry(&mut inner, r.fingerprint, entry, cost);
        stats.published += out.added;
        stats.evictions += out.evictions;
        stats.evicted_bytes += out.evicted_bytes;
        if out.evictions > 0 {
            stats.per_op.push((r.name.clone(), out.evictions));
        }
    }
    // One index write for the whole commit, if it inserted anything.
    if inner.seq != seq {
        cache.sync_manifest(&inner);
    }
    stats
}

impl CommitStats {
    /// Fold this commit into the finished run it published: the
    /// published bytes, and — evictions happen at commit time, after
    /// the last sample was taken — each publishing operator's eviction
    /// count in the run's metrics and in the terminal sample of both
    /// copies of its trace (`observed` is the copy handed back beside
    /// the result). Shared by both executors and the service finalizer,
    /// which builds the run's [`crate::PoolStats`] afterwards.
    pub(crate) fn apply_to(&self, run: &mut EngineRun, observed: &mut ProgressTrace) {
        run.cache_published = self.published;
        for (name, n) in &self.per_op {
            let evicted = OpCounters {
                cache_evictions: *n,
                ..OpCounters::default()
            };
            if let Some(m) = run.metrics.operators.iter_mut().find(|m| &m.name == name) {
                m.counters += evicted;
            }
            for trace in [&mut run.trace, &mut *observed] {
                let terminal = trace.samples.last_mut().map(|(_, snaps)| snaps);
                if let Some(s) = terminal.and_then(|t| t.iter_mut().find(|s| &s.name == name)) {
                    s.counters += evicted;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ExecBackend;
    use crate::cost::EngineConfig;
    use crate::ops::{FilterOp, ScanOp, SinkOp};
    use crate::partition::PartitionStrategy;
    use scriptflow_core::BackendKind;
    use scriptflow_datakit::{Batch, CmpOp, DataType, Value};

    fn schema() -> SchemaRef {
        Schema::of(&[("id", DataType::Int)])
    }

    fn rows(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| Tuple::new(schema(), vec![Value::Int(i)]).unwrap())
            .collect()
    }

    fn linear(n: i64) -> (Workflow, crate::ops::SinkHandle) {
        let mut b = WorkflowBuilder::new();
        let batch =
            Batch::from_rows(schema(), (0..n).map(|i| vec![Value::Int(i)]).collect()).unwrap();
        let s = b.add(Arc::new(ScanOp::new("scan", batch)), 1);
        let f = b.add(
            Arc::new(FilterOp::cmp("filter", "id", CmpOp::Ge, Value::Int(0))),
            2,
        );
        let sink_op = SinkOp::new("sink");
        let handle = sink_op.handle();
        let k = b.add(Arc::new(sink_op), 1);
        b.connect(s, f, 0, PartitionStrategy::RoundRobin);
        b.connect(f, k, 0, PartitionStrategy::Single);
        (b.build().unwrap(), handle)
    }

    fn temp_cache_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "scriptflow-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn publish_lookup_roundtrip_preserves_rows() {
        let cache = ResultCache::new();
        let schema = schema();
        let fp = OpFingerprint(42);
        let data = rows(700); // > one block
        let bytes = cache.publish(fp, &schema, &data);
        assert!(bytes > 0);
        assert_eq!(cache.bytes(), bytes);
        assert_eq!(cache.entries(), 1);
        let entry = cache.lookup(fp).expect("published");
        assert_eq!(entry.rows(), 700);
        assert!(entry.blocks() >= 2, "block size is bounded");
        let back: Vec<_> = entry.tuples().iter().map(|t| t.values().to_vec()).collect();
        let want: Vec<_> = data.iter().map(|t| t.values().to_vec()).collect();
        assert_eq!(back, want);
        assert!(cache.lookup(OpFingerprint(43)).is_none());
    }

    #[test]
    fn publish_is_idempotent_first_writer_wins() {
        let cache = ResultCache::new();
        let schema = schema();
        let fp = OpFingerprint(7);
        let first = cache.publish(fp, &schema, &rows(10));
        assert!(first > 0);
        assert_eq!(cache.publish(fp, &schema, &rows(10)), 0);
        assert_eq!(cache.bytes(), first);
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn budget_caps_bytes_and_evicts_cheapest_per_byte_first() {
        let schema = schema();
        let unbounded = ResultCache::new();
        let per_entry = unbounded.publish(OpFingerprint(1), &schema, &rows(100));
        assert!(per_entry > 0);

        // Room for exactly two same-sized entries.
        let cache = ResultCache::new().with_byte_budget(per_entry * 2);
        let expensive = SimDuration::from_micros(1_000_000);
        let cheap = SimDuration::from_micros(10);
        cache.publish_costed(OpFingerprint(1), &schema, &rows(100), expensive);
        cache.publish_costed(OpFingerprint(2), &schema, &rows(100), cheap);
        assert_eq!(cache.entries(), 2);
        assert_eq!(cache.evictions(), 0);

        // The third publish must evict — and the victim is the cheap
        // entry, not the expensive one and not the newcomer.
        let out = cache.publish_costed(OpFingerprint(3), &schema, &rows(100), cheap);
        assert!(out.admitted);
        assert_eq!(out.evictions, 1);
        assert_eq!(out.evicted_bytes, per_entry);
        assert!(cache.bytes() <= per_entry * 2, "budget holds after publish");
        assert!(cache.lookup(OpFingerprint(1)).is_some(), "expensive kept");
        assert!(cache.lookup(OpFingerprint(2)).is_none(), "cheap evicted");
        assert!(
            cache.lookup(OpFingerprint(3)).is_some(),
            "newcomer admitted"
        );
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.evicted_bytes(), per_entry);
        assert_eq!(
            cache.bytes(),
            per_entry * 3 - cache.evicted_bytes(),
            "byte ledger sums: Σ published − Σ evicted"
        );
    }

    #[test]
    fn oversized_entry_is_rejected_not_admitted() {
        let schema = schema();
        let cache = ResultCache::new().with_byte_budget(8);
        let out = cache.publish_costed(OpFingerprint(1), &schema, &rows(500), SimDuration::ZERO);
        assert!(!out.admitted);
        assert_eq!(out.added, 0);
        assert_eq!(cache.entries(), 0);
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn eviction_is_deterministic_across_identical_sequences() {
        let schema = schema();
        let survivors = |budget_entries: u64| {
            let probe = ResultCache::new();
            let per_entry = probe.publish(OpFingerprint(0), &schema, &rows(64));
            let cache = ResultCache::new().with_byte_budget(per_entry * budget_entries);
            for i in 0..12u64 {
                // Costs repeat so several entries tie on score; the seq
                // tie-breaker must still make victim choice unique.
                let cost = SimDuration::from_micros((i % 4) * 500);
                cache.publish_costed(OpFingerprint(i as u128 + 1), &schema, &rows(64), cost);
            }
            (cache.fingerprints(), cache.evictions(), cache.bytes())
        };
        let a = survivors(3);
        let b = survivors(3);
        assert_eq!(a, b, "same sequence + budget → same victims");
        assert!(a.1 > 0, "the sweep must actually evict");
    }

    #[test]
    fn set_byte_budget_applies_eviction_immediately() {
        let schema = schema();
        let cache = ResultCache::new();
        for i in 0..4u128 {
            cache.publish_costed(
                OpFingerprint(i + 1),
                &schema,
                &rows(64),
                SimDuration::from_micros(i as u64 * 100),
            );
        }
        let total = cache.bytes();
        assert_eq!(cache.evictions(), 0);
        cache.set_byte_budget(Some(total / 2));
        assert!(
            cache.bytes() <= total / 2,
            "shrinking the budget evicts now"
        );
        assert!(cache.evictions() > 0);
    }

    #[test]
    fn poisoned_cache_lock_recovers_instead_of_cascading() {
        let cache = Arc::new(ResultCache::new());
        let schema = schema();
        cache.publish(OpFingerprint(1), &schema, &rows(10));
        let c2 = Arc::clone(&cache);
        let _ = std::thread::spawn(move || {
            let _guard = c2.inner.lock().unwrap();
            panic!("poison the cache lock mid-critical-section");
        })
        .join();
        assert!(cache.inner.is_poisoned(), "the panic must poison the lock");
        // Every accessor still works: state is seal-once, so recovery
        // via into_inner observes a consistent cache.
        assert_eq!(cache.entries(), 1);
        assert!(cache.lookup(OpFingerprint(1)).is_some());
        assert!(cache.publish(OpFingerprint(2), &schema, &rows(5)) > 0);
        assert_eq!(cache.entries(), 2);
    }

    #[test]
    fn poisoned_recording_buffer_recovers() {
        let (wf, _) = linear(10);
        let cache = ResultCache::new();
        let plan = prepare(&wf, &cache, SimDuration::ZERO);
        let rec = &plan.recordings[0];
        rec.tee(Emitted::Rows(rows(6)));
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = rec.sealed.lock().unwrap();
                panic!("poison the recording buffer, as a panicking quantum would");
            })
            .join()
        });
        assert!(rec.sealed.is_poisoned());
        // The tee still records and commit still publishes all of it.
        rec.tee(Emitted::Rows(rows(4)));
        let added = commit_recordings(&plan.recordings[..1], &cache).published;
        assert!(added > 0);
        assert_eq!(cache.lookup(wf.fingerprint(OpId(0))).unwrap().rows(), 10);
    }

    #[test]
    fn persistent_cache_reopens_with_identical_rows() {
        let dir = temp_cache_dir("reopen");
        let schema = schema();
        let data = rows(700);
        let bytes = {
            let cache = ResultCache::persistent(&dir).unwrap();
            cache.publish(OpFingerprint(42), &schema, &data)
        };
        assert!(bytes > 0);
        // A brand-new cache object over the same root: same entry, same
        // bytes, same rows.
        let cache = ResultCache::persistent(&dir).unwrap();
        assert_eq!(cache.entries(), 1);
        assert_eq!(cache.bytes(), bytes);
        let entry = cache.lookup(OpFingerprint(42)).expect("served from disk");
        assert_eq!(entry.rows(), 700);
        let back: Vec<_> = entry.tuples().iter().map(|t| t.values().to_vec()).collect();
        let want: Vec<_> = data.iter().map(|t| t.values().to_vec()).collect();
        assert_eq!(back, want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_persisted_entry_degrades_to_a_miss() {
        let dir = temp_cache_dir("corrupt");
        let schema = schema();
        {
            let cache = ResultCache::persistent(&dir).unwrap();
            cache.publish(OpFingerprint(7), &schema, &rows(100));
        }
        let seg = dir.join(format!("{:032x}.seg", 7u128));
        let mut image = std::fs::read(&seg).unwrap();
        let mid = image.len() / 2;
        image[mid] ^= 0x55;
        std::fs::write(&seg, &image).unwrap();
        let cache = ResultCache::persistent(&dir).unwrap();
        assert_eq!(cache.entries(), 1, "manifest still lists the entry");
        assert!(
            cache.lookup(OpFingerprint(7)).is_none(),
            "corruption is a miss"
        );
        assert_eq!(cache.entries(), 0, "the bad entry is dropped");
        assert_eq!(cache.bytes(), 0, "its bytes are released");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_persisted_entry_degrades_to_a_miss() {
        let dir = temp_cache_dir("truncate");
        let schema = schema();
        {
            let cache = ResultCache::persistent(&dir).unwrap();
            cache.publish(OpFingerprint(9), &schema, &rows(100));
        }
        let seg = dir.join(format!("{:032x}.seg", 9u128));
        let image = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &image[..image.len() / 3]).unwrap();
        let cache = ResultCache::persistent(&dir).unwrap();
        assert!(cache.lookup(OpFingerprint(9)).is_none());
        assert_eq!(cache.bytes(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_opens_as_an_empty_cache() {
        let dir = temp_cache_dir("badmanifest");
        {
            let cache = ResultCache::persistent(&dir).unwrap();
            cache.publish(OpFingerprint(1), &schema(), &rows(10));
        }
        std::fs::write(dir.join("MANIFEST"), b"not a manifest\n").unwrap();
        let cache = ResultCache::persistent(&dir).unwrap();
        assert_eq!(cache.entries(), 0);
        assert_eq!(cache.bytes(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_cache_sweeps_stale_temp_files_on_open() {
        let dir = temp_cache_dir("tmpsweep");
        std::fs::create_dir_all(&dir).unwrap();
        let stale = dir.join(format!("{:032x}.tmp", 5u128));
        std::fs::write(&stale, b"half-written").unwrap();
        let _cache = ResultCache::persistent(&dir).unwrap();
        assert!(!stale.exists(), "crashed-publish temp files are swept");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cold_plan_records_everything_cacheable() {
        let (wf, _) = linear(20);
        let cache = ResultCache::new();
        let plan = prepare(&wf, &cache, SimDuration::from_micros(900));
        assert_eq!(plan.hits, 0);
        // scan + filter are cacheable; the sink holds shared state.
        assert_eq!(plan.misses, 2);
        assert_eq!(plan.recordings.len(), 2);
        assert_eq!(plan.wf.operator_count(), 3, "cold plan keeps every node");
        // The plan marks the misses by node and runs every operator's
        // own factory: nothing stands between the engine and the scan.
        let marked: Vec<OpId> = plan.recordings.iter().map(|r| r.op).collect();
        assert_eq!(marked, [OpId(0), OpId(1)], "sink unmarked");
        for i in 0..3 {
            let (planned, given) = (&plan.wf.op(OpId(i)).factory, &wf.op(OpId(i)).factory);
            assert!(Arc::ptr_eq(planned, given), "{}", given.descriptor().name);
        }
        let mut ops = OperatorMetrics::for_workflow(&plan.wf);
        prime_misses(&plan.recordings, &mut ops);
        let misses: Vec<u64> = ops.iter().map(|m| m.counters.cache_misses).collect();
        assert_eq!(misses, [1, 1, 0]);
    }

    #[test]
    fn warm_plan_serves_the_deepest_hit_and_skips_its_cone() {
        let (wf, _) = linear(20);
        let cache = ResultCache::new();
        // Seed the cache with the filter's output under its fingerprint.
        let filter_id = wf.op_by_name("filter").unwrap();
        cache.publish(wf.fingerprint(filter_id), wf.schema(filter_id), &rows(20));
        let plan = prepare(&wf, &cache, SimDuration::from_micros(900));
        assert_eq!(plan.hits, 1);
        assert_eq!(plan.misses, 0, "everything upstream of the hit skipped");
        assert_eq!(
            plan.wf.operator_count(),
            2,
            "scan is skipped; replay + sink remain"
        );
        let replay = plan.wf.op_by_name("filter").expect("replay keeps the name");
        let (blocks, bytes) = plan.wf.op(replay).desc().cache_replay.unwrap();
        assert!(blocks >= 1);
        assert!(bytes > 0);
        assert_eq!(plan.hit_blocks, blocks);
        assert_eq!(plan.hit_bytes, bytes);
        // The replay op charges its read through setup on one worker.
        assert_eq!(
            plan.wf.op(replay).desc().cost.setup,
            SimDuration::from_micros(900) * blocks
        );
        assert_eq!(plan.wf.op(replay).parallelism, 1);
    }

    #[test]
    fn commit_publishes_recorded_rows() {
        let (wf, _) = linear(15);
        let cache = ResultCache::new();
        let plan = prepare(&wf, &cache, SimDuration::ZERO);
        // Simulate the executors' tee.
        plan.recordings[0].tee(Emitted::Rows(rows(15)));
        let added = commit_recordings(&plan.recordings[..1], &cache).published;
        assert!(added > 0);
        assert_eq!(cache.bytes(), added);
        let entry = cache.lookup(wf.fingerprint(OpId(0))).unwrap();
        assert_eq!(entry.rows(), 15);
        // Re-committing adds nothing (idempotent publish).
        assert_eq!(
            commit_recordings(&plan.recordings[..1], &cache).published,
            0
        );
    }

    #[test]
    fn commit_prices_entries_at_the_operators_calibrated_cost() {
        let (wf, _) = linear(15);
        let cache = ResultCache::new();
        let plan = prepare(&wf, &cache, SimDuration::ZERO);
        // Every recording carries the factory's cost profile, captured
        // at plan time.
        for (r, name) in plan.recordings.iter().zip(["scan", "filter"]) {
            assert_eq!(r.name, name);
            let id = wf.op_by_name(name).unwrap();
            let cost = &wf.op(id).desc().cost;
            assert_eq!(r.setup, cost.setup);
            assert_eq!(r.per_tuple, cost.per_tuple);
        }
    }

    /// scan → `id < lt` comparison filter on two workers → sink.
    fn selective(n: i64, lt: i64) -> (Workflow, crate::ops::SinkHandle) {
        let mut b = WorkflowBuilder::new();
        let batch =
            Batch::from_rows(schema(), (0..n).map(|i| vec![Value::Int(i)]).collect()).unwrap();
        let s = b.add(Arc::new(ScanOp::new("scan", batch)), 1);
        let f = b.add(
            Arc::new(FilterOp::cmp("filter", "id", CmpOp::Lt, Value::Int(lt))),
            2,
        );
        let sink_op = SinkOp::new("sink");
        let handle = sink_op.handle();
        let k = b.add(Arc::new(sink_op), 1);
        b.connect(s, f, 0, PartitionStrategy::RoundRobin);
        b.connect(f, k, 0, PartitionStrategy::Single);
        (b.build().unwrap(), handle)
    }

    fn sorted_ids(rows: &[Tuple]) -> Vec<i64> {
        let mut ids: Vec<i64> = rows.iter().map(|t| t.get_int("id").unwrap()).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn recording_tees_without_changing_output() {
        for kind in BackendKind::ALL {
            let (wf, handle) = selective(5, 3);
            let cache = Arc::new(ResultCache::new());
            let config = EngineConfig::default().with_result_cache(cache.clone());
            let run = ExecBackend::of_kind(kind, config)
                .run(&wf, &handle)
                .unwrap();
            assert_eq!(sorted_ids(&run.rows), [0, 1, 2], "{kind}: filter semantics");
            assert_eq!(run.counters().cache_misses, 2, "{kind}");
            let entry = |name| cache.lookup(wf.fingerprint(wf.op_by_name(name).unwrap()));
            assert_eq!(entry("scan").unwrap().rows(), 5, "{kind}");
            let teed = entry("filter").unwrap().tuples();
            assert_eq!(
                sorted_ids(&teed),
                [0, 1, 2],
                "{kind}: teed exactly the output"
            );
        }
    }

    #[test]
    fn recorded_columnar_output_publishes_the_row_paths_multiset() {
        // Batch size 16 over ascending ids: the sealed scan feeds both
        // filter workers `ColumnarBatch`es, they emit the survivors as
        // batches, and every batch past id 100 is pruned.
        let published = |kind: BackendKind| {
            let (wf, handle) = selective(400, 100);
            let cache = Arc::new(ResultCache::new());
            let config = EngineConfig {
                batch_size: 16,
                ..EngineConfig::default().with_result_cache(cache.clone())
            };
            let run = ExecBackend::of_kind(kind, config)
                .run(&wf, &handle)
                .unwrap();
            let entry = cache
                .lookup(wf.fingerprint(wf.op_by_name("filter").unwrap()))
                .expect("a clean run publishes the filter");
            (sorted_ids(&entry.tuples()), run.counters().batches_skipped)
        };
        // The sim at `columnar = false` only ever moves rows.
        let (row_only, no_skips) = published(BackendKind::Sim);
        let (columnar, skips) = published(BackendKind::Live);
        assert_eq!(no_skips, 0);
        assert!(skips > 0, "the recorded filter read sealed batches");
        assert_eq!(row_only, (0..100).collect::<Vec<i64>>());
        assert_eq!(columnar, row_only);

        // The same 1 400 rows recorded in every shape a tee can see —
        // rows only, sealed batches only (shorter than a block, longer
        // than two, exactly one), the two interleaved — commit to the same
        // rows in the same order. `(shape, blocks)`: row runs are cut
        // every `SPILL_BLOCK_ROWS` rows across runs, as `publish` cuts
        // them; a batch is cut on its own, so an entry recorded as batches
        // holds more, shorter blocks.
        let all = rows(1_400);
        let sealed = |from: usize, to: usize| {
            Emitted::Columnar(ColumnarBatch::from_tuples(schema(), &all[from..to]))
        };
        let run = |from: usize, to: usize| Emitted::Rows(all[from..to].to_vec());
        let shapes = [
            (vec![run(0, 1_400)], 3),
            (vec![run(0, 300), run(300, 301), run(301, 1_400)], 3),
            (
                vec![sealed(0, 16), sealed(16, 1_300), sealed(1_300, 1_400)],
                1 + 3 + 1,
            ),
            (
                vec![sealed(0, 512), sealed(512, 1_024), sealed(1_024, 1_400)],
                3,
            ),
            (
                vec![
                    run(0, 600),
                    sealed(600, 700),
                    run(700, 710),
                    run(710, 1_300),
                    sealed(1_300, 1_400),
                ],
                2 + 1 + 2 + 1,
            ),
        ];
        let (wf, _) = linear(1);
        let mut row_entry_bytes = None;
        for (runs, blocks) in shapes {
            let cache = ResultCache::new();
            let plan = prepare(&wf, &cache, SimDuration::from_micros(900));
            runs.into_iter().for_each(|r| plan.recordings[0].tee(r));
            let added = commit_recordings(&plan.recordings[..1], &cache).published;
            let entry = cache.lookup(wf.fingerprint(OpId(0))).unwrap();
            assert_eq!(entry.tuples(), all);
            assert_eq!((entry.rows(), entry.blocks()), (1_400, blocks));
            assert_eq!(entry.bytes(), added);
            // What a recording of row runs publishes is what `publish`
            // seals from the same rows, to the byte.
            if blocks == 3 {
                let bytes = *row_entry_bytes.get_or_insert(added);
                assert_eq!(added, bytes);
                assert_eq!(
                    ResultCache::new().publish(OpFingerprint(1), &schema(), &all),
                    bytes
                );
            }
            // The block count is what a hit charges: `hit_blocks`, and
            // `cache_read_per_block` on one worker's setup.
            let warm = prepare(&wf, &cache, SimDuration::from_micros(900));
            assert_eq!(
                (warm.hits, warm.hit_blocks, warm.hit_bytes),
                (1, blocks, added)
            );
            let replay = warm.wf.op_by_name("scan").unwrap();
            assert_eq!(
                warm.wf.op(replay).desc().cost.setup,
                SimDuration::from_micros(900) * blocks
            );
        }
    }

    /// Seal what a run recorded, as it was recorded, keeping its order:
    /// the oracle of [`CacheRecording::tee`], which cuts the same blocks
    /// while the run goes. Consecutive row runs are sealed as one run of
    /// rows — the blocks [`CacheEntry::seal`] cuts from the same rows. A
    /// sealed batch becomes blocks directly, one per [`SPILL_BLOCK_ROWS`]
    /// range, each encoded in place, and a block never spans two batches.
    fn seal_runs(schema: &SchemaRef, runs: Vec<Emitted>) -> CacheEntry {
        let mut app = BlockAppender::new();
        let mut rows: Vec<Tuple> = Vec::new();
        for run in runs {
            match run {
                Emitted::Rows(run) if rows.is_empty() => rows = run,
                Emitted::Rows(mut run) => rows.append(&mut run),
                Emitted::Columnar(batch) => {
                    append_rows(&mut app, schema, &rows);
                    rows.clear();
                    for start in (0..batch.len()).step_by(SPILL_BLOCK_ROWS) {
                        let end = batch.len().min(start + SPILL_BLOCK_ROWS);
                        app.append_range(&batch, start..end);
                    }
                }
            }
        }
        append_rows(&mut app, schema, &rows);
        CacheEntry {
            segment: app.seal(),
        }
    }

    /// A recording cuts, while the run goes, the blocks `seal_runs` cuts
    /// at commit from the same runs, to the byte: random sequences of row
    /// runs and sealed batches of 0 to 1 500 rows, with row runs of a
    /// block or more and empty batches among them, and both rows before a
    /// batch and a batch before rows. A tee drops an empty run, so the
    /// oracle is given the runs a tee keeps.
    #[test]
    fn a_recording_commits_the_image_seal_runs_makes_of_its_runs() {
        use scriptflow_simcluster::SplitMix64;
        let schema = Schema::of(&[("id", DataType::Int), ("tag", DataType::Str)]);
        let row = |i: i64| {
            let tag = match i % 7 {
                0 => Value::Null,
                k => Value::Str(format!("t{}", i % 41 * k)),
            };
            Tuple::new(schema.clone(), vec![Value::Int(i), tag]).unwrap()
        };
        let mut rng = SplitMix64::new(0x5EA1_7EE5);
        // Long row runs, empty batches, rows → batch, batch → rows.
        let mut seen = [0; 4];
        for case in 0..80 {
            let mut next = 0;
            let mut runs = Vec::new();
            for _ in 0..rng.range(1..8usize) {
                let kind = rng.range(0..4usize);
                let len = match kind {
                    1 => rng.range(SPILL_BLOCK_ROWS..1_501),
                    3 => 0,
                    _ => rng.range(0..1_501usize),
                } as i64;
                let rows: Vec<Tuple> = (next..next + len).map(row).collect();
                next += len;
                runs.push(match kind {
                    0 | 1 => Emitted::Rows(rows),
                    _ => Emitted::Columnar(ColumnarBatch::from_tuples(schema.clone(), &rows)),
                });
            }
            let kept: Vec<Emitted> = runs.iter().filter(|r| r.len() > 0).cloned().collect();
            let is_rows = |r: &Emitted| matches!(r, Emitted::Rows(_));
            seen[0] += kept
                .iter()
                .filter(|r| is_rows(r) && r.len() >= SPILL_BLOCK_ROWS)
                .count();
            seen[1] += runs.iter().filter(|r| !is_rows(r) && r.len() == 0).count();
            for pair in kept.windows(2) {
                match (is_rows(&pair[0]), is_rows(&pair[1])) {
                    (true, false) => seen[2] += 1,
                    (false, true) => seen[3] += 1,
                    _ => {}
                }
            }

            let rec = CacheRecording {
                op: OpId(0),
                fingerprint: OpFingerprint(case),
                schema: schema.clone(),
                name: "recorded".into(),
                setup: SimDuration::ZERO,
                per_tuple: SimDuration::from_micros(1),
                sealed: Mutex::default(),
            };
            runs.into_iter().for_each(|r| rec.tee(r));
            let cache = ResultCache::new();
            let stats = commit_recordings(std::slice::from_ref(&rec), &cache);
            let entry = cache.lookup(OpFingerprint(case)).expect("committed");
            let oracle = seal_runs(&schema, kept);
            assert_eq!(entry.rows(), next as u64, "case {case}");
            assert_eq!(stats.published, oracle.bytes(), "case {case}");
            assert!(
                entry.segment.encode() == oracle.segment.encode(),
                "case {case}: the committed image differs from seal_runs'"
            );
        }
        assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
    }

    /// A hit is a sealed source exactly when a scan would be: every
    /// consumer reads columns. The rerun's consumer of the served `keep`
    /// is a comparison filter (kernel) or a pass-through UDF (none).
    #[test]
    fn a_hit_replays_sealed_to_kernels_and_as_rows_to_a_udf() {
        use crate::exec_live::LiveExecutor;
        use crate::ops::UdfOp;
        // scan → keep (everything) → last → sink, one worker each but
        // `last`, so what reaches the sink keeps the replayed order.
        let dag = |last: Arc<dyn OperatorFactory>, workers: usize| {
            let mut b = WorkflowBuilder::new();
            let ids = (0..4_000).map(|i| vec![Value::Int(i)]).collect();
            let scan = ScanOp::new("scan", Batch::from_rows(schema(), ids).unwrap());
            let s = b.add(Arc::new(scan), 1);
            let keep = FilterOp::cmp("keep", "id", CmpOp::Ge, Value::Int(0));
            let f = b.add(Arc::new(keep), 1);
            let l = b.add(last, workers);
            let sink_op = SinkOp::new("sink");
            let handle = sink_op.handle();
            let k = b.add(Arc::new(sink_op), 1);
            b.connect(s, f, 0, PartitionStrategy::RoundRobin);
            b.connect(f, l, 0, PartitionStrategy::RoundRobin);
            b.connect(l, k, 0, PartitionStrategy::Single);
            (b.build().unwrap(), handle)
        };
        let late = |ge| Arc::new(FilterOp::cmp("late", "id", CmpOp::Ge, Value::Int(ge)));
        let cache = Arc::new(ResultCache::new());
        let exec = LiveExecutor::new(16)
            .with_pool_size(1)
            .with_result_cache(cache.clone());
        let (cold, _) = dag(late(3_000), 1);
        exec.run(&cold).unwrap();
        let entry = cache
            .lookup(cold.fingerprint(cold.op_by_name("keep").unwrap()))
            .expect("the cold run published keep");
        let recorded = entry.tuples();
        assert_eq!(recorded.len(), 4_000);

        // The replay factory itself: the same rows either way it is asked.
        let plan = prepare(&dag(late(3_500), 1).0, &cache, SimDuration::ZERO);
        let replay = plan.wf.op(plan.wf.op_by_name("keep").unwrap());
        assert!(replay.desc().cache_replay.is_some());
        let sealed = replay.factory.source_columnar().expect("a hit can seal");
        assert_eq!(sealed.to_tuples(), recorded);
        assert_eq!(replay.factory.source_partitions(1).unwrap()[0], recorded);

        // Edited literal: `late` recomputes over the served `keep`, reads
        // it as sealed batches of 16 ascending ids and prunes every one
        // below 3 500 on its statistics.
        let (edited, handle) = dag(late(3_500), 1);
        let run = exec.run(&edited).unwrap();
        let pool = run.pool.unwrap();
        assert_eq!((pool.cache_hits, pool.cache_misses), (1, 1));
        assert_eq!(run.metrics.by_name("late").unwrap().input_tuples, 4_000);
        assert_eq!(pool.batches_skipped, 3_500 / 16);
        assert_eq!(handle.results(), recorded[3_500..]);

        // A UDF behind the same hit gets rows: they coalesce to 125 full
        // batches a worker on the scattered edge (and 250 more reach the
        // sink), where 250 sealed batches would cross it as 500 halves.
        let map = |name: &str| {
            Arc::new(UdfOp::new(name, (*schema()).clone(), |t, _, out| {
                out.emit(t);
                Ok(())
            }))
        };
        exec.run(&dag(map("map"), 2).0).unwrap();
        let (renamed, handle) = dag(map("map_renamed"), 2);
        let run = exec.run(&renamed).unwrap();
        let pool = run.pool.unwrap();
        assert_eq!((pool.cache_hits, pool.cache_misses), (1, 1));
        assert_eq!((pool.batches_skipped, pool.batches_sent), (0, 250 + 250));
        assert_eq!(
            sorted_ids(&handle.results()),
            (0..4_000).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_output_round_trips_as_empty_entry() {
        let cache = ResultCache::new();
        let schema = schema();
        let fp = OpFingerprint(9);
        assert_eq!(cache.publish(fp, &schema, &[]), 0);
        let entry = cache.lookup(fp).unwrap();
        assert_eq!(entry.rows(), 0);
        assert_eq!(entry.blocks(), 0);
        assert!(entry.tuples().is_empty());
    }
}
