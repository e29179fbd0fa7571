//! The data-plane rules, written once for both engines: which input a
//! worker takes next and when its ports close ([`InputPorts`]), where its
//! output goes ([`Router`]), how a row source is dealt ([`seed_rows`])
//! and how input reaches an operator ([`call_operator`]). The pool
//! ([`crate::exec_live`]) and the simulator ([`crate::exec_sim`]) only
//! decide *when* to apply them, so a rule cannot drift between the two.

use std::collections::VecDeque;

use scriptflow_datakit::Tuple;

use crate::cache::CacheRecording;
use crate::dag::{OpId, OpNode, Workflow};
use crate::operator::{Emitted, Operator, OutputCollector, WorkflowResult};
use crate::partition::CompiledPartitioner;

/// One worker's input ports: the end-of-stream markers each still
/// awaits, which have closed, and the input gated behind the operator's
/// blocking ports. `M` is the engine's unit of input (a mailbox message,
/// a queued item).
pub(crate) struct InputPorts<M> {
    /// Remaining EOS per port before the port closes.
    eos_remaining: Vec<usize>,
    closed: Vec<bool>,
    /// Ports that must close before any other port's input is taken.
    blocking: Vec<usize>,
    /// Input gated behind a blocking port, in arrival order (unbounded
    /// by design: holding it is what keeps mailboxes draining).
    held: VecDeque<M>,
    /// Held input the opened gate let go, taken ahead of new arrivals.
    released: VecDeque<M>,
}

impl<M> InputPorts<M> {
    /// The ports of one worker of `op`: [`Workflow::expected_eos`] each
    /// (none for a source), gated by the operator's blocking ports.
    pub(crate) fn new(wf: &Workflow, op: OpId) -> Self {
        let eos_remaining = wf.expected_eos(op).to_vec();
        InputPorts {
            closed: vec![false; eos_remaining.len()],
            eos_remaining,
            blocking: wf.op(op).desc().blocking_ports.clone(),
            held: VecDeque::new(),
            released: VecDeque::new(),
        }
    }

    fn gate_open(&self) -> bool {
        self.blocking.iter().all(|&p| self.closed[p])
    }

    /// Held input released since, oldest first: it is taken before
    /// anything that arrived later.
    pub(crate) fn take_released(&mut self) -> Option<M> {
        self.released.pop_front()
    }

    /// Admit `input`, arrived on `port`, or hold it: while a blocking port
    /// is open, only blocking ports' input passes.
    pub(crate) fn admit(&mut self, port: usize, input: M) -> Option<M> {
        if self.gate_open() || self.blocking.contains(&port) {
            return Some(input);
        }
        self.held.push_back(input);
        None
    }

    /// Count one EOS on `port`; `true` when it closed the port, which
    /// happens exactly once however many markers arrive. The close that
    /// opens the gate releases the held input.
    pub(crate) fn eos(&mut self, port: usize) -> bool {
        self.eos_remaining[port] = self.eos_remaining[port].saturating_sub(1);
        if self.eos_remaining[port] > 0 || self.closed[port] {
            return false;
        }
        self.closed[port] = true;
        if self.gate_open() {
            self.released.append(&mut self.held);
        }
        true
    }

    /// Every port closed and no input parked: nothing is left to take
    /// but what an engine still queues itself.
    pub(crate) fn drained(&self) -> bool {
        self.closed.iter().all(|c| *c) && self.held.is_empty() && self.released.is_empty()
    }

    /// Throw the parked input away, counting the EOS markers among it
    /// (`eos_port` names a marker's port): a failed worker that dropped
    /// them would wait for markers it already had.
    pub(crate) fn discard(&mut self, eos_port: impl Fn(&M) -> Option<usize>) {
        while let Some(input) = self.released.pop_front().or_else(|| self.held.pop_front()) {
            if let Some(port) = eos_port(&input) {
                self.eos(port);
            }
        }
    }

    /// Each open port with the EOS markers it still lacks, `(port,
    /// missing)`: those parked here have arrived already.
    pub(crate) fn missing_eos(
        &self,
        eos_port: impl Fn(&M) -> Option<usize>,
    ) -> Vec<(usize, usize)> {
        let mut missing = self.eos_remaining.clone();
        for p in self.held.iter().chain(&self.released).filter_map(eos_port) {
            missing[p] = missing[p].saturating_sub(1);
        }
        let open = |&(p, n): &(usize, usize)| !self.closed[p] && n > 0;
        missing.into_iter().enumerate().filter(open).collect()
    }
}

/// One out-edge of an operator: the consumer port, the compiled
/// partitioner and the consumer's workers.
#[derive(Clone)]
pub(crate) struct EdgeOut {
    pub(crate) to_port: usize,
    pub(crate) partitioner: CompiledPartitioner,
    /// Global worker ids of the consumer, by local index: an operator's
    /// workers are numbered in DAG order, `parallelism` ids each.
    pub(crate) dests: Vec<usize>,
}

impl EdgeOut {
    /// Row buffers the edge fills: one per destination worker where rows
    /// are scattered, one in all where every row goes the same way (a
    /// single consumer, or a broadcast sharing each batch).
    pub(crate) fn buffers(&self) -> usize {
        if self.partitioner.is_broadcast() {
            1
        } else {
            self.dests.len()
        }
    }

    /// The destination workers, by local index, that buffer `b`'s rows
    /// go to: all of them from a broadcast's one buffer, worker `b`
    /// otherwise.
    pub(crate) fn targets(&self, b: usize) -> std::ops::Range<usize> {
        if self.partitioner.is_broadcast() {
            0..self.dests.len()
        } else {
            b..b + 1
        }
    }
}

/// Every operator's out-edges, in [`Workflow::out_edges`] order.
pub(crate) fn out_edges(wf: &Workflow) -> Vec<Vec<EdgeOut>> {
    let first: Vec<usize> = (wf.ops().iter())
        .scan(0, |next, node| {
            Some(std::mem::replace(next, *next + node.parallelism))
        })
        .collect();
    (0..wf.ops().len())
        .map(|i| {
            wf.out_edges(OpId(i))
                .into_iter()
                .map(|(eid, e)| EdgeOut {
                    to_port: e.to_port,
                    partitioner: wf.partitioner(eid).clone(),
                    dests: (first[e.to.0]..first[e.to.0] + wf.op(e.to).parallelism).collect(),
                })
                .collect()
        })
        .collect()
}

/// One worker's routing state: a sequence per out-edge and the row
/// buffers ([`EdgeOut::buffers`]) its output is moved into. When a
/// buffer's rows leave is the engine's flush policy.
pub(crate) struct Router {
    /// Routing sequence per out-edge.
    pub(crate) seqs: Vec<u64>,
    /// Per out-edge, per buffer: the rows routed and not yet sent.
    pub(crate) bufs: Vec<Vec<Vec<Tuple>>>,
}

impl Router {
    pub(crate) fn new(edges: &[EdgeOut]) -> Self {
        Router {
            seqs: vec![0; edges.len()],
            bufs: edges
                .iter()
                .map(|e| vec![Vec::new(); e.buffers()])
                .collect(),
        }
    }

    /// Route `tuples` along every one of `edges` into its buffers: a
    /// scattered edge *moves* each tuple into its destination worker's
    /// buffer with the compiled partitioner, a broadcast or
    /// single-consumer edge appends the run to its one buffer. The last
    /// edge takes the tuples; an earlier one routes a clone — two
    /// reference counts a tuple, no values copied.
    pub(crate) fn route(
        &mut self,
        edges: &[EdgeOut],
        mut tuples: Vec<Tuple>,
    ) -> WorkflowResult<()> {
        for (d, edge) in edges.iter().enumerate() {
            let mut owned = if d + 1 < edges.len() {
                tuples.clone()
            } else {
                std::mem::take(&mut tuples)
            };
            let bufs = &mut self.bufs[d];
            if bufs.len() == 1 {
                if bufs[0].is_empty() {
                    bufs[0] = owned;
                } else {
                    bufs[0].append(&mut owned);
                }
            } else {
                edge.partitioner.scatter(owned, &mut self.seqs[d], bufs)?;
            }
        }
        Ok(())
    }
}

/// A row source's data, dealt once: partitioned for its workers, each
/// part teed into `recording` in partition order, and each worker's part
/// cut into `batch_size`-row chunks ([`chunk_owned`]), by local index
/// (a worker past the last part gets nothing).
pub(crate) fn seed_rows(
    node: &OpNode,
    recording: Option<&CacheRecording>,
    batch_size: usize,
) -> Vec<VecDeque<Vec<Tuple>>> {
    let parts = node
        .factory
        .source_partitions(node.parallelism)
        .expect("validated at build time");
    if let Some(recording) = recording {
        (parts.iter()).for_each(|part| recording.tee(Emitted::Rows(part.clone())));
    }
    (parts.into_iter())
        .map(|part| {
            let mut chunks = VecDeque::new();
            chunk_owned(part, batch_size, |c| chunks.push_back(c));
            chunks
        })
        .collect()
}

/// The one way input reaches an operator: a sealed batch goes to its
/// column kernel whole, rows go through `on_tuple` one at a time, up to
/// the first error.
pub(crate) fn call_operator(
    instance: &mut dyn Operator,
    port: usize,
    input: Emitted,
    out: &mut OutputCollector,
) -> WorkflowResult<()> {
    match input {
        Emitted::Columnar(sealed) => instance.on_batch(&sealed, port, out),
        Emitted::Rows(tuples) => tuples
            .into_iter()
            .try_for_each(|t| instance.on_tuple(t, port, out)),
    }
}

/// Carve every full `size`-row batch off the front of `buf`, in order,
/// and leave the remainder — fewer than `size` rows — in it. Tuples are
/// moved, never cloned, and every batch carved from a longer buffer is
/// allocated at exactly its length — one pass, O(n) moves, O(n) resident
/// capacity. (`Vec::split_off` would not do: the head it leaves behind
/// keeps the whole parent's capacity, and the tail is re-copied per batch.)
pub(crate) fn carve_full(buf: &mut Vec<Tuple>, size: usize, mut emit: impl FnMut(Vec<Tuple>)) {
    debug_assert!(size > 0);
    if buf.len() < size {
        return;
    }
    if buf.len() == size {
        emit(std::mem::take(buf));
        return;
    }
    let mut rest = std::mem::take(buf).into_iter();
    while rest.len() >= size {
        let mut chunk = Vec::with_capacity(size);
        chunk.extend(rest.by_ref().take(size));
        emit(chunk);
    }
    buf.extend(rest);
}

/// Split an owned tuple vector into `size`-bounded chunks, in order: the
/// full batches [`carve_full`] yields, then the remainder.
pub(crate) fn chunk_owned(mut tuples: Vec<Tuple>, size: usize, mut emit: impl FnMut(Vec<Tuple>)) {
    carve_full(&mut tuples, size, &mut emit);
    if !tuples.is_empty() {
        emit(tuples);
    }
}
