//! Thread-per-worker executor: the baseline
//! [`LiveExecutor::thread_per_worker`] runs on.
//!
//! One OS thread per operator worker, unbounded `mpsc` channels, owned
//! tuple batches with every tuple cloned per routed destination (two
//! reference counts, since a tuple's values are shared) — the routing the
//! pooled executor in [`crate::exec_live`] replaces with moves. It shares no
//! scheduling code with the pool, which is why tests and the repo
//! benchmark use its rows as the anchor a pooled run must reproduce.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use scriptflow_core::BackendKind;
use scriptflow_datakit::Tuple;

use crate::backend::EngineRun;
use crate::dag::{OpId, Workflow};
use crate::exec_live::{makespan_of, LiveExecutor};
use crate::metrics::{OperatorMetrics, OperatorState, RunMetrics};
use crate::operator::{OutputCollector, WorkflowError, WorkflowResult};
use crate::sync::lock;
use crate::trace::ProgressTrace;

/// Message on a legacy channel: tuples are owned and cloned per routed
/// destination, where the pooled executor moves them.
enum LegacyMsg {
    Batch { port: usize, tuples: Vec<Tuple> },
    Eos { port: usize },
}

impl LiveExecutor {
    pub(crate) fn run_threads(&self, wf: &Workflow) -> WorkflowResult<EngineRun> {
        let start = Instant::now();

        // Channel per (op, worker): all upstream workers share one sender.
        let mut txs: Vec<Vec<Sender<LegacyMsg>>> = Vec::new();
        let mut rxs: Vec<Vec<Option<Receiver<LegacyMsg>>>> = Vec::new();
        for node in wf.ops() {
            let mut t = Vec::new();
            let mut r = Vec::new();
            for _ in 0..node.parallelism {
                let (tx, rx) = channel::<LegacyMsg>();
                t.push(tx);
                r.push(Some(rx));
            }
            txs.push(t);
            rxs.push(r);
        }

        let error: Arc<Mutex<Option<WorkflowError>>> = Arc::new(Mutex::new(None));
        let in_counts: Vec<AtomicU64> = wf.ops().iter().map(|_| AtomicU64::new(0)).collect();
        let out_counts: Vec<AtomicU64> = wf.ops().iter().map(|_| AtomicU64::new(0)).collect();

        std::thread::scope(|scope| {
            for (i, node) in wf.ops().iter().enumerate() {
                let op = OpId(i);
                // Downstream senders per out-edge: (to_port, strategy,
                // senders to each downstream worker).
                let downstream: Vec<_> = wf
                    .out_edges(op)
                    .into_iter()
                    .map(|(_, e)| (e.to_port, e.partition.clone(), txs[e.to.0].clone()))
                    .collect();
                let desc = node.desc();
                let expected_eos = wf.expected_eos(op);
                let blocking = &desc.blocking_ports;

                #[allow(clippy::needless_range_loop)]
                for local in 0..node.parallelism {
                    let rx = rxs[i][local].take();
                    let factory = node.factory.as_ref();
                    let downstream = downstream.clone();
                    let error = error.clone();
                    let in_counts = &in_counts;
                    let out_counts = &out_counts;
                    let batch_size = self.batch_size;
                    let parallelism = node.parallelism;
                    let memory_budget = self.memory_budget;

                    scope.spawn(move || {
                        let mut instance = factory.create();
                        instance.set_memory_budget(memory_budget);
                        let mut seqs = vec![0u64; downstream.len()];
                        let mut collector = OutputCollector::new();
                        let fail = |e: WorkflowError, error: &Mutex<Option<WorkflowError>>| {
                            let mut g = lock(error);
                            if g.is_none() {
                                *g = Some(e);
                            }
                        };

                        // Forward helper: route + send collector contents.
                        let forward =
                            |tuples: Vec<Tuple>,
                             seqs: &mut [u64],
                             error: &Mutex<Option<WorkflowError>>| {
                                out_counts[i].fetch_add(tuples.len() as u64, Ordering::Relaxed);
                                for (d, (to_port, strategy, senders)) in
                                    downstream.iter().enumerate()
                                {
                                    let mut routed: Vec<Vec<Tuple>> =
                                        vec![Vec::new(); senders.len()];
                                    for t in &tuples {
                                        match strategy.route(t, seqs[d], senders.len()) {
                                            Ok(ws) => {
                                                for w in ws {
                                                    routed[w].push(t.clone());
                                                }
                                            }
                                            Err(e) => {
                                                fail(e, error);
                                                return;
                                            }
                                        }
                                        seqs[d] += 1;
                                    }
                                    for (w, chunk) in routed.into_iter().enumerate() {
                                        for part in chunk.chunks(batch_size) {
                                            // A closed channel means the consumer
                                            // died after an error; stop quietly.
                                            let _ = senders[w].send(LegacyMsg::Batch {
                                                port: *to_port,
                                                tuples: part.to_vec(),
                                            });
                                        }
                                    }
                                }
                            };

                        if desc.input_ports == 0 {
                            // Source worker: emit own partition.
                            let parts = factory
                                .source_partitions(parallelism)
                                .expect("validated at build time");
                            let mine = parts.into_iter().nth(local).unwrap_or_default();
                            for chunk in mine.chunks(batch_size) {
                                forward(chunk.to_vec(), &mut seqs, &error);
                            }
                        } else if let Some(rx) = rx {
                            let mut eos_remaining = expected_eos.to_vec();
                            let mut port_done = vec![false; eos_remaining.len()];
                            let mut held: Vec<LegacyMsg> = Vec::new();
                            let gate_open = |done: &[bool]| blocking.iter().all(|&p| done[p]);
                            let mut pending: VecDeque<LegacyMsg> = Default::default();
                            'recv: loop {
                                let msg = if let Some(m) = pending.pop_front() {
                                    m
                                } else {
                                    match rx.recv() {
                                        Ok(m) => m,
                                        Err(_) => break 'recv,
                                    }
                                };
                                let msg_port = match &msg {
                                    LegacyMsg::Batch { port, .. } | LegacyMsg::Eos { port } => {
                                        *port
                                    }
                                };
                                if !gate_open(&port_done) && !blocking.contains(&msg_port) {
                                    held.push(msg);
                                    continue;
                                }
                                match msg {
                                    LegacyMsg::Batch { port, tuples } => {
                                        in_counts[i]
                                            .fetch_add(tuples.len() as u64, Ordering::Relaxed);
                                        for t in tuples {
                                            if let Err(e) =
                                                instance.on_tuple(t, port, &mut collector)
                                            {
                                                fail(e, &error);
                                                break 'recv;
                                            }
                                        }
                                        if !collector.is_empty() {
                                            forward(collector.take(), &mut seqs, &error);
                                        }
                                    }
                                    LegacyMsg::Eos { port } => {
                                        eos_remaining[port] = eos_remaining[port].saturating_sub(1);
                                        if eos_remaining[port] == 0 && !port_done[port] {
                                            port_done[port] = true;
                                            if let Err(e) =
                                                instance.on_port_complete(port, &mut collector)
                                            {
                                                fail(e, &error);
                                                break 'recv;
                                            }
                                            if !collector.is_empty() {
                                                forward(collector.take(), &mut seqs, &error);
                                            }
                                            if gate_open(&port_done) && !held.is_empty() {
                                                for m in held.drain(..) {
                                                    pending.push_back(m);
                                                }
                                            }
                                        }
                                        if port_done.iter().all(|d| *d) && pending.is_empty() {
                                            break 'recv;
                                        }
                                    }
                                }
                            }
                        }

                        // Tell every downstream worker this producer is done.
                        for (to_port, _, senders) in &downstream {
                            for s in senders {
                                let _ = s.send(LegacyMsg::Eos { port: *to_port });
                            }
                        }
                        // Dropping our senders lets consumers drain and exit.
                    });
                }
            }
            // Drop the scope-owned senders so sinks see disconnect once all
            // producers exit.
            drop(txs);
        });

        if let Some(e) = lock(&error).take() {
            return Err(e);
        }

        let elapsed = start.elapsed();
        let mut operators = OperatorMetrics::for_workflow(wf);
        for (i, m) in operators.iter_mut().enumerate() {
            m.input_tuples = in_counts[i].load(Ordering::Relaxed);
            m.output_tuples = out_counts[i].load(Ordering::Relaxed);
            m.state = OperatorState::Completed;
        }
        Ok(EngineRun {
            kind: BackendKind::Live,
            rows: Vec::new(),
            elapsed,
            metrics: RunMetrics {
                makespan: makespan_of(elapsed),
                operators,
                total_workers: wf.total_workers(),
                events: 0,
            },
            trace: ProgressTrace::default(),
            pool: None,
            cache_published: 0,
            worker_timeline: Vec::new(),
        })
    }
}
