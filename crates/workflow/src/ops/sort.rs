//! Sort operator (blocking), with external-sort spilling under a memory
//! budget.

use std::cmp::Ordering;

use scriptflow_datakit::blockstore::Segment;
use scriptflow_datakit::{Schema, SchemaRef, Tuple, Value};
use scriptflow_simcluster::Language;

use scriptflow_core::fingerprint::OpFingerprint;

use crate::cost::CostProfile;
use crate::operator::{
    spec_fingerprinter, OpDescriptor, Operator, OperatorFactory, OutputCollector, WorkflowError,
    WorkflowResult,
};
use crate::spill::{read_block, seal_run, tuple_footprint};

use super::{resolve_columns, ResolvedColumns};

/// Sort direction for one key column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Smallest first.
    Ascending,
    /// Largest first.
    Descending,
}

/// Blocking sort on one or more key columns.
///
/// Use parallelism 1 (or partition so that per-worker order is
/// sufficient): each worker sorts only the tuples it receives.
pub struct SortOp {
    desc: OpDescriptor,
    keys: Vec<(String, SortOrder)>,
    memory_budget: Option<usize>,
}

impl SortOp {
    /// Sort by `keys`, applied in order.
    pub fn new(name: impl Into<String>, keys: &[(&str, SortOrder)]) -> Self {
        assert!(!keys.is_empty(), "sort needs at least one key");
        SortOp {
            desc: OpDescriptor {
                blocking_ports: vec![0],
                cost: CostProfile::per_tuple_micros(3),
                ..OpDescriptor::new(name, 1)
            },
            keys: keys.iter().map(|(c, o)| ((*c).to_owned(), *o)).collect(),
            memory_budget: None,
        }
    }

    /// Override the cost profile.
    pub fn with_cost(mut self, cost: CostProfile) -> Self {
        self.desc.cost = cost;
        self
    }

    /// Override the implementation language.
    pub fn with_language(mut self, language: Language) -> Self {
        self.desc.language = language;
        self
    }

    /// Per-operator memory budget override: once the sort buffer exceeds
    /// `bytes`, it is sorted and sealed to the block store as a run, and
    /// runs are k-way merged at completion. Takes precedence over the
    /// engine-level [`crate::EngineConfig::memory_budget`].
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }
}

fn compare_values(a: &Value, b: &Value) -> Ordering {
    use Value::*;
    match (a, b) {
        (Null, Null) => Ordering::Equal,
        (Null, _) => Ordering::Less,
        (_, Null) => Ordering::Greater,
        (Bool(x), Bool(y)) => x.cmp(y),
        (Int(x), Int(y)) => x.cmp(y),
        (Float(x), Float(y)) => x.partial_cmp(y).unwrap_or(Ordering::Equal),
        (Int(x), Float(y)) => (*x as f64).partial_cmp(y).unwrap_or(Ordering::Equal),
        (Float(x), Int(y)) => x.partial_cmp(&(*y as f64)).unwrap_or(Ordering::Equal),
        (Str(x), Str(y)) => x.cmp(y),
        // Mixed/unordered types: stable but arbitrary (by type tag).
        _ => format!("{a}").cmp(&format!("{b}")),
    }
}

/// Compare two rows on the key columns at `columns`, in order.
fn compare_by_keys(columns: &[usize], orders: &[SortOrder], a: &Tuple, b: &Tuple) -> Ordering {
    for (&j, order) in columns.iter().zip(orders) {
        let mut ord = compare_values(a.at(j), b.at(j));
        if *order == SortOrder::Descending {
            ord = ord.reverse();
        }
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Streaming reader over one sealed run: decodes one block at a time,
/// charging a spill read per block.
struct RunCursor {
    segment: Segment,
    next_block: usize,
    current: Vec<Tuple>,
    pos: usize,
}

impl RunCursor {
    fn in_memory(tuples: Vec<Tuple>) -> RunCursor {
        RunCursor {
            segment: scriptflow_datakit::blockstore::BlockAppender::new().seal(),
            next_block: 0,
            current: tuples,
            pos: 0,
        }
    }

    fn spilled(segment: Segment) -> RunCursor {
        RunCursor {
            segment,
            next_block: 0,
            current: Vec::new(),
            pos: 0,
        }
    }

    /// Ensure a tuple is available, decoding the next block if needed.
    fn peek(&mut self, name: &str, out: &mut OutputCollector) -> WorkflowResult<Option<&Tuple>> {
        while self.pos >= self.current.len() {
            let Some(block) = self.segment.blocks().get(self.next_block) else {
                return Ok(None);
            };
            self.current = read_block(block, name, out)?;
            self.pos = 0;
            self.next_block += 1;
        }
        Ok(self.current.get(self.pos))
    }

    fn pop(&mut self) -> Tuple {
        let t = self.current[self.pos].clone();
        self.pos += 1;
        t
    }
}

struct SortInstance {
    name: String,
    key_names: Vec<String>,
    orders: Vec<SortOrder>,
    /// The key columns' indices, resolved on the first tuple. Every
    /// tuple on the port has the port's layout, and a spilled run keeps
    /// the layout it was sealed with, so one resolution orders them all.
    key_columns: ResolvedColumns,
    buffer: Vec<Tuple>,
    buffer_bytes: usize,
    budget: Option<usize>,
    budget_fixed: bool,
    runs: Vec<Segment>,
}

impl SortInstance {
    /// The resolved key columns; empty before the first tuple.
    fn key_columns(&self) -> &[usize] {
        self.key_columns
            .as_ref()
            .map_or(&[], |(_, columns)| columns)
    }

    fn sort_buffer(&mut self) {
        let mut buffer = std::mem::take(&mut self.buffer);
        buffer.sort_by(|a, b| compare_by_keys(self.key_columns(), &self.orders, a, b));
        self.buffer = buffer;
    }

    /// Sort the buffer and seal it to the block store as one run.
    fn spill_run(&mut self, out: &mut OutputCollector) {
        if self.buffer.is_empty() {
            return;
        }
        self.sort_buffer();
        let schema = self.buffer[0].schema().clone();
        let seg = seal_run(&schema, &self.buffer, out);
        self.runs.push(seg);
        self.buffer.clear();
        self.buffer_bytes = 0;
    }
}

impl Operator for SortInstance {
    fn set_memory_budget(&mut self, bytes: Option<usize>) {
        if !self.budget_fixed {
            self.budget = bytes;
        }
    }

    fn on_tuple(
        &mut self,
        tuple: Tuple,
        _port: usize,
        out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        // Validate key columns exist up front (operator-level error).
        resolve_columns(&mut self.key_columns, tuple.schema(), &self.key_names)
            .map_err(|e| WorkflowError::from_data(&self.name, e))?;
        self.buffer_bytes += tuple_footprint(&tuple);
        self.buffer.push(tuple);
        if let Some(budget) = self.budget {
            if self.buffer_bytes > budget {
                self.spill_run(out);
            }
        }
        Ok(())
    }

    fn on_port_complete(&mut self, _port: usize, out: &mut OutputCollector) -> WorkflowResult<()> {
        self.sort_buffer();
        self.buffer_bytes = 0;
        if self.runs.is_empty() {
            out.emit_all(self.buffer.drain(..));
            return Ok(());
        }
        // K-way merge of the sealed runs plus the final in-memory run.
        let mut cursors: Vec<RunCursor> = self.runs.drain(..).map(RunCursor::spilled).collect();
        cursors.push(RunCursor::in_memory(std::mem::take(&mut self.buffer)));
        let (columns, name) = (self.key_columns(), &self.name);
        loop {
            let mut best: Option<usize> = None;
            for i in 0..cursors.len() {
                if cursors[i].peek(name, out)?.is_none() {
                    continue;
                }
                best = Some(match best {
                    None => i,
                    Some(j) => {
                        // Both peeks succeeded above, so direct indexing
                        // into the decoded buffers is safe here.
                        let a = &cursors[i].current[cursors[i].pos];
                        let b = &cursors[j].current[cursors[j].pos];
                        if compare_by_keys(columns, &self.orders, a, b) == Ordering::Less {
                            i
                        } else {
                            j
                        }
                    }
                });
            }
            match best {
                Some(i) => out.emit(cursors[i].pop()),
                None => break,
            }
        }
        Ok(())
    }
}

impl OperatorFactory for SortOp {
    fn descriptor(&self) -> &OpDescriptor {
        &self.desc
    }
    fn output_schema(&self, inputs: &[SchemaRef]) -> WorkflowResult<Schema> {
        for (k, _) in &self.keys {
            inputs[0]
                .index_of(k)
                .map_err(|e| WorkflowError::SchemaError {
                    operator: self.desc.name.clone(),
                    error: e,
                })?;
        }
        Ok((*inputs[0]).clone())
    }
    fn create(&self) -> Box<dyn Operator> {
        Box::new(SortInstance {
            name: self.desc.name.clone(),
            key_names: self.keys.iter().map(|(c, _)| c.clone()).collect(),
            orders: self.keys.iter().map(|(_, o)| *o).collect(),
            key_columns: None,
            buffer: Vec::new(),
            buffer_bytes: 0,
            budget: self.memory_budget,
            budget_fixed: self.memory_budget.is_some(),
            runs: Vec::new(),
        })
    }

    fn fingerprint(&self) -> OpFingerprint {
        let mut h = spec_fingerprinter(&self.desc);
        h.write_usize(self.keys.len());
        for (col, order) in &self.keys {
            h.write_str(col);
            h.write_str(&format!("{order:?}"));
        }
        match self.memory_budget {
            Some(b) => h.write_usize(b),
            None => h.write_str("unbounded"),
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scriptflow_datakit::DataType;

    fn tuple(a: i64, b: &str) -> Tuple {
        Tuple::new(
            Schema::of(&[("a", DataType::Int), ("b", DataType::Str)]),
            vec![Value::Int(a), Value::Str(b.into())],
        )
        .unwrap()
    }

    fn run_sort(op: &SortOp, rows: Vec<Tuple>) -> Vec<Tuple> {
        let mut inst = op.create();
        let mut out = OutputCollector::new();
        for t in rows {
            inst.on_tuple(t, 0, &mut out).unwrap();
        }
        assert!(out.is_empty(), "sort must be blocking");
        inst.on_port_complete(0, &mut out).unwrap();
        out.take()
    }

    #[test]
    fn single_key_ascending() {
        let op = SortOp::new("s", &[("a", SortOrder::Ascending)]);
        let got = run_sort(&op, vec![tuple(3, "x"), tuple(1, "y"), tuple(2, "z")]);
        let keys: Vec<i64> = got.iter().map(|t| t.get_int("a").unwrap()).collect();
        assert_eq!(keys, vec![1, 2, 3]);
    }

    #[test]
    fn compound_keys_with_direction() {
        let op = SortOp::new(
            "s",
            &[("b", SortOrder::Ascending), ("a", SortOrder::Descending)],
        );
        let got = run_sort(
            &op,
            vec![tuple(1, "x"), tuple(3, "x"), tuple(2, "y"), tuple(9, "x")],
        );
        let pairs: Vec<(String, i64)> = got
            .iter()
            .map(|t| (t.get_str("b").unwrap().to_owned(), t.get_int("a").unwrap()))
            .collect();
        assert_eq!(
            pairs,
            vec![
                ("x".into(), 9),
                ("x".into(), 3),
                ("x".into(), 1),
                ("y".into(), 2)
            ]
        );
    }

    #[test]
    fn nulls_sort_first() {
        let schema = Schema::of(&[("a", DataType::Int), ("b", DataType::Str)]);
        let null_row = Tuple::new(schema, vec![Value::Null, Value::Str("n".into())]).unwrap();
        let op = SortOp::new("s", &[("a", SortOrder::Ascending)]);
        let got = run_sort(&op, vec![tuple(1, "x"), null_row]);
        assert!(got[0].get("a").unwrap().is_null());
    }

    #[test]
    fn missing_key_is_operator_error() {
        let op = SortOp::new("s", &[("zzz", SortOrder::Ascending)]);
        let mut inst = op.create();
        let mut out = OutputCollector::new();
        let err = inst.on_tuple(tuple(1, "x"), 0, &mut out).unwrap_err();
        assert!(err.to_string().contains("`s`"));
        // And the builder catches it at schema time too.
        assert!(op
            .output_schema(&[Schema::of(&[("a", DataType::Int)])])
            .is_err());
    }

    #[test]
    fn tiny_budget_spills_runs_and_merges_identically() {
        let rows: Vec<Tuple> = (0..200)
            .map(|i| tuple((i * 37) % 101, if i % 2 == 0 { "even" } else { "odd" }))
            .collect();
        let in_memory = run_sort(
            &SortOp::new("s", &[("a", SortOrder::Ascending)]),
            rows.clone(),
        );

        let op = SortOp::new("s", &[("a", SortOrder::Ascending)]).with_memory_budget(512);
        let mut inst = op.create();
        let mut out = OutputCollector::new();
        for t in rows {
            inst.on_tuple(t, 0, &mut out).unwrap();
        }
        assert!(
            out.spilled_blocks() > 0,
            "512-byte budget must force sorted runs to spill"
        );
        inst.on_port_complete(0, &mut out).unwrap();
        assert!(out.counters().spill_reads > 0, "merge must read runs back");
        let spilled = out.take();
        let keys =
            |ts: &[Tuple]| -> Vec<i64> { ts.iter().map(|t| t.get_int("a").unwrap()).collect() };
        assert_eq!(keys(&spilled), keys(&in_memory));
    }

    #[test]
    fn engine_budget_applies_unless_operator_override_set() {
        // Engine-level budget reaches an un-overridden instance...
        let op = SortOp::new("s", &[("a", SortOrder::Ascending)]);
        let mut inst = op.create();
        inst.set_memory_budget(Some(256));
        let mut out = OutputCollector::new();
        for i in 0..100 {
            inst.on_tuple(tuple(i, "x"), 0, &mut out).unwrap();
        }
        assert!(out.spilled_blocks() > 0);

        // ...but a per-operator override wins over the engine value.
        let fixed = SortOp::new("s", &[("a", SortOrder::Ascending)]).with_memory_budget(1 << 30);
        let mut inst = fixed.create();
        inst.set_memory_budget(Some(256));
        let mut out = OutputCollector::new();
        for i in 0..100 {
            inst.on_tuple(tuple(i, "x"), 0, &mut out).unwrap();
        }
        assert_eq!(
            out.spilled_blocks(),
            0,
            "override must shadow engine budget"
        );
    }

    #[test]
    fn value_comparison_total_enough() {
        assert_eq!(
            compare_values(&Value::Int(2), &Value::Float(2.0)),
            Ordering::Equal
        );
        assert_eq!(
            compare_values(&Value::Float(1.5), &Value::Int(2)),
            Ordering::Less
        );
        assert_eq!(
            compare_values(&Value::Bool(false), &Value::Bool(true)),
            Ordering::Less
        );
    }
}
