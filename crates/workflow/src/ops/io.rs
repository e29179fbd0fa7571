//! Text-format source and sink operators (CSV / JSONL).
//!
//! The paper's Fig. 9 workflow starts from a "JSONL Processing" source;
//! these operators bridge the [`scriptflow_datakit::codec`] formats into
//! the engine. Sources decode eagerly at build time (malformed input is
//! a *construction* error, before any execution); sinks encode tuples
//! back to text retrievable through a shared handle.

use std::sync::{Arc, Mutex};

use scriptflow_datakit::codec;
use scriptflow_datakit::{DataResult, Schema, SchemaRef, Tuple};

use crate::cost::CostProfile;
use crate::operator::{OpDescriptor, Operator, OperatorFactory, OutputCollector, WorkflowResult};
use crate::ops::ScanOp;
use crate::sync::lock;

/// Build a scan over CSV text (header + typed rows). Decoding errors
/// surface immediately with their line numbers.
pub fn csv_scan(name: impl Into<String>, schema: SchemaRef, text: &str) -> DataResult<ScanOp> {
    let batch = codec::from_csv(schema, text)?;
    // Text parsing is pricier than re-emitting in-memory rows.
    Ok(ScanOp::new(name, batch).with_cost(CostProfile::per_tuple_micros(12)))
}

/// Build a scan over JSONL text (one object per line).
pub fn jsonl_scan(name: impl Into<String>, schema: SchemaRef, text: &str) -> DataResult<ScanOp> {
    let batch = codec::from_jsonl(schema, text)?;
    Ok(ScanOp::new(name, batch).with_cost(CostProfile::per_tuple_micros(15)))
}

/// Output format of a [`TextSinkOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TextFormat {
    /// JSON Lines.
    Jsonl,
    /// CSV (header written by [`TextSinkHandle::text`]).
    Csv,
}

/// A sink that encodes every received tuple as a text line.
pub struct TextSinkOp {
    desc: OpDescriptor,
    format: TextFormat,
    rows: Arc<Mutex<Vec<Tuple>>>,
}

impl TextSinkOp {
    /// A text sink in the given format.
    pub fn new(name: impl Into<String>, format: TextFormat) -> Self {
        let rows: Arc<Mutex<Vec<Tuple>>> = Arc::default();
        TextSinkOp {
            desc: OpDescriptor {
                // Serialization to text per row.
                cost: CostProfile::per_tuple_micros(8),
                // One buffer across instances and across runs, exactly
                // as `SinkOp`'s: the service serializes runs on it and
                // clears it per run.
                shared_state: Some(Arc::as_ptr(&rows) as usize),
                ..OpDescriptor::new(name, 1)
            },
            format,
            rows,
        }
    }

    /// Shared handle to retrieve the encoded text after the run.
    pub fn handle(&self) -> TextSinkHandle {
        TextSinkHandle {
            format: self.format,
            rows: self.rows.clone(),
        }
    }
}

/// Handle to a [`TextSinkOp`]'s collected output.
#[derive(Clone)]
pub struct TextSinkHandle {
    format: TextFormat,
    rows: Arc<Mutex<Vec<Tuple>>>,
}

impl TextSinkHandle {
    /// Number of rows received.
    pub fn len(&self) -> usize {
        lock(&self.rows).len()
    }

    /// True if nothing arrived.
    pub fn is_empty(&self) -> bool {
        lock(&self.rows).is_empty()
    }

    /// Encode everything received so far (rows sorted for determinism
    /// under parallel execution).
    pub fn text(&self) -> String {
        let rows = lock(&self.rows);
        if rows.is_empty() {
            return String::new();
        }
        let schema = rows[0].schema().clone();
        let mut sorted = rows.clone();
        sorted.sort_by_key(|t| t.to_string());
        let batch =
            scriptflow_datakit::Batch::new(schema, sorted).expect("sink rows share one schema");
        match self.format {
            TextFormat::Jsonl => codec::to_jsonl(&batch),
            TextFormat::Csv => codec::to_csv(&batch),
        }
    }
}

struct TextSinkInstance {
    rows: Arc<Mutex<Vec<Tuple>>>,
}

impl Operator for TextSinkInstance {
    fn on_tuple(
        &mut self,
        tuple: Tuple,
        _port: usize,
        _out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        lock(&self.rows).push(tuple);
        Ok(())
    }
}

impl OperatorFactory for TextSinkOp {
    fn descriptor(&self) -> &OpDescriptor {
        &self.desc
    }
    fn output_schema(&self, inputs: &[SchemaRef]) -> WorkflowResult<Schema> {
        Ok((*inputs[0]).clone())
    }
    fn create(&self) -> Box<dyn Operator> {
        Box::new(TextSinkInstance {
            rows: self.rows.clone(),
        })
    }
    fn reset_shared_state(&self) {
        lock(&self.rows).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::WorkflowBuilder;
    use crate::exec_sim::SimExecutor;
    use crate::ops::FilterOp;
    use crate::partition::PartitionStrategy;
    use crate::EngineConfig;
    use scriptflow_datakit::DataType;

    fn schema() -> SchemaRef {
        Schema::of(&[("id", DataType::Int), ("name", DataType::Str)])
    }

    const CSV: &str = "id,name\n1,ada\n2,grace\n3,edsger\n";

    #[test]
    fn csv_roundtrip_through_a_workflow() {
        let scan = csv_scan("JSONL Processing", schema(), CSV).unwrap();
        let sink = TextSinkOp::new("Write JSONL", TextFormat::Jsonl);
        let handle = sink.handle();
        let mut b = WorkflowBuilder::new();
        let s = b.add(Arc::new(scan), 1);
        let f = b.add(
            Arc::new(FilterOp::new("keep", |t| Ok(t.get_int("id")? != 2))),
            2,
        );
        let k = b.add(Arc::new(sink), 1);
        b.connect(s, f, 0, PartitionStrategy::RoundRobin);
        b.connect(f, k, 0, PartitionStrategy::Single);
        let wf = b.build().unwrap();
        SimExecutor::new(EngineConfig::default()).run(&wf).unwrap();
        let text = handle.text();
        assert!(text.contains(r#"{"id":1,"name":"ada"}"#), "{text}");
        assert!(!text.contains("grace"));
        assert_eq!(handle.len(), 2);
    }

    #[test]
    fn jsonl_scan_decodes() {
        let text = "{\"id\":7,\"name\":\"x\"}\n{\"id\":8,\"name\":\"y\"}\n";
        let scan = jsonl_scan("src", schema(), text).unwrap();
        assert_eq!(scan.len(), 2);
    }

    #[test]
    fn malformed_input_fails_at_construction() {
        let err = match csv_scan("src", schema(), "id,name\nnotanint,x\n") {
            Err(e) => e,
            Ok(_) => panic!("expected a decode error"),
        };
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(jsonl_scan("src", schema(), "{broken").is_err());
    }

    #[test]
    fn csv_sink_emits_header() {
        let scan = csv_scan("src", schema(), CSV).unwrap();
        let sink = TextSinkOp::new("csv out", TextFormat::Csv);
        let handle = sink.handle();
        let mut b = WorkflowBuilder::new();
        let s = b.add(Arc::new(scan), 1);
        let k = b.add(Arc::new(sink), 1);
        b.connect(s, k, 0, PartitionStrategy::Single);
        let wf = b.build().unwrap();
        SimExecutor::new(EngineConfig::default()).run(&wf).unwrap();
        let text = handle.text();
        assert!(text.starts_with("id,name\n"), "{text}");
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn empty_sink_renders_empty() {
        let sink = TextSinkOp::new("s", TextFormat::Csv);
        assert!(sink.handle().is_empty());
        assert_eq!(sink.handle().text(), "");
    }
}
