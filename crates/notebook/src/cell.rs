//! Cells and notebooks.

use std::fmt;

use scriptflow_raysim::RayError;

use crate::kernel::Kernel;

/// A cell-level error trace: the script paradigm reports failures at the
/// granularity of the cell whose execution raised them (§III-A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError {
    /// Cell index in the notebook, if raised while running a cell.
    pub cell: Option<usize>,
    /// Cell display name.
    pub cell_name: Option<String>,
    /// Execution counter at failure (`In [n]:`).
    pub execution_count: Option<u64>,
    /// Error message (the last stack frame).
    pub message: String,
}

impl CellError {
    /// A bare error not yet attached to a cell.
    pub fn msg(message: impl Into<String>) -> Self {
        CellError {
            cell: None,
            cell_name: None,
            execution_count: None,
            message: message.into(),
        }
    }

    /// `NameError: name 'x' is not defined`.
    pub fn undefined_variable(name: &str) -> Self {
        CellError::msg(format!("NameError: name '{name}' is not defined"))
    }

    /// `TypeError` on a kernel variable downcast.
    pub fn type_error(name: &str, expected: &str) -> Self {
        CellError::msg(format!(
            "TypeError: variable '{name}' is not of type {expected}"
        ))
    }

    fn locate(mut self, cell: usize, name: &str, execution_count: u64) -> Self {
        self.cell.get_or_insert(cell);
        self.cell_name.get_or_insert_with(|| name.to_owned());
        self.execution_count.get_or_insert(execution_count);
        self
    }
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.cell, &self.cell_name, &self.execution_count) {
            (Some(i), Some(name), Some(n)) => {
                write!(f, "In [{n}] cell {i} ({name}): {}", self.message)
            }
            _ => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for CellError {}

impl From<RayError> for CellError {
    fn from(e: RayError) -> Self {
        CellError::msg(e.to_string())
    }
}

impl From<scriptflow_datakit::DataError> for CellError {
    fn from(e: scriptflow_datakit::DataError) -> Self {
        CellError::msg(e.to_string())
    }
}

type CellFn = Box<dyn FnMut(&mut Kernel) -> Result<(), CellError> + Send>;

/// One notebook cell: a pseudo-Python listing plus the executable body.
///
/// The listing is what a reader sees (and what the LoC metric counts);
/// the closure is what runs. Declared reads/writes power the lineage
/// analysis in [`crate::lineage`].
pub struct Cell {
    name: String,
    source: String,
    reads: Vec<String>,
    writes: Vec<String>,
    markdown: bool,
    body: CellFn,
}

impl Cell {
    /// A cell with a display name, source listing, and body.
    pub fn new(
        name: impl Into<String>,
        source: impl Into<String>,
        body: impl FnMut(&mut Kernel) -> Result<(), CellError> + Send + 'static,
    ) -> Self {
        Cell {
            name: name.into(),
            source: source.into(),
            reads: Vec::new(),
            writes: Vec::new(),
            markdown: false,
            body: Box::new(body),
        }
    }

    /// A markdown cell: display-only prose, no executable body, zero
    /// lines of code.
    pub fn markdown(name: impl Into<String>, text: impl Into<String>) -> Self {
        Cell {
            name: name.into(),
            source: text.into(),
            reads: Vec::new(),
            writes: Vec::new(),
            markdown: true,
            body: Box::new(|_| Ok(())),
        }
    }

    /// True for markdown (display-only) cells.
    pub fn is_markdown(&self) -> bool {
        self.markdown
    }

    /// Declare kernel variables this cell reads (for lineage analysis).
    pub fn reads(mut self, vars: &[&str]) -> Self {
        self.reads = vars.iter().map(|s| (*s).to_owned()).collect();
        self
    }

    /// Declare kernel variables this cell writes (for lineage analysis).
    pub fn writes(mut self, vars: &[&str]) -> Self {
        self.writes = vars.iter().map(|s| (*s).to_owned()).collect();
        self
    }

    /// Cell display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The pseudo-Python source listing.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Declared reads.
    pub fn read_vars(&self) -> &[String] {
        &self.reads
    }

    /// Declared writes.
    pub fn write_vars(&self) -> &[String] {
        &self.writes
    }

    /// Non-empty, non-comment source lines (the paper's LoC metric).
    /// Markdown cells contribute zero.
    pub fn lines_of_code(&self) -> usize {
        if self.markdown {
            return 0;
        }
        self.source
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .count()
    }
}

/// Outcome of one cell execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellOutcome {
    /// Cell index executed.
    pub cell: usize,
    /// Execution counter assigned (`In [n]:`).
    pub execution_count: u64,
}

/// An ordered collection of cells sharing one kernel.
pub struct Notebook {
    name: String,
    cells: Vec<Cell>,
    last_execution: Vec<Option<u64>>,
}

impl Notebook {
    /// An empty notebook.
    pub fn new(name: impl Into<String>) -> Self {
        Notebook {
            name: name.into(),
            cells: Vec::new(),
            last_execution: Vec::new(),
        }
    }

    /// Notebook display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append a cell; returns its index.
    pub fn push(&mut self, cell: Cell) -> usize {
        self.cells.push(cell);
        self.last_execution.push(None);
        self.cells.len() - 1
    }

    /// The execution counter the cell last ran under (`In [n]:`), if it
    /// has run.
    pub fn last_execution(&self, index: usize) -> Option<u64> {
        self.last_execution.get(index).copied().flatten()
    }

    /// The cells in document order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if there are no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Total lines of code across cells — the paper's Fig. 12a metric.
    pub fn lines_of_code(&self) -> usize {
        self.cells.iter().map(Cell::lines_of_code).sum()
    }

    /// Execute one cell (any order allowed — the paradigm's flexibility
    /// *and* hazard). Errors come back as cell-level traces.
    pub fn run_cell(
        &mut self,
        index: usize,
        kernel: &mut Kernel,
    ) -> Result<CellOutcome, CellError> {
        let cell = self
            .cells
            .get_mut(index)
            .ok_or_else(|| CellError::msg(format!("no cell {index}")))?;
        let n = kernel.next_execution_count();
        let start = kernel.now();
        // An armed kernel fault strikes the whole cell: the body never
        // runs, so no partial work survives — cell granularity is the
        // paradigm's failure unit.
        let result = match kernel.take_fault(n) {
            Some(msg) => Err(CellError::msg(msg)),
            None => (cell.body)(kernel),
        };
        // Failed runs are spans too: the paradigm's error display is the
        // cell trace, so the span records where the timeline stopped.
        kernel.record_span(crate::kernel::CellSpan {
            cell: index,
            name: cell.name.clone(),
            execution_count: n,
            start,
            end: kernel.now(),
            reads: cell.reads.clone(),
            writes: cell.writes.clone(),
            ok: result.is_ok(),
        });
        result.map_err(|e| e.locate(index, &cell.name, n))?;
        self.last_execution[index] = Some(n);
        Ok(CellOutcome {
            cell: index,
            execution_count: n,
        })
    }

    /// Execute every cell top-to-bottom ("Run All").
    pub fn run_all(&mut self, kernel: &mut Kernel) -> Result<Vec<CellOutcome>, CellError> {
        let mut outcomes = Vec::with_capacity(self.cells.len());
        for i in 0..self.cells.len() {
            outcomes.push(self.run_cell(i, kernel)?);
        }
        Ok(outcomes)
    }

    /// Execute cells in an explicit (possibly out-of-document) order.
    pub fn run_in_order(
        &mut self,
        order: &[usize],
        kernel: &mut Kernel,
    ) -> Result<Vec<CellOutcome>, CellError> {
        let mut outcomes = Vec::with_capacity(order.len());
        for &i in order {
            outcomes.push(self.run_cell(i, kernel)?);
        }
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scriptflow_raysim::RayConfig;
    use scriptflow_simcluster::ClusterSpec;

    fn kernel() -> Kernel {
        Kernel::new(&ClusterSpec::single_node(2), RayConfig::with_cpus(2))
    }

    fn counter_notebook() -> Notebook {
        let mut nb = Notebook::new("counting");
        nb.push(
            Cell::new("init", "x = 0", |k| {
                k.set("x", 0i64);
                Ok(())
            })
            .writes(&["x"]),
        );
        nb.push(
            Cell::new("incr", "x = x + 1", |k| {
                let x = *k.get::<i64>("x")?;
                k.set("x", x + 1);
                Ok(())
            })
            .reads(&["x"])
            .writes(&["x"]),
        );
        nb
    }

    #[test]
    fn run_all_in_order() {
        let mut nb = counter_notebook();
        let mut k = kernel();
        let outcomes = nb.run_all(&mut k).unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[1].execution_count, 2);
        assert_eq!(*k.get::<i64>("x").unwrap(), 1);
    }

    #[test]
    fn out_of_order_execution_changes_results() {
        // Fig. 8 of the paper: executing cells in a user-chosen order is
        // allowed and silently produces different state.
        let mut nb = counter_notebook();
        let mut k = kernel();
        nb.run_in_order(&[0, 1, 1, 1], &mut k).unwrap();
        assert_eq!(*k.get::<i64>("x").unwrap(), 3);
        assert_eq!(k.execution_count(), 4);
    }

    #[test]
    fn running_dependent_cell_first_fails_with_cell_trace() {
        let mut nb = counter_notebook();
        let mut k = kernel();
        let err = nb.run_cell(1, &mut k).unwrap_err();
        assert_eq!(err.cell, Some(1));
        assert_eq!(err.cell_name.as_deref(), Some("incr"));
        assert!(err.to_string().contains("NameError"), "{err}");
        assert!(err.to_string().contains("In [1]"), "{err}");
    }

    #[test]
    fn loc_counts_nonempty_noncomment_lines() {
        let cell = Cell::new(
            "c",
            "# load the data\nimport pandas as pd\n\ndf = pd.read_csv('x.csv')\n",
            |_| Ok(()),
        );
        assert_eq!(cell.lines_of_code(), 2);
        let mut nb = Notebook::new("nb");
        nb.push(cell);
        nb.push(Cell::new("d", "print(df)", |_| Ok(())));
        assert_eq!(nb.lines_of_code(), 3);
    }

    #[test]
    fn markdown_cells_run_as_noops_and_count_zero_loc() {
        let mut nb = Notebook::new("md");
        nb.push(Cell::markdown(
            "intro",
            "# A title
Some prose.",
        ));
        nb.push(Cell::new("code", "x = 1", |k| {
            k.set("x", 1i64);
            Ok(())
        }));
        assert!(nb.cells()[0].is_markdown());
        assert_eq!(nb.cells()[0].lines_of_code(), 0);
        assert_eq!(nb.lines_of_code(), 1);
        let mut k = kernel();
        nb.run_all(&mut k).unwrap();
        assert_eq!(nb.last_execution(0), Some(1));
        assert_eq!(nb.last_execution(1), Some(2));
    }

    #[test]
    fn cell_spans_record_time_and_lineage() {
        use scriptflow_simcluster::SimDuration;
        let mut nb = Notebook::new("spans");
        nb.push(
            Cell::new("load", "df = load()", |k| {
                k.advance(SimDuration::from_secs(2));
                k.set("df", 42i64);
                Ok(())
            })
            .writes(&["df"]),
        );
        nb.push(
            Cell::new("use", "print(df)", |k| {
                k.get::<i64>("df")?;
                Ok(())
            })
            .reads(&["df"]),
        );
        let mut k = kernel();
        nb.run_all(&mut k).unwrap();
        let spans = k.cell_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "load");
        assert_eq!(spans[0].execution_count, 1);
        assert!(spans[0].ok);
        assert!(
            (spans[0].duration().as_secs_f64() - 2.0).abs() < 1e-9,
            "cell wall time charged: {:?}",
            spans[0]
        );
        assert_eq!(spans[0].writes, vec!["df".to_owned()]);
        assert_eq!(spans[1].reads, vec!["df".to_owned()]);
        // Spans line up on the kernel clock.
        assert!(spans[1].start >= spans[0].end);
    }

    #[test]
    fn failed_cells_still_record_spans() {
        let mut nb = counter_notebook();
        let mut k = kernel();
        assert!(nb.run_cell(1, &mut k).is_err()); // reads undefined `x`
        let spans = k.cell_spans();
        assert_eq!(spans.len(), 1);
        assert!(!spans[0].ok);
        assert_eq!(spans[0].name, "incr");
    }

    #[test]
    fn armed_fault_kills_the_whole_cell() {
        let mut nb = counter_notebook();
        let mut k = kernel();
        // Strike the second execution (`In [2]:` = the incr cell).
        k.arm_fault(2, "SimulatedKernelFault: worker died");
        nb.run_cell(0, &mut k).unwrap();
        let err = nb.run_cell(1, &mut k).unwrap_err();
        assert_eq!(err.cell, Some(1));
        assert_eq!(err.execution_count, Some(2));
        assert!(err.to_string().contains("SimulatedKernelFault"), "{err}");
        // The body never ran: x keeps its pre-fault value (whole-cell
        // loss, not partial progress).
        assert_eq!(*k.get::<i64>("x").unwrap(), 0);
        // The failed run is still a span, marked not-ok.
        let spans = k.cell_spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].ok);
        assert!(!spans[1].ok);
        // The fault disarms after firing: re-running the cell succeeds.
        nb.run_cell(1, &mut k).unwrap();
        assert_eq!(*k.get::<i64>("x").unwrap(), 1);
    }

    #[test]
    fn armed_fault_waits_for_its_execution_count() {
        let mut nb = counter_notebook();
        let mut k = kernel();
        k.arm_fault(3, "boom");
        nb.run_cell(0, &mut k).unwrap();
        nb.run_cell(1, &mut k).unwrap();
        let err = nb.run_cell(1, &mut k).unwrap_err();
        assert_eq!(err.execution_count, Some(3));
        assert_eq!(err.cell_name.as_deref(), Some("incr"));
    }

    #[test]
    fn bad_index_is_reported() {
        let mut nb = counter_notebook();
        let mut k = kernel();
        assert!(nb.run_cell(9, &mut k).is_err());
    }
}
