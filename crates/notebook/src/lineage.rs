//! Data-lineage reconstruction over cells.
//!
//! The paper observes that in a notebook "the order of executable code
//! cells may not necessarily align with the actual flow of data"
//! (§III-A, Fig. 8). Because cells declare their reads/writes, we can
//! build the def-use graph the workflow paradigm makes explicit, and
//! audit any actual execution order against it.

use std::collections::{HashMap, HashSet};

use crate::cell::Notebook;

/// A reconstructed def-use graph over notebook cells.
#[derive(Debug, Clone)]
pub struct LineageGraph {
    /// `edges[i]` = cells whose writes cell `i` reads (assuming document
    /// order defines the intended producer).
    edges: Vec<Vec<usize>>,
    cells: usize,
}

/// A problem found when auditing an execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineageIssue {
    /// A cell read a variable no earlier-executed cell had written.
    ReadBeforeWrite {
        /// Offending cell.
        cell: usize,
        /// The variable read too early.
        variable: String,
    },
    /// A cell in the notebook was never executed.
    NeverExecuted {
        /// The skipped cell.
        cell: usize,
    },
}

impl LineageGraph {
    /// Build the graph from declared reads/writes, resolving each read to
    /// the *latest earlier* cell (in document order) writing the
    /// variable — the intention a top-to-bottom reading conveys.
    pub fn from_notebook(nb: &Notebook) -> Self {
        let mut last_writer: HashMap<&str, usize> = HashMap::new();
        let mut edges = vec![Vec::new(); nb.len()];
        for (i, cell) in nb.cells().iter().enumerate() {
            for r in cell.read_vars() {
                if let Some(&w) = last_writer.get(r.as_str()) {
                    if !edges[i].contains(&w) {
                        edges[i].push(w);
                    }
                }
            }
            for w in cell.write_vars() {
                last_writer.insert(w, i);
            }
        }
        LineageGraph {
            edges,
            cells: nb.len(),
        }
    }

    /// Upstream dependencies of a cell.
    pub fn deps(&self, cell: usize) -> &[usize] {
        &self.edges[cell]
    }

    /// Cells that (directly) read what `cell` writes.
    pub fn dependents(&self, cell: usize) -> Vec<usize> {
        (0..self.cells)
            .filter(|&i| self.edges[i].contains(&cell))
            .collect()
    }

    /// The stale cone of an edit: every cell downstream (transitively)
    /// of any edited cell, plus the edited cells themselves, in
    /// document order. This is the minimal rerun set a lineage-aware
    /// notebook needs after the edit — the script-paradigm counterpart
    /// of the workflow engine's fingerprint-invalidated operators.
    pub fn stale_after_edit(&self, edited: &[usize]) -> Vec<usize> {
        let mut stale = vec![false; self.cells];
        for &c in edited {
            if c < self.cells {
                stale[c] = true;
            }
        }
        // Edges point backwards, so one forward document-order sweep
        // propagates staleness transitively.
        for i in 0..self.cells {
            if !stale[i] && self.edges[i].iter().any(|&d| stale[d]) {
                stale[i] = true;
            }
        }
        (0..self.cells).filter(|&i| stale[i]).collect()
    }

    /// A valid top-to-bottom order always exists (edges point backwards);
    /// return it (just document order).
    pub fn document_order(&self) -> Vec<usize> {
        (0..self.cells).collect()
    }

    /// Audit an actual execution order against the declared reads/writes:
    /// flags reads of never-yet-written variables and skipped cells.
    pub fn audit(&self, nb: &Notebook, order: &[usize]) -> Vec<LineageIssue> {
        let mut issues = Vec::new();
        let mut written: HashSet<&str> = HashSet::new();
        for &i in order {
            let cell = &nb.cells()[i];
            for r in cell.read_vars() {
                if !written.contains(r.as_str()) {
                    issues.push(LineageIssue::ReadBeforeWrite {
                        cell: i,
                        variable: r.clone(),
                    });
                }
            }
            for w in cell.write_vars() {
                written.insert(w);
            }
        }
        let executed: HashSet<usize> = order.iter().copied().collect();
        for i in 0..self.cells {
            if !executed.contains(&i) {
                issues.push(LineageIssue::NeverExecuted { cell: i });
            }
        }
        issues
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;

    /// The paper's Fig. 8: Load → Sentiment_Analysis and Load → Write,
    /// but the user may execute Write before Sentiment_Analysis.
    fn fig8_notebook() -> Notebook {
        let mut nb = Notebook::new("fig8");
        nb.push(Cell::new("Load", "data = load()", |_| Ok(())).writes(&["data"]));
        nb.push(
            Cell::new("Sentiment_Analysis", "model.fit(data)", |_| Ok(()))
                .reads(&["data"])
                .writes(&["predicted"]),
        );
        nb.push(Cell::new("Write", "write(data)", |_| Ok(())).reads(&["data"]));
        nb
    }

    #[test]
    fn graph_reconstructs_def_use() {
        let nb = fig8_notebook();
        let g = LineageGraph::from_notebook(&nb);
        assert_eq!(g.deps(0), &[] as &[usize]);
        assert_eq!(g.deps(1), &[0]);
        assert_eq!(g.deps(2), &[0]);
    }

    #[test]
    fn valid_orders_pass_audit() {
        let nb = fig8_notebook();
        let g = LineageGraph::from_notebook(&nb);
        assert!(g.audit(&nb, &[0, 1, 2]).is_empty());
        // Fig. 8's reordering (Write before Sentiment_Analysis) is *fine*
        // for the data flow: both only need Load.
        assert!(g.audit(&nb, &[0, 2, 1]).is_empty());
    }

    #[test]
    fn read_before_write_flagged() {
        let nb = fig8_notebook();
        let g = LineageGraph::from_notebook(&nb);
        let issues = g.audit(&nb, &[1, 0, 2]);
        assert!(issues.contains(&LineageIssue::ReadBeforeWrite {
            cell: 1,
            variable: "data".into()
        }));
    }

    #[test]
    fn skipped_cells_flagged() {
        let nb = fig8_notebook();
        let g = LineageGraph::from_notebook(&nb);
        let issues = g.audit(&nb, &[0, 1]);
        assert_eq!(issues, vec![LineageIssue::NeverExecuted { cell: 2 }]);
    }

    #[test]
    fn dependents_inverts_deps() {
        let nb = fig8_notebook();
        let g = LineageGraph::from_notebook(&nb);
        assert_eq!(g.dependents(0), vec![1, 2]);
        assert!(g.dependents(1).is_empty());
        assert!(g.dependents(2).is_empty());
    }

    #[test]
    fn stale_cone_is_the_transitive_downstream_closure() {
        // load -> clean -> {train, report}; edit clean ⇒ rerun 1,2,3
        // but never 0 (its output is still valid).
        let mut nb = Notebook::new("cone");
        nb.push(Cell::new("load", "d = load()", |_| Ok(())).writes(&["d"]));
        nb.push(
            Cell::new("clean", "c = clean(d)", |_| Ok(()))
                .reads(&["d"])
                .writes(&["c"]),
        );
        nb.push(
            Cell::new("train", "m = fit(c)", |_| Ok(()))
                .reads(&["c"])
                .writes(&["m"]),
        );
        nb.push(Cell::new("report", "report(m)", |_| Ok(())).reads(&["m"]));
        let g = LineageGraph::from_notebook(&nb);
        assert_eq!(g.stale_after_edit(&[1]), vec![1, 2, 3]);
        assert_eq!(g.stale_after_edit(&[3]), vec![3]);
        assert_eq!(g.stale_after_edit(&[0]), vec![0, 1, 2, 3]);
        assert!(g.stale_after_edit(&[]).is_empty());
        // Out-of-range edits are ignored rather than panicking.
        assert!(g.stale_after_edit(&[99]).is_empty());
    }

    #[test]
    fn stale_cone_skips_independent_branches() {
        let nb = fig8_notebook();
        let g = LineageGraph::from_notebook(&nb);
        // Editing Sentiment_Analysis leaves Load and Write valid.
        assert_eq!(g.stale_after_edit(&[1]), vec![1]);
    }

    #[test]
    fn rebinding_updates_producer() {
        let mut nb = Notebook::new("rebind");
        nb.push(Cell::new("a", "x = 1", |_| Ok(())).writes(&["x"]));
        nb.push(Cell::new("b", "x = 2", |_| Ok(())).writes(&["x"]));
        nb.push(Cell::new("c", "use(x)", |_| Ok(())).reads(&["x"]));
        let g = LineageGraph::from_notebook(&nb);
        // c's producer is the latest earlier writer: cell 1.
        assert_eq!(g.deps(2), &[1]);
    }
}
