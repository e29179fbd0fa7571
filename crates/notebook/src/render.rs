//! Notebook rendering — the script paradigm's presentation layer.
//!
//! The paper's Fig. 1 shows a notebook as a top-down sequence of code
//! cells with `In [n]:` execution labels. [`render`] reproduces that
//! view, including markdown cells and the execution counters recorded by
//! the kernel, making the §III-A "presentation of a task" comparison
//! executable next to the workflow engine's `gui` module.

use crate::cell::Notebook;

/// Render a notebook the way Jupyter displays it: markdown cells as
/// prose, code cells with their `In [n]:` label (blank if the cell has
/// never run) and indented source.
pub fn render(nb: &Notebook) -> String {
    let mut out = String::new();
    out.push_str(&format!("### {} ###\n\n", nb.name()));
    for (i, cell) in nb.cells().iter().enumerate() {
        if cell.is_markdown() {
            for line in cell.source().lines() {
                out.push_str(&format!("  {line}\n"));
            }
            out.push('\n');
            continue;
        }
        let label = match nb.last_execution(i) {
            Some(n) => format!("In [{n}]:"),
            None => "In [ ]:".to_owned(),
        };
        let pad = " ".repeat(label.len());
        for (j, line) in cell.source().lines().enumerate() {
            if j == 0 {
                out.push_str(&format!("{label} {line}\n"));
            } else {
                out.push_str(&format!("{pad} {line}\n"));
            }
        }
        if cell.source().is_empty() {
            out.push_str(&format!("{label}\n"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::kernel::Kernel;
    use scriptflow_raysim::RayConfig;
    use scriptflow_simcluster::ClusterSpec;

    fn notebook() -> Notebook {
        let mut nb = Notebook::new("sentiment");
        nb.push(Cell::markdown(
            "intro",
            "# Sentiment analysis\nTrains and evaluates a classifier.",
        ));
        nb.push(Cell::new("load", "data = load()\nprint(len(data))", |k| {
            k.set("data", 3i64);
            Ok(())
        }));
        nb.push(Cell::new("train", "model.fit(data)", |_| Ok(())));
        nb
    }

    #[test]
    fn unexecuted_cells_show_blank_labels() {
        let nb = notebook();
        let text = render(&nb);
        assert!(text.contains("In [ ]: data = load()"), "{text}");
        assert!(text.contains("# Sentiment analysis"));
        // Markdown cells carry no label.
        assert!(!text.contains("In [ ]: # Sentiment analysis"));
    }

    #[test]
    fn execution_counters_appear_after_runs() {
        let mut nb = notebook();
        let mut k = Kernel::new(&ClusterSpec::single_node(2), RayConfig::default());
        nb.run_all(&mut k).unwrap();
        let text = render(&nb);
        // Markdown cells execute as no-ops but take a counter slot like
        // Jupyter's "run all" — code cells get 2 and 3.
        assert!(text.contains("In [2]: data = load()"), "{text}");
        assert!(text.contains("In [3]: model.fit(data)"), "{text}");
    }

    #[test]
    fn rerunning_a_cell_bumps_its_label() {
        let mut nb = notebook();
        let mut k = Kernel::new(&ClusterSpec::single_node(2), RayConfig::default());
        nb.run_all(&mut k).unwrap();
        nb.run_cell(1, &mut k).unwrap();
        let text = render(&nb);
        assert!(text.contains("In [4]: data = load()"), "{text}");
    }

    #[test]
    fn multiline_source_is_aligned() {
        let nb = notebook();
        let text = render(&nb);
        let lines: Vec<&str> = text.lines().collect();
        let first = lines
            .iter()
            .position(|l| l.contains("data = load()"))
            .unwrap();
        assert!(
            lines[first + 1].starts_with("        print(len(data))"),
            "{}",
            lines[first + 1]
        );
    }
}
