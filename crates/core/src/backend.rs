//! Execution-backend vocabulary shared by every layer.
//!
//! The reproduction has two ways to execute the same workflow DAG: the
//! deterministic virtual-clock simulator (`SimExecutor`) that produces
//! the paper's figures, and the pooled live executor (`LiveExecutor`)
//! that runs the same operators on real OS threads and measures
//! wall-clock time. [`BackendKind`] names one of those substrates;
//! [`BackendChoice`] is the CLI-facing selection (`sim`, `live`, or
//! `both`) threaded from `repro`'s `--backend` flag down through the
//! study experiments and the task drivers.
//!
//! This module deliberately lives in `core` (which knows nothing about
//! either executor) so experiment configs can carry a backend choice
//! without depending on the workflow engine.

use std::fmt;

/// One execution substrate for a workflow DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The deterministic virtual-clock simulator: results are exact and
    /// repeatable, `seconds` are *virtual* seconds from the calibrated
    /// cost model.
    Sim,
    /// The pooled live executor: the same operators run on real OS
    /// threads, `seconds` are measured wall-clock on the host.
    Live,
}

impl BackendKind {
    /// Every backend, in reporting order.
    pub const ALL: [BackendKind; 2] = [BackendKind::Sim, BackendKind::Live];

    /// Stable lowercase label (`"sim"` / `"live"`).
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Live => "live",
        }
    }

    /// What the backend's seconds mean, for column headers.
    pub fn time_unit(self) -> &'static str {
        match self {
            BackendKind::Sim => "virtual s",
            BackendKind::Live => "wall-clock s",
        }
    }

    /// Parse a label produced by [`BackendKind::label`].
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "sim" => Some(BackendKind::Sim),
            "live" => Some(BackendKind::Live),
            _ => None,
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A CLI-level backend selection: one backend, or both side by side.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum BackendChoice {
    /// Simulator only (the default everywhere).
    #[default]
    Sim,
    /// Live executor only.
    Live,
    /// Both, reported as paired virtual/wall-clock columns.
    Both,
}

impl BackendChoice {
    /// Parse a `--backend` flag value (`sim` / `live` / `both`).
    pub fn parse(s: &str) -> Option<BackendChoice> {
        match s {
            "sim" => Some(BackendChoice::Sim),
            "live" => Some(BackendChoice::Live),
            "both" => Some(BackendChoice::Both),
            _ => None,
        }
    }

    /// The backends the choice selects, in reporting order.
    pub fn kinds(self) -> &'static [BackendKind] {
        match self {
            BackendChoice::Sim => &[BackendKind::Sim],
            BackendChoice::Live => &[BackendKind::Live],
            BackendChoice::Both => &BackendKind::ALL,
        }
    }

    /// True if the choice includes `kind`.
    pub fn includes(self, kind: BackendKind) -> bool {
        self.kinds().contains(&kind)
    }

    /// Stable lowercase label (`"sim"` / `"live"` / `"both"`).
    pub fn label(self) -> &'static str {
        match self {
            BackendChoice::Sim => "sim",
            BackendChoice::Live => "live",
            BackendChoice::Both => "both",
        }
    }
}

impl fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_round_trip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(BackendKind::parse("bogus"), None);
    }

    #[test]
    fn choice_expands_to_kinds() {
        assert_eq!(BackendChoice::Sim.kinds(), &[BackendKind::Sim]);
        assert_eq!(BackendChoice::Live.kinds(), &[BackendKind::Live]);
        assert_eq!(
            BackendChoice::Both.kinds(),
            &[BackendKind::Sim, BackendKind::Live]
        );
        assert!(BackendChoice::Both.includes(BackendKind::Live));
        assert!(!BackendChoice::Sim.includes(BackendKind::Live));
    }

    #[test]
    fn choice_parses_flag_values() {
        assert_eq!(BackendChoice::parse("both"), Some(BackendChoice::Both));
        assert_eq!(BackendChoice::parse("sim"), Some(BackendChoice::Sim));
        assert_eq!(BackendChoice::parse("live"), Some(BackendChoice::Live));
        assert_eq!(BackendChoice::parse(""), None);
        assert_eq!(BackendChoice::default(), BackendChoice::Sim);
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(BackendKind::Live.to_string(), "live");
        assert_eq!(BackendChoice::Both.to_string(), "both");
        assert_eq!(BackendKind::Sim.time_unit(), "virtual s");
        assert_eq!(BackendKind::Live.time_unit(), "wall-clock s");
    }
}
