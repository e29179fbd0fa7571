//! Per-language execution and serialization cost profiles.
//!
//! The paper's Aspect #3 and Experiment #2 (Table I) hinge on operators
//! being implemented in different languages: Texera ships a Scala join
//! that beat the Python one by 24.5% on small data but only 0.92% on
//! large data. We model a language as a pair of multipliers applied to
//! the calibrated baseline costs (which are expressed in "Python time"),
//! plus a boundary cost for moving tuples between operators implemented
//! in different languages.

use std::fmt;

use crate::time::SimDuration;

/// Implementation language of an operator or script step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Language {
    /// CPython — the baseline the cost model is calibrated in.
    Python,
    /// Scala on the JVM (Texera's native operators).
    Scala,
    /// Java on the JVM.
    Java,
    /// R.
    R,
    /// Julia.
    Julia,
}

impl Language {
    /// All supported languages.
    pub const ALL: [Language; 5] = [
        Language::Python,
        Language::Scala,
        Language::Java,
        Language::R,
        Language::Julia,
    ];
}

impl fmt::Display for Language {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Language::Python => "Python",
            Language::Scala => "Scala",
            Language::Java => "Java",
            Language::R => "R",
            Language::Julia => "Julia",
        };
        f.write_str(s)
    }
}

/// Cost multipliers for one language.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LanguageProfile {
    /// Multiplier on interpreted/compute-bound per-tuple work
    /// (1.0 = Python baseline; < 1.0 is faster).
    pub compute_multiplier: f64,
    /// Multiplier on (de)serialization work at operator boundaries.
    pub serde_multiplier: f64,
    /// One-time runtime startup cost (interpreter boot / JVM warm-up)
    /// charged per worker process.
    pub startup: SimDuration,
}

/// The language cost table used by both engines.
#[derive(Debug, Clone)]
pub struct LanguageTable {
    python: LanguageProfile,
    scala: LanguageProfile,
    java: LanguageProfile,
    r: LanguageProfile,
    julia: LanguageProfile,
    /// Extra per-byte cost when a tuple crosses a language boundary
    /// (Arrow-style conversion between runtimes), in seconds per byte.
    pub cross_language_secs_per_byte: f64,
}

impl Default for LanguageTable {
    /// Calibrated defaults. Python is the 1.0 baseline. Scala/Java run
    /// hash-probe style per-tuple work roughly 3–4× faster than
    /// interpreted Python but pay JVM warm-up; R is slower than Python
    /// for row-at-a-time work; Julia JITs to near-JVM speed.
    fn default() -> Self {
        LanguageTable {
            python: LanguageProfile {
                compute_multiplier: 1.0,
                serde_multiplier: 1.0,
                startup: SimDuration::from_millis(150),
            },
            scala: LanguageProfile {
                compute_multiplier: 0.28,
                serde_multiplier: 0.55,
                startup: SimDuration::from_millis(900),
            },
            java: LanguageProfile {
                compute_multiplier: 0.30,
                serde_multiplier: 0.55,
                startup: SimDuration::from_millis(850),
            },
            r: LanguageProfile {
                compute_multiplier: 1.6,
                serde_multiplier: 1.3,
                startup: SimDuration::from_millis(350),
            },
            julia: LanguageProfile {
                compute_multiplier: 0.35,
                serde_multiplier: 0.7,
                startup: SimDuration::from_millis(1200),
            },
            cross_language_secs_per_byte: 6e-9,
        }
    }
}

impl LanguageTable {
    /// Profile for one language.
    pub fn profile(&self, lang: Language) -> &LanguageProfile {
        match lang {
            Language::Python => &self.python,
            Language::Scala => &self.scala,
            Language::Java => &self.java,
            Language::R => &self.r,
            Language::Julia => &self.julia,
        }
    }

    /// Scale a Python-calibrated compute duration to `lang`.
    pub fn compute(&self, lang: Language, python_time: SimDuration) -> SimDuration {
        python_time.scale(self.profile(lang).compute_multiplier)
    }

    /// Scale a Python-calibrated serde duration to `lang`.
    pub fn serde(&self, lang: Language, python_time: SimDuration) -> SimDuration {
        python_time.scale(self.profile(lang).serde_multiplier)
    }

    /// Boundary-crossing cost for `bytes` moving from `from` to `to`.
    /// Zero when the languages match (in-process hand-off).
    pub fn boundary(&self, from: Language, to: Language, bytes: usize) -> SimDuration {
        if from == to {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs_f64(bytes as f64 * self.cross_language_secs_per_byte)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn python_is_baseline() {
        let t = LanguageTable::default();
        let base = SimDuration::from_millis(10);
        assert_eq!(t.compute(Language::Python, base), base);
        assert_eq!(t.serde(Language::Python, base), base);
    }

    #[test]
    fn scala_is_faster_for_compute() {
        let t = LanguageTable::default();
        let base = SimDuration::from_millis(10);
        assert!(t.compute(Language::Scala, base) < base);
        assert!(t.compute(Language::R, base) > base);
    }

    #[test]
    fn boundary_cost_zero_same_language() {
        let t = LanguageTable::default();
        assert_eq!(
            t.boundary(Language::Python, Language::Python, 1_000_000),
            SimDuration::ZERO
        );
        assert!(t.boundary(Language::Python, Language::Scala, 1_000_000) > SimDuration::ZERO);
    }

    #[test]
    fn boundary_scales_with_bytes() {
        let t = LanguageTable::default();
        let small = t.boundary(Language::Python, Language::Scala, 1_000);
        let large = t.boundary(Language::Python, Language::Scala, 1_000_000);
        assert!(large > small);
    }

    #[test]
    fn all_languages_have_profiles() {
        let t = LanguageTable::default();
        for lang in Language::ALL {
            let p = t.profile(lang);
            assert!(p.compute_multiplier > 0.0);
            assert!(p.serde_multiplier > 0.0);
        }
    }

    #[test]
    fn jvm_startup_exceeds_python() {
        let t = LanguageTable::default();
        assert!(t.profile(Language::Scala).startup > t.profile(Language::Python).startup);
    }

    #[test]
    fn display_names() {
        assert_eq!(Language::Scala.to_string(), "Scala");
        assert_eq!(Language::Python.to_string(), "Python");
    }
}
