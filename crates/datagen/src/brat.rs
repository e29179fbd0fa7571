//! Parser for the brat-style `.ann` annotation format the MACCROBAT
//! corpus uses (and our generator renders).
//!
//! Entity lines: `T1<TAB>Type start end<TAB>covered text`
//! Event lines:  `E1<TAB>Type:T3` (or a bare key for trigger-less events)
//!
//! The DICE task's first stage is exactly this parse; having a real
//! parser lets the repository round-trip datasets through files like the
//! paper's pipeline does.

use crate::maccrobat::{Annotation, AnnotationKind, CaseReport, MaccrobatDataset};

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BratError {
    /// Line the error occurred on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for BratError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "brat parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for BratError {}

/// Parse one `.ann` file against its report text. Entity spans are
/// validated against the text; event annotations inherit their trigger's
/// span (or stay empty when trigger-less).
pub fn parse_ann_file(ann: &str, text: &str) -> Result<Vec<Annotation>, BratError> {
    let mut annotations: Vec<Annotation> = Vec::new();
    for (idx, line) in ann.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |message: String| BratError {
            line: lineno,
            message,
        };
        let (key, rest) = line
            .split_once('\t')
            .ok_or_else(|| err("expected a tab after the key".into()))?;
        if key.starts_with('T') {
            let (meta, covered) = rest
                .split_once('\t')
                .ok_or_else(|| err("entity lines need `Type start end<TAB>text`".into()))?;
            let mut parts = meta.split_whitespace();
            let ann_type = parts
                .next()
                .ok_or_else(|| err("missing entity type".into()))?;
            let start: usize = parts
                .next()
                .ok_or_else(|| err("missing start offset".into()))?
                .parse()
                .map_err(|e| err(format!("bad start offset: {e}")))?;
            let end: usize = parts
                .next()
                .ok_or_else(|| err("missing end offset".into()))?
                .parse()
                .map_err(|e| err(format!("bad end offset: {e}")))?;
            if end < start || end > text.len() {
                return Err(err(format!("span {start}..{end} out of bounds")));
            }
            if &text[start..end] != covered {
                return Err(err(format!(
                    "span text mismatch: file says `{covered}`, text has `{}`",
                    &text[start..end]
                )));
            }
            annotations.push(Annotation {
                key: key.to_owned(),
                ann_type: ann_type.to_owned(),
                kind: AnnotationKind::Entity,
                start,
                end,
                text: covered.to_owned(),
                trigger: None,
            });
        } else if key.starts_with('E') {
            let (ann_type, trigger) = match rest.split_once(':') {
                Some((t, tr)) if tr != "?" => (t.to_owned(), Some(tr.to_owned())),
                Some((t, _)) => (t.to_owned(), None),
                None => (rest.to_owned(), None),
            };
            annotations.push(Annotation {
                key: key.to_owned(),
                ann_type,
                kind: AnnotationKind::Event,
                start: 0,
                end: 0,
                text: String::new(),
                trigger,
            });
        } else {
            return Err(err(format!("unknown annotation key `{key}`")));
        }
    }

    // Resolve event spans through their triggers.
    let spans: Vec<(String, usize, usize, String)> = annotations
        .iter()
        .filter(|a| a.kind == AnnotationKind::Entity)
        .map(|a| (a.key.clone(), a.start, a.end, a.text.clone()))
        .collect();
    for a in &mut annotations {
        if a.kind == AnnotationKind::Event {
            if let Some(trigger) = &a.trigger {
                let (_, start, end, covered) =
                    spans.iter().find(|(k, ..)| k == trigger).ok_or(BratError {
                        line: 0,
                        message: format!("event {} references missing trigger {trigger}", a.key),
                    })?;
                a.start = *start;
                a.end = *end;
                a.text = covered.clone();
            }
        }
    }
    Ok(annotations)
}

/// Sentence boundaries recovered from the report text (the generator
/// joins sentences with single spaces after `.`-terminated sentences).
pub fn split_sentences(text: &str) -> Vec<(usize, usize)> {
    let mut bounds = Vec::new();
    let mut start = 0usize;
    let bytes = text.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == b'.' {
            let end = i + 1;
            bounds.push((start, end));
            // Skip the separating space.
            i = end;
            while i < bytes.len() && bytes[i] == b' ' {
                i += 1;
            }
            start = i;
            continue;
        }
        i += 1;
    }
    if start < text.len() {
        bounds.push((start, text.len()));
    }
    bounds
}

/// Reconstruct a [`CaseReport`] from its two rendered files.
pub fn parse_report(doc_id: i64, txt: &str, ann: &str) -> Result<CaseReport, BratError> {
    Ok(CaseReport {
        doc_id,
        text: txt.to_owned(),
        sentences: split_sentences(txt),
        annotations: parse_ann_file(ann, txt)?,
    })
}

/// Round-trip a whole dataset through its file representations.
pub fn roundtrip(dataset: &MaccrobatDataset) -> Result<MaccrobatDataset, BratError> {
    let reports = dataset
        .reports
        .iter()
        .map(|r| parse_report(r.doc_id, &r.to_txt_file(), &r.to_ann_file()))
        .collect::<Result<_, _>>()?;
    Ok(MaccrobatDataset { reports })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_roundtrips_through_files() {
        let ds = MaccrobatDataset::generate(12, 6, 0xB1A7);
        let back = roundtrip(&ds).expect("roundtrip parses");
        assert_eq!(ds.reports.len(), back.reports.len());
        for (a, b) in ds.reports.iter().zip(&back.reports) {
            assert_eq!(a.text, b.text);
            assert_eq!(a.sentences, b.sentences, "doc {}", a.doc_id);
            assert_eq!(a.annotations, b.annotations, "doc {}", a.doc_id);
        }
    }

    #[test]
    fn entity_parse_validates_spans() {
        let text = "A fever case.";
        let good = "T1\tSign_symptom 2 7\tfever\n";
        let anns = parse_ann_file(good, text).unwrap();
        assert_eq!(anns.len(), 1);
        assert_eq!(anns[0].text, "fever");

        let mismatch = "T1\tSign_symptom 2 7\tcough\n";
        let err = parse_ann_file(mismatch, text).unwrap_err();
        assert!(err.to_string().contains("mismatch"), "{err}");

        let out_of_bounds = "T1\tSign_symptom 2 99\tfever\n";
        assert!(parse_ann_file(out_of_bounds, text).is_err());
    }

    #[test]
    fn event_parse_resolves_triggers() {
        let text = "A fever case.";
        let ann = "T1\tSign_symptom 2 7\tfever\nE1\tClinical_event:T1\nE2\tClinical_event:?\n";
        let anns = parse_ann_file(ann, text).unwrap();
        let e1 = anns.iter().find(|a| a.key == "E1").unwrap();
        assert_eq!(e1.start, 2);
        assert_eq!(e1.text, "fever");
        let e2 = anns.iter().find(|a| a.key == "E2").unwrap();
        assert!(e2.trigger.is_none());
    }

    #[test]
    fn missing_trigger_is_an_error() {
        let text = "A fever case.";
        let ann = "E1\tClinical_event:T9\n";
        let err = parse_ann_file(ann, text).unwrap_err();
        assert!(err.to_string().contains("missing trigger"), "{err}");
    }

    #[test]
    fn malformed_lines_report_their_number() {
        let text = "x.";
        let err = parse_ann_file("T1 no tabs here\n", text).unwrap_err();
        assert_eq!(err.line, 1);
        let err = parse_ann_file("T1\tType nonsense 5\tx\n", text).unwrap_err();
        assert!(err.to_string().contains("line 1"));
        let err = parse_ann_file("Z1\twhat\n", text).unwrap_err();
        assert!(err.to_string().contains("unknown annotation key"));
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "A fever case.";
        let ann = "# comment\n\nT1\tSign_symptom 2 7\tfever\n";
        assert_eq!(parse_ann_file(ann, text).unwrap().len(), 1);
    }

    #[test]
    fn sentence_splitting_matches_generator() {
        let ds = MaccrobatDataset::generate(5, 7, 99);
        for r in &ds.reports {
            assert_eq!(split_sentences(&r.text), r.sentences, "doc {}", r.doc_id);
        }
    }
}
