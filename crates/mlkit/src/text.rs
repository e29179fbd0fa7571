//! Tokenization and vocabularies.

use std::collections::HashMap;

/// Lowercase a text and split it into alphanumeric tokens.
///
/// This is the shared preprocessing step of every text task: simple,
/// deterministic, and language-agnostic.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_token(text, |t| tokens.push(t.to_owned()));
    tokens
}

/// Call `f` on each token [`tokenize`] would return, in order, lowercased
/// into one buffer reused for every token: a caller that interns or looks
/// tokens up allocates nothing per token.
pub(crate) fn for_each_token(text: &str, mut f: impl FnMut(&str)) {
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_ascii() {
            // For ASCII, `is_alphanumeric` is `is_ascii_alphanumeric` and
            // `to_lowercase` is one char.
            if ch.is_ascii_alphanumeric() {
                current.push(ch.to_ascii_lowercase());
                continue;
            }
        } else if ch.is_alphanumeric() {
            current.extend(ch.to_lowercase());
            continue;
        }
        if !current.is_empty() {
            f(&current);
            current.clear();
        }
    }
    if !current.is_empty() {
        f(&current);
    }
}

/// A token ↔ id mapping built from a corpus.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    token_to_id: HashMap<String, u32>,
    id_to_token: Vec<String>,
}

impl Vocabulary {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Vocabulary::default()
    }

    /// Build from an iterator of documents.
    pub fn fit<'a>(docs: impl IntoIterator<Item = &'a str>) -> Self {
        let mut v = Vocabulary::new();
        for doc in docs {
            for_each_token(doc, |tok| {
                v.add(tok);
            });
        }
        v
    }

    /// Intern a token, returning its id.
    pub fn add(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.token_to_id.get(token) {
            return id;
        }
        let id = self.id_to_token.len() as u32;
        self.token_to_id.insert(token.to_owned(), id);
        self.id_to_token.push(token.to_owned());
        id
    }

    /// Look up a token's id.
    pub fn id(&self, token: &str) -> Option<u32> {
        self.token_to_id.get(token).copied()
    }

    /// Look up an id's token.
    pub fn token(&self, id: u32) -> Option<&str> {
        self.id_to_token.get(id as usize).map(String::as_str)
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.id_to_token.len()
    }

    /// True if no tokens are interned.
    pub fn is_empty(&self) -> bool {
        self.id_to_token.is_empty()
    }

    /// Encode a text into ids, skipping out-of-vocabulary tokens.
    pub fn encode(&self, text: &str) -> Vec<u32> {
        let mut ids = Vec::new();
        for_each_token(text, |t| ids.extend(self.id(t)));
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_splits_and_lowercases() {
        assert_eq!(
            tokenize("The patient, a 34-yr-old MAN!"),
            vec!["the", "patient", "a", "34", "yr", "old", "man"]
        );
        assert!(tokenize("   ").is_empty());
        assert_eq!(tokenize("end."), vec!["end"]);
    }

    #[test]
    fn vocabulary_ids_are_stable() {
        let v = Vocabulary::fit(["a b c", "b c d"]);
        assert_eq!(v.len(), 4);
        assert_eq!(v.id("a"), Some(0));
        assert_eq!(v.id("d"), Some(3));
        assert_eq!(v.token(1), Some("b"));
        assert_eq!(v.id("zzz"), None);
    }

    #[test]
    fn encode_skips_oov() {
        let v = Vocabulary::fit(["fever cough"]);
        assert_eq!(v.encode("fever headache cough"), vec![0, 1]);
    }

    #[test]
    fn add_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.add("x");
        let b = v.add("x");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn unicode_lowercasing() {
        assert_eq!(tokenize("Überfluß"), vec!["überfluß"]);
    }

    /// The per-char tokenizer `for_each_token` replaced: every character
    /// through `is_alphanumeric` and `char::to_lowercase`.
    fn oracle(text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        let mut current = String::new();
        for ch in text.chars() {
            if ch.is_alphanumeric() {
                current.extend(ch.to_lowercase());
            } else if !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
            }
        }
        if !current.is_empty() {
            tokens.push(current);
        }
        tokens
    }

    #[test]
    fn tokenize_matches_the_per_char_oracle_on_mixed_scripts() {
        let corpus = [
            "The Camp FIRE update: 34-yr-old MAN, 2021!!! Route 66...",
            "Überfluß ÜBERFLUSS straße",
            "İstanbul ISTANBUL ıi İİ",
            "ǅemal ǄEMAL ǆ Ǉ ǈ",
            "ΣΟΦΊΑ σοφία ς Ω",
            "Москва МОСКВА ёЁ",
            "東京 2020, 北京!",
            "x² ٣ Ⅻ ½ ⅰ",
            "cafe\u{301} café naïve",
            "---...,,,;;;!!!???   \t\n",
            "a--b..c  d__e 0x3EF",
            "",
            "ALLCAPS123lower456MiXeD",
        ];
        for text in corpus {
            assert_eq!(tokenize(text), oracle(text), "{text:?}");
            let mut seen = Vec::new();
            for_each_token(text, |t| seen.push(t.to_owned()));
            assert_eq!(seen, oracle(text), "{text:?}");
        }
        let v = Vocabulary::fit(corpus);
        let mut interned = Vocabulary::new();
        for t in corpus.iter().flat_map(|text| oracle(text)) {
            interned.add(&t);
        }
        assert_eq!(v.len(), interned.len());
        for id in 0..v.len() as u32 {
            assert_eq!(v.token(id), interned.token(id));
        }
        for text in corpus {
            let want: Vec<u32> = oracle(text).iter().filter_map(|t| v.id(t)).collect();
            assert_eq!(v.encode(text), want, "{text:?}");
        }
    }
}
