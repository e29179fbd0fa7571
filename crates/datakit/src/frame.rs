//! A small DataFrame layer — the pandas analogue the script paradigm
//! leans on.
//!
//! §III-D of the paper: "Jupyter Notebook users are able to simply call
//! the Pandas function `dataframe.merge`". This module provides that
//! style of eager, in-driver relational operations over a [`Batch`]:
//! select / filter / merge / sort / group-by. The workflow engine's
//! operators implement the same semantics in pipelined form; the
//! integration suite cross-checks the two.

use std::collections::HashMap;

use crate::batch::{Batch, BatchBuilder};
use crate::error::{DataError, DataResult};
use crate::key::HashKey;
use crate::schema::{Field, Schema, SchemaRef};
use crate::tuple::Tuple;
use crate::value::{DataType, Value};
use std::sync::Arc;

/// How unmatched left rows are treated by [`DataFrame::merge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeHow {
    /// Keep only matching pairs.
    Inner,
    /// Keep every left row; unmatched right columns become null.
    Left,
}

/// An eager, immutable data frame over a [`Batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct DataFrame {
    batch: Batch,
}

impl DataFrame {
    /// Wrap a batch.
    pub fn new(batch: Batch) -> Self {
        DataFrame { batch }
    }

    /// The underlying batch.
    pub fn batch(&self) -> &Batch {
        &self.batch
    }

    /// Consume into the underlying batch.
    pub fn into_batch(self) -> Batch {
        self.batch
    }

    /// Schema handle.
    pub fn schema(&self) -> &SchemaRef {
        self.batch.schema()
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// Keep the named columns (in the given order).
    pub fn select(&self, columns: &[&str]) -> DataResult<DataFrame> {
        let schema = Arc::new(self.schema().project(columns)?);
        let indices: Vec<usize> = columns
            .iter()
            .map(|c| self.schema().index_of(c))
            .collect::<DataResult<_>>()?;
        let mut bb = BatchBuilder::with_capacity(schema.clone(), self.len());
        for t in self.batch.tuples() {
            let row = indices.iter().map(|&i| t.at(i).clone());
            bb.push(Tuple::collect_unchecked(schema.clone(), row))
                .expect("projected rows conform");
        }
        Ok(DataFrame::new(bb.build()))
    }

    /// Keep rows matching the predicate.
    pub fn filter(&self, pred: impl Fn(&Tuple) -> DataResult<bool>) -> DataResult<DataFrame> {
        let mut bb = BatchBuilder::new(self.schema().clone());
        for t in self.batch.tuples() {
            if pred(t)? {
                bb.push(t.clone()).expect("same schema");
            }
        }
        Ok(DataFrame::new(bb.build()))
    }

    /// Append a computed column.
    pub fn with_column(
        &self,
        name: &str,
        dtype: DataType,
        f: impl Fn(&Tuple) -> DataResult<Value>,
    ) -> DataResult<DataFrame> {
        let schema = Arc::new(self.schema().with_field(Field::new(name, dtype))?);
        let mut bb = BatchBuilder::with_capacity(schema.clone(), self.len());
        for t in self.batch.tuples() {
            let mut row = t.values().to_vec();
            row.push(f(t)?);
            bb.push(Tuple::new(schema.clone(), row)?)
                .expect("same schema");
        }
        Ok(DataFrame::new(bb.build()))
    }

    /// Hash merge on equality of `left_on` and `right_on` (pandas'
    /// `merge`). Duplicate right columns get the `_r` suffix.
    pub fn merge(
        &self,
        right: &DataFrame,
        left_on: &[&str],
        right_on: &[&str],
        how: MergeHow,
    ) -> DataResult<DataFrame> {
        if left_on.len() != right_on.len() || left_on.is_empty() {
            return Err(DataError::SchemaMismatch {
                left: format!("{left_on:?}"),
                right: format!("{right_on:?}"),
            });
        }
        let joined = Arc::new(self.schema().join(right.schema(), "_r")?);
        // Build on the right side.
        let mut table: HashMap<HashKey, Vec<&Tuple>> = HashMap::new();
        for t in right.batch.tuples() {
            table
                .entry(HashKey::from_tuple(t, right_on)?)
                .or_default()
                .push(t);
        }
        let right_arity = right.schema().arity();
        let mut bb = BatchBuilder::new(joined.clone());
        for l in self.batch.tuples() {
            let key = HashKey::from_tuple(l, left_on)?;
            match table.get(&key) {
                Some(matches) => {
                    for r in matches {
                        let row = l.values().iter().chain(r.values()).cloned();
                        bb.push(Tuple::collect_unchecked(joined.clone(), row))
                            .expect("joined rows conform");
                    }
                }
                None if how == MergeHow::Left => {
                    let nulls = std::iter::repeat_n(Value::Null, right_arity);
                    let row = l.values().iter().cloned().chain(nulls);
                    bb.push(Tuple::collect_unchecked(joined.clone(), row))
                        .expect("joined rows conform");
                }
                None => {}
            }
        }
        Ok(DataFrame::new(bb.build()))
    }

    /// Stable sort by key columns (ascending; nulls first).
    pub fn sort_values(&self, keys: &[&str]) -> DataResult<DataFrame> {
        for k in keys {
            self.schema().index_of(k)?;
        }
        let mut tuples = self.batch.tuples().to_vec();
        tuples.sort_by(|a, b| {
            for k in keys {
                let av = a.get(k).expect("validated");
                let bv = b.get(k).expect("validated");
                let ord = cmp_values(av, bv);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        Ok(DataFrame::new(
            Batch::new(self.schema().clone(), tuples).expect("same schema"),
        ))
    }

    /// First `n` rows.
    pub fn head(&self, n: usize) -> DataFrame {
        DataFrame::new(
            Batch::new(
                self.schema().clone(),
                self.batch.tuples().iter().take(n).cloned().collect(),
            )
            .expect("same schema"),
        )
    }

    /// Group by `keys` and count rows per group; output columns are the
    /// keys plus `count` (Int), in first-appearance order.
    pub fn group_count(&self, keys: &[&str]) -> DataResult<DataFrame> {
        let mut fields: Vec<Field> = keys
            .iter()
            .map(|k| self.schema().field(k).cloned())
            .collect::<DataResult<_>>()?;
        fields.push(Field::new("count", DataType::Int));
        let schema = Arc::new(Schema::new(fields)?);

        let mut counts: HashMap<HashKey, (Vec<Value>, i64)> = HashMap::new();
        let mut order: Vec<HashKey> = Vec::new();
        for t in self.batch.tuples() {
            let key = HashKey::from_tuple(t, keys)?;
            if !counts.contains_key(&key) {
                let rep: Vec<Value> = keys
                    .iter()
                    .map(|k| t.get(k).expect("validated").clone())
                    .collect();
                counts.insert(key.clone(), (rep, 0));
                order.push(key.clone());
            }
            counts.get_mut(&key).expect("inserted").1 += 1;
        }
        let mut bb = BatchBuilder::with_capacity(schema.clone(), order.len());
        for key in order {
            let (mut rep, n) = counts.remove(&key).expect("collected");
            rep.push(Value::Int(n));
            bb.push(Tuple::new_unchecked(schema.clone(), rep))
                .expect("group rows conform");
        }
        Ok(DataFrame::new(bb.build()))
    }
}

fn cmp_values(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Null, _) => Ordering::Less,
        (_, Value::Null) => Ordering::Greater,
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Float(x), Value::Float(y)) => x.partial_cmp(y).unwrap_or(Ordering::Equal),
        (Value::Int(x), Value::Float(y)) => (*x as f64).partial_cmp(y).unwrap_or(Ordering::Equal),
        (Value::Float(x), Value::Int(y)) => x.partial_cmp(&(*y as f64)).unwrap_or(Ordering::Equal),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        _ => format!("{a}").cmp(&format!("{b}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn people() -> DataFrame {
        let schema = Schema::of(&[
            ("id", DataType::Int),
            ("city", DataType::Str),
            ("age", DataType::Int),
        ]);
        DataFrame::new(
            Batch::from_rows(
                schema,
                vec![
                    vec![Value::Int(1), Value::Str("berlin".into()), Value::Int(34)],
                    vec![Value::Int(2), Value::Str("tokyo".into()), Value::Int(52)],
                    vec![Value::Int(3), Value::Str("berlin".into()), Value::Int(8)],
                    vec![Value::Int(4), Value::Str("lima".into()), Value::Int(71)],
                ],
            )
            .unwrap(),
        )
    }

    fn cities() -> DataFrame {
        let schema = Schema::of(&[("city", DataType::Str), ("country", DataType::Str)]);
        DataFrame::new(
            Batch::from_rows(
                schema,
                vec![
                    vec![Value::Str("berlin".into()), Value::Str("DE".into())],
                    vec![Value::Str("tokyo".into()), Value::Str("JP".into())],
                ],
            )
            .unwrap(),
        )
    }

    #[test]
    fn select_and_filter() {
        let df = people()
            .filter(|t| Ok(t.get_int("age")? >= 30))
            .unwrap()
            .select(&["city", "id"])
            .unwrap();
        assert_eq!(df.len(), 3);
        assert_eq!(df.schema().to_string(), "city: Str, id: Int");
    }

    #[test]
    fn inner_merge_matches_and_drops() {
        let j = people()
            .merge(&cities(), &["city"], &["city"], MergeHow::Inner)
            .unwrap();
        // lima has no country row → dropped.
        assert_eq!(j.len(), 3);
        assert!(j.schema().contains("city_r"));
        assert!(j.schema().contains("country"));
    }

    #[test]
    fn left_merge_pads_nulls() {
        let j = people()
            .merge(&cities(), &["city"], &["city"], MergeHow::Left)
            .unwrap();
        assert_eq!(j.len(), 4);
        let lima = j
            .batch()
            .tuples()
            .iter()
            .find(|t| t.get_str("city").unwrap() == "lima")
            .unwrap();
        assert!(lima.get("country").unwrap().is_null());
    }

    #[test]
    fn merge_validates_key_lists() {
        assert!(people()
            .merge(&cities(), &["city", "id"], &["city"], MergeHow::Inner)
            .is_err());
        assert!(people()
            .merge(&cities(), &["nope"], &["city"], MergeHow::Inner)
            .is_err());
    }

    #[test]
    fn sort_and_head() {
        let df = people().sort_values(&["age"]).unwrap();
        let ages: Vec<i64> = df
            .batch()
            .tuples()
            .iter()
            .map(|t| t.get_int("age").unwrap())
            .collect();
        assert_eq!(ages, vec![8, 34, 52, 71]);
        assert_eq!(df.head(2).len(), 2);
        assert!(people().sort_values(&["missing"]).is_err());
    }

    #[test]
    fn with_column_computes() {
        let df = people()
            .with_column("adult", DataType::Bool, |t| {
                Ok(Value::Bool(t.get_int("age")? >= 18))
            })
            .unwrap();
        assert_eq!(df.schema().arity(), 4);
        let adults = df
            .batch()
            .tuples()
            .iter()
            .filter(|t| t.get("adult").unwrap().as_bool() == Some(true))
            .count();
        assert_eq!(adults, 3);
        // Name collision rejected.
        assert!(people()
            .with_column("age", DataType::Int, |_| Ok(Value::Int(0)))
            .is_err());
    }

    #[test]
    fn group_count_first_appearance_order() {
        let g = people().group_count(&["city"]).unwrap();
        assert_eq!(g.len(), 3);
        let first = &g.batch().tuples()[0];
        assert_eq!(first.get_str("city").unwrap(), "berlin");
        assert_eq!(first.get_int("count").unwrap(), 2);
    }

    #[test]
    fn empty_frame_operations() {
        let empty = people().filter(|_| Ok(false)).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.group_count(&["city"]).unwrap().len(), 0);
        assert_eq!(empty.sort_values(&["id"]).unwrap().len(), 0);
    }
}
