//! Typed errors for the data layer.

use std::fmt;

/// Result alias used throughout the data layer.
pub type DataResult<T> = Result<T, DataError>;

/// Errors produced by schema/tuple/codec operations.
///
/// Both engines surface these to users differently (the notebook reports a
/// cell-level trace, the workflow engine an operator-level trace), so the
/// variants carry enough context to be rendered standalone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// A column name was not present in the schema.
    UnknownColumn {
        /// The missing column.
        column: String,
        /// The schema it was looked up in (rendered).
        schema: String,
    },
    /// A value had a different type than the schema declared.
    TypeMismatch {
        /// The offending column.
        column: String,
        /// The declared type.
        expected: String,
        /// The value's actual type.
        actual: String,
    },
    /// A tuple had the wrong number of values for its schema.
    ArityMismatch {
        /// The schema's arity.
        expected: usize,
        /// The tuple's arity.
        actual: usize,
    },
    /// The columns handed to a batch did not all hold one row count.
    RaggedColumns {
        /// The offending column.
        column: String,
        /// Rows in the first column.
        expected: usize,
        /// Rows in this one.
        actual: usize,
    },
    /// Two schemas that had to agree did not.
    SchemaMismatch {
        /// Left schema (rendered).
        left: String,
        /// Right schema (rendered).
        right: String,
    },
    /// A duplicate column name was introduced.
    DuplicateColumn {
        /// The repeated name.
        column: String,
    },
    /// Malformed input encountered while decoding CSV/JSONL.
    Decode {
        /// 1-based input line.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A value could not be used as a join/partition key.
    UnhashableKey {
        /// The unhashable type.
        dtype: String,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::UnknownColumn { column, schema } => {
                write!(f, "unknown column `{column}` in schema [{schema}]")
            }
            DataError::TypeMismatch {
                column,
                expected,
                actual,
            } => write!(
                f,
                "type mismatch for column `{column}`: expected {expected}, got {actual}"
            ),
            DataError::ArityMismatch { expected, actual } => {
                write!(
                    f,
                    "tuple arity mismatch: schema has {expected} fields, tuple has {actual}"
                )
            }
            DataError::RaggedColumns {
                column,
                expected,
                actual,
            } => write!(
                f,
                "ragged columns: column `{column}` holds {actual} rows, the first column {expected}"
            ),
            DataError::SchemaMismatch { left, right } => {
                write!(f, "schema mismatch: [{left}] vs [{right}]")
            }
            DataError::DuplicateColumn { column } => {
                write!(f, "duplicate column name `{column}`")
            }
            DataError::Decode { line, message } => {
                write!(f, "decode error at line {line}: {message}")
            }
            DataError::UnhashableKey { dtype } => {
                write!(f, "values of type {dtype} cannot be used as keys")
            }
        }
    }
}

impl std::error::Error for DataError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_unknown_column() {
        let e = DataError::UnknownColumn {
            column: "age".into(),
            schema: "name, sex".into(),
        };
        assert_eq!(e.to_string(), "unknown column `age` in schema [name, sex]");
    }

    #[test]
    fn display_type_mismatch() {
        let e = DataError::TypeMismatch {
            column: "id".into(),
            expected: "Int".into(),
            actual: "Str".into(),
        };
        assert!(e.to_string().contains("expected Int, got Str"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&DataError::DuplicateColumn { column: "x".into() });
    }
}
