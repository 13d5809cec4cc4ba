//! SQL values and data types.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock, RwLock};

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer (`INTEGER`, `INT`, `BIGINT`).
    Integer,
    /// 64-bit IEEE float (`DOUBLE`, `FLOAT`, `REAL`).
    Double,
    /// UTF-8 string (`TEXT`, `VARCHAR`).
    Text,
    /// Boolean (`BOOLEAN`).
    Boolean,
    /// Raw bytes (`BLOB`).
    Blob,
}

impl DataType {
    /// Parse a SQL type name (case-insensitive, size suffixes ignored).
    pub fn parse(name: &str) -> Option<DataType> {
        let up = name.trim().to_ascii_uppercase();
        let base = up.split('(').next().unwrap_or("").trim();
        match base {
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" | "SERIAL" => Some(DataType::Integer),
            "DOUBLE" | "DOUBLE PRECISION" | "FLOAT" | "REAL" | "NUMERIC" | "DECIMAL" => {
                Some(DataType::Double)
            }
            "TEXT" | "VARCHAR" | "CHAR" | "CLOB" | "STRING" => Some(DataType::Text),
            "BOOLEAN" | "BOOL" => Some(DataType::Boolean),
            "BLOB" | "BYTEA" | "BINARY" => Some(DataType::Blob),
            _ => None,
        }
    }

    /// Canonical SQL name.
    pub fn sql_name(&self) -> &'static str {
        match self {
            DataType::Integer => "INTEGER",
            DataType::Double => "DOUBLE",
            DataType::Text => "TEXT",
            DataType::Boolean => "BOOLEAN",
            DataType::Blob => "BLOB",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_name())
    }
}

/// Process-wide string dictionary backing [`IStr`].
///
/// Interning is global so equal strings always share one id: `IStr`
/// equality and hashing reduce to a `u32` compare, which makes group-by
/// keys and DISTINCT sets cheap and lets column chunks store text
/// columns as dictionary ids. Entries live for the process lifetime —
/// acceptable for a metrics store whose event/metric name cardinality
/// is bounded.
struct Interner {
    ids: HashMap<Arc<str>, u32>,
    strings: Vec<Arc<str>>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            ids: HashMap::new(),
            strings: Vec::new(),
        })
    })
}

/// An interned, immutable UTF-8 string.
///
/// Cloning bumps an `Arc`; equality and hashing compare the dictionary
/// id (O(1)); ordering still compares bytes, so the SQL total order is
/// unchanged. Derefs to `str`, so call sites treat it like a `String`.
#[derive(Debug, Clone)]
pub struct IStr {
    id: u32,
    s: Arc<str>,
}

impl IStr {
    /// Intern `s`, returning the canonical handle for its contents.
    pub fn intern(s: &str) -> IStr {
        // A hit clones the map's own key, which the lookup just compared,
        // instead of touching the id-ordered `strings` table as well.
        {
            let rd = interner().read().unwrap();
            if let Some((arc, &id)) = rd.ids.get_key_value(s) {
                return IStr {
                    id,
                    s: Arc::clone(arc),
                };
            }
        }
        let mut wr = interner().write().unwrap();
        if let Some((arc, &id)) = wr.ids.get_key_value(s) {
            return IStr {
                id,
                s: Arc::clone(arc),
            };
        }
        let arc: Arc<str> = Arc::from(s);
        let id = u32::try_from(wr.strings.len()).expect("string dictionary overflow");
        wr.strings.push(Arc::clone(&arc));
        wr.ids.insert(Arc::clone(&arc), id);
        IStr { id, s: arc }
    }

    /// The dictionary id. Equal strings share one id process-wide.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Resolve a dictionary id previously minted by [`IStr::id`].
    pub fn from_id(id: u32) -> Option<IStr> {
        let rd = interner().read().unwrap();
        rd.strings.get(id as usize).map(|s| IStr {
            id,
            s: Arc::clone(s),
        })
    }

    /// View as `&str`.
    pub fn as_str(&self) -> &str {
        &self.s
    }
}

impl Deref for IStr {
    type Target = str;
    fn deref(&self) -> &str {
        &self.s
    }
}

impl AsRef<str> for IStr {
    fn as_ref(&self) -> &str {
        &self.s
    }
}

impl PartialEq for IStr {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for IStr {}

impl PartialEq<str> for IStr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for IStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialOrd for IStr {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IStr {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.id == other.id {
            Ordering::Equal
        } else {
            self.s.cmp(&other.s)
        }
    }
}

impl std::hash::Hash for IStr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl fmt::Display for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.s)
    }
}

impl From<&str> for IStr {
    fn from(s: &str) -> Self {
        IStr::intern(s)
    }
}

impl From<String> for IStr {
    fn from(s: String) -> Self {
        IStr::intern(&s)
    }
}

impl From<&String> for IStr {
    fn from(s: &String) -> Self {
        IStr::intern(s)
    }
}

/// A dynamically-typed SQL value.
///
/// `Value` has a *total order* used by indexes, ORDER BY, and MIN/MAX:
/// `Null` sorts before everything; numeric types compare numerically across
/// Integer/Double; NaN sorts after all other doubles and equal to itself
/// (so indexes stay consistent).
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text, dictionary-interned.
    Text(IStr),
    /// Boolean.
    Bool(bool),
    /// Raw bytes.
    Bytes(Vec<u8>),
}

impl Value {
    /// The data type of this value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Integer),
            Value::Float(_) => Some(DataType::Double),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Boolean),
            Value::Bytes(_) => Some(DataType::Blob),
        }
    }

    /// True if this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret as i64 if the value is numeric.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 && f.is_finite() => Some(*f as i64),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Interpret as f64 if the value is numeric.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(*b as i64 as f64),
            _ => None,
        }
    }

    /// Interpret as text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Interpret as bool (SQL truthiness: nonzero numbers are true).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Int(i) => Some(*i != 0),
            Value::Float(f) => Some(*f != 0.0),
            _ => None,
        }
    }

    /// Coerce to `ty`, if a lossless-enough conversion exists.
    ///
    /// This implements column-type coercion on INSERT/UPDATE: integers widen
    /// to doubles, numeric text parses, booleans map to 0/1, etc. NULL
    /// coerces to any type.
    pub fn coerce(&self, ty: DataType) -> Option<Value> {
        match (self, ty) {
            (Value::Null, _) => Some(Value::Null),
            (v, t) if v.data_type() == Some(t) => Some(v.clone()),
            (Value::Int(i), DataType::Double) => Some(Value::Float(*i as f64)),
            (Value::Float(f), DataType::Integer) if f.fract() == 0.0 && f.is_finite() => {
                Some(Value::Int(*f as i64))
            }
            (Value::Bool(b), DataType::Integer) => Some(Value::Int(*b as i64)),
            (Value::Int(i), DataType::Boolean) => Some(Value::Bool(*i != 0)),
            (Value::Text(s), DataType::Integer) => s.trim().parse().ok().map(Value::Int),
            (Value::Text(s), DataType::Double) => s.trim().parse().ok().map(Value::Float),
            (Value::Text(s), DataType::Boolean) => match s.trim().to_ascii_lowercase().as_str() {
                "true" | "t" | "1" => Some(Value::Bool(true)),
                "false" | "f" | "0" => Some(Value::Bool(false)),
                _ => None,
            },
            (Value::Int(i), DataType::Text) => Some(Value::Text(i.to_string().into())),
            (Value::Float(f), DataType::Text) => Some(Value::Text(format_float(*f).into())),
            (Value::Bool(b), DataType::Text) => Some(Value::Text(b.to_string().into())),
            _ => None,
        }
    }

    /// SQL equality: NULL is not equal to anything (including NULL).
    ///
    /// Returns `None` when either side is NULL (unknown), per SQL semantics.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other) == Ordering::Equal)
    }

    /// SQL comparison (`None` if either side is NULL).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other))
    }

    /// Total order used by indexes and sorting. NULL first, then booleans,
    /// then numbers (cross-type), then text, then blobs.
    #[inline]
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Text(_) => 3,
                Bytes(_) => 4,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Text(a), Text(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

/// Format a float the way SQL text conversion expects (no trailing `.0`
/// stripping surprises; integral values keep one decimal for round-trip
/// clarity).
pub fn format_float(f: f64) -> String {
    if f.is_finite() && f.fract() == 0.0 && f.abs() < 1e15 {
        format!("{f:.1}")
    } else {
        format!("{f}")
    }
}

impl PartialEq for Value {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float that compare equal must hash equal.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            // Interned text hashes its dictionary id, not its bytes:
            // global dedupe guarantees equal strings share one id.
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Bytes(b) => {
                4u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{}", format_float(*x)),
            Value::Text(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Bytes(b) => write!(f, "x'{}'", hex(b)),
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(IStr::intern(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(IStr::intern(&v))
    }
}
impl From<IStr> for Value {
    fn from(v: IStr) -> Self {
        Value::Text(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(x) => x.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_parsing() {
        assert_eq!(DataType::parse("varchar(255)"), Some(DataType::Text));
        assert_eq!(DataType::parse("INT"), Some(DataType::Integer));
        assert_eq!(DataType::parse(" double "), Some(DataType::Double));
        assert_eq!(DataType::parse("bool"), Some(DataType::Boolean));
        assert_eq!(DataType::parse("widget"), None);
    }

    #[test]
    fn cross_type_numeric_order() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(
            Value::Float(3.0).total_cmp(&Value::Int(2)),
            Ordering::Greater
        );
    }

    #[test]
    fn null_sorts_first() {
        let mut v = [Value::Int(1), Value::Null, Value::Text("a".into())];
        v.sort();
        assert!(v[0].is_null());
        assert_eq!(v[1], Value::Int(1));
    }

    #[test]
    fn nan_is_orderable() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.total_cmp(&nan), Ordering::Equal);
        assert_eq!(Value::Float(1.0).total_cmp(&nan), Ordering::Less);
    }

    #[test]
    fn sql_null_semantics() {
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
    }

    #[test]
    fn coercions() {
        assert_eq!(
            Value::Int(3).coerce(DataType::Double),
            Some(Value::Float(3.0))
        );
        assert_eq!(
            Value::Float(3.0).coerce(DataType::Integer),
            Some(Value::Int(3))
        );
        assert_eq!(Value::Float(3.5).coerce(DataType::Integer), None);
        assert_eq!(
            Value::Text("42".into()).coerce(DataType::Integer),
            Some(Value::Int(42))
        );
        assert_eq!(
            Value::Text("true".into()).coerce(DataType::Boolean),
            Some(Value::Bool(true))
        );
        assert_eq!(Value::Null.coerce(DataType::Blob), Some(Value::Null));
        assert_eq!(Value::Text("xyz".into()).coerce(DataType::Integer), None);
    }

    #[test]
    fn int_float_hash_consistency() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        assert_eq!(h(&Value::Int(7)), h(&Value::Float(7.0)));
        assert_eq!(Value::Int(7), Value::Float(7.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bytes(vec![0xde, 0xad]).to_string(), "x'dead'");
    }

    #[test]
    fn interning_dedupes_and_orders() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = IStr::intern("MPI_Send");
        let b = IStr::intern("MPI_Send");
        let c = IStr::intern("MPI_Recv");
        assert_eq!(a.id(), b.id());
        assert_ne!(a.id(), c.id());
        assert_eq!(a, b);
        // Ordering is by bytes, independent of intern order.
        assert!(c < a);
        assert_eq!(IStr::from_id(a.id()).unwrap().as_str(), "MPI_Send");
        // Hash-by-id must agree with equality.
        fn h(v: &IStr) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        assert_eq!(h(&a), h(&b));
        // Deref gives str methods.
        assert_eq!(a.len(), 8);
        assert!(a.starts_with("MPI"));
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(5i32), Value::Int(5));
        assert_eq!(Value::from(Some("x")), Value::Text("x".into()));
        assert_eq!(Value::from(None::<i64>), Value::Null);
    }
}
