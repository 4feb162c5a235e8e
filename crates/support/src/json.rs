//! A minimal JSON tree, parser and writer, replacing `serde`/`serde_json`
//! for the workspace's persistence paths (tuned models, experiment
//! artifacts, `colltune` JSON reports).
//!
//! Serialization is explicit: types implement [`ToJson`]/[`FromJson`]
//! by hand. The conventions intentionally match what `serde` derives
//! produced for the same types, so artifacts written by earlier
//! versions of the tools keep loading:
//!
//! * structs → objects with field-name keys,
//! * unit enum variants → their variant name as a string,
//! * tuples → fixed-length arrays,
//! * `Option` → the value or `null`,
//! * maps → objects with stringified keys (see [`JsonKey`]),
//! * non-finite floats → `null` (read back as `NaN`).
//!
//! ```
//! use collsel_support::json::Json;
//!
//! let v = Json::parse(r#"{"p": 4, "algs": ["binary", "chain"]}"#).unwrap();
//! assert_eq!(v.field("p").unwrap().as_f64().unwrap(), 4.0);
//! assert_eq!(Json::parse(&v.to_string_pretty()).unwrap(), v);
//! ```

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved when writing.
    Obj(Vec<(String, Json)>),
}

/// Error raised by parsing or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The value of an object field, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value of an object field, or an error naming the missing key.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError(format!("missing field `{key}`")))
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Writes the value with two-space indentation (the layout
    /// `serde_json::to_string_pretty` produced for earlier artifacts).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Writes the value with no whitespace.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_seq(out, indent, '[', ']', items.len(), |out, i, ind| {
                items[i].write(out, ind)
            }),
            Json::Obj(fields) => write_seq(out, indent, '{', '}', fields.len(), |out, i, ind| {
                let (k, v) = &fields[i];
                write_string(out, k);
                out.push(':');
                if ind.is_some() {
                    out.push(' ');
                }
                v.write(out, ind);
            }),
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

/// Writes a pretty-printed JSON report atomically (temp file + rename),
/// refusing to replace an existing report with a hollow one.
///
/// A run that fails mid-way must not destroy the previous good report:
/// the rename only happens after the full report is on disk, and a
/// report whose `cells` array is empty (the shape a run produces when
/// every cell failed or was skipped) is rejected with an error instead
/// of written.
///
/// # Errors
///
/// Returns an error if the report has an empty `cells` array or if
/// writing/renaming fails.
pub fn write_artifact(path: impl AsRef<std::path::Path>, report: &Json) -> Result<(), String> {
    let path = path.as_ref();
    if let Some(Json::Arr(cells)) = report.get("cells") {
        if cells.is_empty() {
            return Err(format!(
                "refusing to write {} with zero cells (previous artifact kept)",
                path.display()
            ));
        }
    }
    let tmp = path.with_file_name(format!(
        "{}.tmp",
        path.file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "artifact.json".to_string())
    ));
    std::fs::write(&tmp, report.to_string_pretty())
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|n| n + 1);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(n) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(n));
        }
        item(out, i, inner);
    }
    if let Some(n) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(n));
    }
    out.push(close);
}

fn write_number(out: &mut String, n: f64) {
    use fmt::Write;
    if !n.is_finite() {
        // serde_json refuses NaN/infinity; we degrade to null so a
        // diverged estimate still produces a loadable artifact.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // Rust's shortest-round-trip Display never uses exponents, so
        // the output is valid JSON and parses back to the same bits.
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or(JsonError("truncated escape".into()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00))
                            } else {
                                hi
                            };
                            s.push(
                                char::from_u32(code)
                                    .ok_or(JsonError("invalid \\u escape".into()))?,
                            );
                        }
                        other => return err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so
                    // the bytes are valid UTF-8).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|&b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return err("truncated \\u escape");
        }
        let chunk = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| JsonError("bad \\u escape".into()))?;
        let v = u32::from_str_radix(chunk, 16).map_err(|_| JsonError("bad \\u escape".into()))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        match text.parse::<f64>() {
            Ok(n) => Ok(Json::Num(n)),
            Err(_) => err(format!("invalid number `{text}`")),
        }
    }
}

/// Conversion into a [`Json`] tree (the `Serialize` replacement).
pub trait ToJson {
    /// Converts `self` to a JSON value.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] tree (the `Deserialize` replacement).
pub trait FromJson: Sized {
    /// Reads `Self` out of a JSON value.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

macro_rules! impl_json_num {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                match v.as_f64() {
                    Some(n) => Ok(n as $t),
                    None => err(format!("expected number, found {v}")),
                }
            }
        }
    )*};
}

impl_json_num!(u8, u16, u32, u64, usize, i32, i64);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Num(n) => Ok(*n),
            Json::Null => Ok(f64::NAN), // non-finite round-trips as null
            other => err(format!("expected number, found {other}")),
        }
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => err(format!("expected bool, found {other}")),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_str() {
            Some(s) => Ok(s.to_string()),
            None => err(format!("expected string, found {v}")),
        }
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_arr() {
            Some(items) => items.iter().map(T::from_json).collect(),
            None => err(format!("expected array, found {v}")),
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(x) => x.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_arr() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => err(format!("expected 2-element array, found {v}")),
        }
    }
}

/// Map keys, serialized as JSON object keys (strings) the way `serde`
/// serializes string-convertible keys.
pub trait JsonKey: Sized + Ord {
    /// The key rendered as a string.
    fn to_key(&self) -> String;
    /// Parses the key back from its string form.
    fn from_key(key: &str) -> Result<Self, JsonError>;
}

impl JsonKey for usize {
    fn to_key(&self) -> String {
        self.to_string()
    }
    fn from_key(key: &str) -> Result<Self, JsonError> {
        key.parse()
            .map_err(|_| JsonError(format!("invalid integer key `{key}`")))
    }
}

impl JsonKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(key: &str) -> Result<Self, JsonError> {
        Ok(key.to_string())
    }
}

impl<K: JsonKey, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_json()))
                .collect(),
        )
    }
}

impl<K: JsonKey, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, v)| Ok((K::from_key(k)?, V::from_json(v)?)))
                .collect(),
            other => err(format!("expected object, found {other}")),
        }
    }
}

/// Implements [`ToJson`]/[`FromJson`] for a struct as an object with
/// one field per named field — the layout `serde` derives produced.
/// Must be invoked where the fields are visible.
#[macro_export]
macro_rules! json_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Obj(vec![
                    $((stringify!($field).to_string(),
                       $crate::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> Result<Self, $crate::JsonError> {
                Ok(Self {
                    $($field: $crate::FromJson::from_json(v.field(stringify!($field))?)?,)+
                })
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`]/[`JsonKey`] for a fieldless enum
/// as its variant identifier string — the `serde` unit-variant layout.
#[macro_export]
macro_rules! json_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Str(match self {
                    $($ty::$variant => stringify!($variant).to_string(),)+
                })
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> Result<Self, $crate::JsonError> {
                match v.as_str() {
                    $(Some(stringify!($variant)) => Ok($ty::$variant),)+
                    _ => Err($crate::JsonError(format!(
                        concat!("invalid ", stringify!($ty), " `{}`"), v
                    ))),
                }
            }
        }
        impl $crate::json::JsonKey for $ty {
            fn to_key(&self) -> String {
                match self {
                    $($ty::$variant => stringify!($variant).to_string(),)+
                }
            }
            fn from_key(key: &str) -> Result<Self, $crate::JsonError> {
                match key {
                    $(stringify!($variant) => Ok($ty::$variant),)+
                    other => Err($crate::JsonError(format!(
                        concat!("invalid ", stringify!($ty), " key `{}`"), other
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e3").unwrap(), Json::Num(-2500.0));
        assert_eq!(
            Json::parse(r#""a\nbA""#).unwrap(),
            Json::Str("a\nbA".into())
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn pretty_round_trips() {
        let v = Json::obj(vec![
            ("name", Json::Str("grisou".into())),
            ("gamma", Json::Arr(vec![Json::Num(1.114), Json::Num(1.54)])),
            ("empty", Json::Arr(vec![])),
            ("nested", Json::obj(vec![("alpha", Json::Num(2.2e-12))])),
        ]);
        let text = v.to_string_pretty();
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(Json::parse(&v.to_string_compact()).unwrap(), v);
        assert!(text.contains("{\n  \"name\": \"grisou\""));
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [2.2e-12, 1.8e-8, 0.1, 1.0 / 3.0, 1e300, -7.25] {
            let text = Json::Num(x).to_string_compact();
            assert_eq!(Json::parse(&text).unwrap().as_f64().unwrap(), x, "{text}");
        }
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(Json::Num(8192.0).to_string_compact(), "8192");
        assert_eq!(Json::Num(-3.0).to_string_compact(), "-3");
    }

    #[test]
    fn derived_impls_round_trip() {
        let m: BTreeMap<usize, f64> = [(2, 1.0), (3, 1.114)].into_iter().collect();
        let v = m.to_json();
        assert_eq!(v.to_string_compact(), r#"{"2":1,"3":1.114}"#);
        assert_eq!(BTreeMap::<usize, f64>::from_json(&v).unwrap(), m);

        let pairs: Vec<(usize, f64)> = vec![(2, 0.5), (4, 0.25)];
        assert_eq!(
            Vec::<(usize, f64)>::from_json(&pairs.to_json()).unwrap(),
            pairs
        );

        let opt: Option<usize> = None;
        assert_eq!(opt.to_json(), Json::Null);
        assert_eq!(Option::<usize>::from_json(&Json::Null).unwrap(), None);
    }

    #[test]
    fn write_artifact_refuses_empty_cells_and_keeps_the_old_file() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("collsel-artifact-test-{}.json", std::process::id()));
        let good = Json::obj(vec![(
            "cells",
            Json::Arr(vec![Json::obj(vec![("qps", 1.0.to_json())])]),
        )]);
        write_artifact(&path, &good).expect("good artifact writes");
        let hollow = Json::obj(vec![("cells", Json::Arr(Vec::new()))]);
        assert!(write_artifact(&path, &hollow).is_err());
        let kept = std::fs::read_to_string(&path).expect("old artifact still there");
        assert!(kept.contains("qps"), "previous artifact untouched");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn nan_degrades_to_null() {
        assert_eq!(f64::NAN.to_json().to_string_compact(), "null");
        assert!(f64::from_json(&Json::Null).unwrap().is_nan());
    }
}
