//! The project's one JSON codec, and the only place that knows JSON
//! syntax. Artifacts build a [`Json`] tree ([`ToJson`]), which [`print()`]
//! writes under one layout rule; readers [`parse`] text and read the tree
//! back ([`FromJson`]) through the typed accessors [`Json::req`] and
//! [`Json::opt`], whose errors name the offending member as a jq-style
//! path. Format tags are [`Schema`] constants, written and checked here.
//! The build is offline, so this replaces `serde_json` for the subset the
//! project needs. Only the Perfetto `trace_event` writers, which stream up
//! to ~10⁶ events, format text directly (with [`quote`] and [`number`]).

use std::fmt::{self, Write as _};

/// A JSON value. Integer lexemes parse to [`Json::Int`], which holds every
/// `u64` and `i64` exactly; only fractions and exponents become
/// [`Json::Num`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i128),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// `From<T> for Json` and `ToJson for T` for each scalar type `T`.
macro_rules! scalars {
    ($($t:ty => |$v:ident| $e:expr,)*) => {$(
        impl From<$t> for Json { fn from($v: $t) -> Json { $e } }
        impl ToJson for $t { fn to_tree(&self) -> Json { self.clone().into() } }
    )*};
}
scalars! {
    u32 => |n| Json::Int(n.into()),
    u64 => |n| Json::Int(n.into()),
    usize => |n| Json::Int(n as i128),
    i64 => |n| Json::Int(n.into()),
    f64 => |n| Json::Num(n),
    bool => |b| Json::Bool(b),
    &str => |s| Json::Str(s.to_string()),
    String => |s| Json::Str(s),
    &String => |s| Json::Str(s.clone()),
}

impl Json {
    /// An object with `members` in order.
    pub fn obj<K: Into<String>, V: Into<Json>>(members: impl IntoIterator<Item = (K, V)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v.into())).collect())
    }

    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Append one member to an object (no-op on any other value).
    pub fn push(&mut self, key: &str, value: impl Into<Json>) {
        if let Json::Obj(members) = self {
            members.push((key.to_string(), value.into()));
        }
    }

    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        let Json::Arr(items) = self else { return None };
        Some(items)
    }

    pub fn as_str(&self) -> Option<&str> {
        let Json::Str(s) = self else { return None };
        Some(s)
    }

    pub fn as_f64(&self) -> Option<f64> {
        f64::from_json(self).ok()
    }

    pub fn as_u64(&self) -> Option<u64> {
        u64::from_json(self).ok()
    }

    /// Required member `key`, read as `T`.
    pub fn req<T: FromJson>(&self, key: &str) -> Result<T, String> {
        self.opt(key)?.ok_or_else(|| format!(".{key}: missing"))
    }

    /// Optional member `key`: absent or `null` reads as `None`.
    pub fn opt<T: FromJson>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => T::from_json(v).map(Some).map_err(|e| at(format!(".{key}"), e)),
        }
    }

    /// The error for a value that is not `what`: scalars are quoted
    /// verbatim, containers by kind.
    fn expected<T>(&self, what: &str) -> Result<T, String> {
        let found = match self {
            Json::Arr(_) => "an array".into(),
            Json::Obj(_) => "an object".into(),
            v => v.to_string(),
        };
        Err(format!("expected {what}, found {found}"))
    }
}

/// Prefix a reader error with one path step (`.key` or `[i]`), building
/// paths like `.queues[2].depth: 4294967304 is out of range for u32`.
fn at(step: String, e: String) -> String {
    if e.starts_with(['.', '[']) {
        step + &e
    } else {
        format!("{step}: {e}")
    }
}

/// A type that writes itself as a JSON tree.
pub trait ToJson {
    fn to_tree(&self) -> Json;

    /// The document text.
    fn to_json(&self) -> String {
        print(&self.to_tree())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_tree(&self) -> Json {
        Json::arr(self.iter().map(T::to_tree))
    }
}

impl<T: ToJson> ToJson for Option<T> {
    /// `None` is `null`.
    fn to_tree(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_tree)
    }
}

/// A type that reads itself back from a JSON tree.
pub trait FromJson: Sized {
    fn from_json(doc: &Json) -> Result<Self, String>;

    /// [`parse`] `text`, then read it as `Self`.
    fn from_json_str(text: &str) -> Result<Self, String> {
        Self::from_json(&parse(text)?)
    }
}

/// `FromJson` for integer types: exact, or an out-of-range error.
macro_rules! integers {
    ($($t:ty),*) => {$(
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<$t, String> {
                match v {
                    Json::Int(n) => <$t>::try_from(*n)
                        .map_err(|_| format!("{n} is out of range for {}", stringify!($t))),
                    v => v.expected("an integer"),
                }
            }
        }
    )*};
}
integers!(u32, u64, usize, i64);

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<f64, String> {
        match v {
            Json::Int(n) => Ok(*n as f64),
            Json::Num(n) => Ok(*n),
            v => v.expected("a number"),
        }
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<bool, String> {
        match v {
            Json::Bool(b) => Ok(*b),
            v => v.expected("a boolean"),
        }
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<String, String> {
        match v {
            Json::Str(s) => Ok(s.clone()),
            v => v.expected("a string"),
        }
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Vec<T>, String> {
        let Json::Arr(items) = v else { return v.expected("an array") };
        let item = |(i, item)| T::from_json(item).map_err(|e| at(format!("[{i}]"), e));
        items.iter().enumerate().map(item).collect()
    }
}

/// An object read as `(key, T)` pairs in document order (a free-form
/// string map such as a baseline's `env`).
pub struct Members<T>(pub Vec<(String, T)>);

impl<T: FromJson> FromJson for Members<T> {
    fn from_json(v: &Json) -> Result<Members<T>, String> {
        let Json::Obj(members) = v else { return v.expected("an object") };
        let member = |(k, m): &(String, Json)| {
            Ok((k.clone(), T::from_json(m).map_err(|e| at(format!(".{k}"), e))?))
        };
        members.iter().map(member).collect::<Result<_, String>>().map(Members)
    }
}

/// `ToJson` and `FromJson` for a struct written as one object member per
/// listed field, in the listed order: `json_object!(T { a, b })`. A
/// trailing `write-only` or `read-only` implements just one of the two.
#[macro_export]
macro_rules! json_object {
    ($t:ident { $($f:ident),* $(,)? }) => {
        $crate::json_object!($t { $($f),* } write-only);
        $crate::json_object!($t { $($f),* } read-only);
    };
    ($t:ident { $($f:ident),* $(,)? } write-only) => {
        impl $crate::json::ToJson for $t {
            fn to_tree(&self) -> $crate::json::Json {
                let member = |m: &dyn $crate::json::ToJson| m.to_tree();
                $crate::json::Json::obj([$((stringify!($f), member(&self.$f))),*])
            }
        }
    };
    ($t:ident { $($f:ident),* $(,)? } read-only) => {
        impl $crate::json::FromJson for $t {
            fn from_json(doc: &$crate::json::Json) -> Result<$t, String> {
                Ok($t { $($f: doc.req(stringify!($f))?),* })
            }
        }
    };
}

/// One tag value of a [`Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    Str(&'static str),
    Int(u64),
}

/// A document's format tag: the leading members (`"schema":
/// "twill-timeline-v1"`, `"version": 1`, …) that [`Schema::doc`] writes
/// first and [`Schema::check`] verifies before a reader looks further.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schema(pub &'static [(&'static str, Tag)]);

impl Schema {
    fn members<'a>(&self) -> impl Iterator<Item = (&'a str, Json)> + use<'a> {
        self.0.iter().map(|&(key, tag)| match tag {
            Tag::Str(s) => (key, s.into()),
            Tag::Int(n) => (key, n.into()),
        })
    }

    /// An object of the tag members followed by `members`.
    pub fn doc<'a>(&self, members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::obj(self.members().chain(members))
    }

    /// Fail unless every tag member of `doc` carries this schema's value.
    pub fn check(&self, doc: &Json) -> Result<(), String> {
        for (key, want) in self.members() {
            match doc.get(key) {
                Some(found) if *found == want => {}
                Some(found) => {
                    let e = found.expected(&want.to_string());
                    return e.map_err(|e| format!(".{key}: unsupported schema version: {e}"));
                }
                None => return Err(format!(".{key}: missing (this build reads {want})")),
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Render a document. One layout rule: the root, and every object or
/// array holding an array of objects anywhere beneath it (an array of
/// objects counts itself), is written one member or element per line,
/// indented two spaces per level; everything else goes on one line as
/// `{"k": v, "k2": v2}` or `[a, b]`. Empty containers are `{}`/`[]`.
/// The text ends with a newline.
pub fn print(v: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, v, 0, true);
    out.push('\n');
    out
}

/// Whether `v` is written one member or element per line.
fn is_tall(v: &Json) -> bool {
    match v {
        Json::Arr(items) => items.iter().any(|i| matches!(i, Json::Obj(_)) || is_tall(i)),
        Json::Obj(members) => members.iter().any(|(_, m)| is_tall(m)),
        _ => false,
    }
}

fn write_value(out: &mut String, v: &Json, depth: usize, tall: bool) {
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        (0..depth).for_each(|_| out.push_str("  "));
    };
    let (open, close, len) = match v {
        Json::Null => return out.push_str("null"),
        Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
        Json::Int(n) => return out.push_str(&n.to_string()),
        Json::Num(n) => return out.push_str(&number(*n)),
        Json::Str(s) => return out.push_str(&quote(s)),
        Json::Arr(items) => ('[', ']', items.len()),
        Json::Obj(members) => ('{', '}', members.len()),
    };
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push_str(if tall { "," } else { ", " });
        }
        if tall {
            newline(out, depth + 1);
        }
        let item = match v {
            Json::Arr(items) => &items[i],
            Json::Obj(members) => {
                out.push_str(&quote(&members[i].0));
                out.push_str(": ");
                &members[i].1
            }
            _ => unreachable!("scalars returned above"),
        };
        write_value(out, item, depth + 1, is_tall(item));
    }
    if tall && len > 0 {
        newline(out, depth);
    }
    out.push(close);
}

impl fmt::Display for Json {
    /// The one-line form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(&mut out, self, 0, false);
        f.write_str(&out)
    }
}

/// The single string-escaping core shared by every exporter: JSON
/// strings and Prometheus label values. `full_json` additionally escapes
/// `\r`, `\t`, and remaining control characters as `\uXXXX`; the
/// Prometheus text exposition format defines only the `\\`, `\"`, and
/// `\n` escapes, so label values pass everything else through verbatim.
fn escape_into(out: &mut String, s: &str, full_json: bool) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' if full_json => out.push_str("\\r"),
            '\t' if full_json => out.push_str("\\t"),
            c if full_json && (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Escape and quote a string for JSON output.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s, true);
    out.push('"');
    out
}

/// Escape a Prometheus label value (no surrounding quotes; the caller
/// supplies them as part of the `name{label="..."}` sample syntax).
pub fn prom_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s, false);
    out
}

/// Format an `f64` as a JSON number (finite values only; non-finite maps
/// to 0 so the output always parses).
pub fn number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Containers nested deeper than this are rejected instead of recursing
/// on: no reader needs more than a handful of levels, and hostile input
/// must not overflow the stack.
const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document. Errors carry a byte offset.
pub fn parse(s: &str) -> Result<Json, String> {
    let mut p = Parser { s, pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// Recursive-descent parser. `pos` only ever advances past ASCII bytes
/// or whole characters, so it always sits on a character boundary.
struct Parser<'a> {
    s: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
                }
                self.pos += 1;
                self.depth += 1;
                let v = match open {
                    b'{' => self.items(b'}', Self::member).map(Json::Obj),
                    _ => self.items(b']', Self::value).map(Json::Arr),
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.num(),
            _ => Err(format!("unexpected byte {}", self.pos)),
        }
    }

    /// The comma-separated items of an object or array, after its opening
    /// bracket and through its `close` bracket.
    fn items<T>(
        &mut self,
        close: u8,
        item: fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => {
                    return Err(format!("expected ',' or '{}' at byte {}", close as char, self.pos))
                }
            }
        }
    }

    fn member(&mut self) -> Result<(String, Json), String> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok((key, self.value()?))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .s
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16).expect("four hex digits");
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let c = self.s[self.pos..].chars().next().expect("not at the end");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn num(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let lexeme = &self.s[start..self.pos];
        // Integer lexemes stay exact; fractions, exponents and integers
        // too wide even for i128 go through f64.
        lexeme
            .parse::<i128>()
            .map(Json::Int)
            .or_else(|_| lexeme.parse::<f64>().map(Json::Num))
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_escapes_specials() {
        assert_eq!(quote("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(quote("\u{1}"), r#""\u0001""#);
    }

    #[test]
    fn prom_label_escapes_only_the_prometheus_set() {
        assert_eq!(prom_label(r#"cp"u\x"#), r#"cp\"u\\x"#);
        assert_eq!(prom_label("a\nb"), "a\\nb");
        // Tab and other controls are not part of the exposition format's
        // escape set and must pass through untouched.
        assert_eq!(prom_label("a\tb"), "a\tb");
        assert_eq!(prom_label("plain"), "plain");
    }

    #[test]
    fn number_formats_integers_exactly() {
        assert_eq!(number(3.0), "3");
        assert_eq!(number(-17.0), "-17");
        assert_eq!(number(0.5), "0.5");
        assert_eq!(number(f64::NAN), "0");
    }

    #[test]
    fn parse_round_trips_typical_document() {
        let doc = r#"{"a": [1, 2.5, -3], "b": {"s": "x\ny", "t": true, "n": null}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("s").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("t"), Some(&Json::Bool(true)));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        // The one-line form is the input layout.
        assert_eq!(v.to_string(), doc);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse(r#""\u12""#).is_err());
        assert!(parse(&"[".repeat(MAX_DEPTH + 1)).unwrap_err().contains("nesting"));
    }

    #[test]
    fn quoted_strings_parse_back() {
        for s in ["", "plain", "q\"w\\e", "tab\tnl\n", "ünïcode"] {
            let doc = format!("{{{}: {}}}", quote("k"), quote(s));
            let v = parse(&doc).unwrap();
            assert_eq!(v.get("k").unwrap().as_str(), Some(s), "{doc}");
        }
    }
}
