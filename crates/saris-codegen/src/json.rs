//! A minimal, dependency-free JSON reader and writer, and the one
//! read/write trait ([`Json`]) behind every document this workspace
//! exchanges: wire frames ([`crate::wire`]), calibration exports
//! ([`CalibrationStore::to_json`]) and the `saris-serve` network
//! protocol.
//!
//! Each type's JSON form is defined once. Records list their fields a
//! single time in [`json_object!`](crate::json_object) (objects) or [`json_array!`](crate::json_array)
//! (positional counter arrays), and enums list their string tags a single
//! time in [`json_tags!`](crate::json_tags); each macro generates both directions.
//!
//! Every `f64` crosses bit-exactly, by one rule that lives in the `f64`
//! impl: finite values are written in Rust's shortest round-trip decimal
//! form (`{v:?}`) and re-read by the correctly-rounded `str::parse`;
//! non-finite values (NaN payloads in grids must survive) are written as
//! the hex bit-pattern string `"0x{:016x}"` of [`f64::to_bits`].
//!
//! The reader covers exactly what the writer emits: objects, arrays,
//! strings (with the standard escapes), numbers, booleans, and `null`.
//! Numbers are kept as their source slices and parsed on demand by the
//! reading type. Errors are the module-local [`JsonError`]; callers map
//! it into their own vocabulary at the boundary
//! ([`CodegenError::Calibration`] for calibration documents,
//! [`CodegenError::Wire`] for wire frames).
//!
//! [`CalibrationStore::to_json`]: crate::CalibrationStore::to_json
//! [`CodegenError::Calibration`]: crate::CodegenError::Calibration
//! [`CodegenError::Wire`]: crate::CodegenError::Wire

use std::collections::HashMap;
use std::error::Error;
use std::fmt::{self, Write as _};
use std::sync::Arc;

use saris_core::{Extent, Grid};

/// A malformed JSON document (or a value of the wrong shape).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What was malformed.
    pub reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.reason)
    }
}

impl Error for JsonError {}

/// Builds a [`JsonError`] from a reason string.
pub fn error(reason: &str) -> JsonError {
    JsonError {
        reason: reason.to_string(),
    }
}

/// A JSON object's members.
pub type Map = HashMap<String, Value>;

/// A parsed JSON value.
#[derive(Debug, Clone)]
pub enum Value {
    /// The `null` literal.
    Null,
    /// The `true` / `false` literals.
    Bool(bool),
    /// A number, kept as its source text and parsed on demand (which is
    /// what makes `f64` round trips bit-exact).
    Number(String),
    /// A string (escapes already decoded).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

impl Value {
    /// The object's map, or an error naming `what`.
    pub fn as_object(&self, what: &str) -> Result<&Map, JsonError> {
        match self {
            Value::Object(map) => Ok(map),
            _ => Err(error(&format!("{what} is not an object"))),
        }
    }

    /// The array's elements, or an error naming `what`.
    pub fn as_array(&self, what: &str) -> Result<&[Value], JsonError> {
        match self {
            Value::Array(values) => Ok(values),
            _ => Err(error(&format!("{what} is not an array"))),
        }
    }

    /// The string's contents, or an error naming `what`.
    pub fn as_str(&self, what: &str) -> Result<&str, JsonError> {
        match self {
            Value::String(s) => Ok(s),
            _ => Err(error(&format!("{what} is not a string"))),
        }
    }
}

// ---------------------------------------------------------------------------
// The read/write trait
// ---------------------------------------------------------------------------

/// A type with one JSON form, written and read by the same impl.
pub trait Json: Sized {
    /// Appends `self` to `w` as one JSON value.
    fn write(&self, w: &mut Writer);
    /// Reads a value in the form [`Json::write`] produces.
    fn read(v: &Value) -> Result<Self, JsonError>;
}

/// An alternative JSON form for a `T` that already has (or cannot have)
/// a [`Json`] impl, selected per field with `as` in [`json_object!`](crate::json_object).
pub trait Codec<T> {
    /// Appends `v` to `w`.
    fn write(v: &T, w: &mut Writer);
    /// Reads a value in the form [`Codec::write`] produces.
    fn read(v: &Value) -> Result<T, JsonError>;
}

/// The default [`Codec`]: the type's own [`Json`] form.
pub struct Plain;

impl<T: Json> Codec<T> for Plain {
    fn write(v: &T, w: &mut Writer) {
        v.write(w);
    }
    fn read(v: &Value) -> Result<T, JsonError> {
        T::read(v)
    }
}

/// A `u64` written as a decimal string (`"18446744073709551615"`), for
/// fingerprints and seeds that other JSON tooling would round through an
/// `f64`.
pub struct Decimal;

impl Codec<u64> for Decimal {
    fn write(v: &u64, w: &mut Writer) {
        w.str(&v.to_string());
    }
    fn read(v: &Value) -> Result<u64, JsonError> {
        v.as_str("decimal")?
            .parse()
            .map_err(|_| error("expected a decimal u64 string"))
    }
}

impl Codec<Option<u64>> for Decimal {
    fn write(v: &Option<u64>, w: &mut Writer) {
        v.map(|v| v.to_string()).write(w);
    }
    fn read(v: &Value) -> Result<Option<u64>, JsonError> {
        match v {
            Value::Null => Ok(None),
            v => <Decimal as Codec<u64>>::read(v).map(Some),
        }
    }
}

/// The string tag of a [`json_tags!`](crate::json_tags) enum value.
pub trait Tag {
    /// The value's tag (for a data-carrying variant, its object key).
    fn tag(&self) -> &'static str;
}

/// Serializes a value to its JSON text.
pub fn to_string<T: Json>(value: &T) -> String {
    let mut w = Writer::default();
    value.write(&mut w);
    w.finish()
}

/// Parses a JSON document into a `T`.
pub fn from_str<T: Json>(text: &str) -> Result<T, JsonError> {
    T::read(&parse(text)?)
}

/// The member `key` of `o`, or an error naming it.
pub fn get<'a>(o: &'a Map, key: &str) -> Result<&'a Value, JsonError> {
    o.get(key)
        .ok_or_else(|| error(&format!("missing field `{key}`")))
}

/// Reads member `key` of `o` as a `T`. A missing member reads as `null`,
/// so optional fields may be absent; errors name the field.
pub fn field<T: Json>(o: &Map, key: &str) -> Result<T, JsonError> {
    field_as::<Plain, T>(o, key)
}

/// [`field`] through an explicit [`Codec`].
pub fn field_as<C: Codec<T>, T>(o: &Map, key: &str) -> Result<T, JsonError> {
    match o.get(key) {
        Some(v) => C::read(v).map_err(|e| error(&format!("`{key}`: {}", e.reason))),
        None => C::read(&Value::Null).map_err(|_| error(&format!("missing field `{key}`"))),
    }
}

/// The one checked way to build an [`Extent`] from untrusted numbers:
/// every dimension positive and the point count representable, so no
/// later `Extent::len` can overflow.
pub fn extent(nx: usize, ny: usize, nz: usize) -> Result<Extent, JsonError> {
    if nx == 0 || ny == 0 || nz == 0 {
        return Err(error("extent dims must be positive"));
    }
    nx.checked_mul(ny)
        .and_then(|p| p.checked_mul(nz))
        .ok_or_else(|| error("extent point count overflows"))?;
    Ok(Extent { nx, ny, nz })
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Builds one JSON document in a `String`, with `", "` between items and
/// `": "` after keys.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// Whether the current object or array already holds an item, so the
    /// next one needs a separator.
    sep: bool,
}

impl Writer {
    /// The document written so far.
    pub fn finish(self) -> String {
        self.out
    }

    fn item(&mut self) -> &mut String {
        if self.sep {
            self.out.push_str(", ");
        }
        self.sep = true;
        &mut self.out
    }

    /// Appends one value already in JSON text form.
    pub fn raw(&mut self, text: &str) {
        self.item().push_str(text);
    }

    /// Appends a string value, escaping backslash, quote and every
    /// control character (so names containing newlines or tabs still
    /// export as valid JSON).
    pub fn str(&mut self, s: &str) {
        let out = self.item();
        out.push('"');
        for c in s.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn group(&mut self, open: char, close: char, body: impl FnOnce(&mut Writer)) {
        self.item().push(open);
        self.sep = false;
        body(self);
        self.out.push(close);
        self.sep = true;
    }

    /// Appends an object whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Writer)) {
        self.group('{', '}', body);
    }

    /// Appends an array whose items `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Writer)) {
        self.group('[', ']', body);
    }

    /// Appends an array of `items`.
    pub fn items<T: Json>(&mut self, items: &[T]) {
        self.array(|w| items.iter().for_each(|item| item.write(w)));
    }

    /// Starts an object member; the next value written is its value.
    pub fn key(&mut self, key: &str) {
        self.str(key);
        self.out.push_str(": ");
        self.sep = false;
    }

    /// Appends the object member `key: value`.
    pub fn field<T: Json>(&mut self, key: &str, value: &T) {
        self.field_as::<Plain, T>(key, value);
    }

    /// [`Writer::field`] through an explicit [`Codec`].
    pub fn field_as<C: Codec<T>, T>(&mut self, key: &str, value: &T) {
        self.key(key);
        C::write(value, self);
    }
}

// ---------------------------------------------------------------------------
// Impls for primitives, containers and shared geometry
// ---------------------------------------------------------------------------

macro_rules! json_number {
    ($($t:ty),+) => {$(
        impl Json for $t {
            fn write(&self, w: &mut Writer) {
                let _ = write!(w.item(), "{self}");
            }
            fn read(v: &Value) -> Result<$t, JsonError> {
                match v {
                    Value::Number(n) => n.parse().ok(),
                    _ => None,
                }
                .ok_or_else(|| error(concat!("expected a ", stringify!($t))))
            }
        }
    )+};
}

json_number!(u64, u32, usize, i32);

impl Json for f64 {
    fn write(&self, w: &mut Writer) {
        if self.is_finite() {
            let _ = write!(w.item(), "{self:?}");
        } else {
            w.str(&format!("0x{:016x}", self.to_bits()));
        }
    }
    fn read(v: &Value) -> Result<f64, JsonError> {
        match v {
            Value::Number(n) => n.parse().map_err(|_| error("expected a number")),
            Value::String(s) => s
                .strip_prefix("0x")
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .map(f64::from_bits)
                .ok_or_else(|| error(&format!("bad f64 bit pattern `{s}`"))),
            _ => Err(error("expected a number")),
        }
    }
}

impl Json for bool {
    fn write(&self, w: &mut Writer) {
        w.raw(if *self { "true" } else { "false" });
    }
    fn read(v: &Value) -> Result<bool, JsonError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(error("expected a boolean")),
        }
    }
}

impl Json for String {
    fn write(&self, w: &mut Writer) {
        w.str(self);
    }
    fn read(v: &Value) -> Result<String, JsonError> {
        v.as_str("value").map(str::to_string)
    }
}

/// `None` is `null`.
impl<T: Json> Json for Option<T> {
    fn write(&self, w: &mut Writer) {
        match self {
            Some(v) => v.write(w),
            None => w.raw("null"),
        }
    }
    fn read(v: &Value) -> Result<Option<T>, JsonError> {
        match v {
            Value::Null => Ok(None),
            v => T::read(v).map(Some),
        }
    }
}

impl<T: Json> Json for Vec<T> {
    fn write(&self, w: &mut Writer) {
        w.items(self);
    }
    fn read(v: &Value) -> Result<Vec<T>, JsonError> {
        v.as_array("value")?.iter().map(T::read).collect()
    }
}

impl<T: Json, const N: usize> Json for [T; N] {
    fn write(&self, w: &mut Writer) {
        w.items(self);
    }
    fn read(v: &Value) -> Result<[T; N], JsonError> {
        Vec::<T>::read(v)?
            .try_into()
            .map_err(|items: Vec<T>| error(&format!("expected {N} items, got {}", items.len())))
    }
}

/// A pair is a two-item array.
impl<A: Json, B: Json> Json for (A, B) {
    fn write(&self, w: &mut Writer) {
        w.array(|w| {
            self.0.write(w);
            self.1.write(w);
        });
    }
    fn read(v: &Value) -> Result<(A, B), JsonError> {
        match v.as_array("pair")? {
            [a, b] => Ok((A::read(a)?, B::read(b)?)),
            _ => Err(error("expected a two-item array")),
        }
    }
}

/// `null`: the payload of a request that carries none (any value reads
/// as `()`).
impl Json for () {
    fn write(&self, w: &mut Writer) {
        w.raw("null");
    }
    fn read(_: &Value) -> Result<(), JsonError> {
        Ok(())
    }
}

/// `{"ok": value}` or `{"err": error}`.
impl<T: Json, E: Json> Json for Result<T, E> {
    fn write(&self, w: &mut Writer) {
        w.object(|w| match self {
            Ok(v) => w.field("ok", v),
            Err(e) => w.field("err", e),
        });
    }
    fn read(v: &Value) -> Result<Result<T, E>, JsonError> {
        let o = v.as_object("result")?;
        match (o.get("ok"), o.get("err")) {
            (Some(v), None) => T::read(v).map(Ok),
            (None, Some(e)) => E::read(e).map(Err),
            _ => Err(error("expected exactly one of `ok` and `err`")),
        }
    }
}

impl<T: Json> Json for Arc<T> {
    fn write(&self, w: &mut Writer) {
        (**self).write(w);
    }
    fn read(v: &Value) -> Result<Arc<T>, JsonError> {
        T::read(v).map(Arc::new)
    }
}

/// `[nx, ny, nz]`, read through the checked [`extent`] helper.
impl Json for Extent {
    fn write(&self, w: &mut Writer) {
        [self.nx, self.ny, self.nz].write(w);
    }
    fn read(v: &Value) -> Result<Extent, JsonError> {
        let [nx, ny, nz] = <[usize; 3]>::read(v)?;
        extent(nx, ny, nz)
    }
}

/// `{"extent": [nx, ny, nz], "data": [...]}`; the data length must match
/// the extent.
impl Json for Grid {
    fn write(&self, w: &mut Writer) {
        w.object(|w| {
            w.field("extent", &self.extent());
            w.key("data");
            w.items(self.as_slice());
        });
    }
    fn read(v: &Value) -> Result<Grid, JsonError> {
        let o = v.as_object("grid")?;
        let extent: Extent = field(o, "extent")?;
        let data: Vec<f64> = field(o, "data")?;
        if data.len() != extent.len() {
            return Err(error("grid data length disagrees with its extent"));
        }
        Ok(Grid::from_raw(extent, data))
    }
}

// ---------------------------------------------------------------------------
// Single-definition macros
// ---------------------------------------------------------------------------

/// Implements [`Json`] for a struct as an object, from one list of
/// `"key": field.path` members in document order. A member's key may be
/// omitted when it equals a single-identifier field name, and a member
/// may pick an alternative [`Codec`] with `as`. Reading starts from
/// `Default::default()` (or the value after `=`) and assigns each path,
/// so fields outside the list keep that value.
///
/// ```ignore
/// json_object! { TuningDecision; unroll, measured }
/// json_object! { Outcome; "fingerprint": fingerprint as Decimal, backend, ... }
/// ```
#[macro_export]
macro_rules! json_object {
    ($ty:ty; $($rest:tt)*) => {
        $crate::json_object!($ty = <$ty as ::std::default::Default>::default(); $($rest)*);
    };
    ($ty:ty = $init:expr;
     $($($key:literal:)? $($path:ident).+ $(as $codec:ty)?),+ $(,)?) => {
        impl $crate::json::Json for $ty {
            fn write(&self, w: &mut $crate::json::Writer) {
                w.object(|w| {
                    $(w.field_as::<$crate::__json_codec!($($codec)?), _>(
                        $crate::__json_key!($($key)? $($path).+),
                        &self.$($path).+,
                    );)+
                });
            }
            fn read(v: &$crate::json::Value) -> ::std::result::Result<Self, $crate::json::JsonError> {
                let o = v.as_object(stringify!($ty))?;
                let mut out: $ty = $init;
                $(out.$($path).+ = $crate::json::field_as::<$crate::__json_codec!($($codec)?), _>(
                    o,
                    $crate::__json_key!($($key)? $($path).+),
                )?;)+
                Ok(out)
            }
        }
    };
}

/// Implements [`Json`] for a `Default` struct as a positional array of
/// the listed field paths — the compact form of counter blocks.
///
/// ```ignore
/// json_array! { DmaStats; bytes, busy_cycles, descriptors, latency_cycles }
/// ```
#[macro_export]
macro_rules! json_array {
    ($ty:ty; $($($path:ident).+),+ $(,)?) => {
        impl $crate::json::Json for $ty {
            fn write(&self, w: &mut $crate::json::Writer) {
                w.array(|w| {
                    $($crate::json::Json::write(&self.$($path).+, w);)+
                });
            }
            fn read(v: &$crate::json::Value) -> ::std::result::Result<Self, $crate::json::JsonError> {
                let wrong = || $crate::json::error(concat!(stringify!($ty), ": wrong counter count"));
                let mut items = v.as_array(stringify!($ty))?.iter();
                let mut out = <$ty as ::std::default::Default>::default();
                $(out.$($path).+ = $crate::json::Json::read(items.next().ok_or_else(wrong)?)?;)+
                items.next().map_or(Ok(out), |_| Err(wrong()))
            }
        }
    };
}

/// Implements [`Tag`] and [`Json`] for an enum from one table of
/// `Variant => "tag"` pairs: unit variants are their tag string. One
/// data-carrying variant may follow `else` as `"key" => binding in
/// Pattern`; it is the object `{"key": binding}`. Prefixed with `enum`,
/// the table also declares a private unit-only enum.
///
/// ```ignore
/// json_tags! { Variant, "variant" { Base => "base", Saris => "saris" } }
/// json_tags! { Tune, "tune" { Fixed => "fixed", Auto => "auto" }
///              else "candidates" => list in Candidates(list) }
/// json_tags! { enum Op, "op" { Submit => "submit", Ping => "ping" } }
/// ```
#[macro_export]
macro_rules! json_tags {
    ($(#[$meta:meta])* enum $ty:ident, $what:literal { $($unit:ident => $tag:literal),+ $(,)? }) => {
        $(#[$meta])*
        #[derive(Clone, Copy)]
        enum $ty {
            $($unit),+
        }

        $crate::json_tags! { $ty, $what { $($unit => $tag),+ } }
    };
    ($ty:ident, $what:literal { $($unit:ident => $tag:literal),+ $(,)? }
     $(else $key:literal => $bind:ident in $($data:tt)+)?) => {
        impl $crate::json::Tag for $ty {
            fn tag(&self) -> &'static str {
                match self {
                    $($ty::$unit => $tag,)+
                    $($ty::$($data)+ => { let _ = $bind; $key })?
                }
            }
        }

        impl $crate::json::Json for $ty {
            fn write(&self, w: &mut $crate::json::Writer) {
                $(if let $ty::$($data)+ = self {
                    return w.object(|w| w.field($key, $bind));
                })?
                w.str($crate::json::Tag::tag(self));
            }
            fn read(v: &$crate::json::Value) -> ::std::result::Result<Self, $crate::json::JsonError> {
                $(if let $crate::json::Value::Object(o) = v {
                    let $bind = $crate::json::field(o, $key)?;
                    return Ok($ty::$($data)+);
                })?
                match v.as_str($what)? {
                    $($tag => Ok($ty::$unit),)+
                    other => Err($crate::json::error(&format!("unknown {} `{other}`", $what))),
                }
            }
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_codec {
    () => {
        $crate::json::Plain
    };
    ($codec:ty) => {
        $codec
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_key {
    ($key:literal $($path:ident).+) => {
        $key
    };
    ($field:ident) => {
        stringify!($field)
    };
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Parses one JSON document. Trailing non-whitespace content is an
/// error.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(error("trailing content after JSON document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, JsonError> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| error("unexpected end of JSON"))
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek()? == byte {
            self.pos += 1;
            Ok(())
        } else {
            Err(error(&format!(
                "expected '{}' at byte {}",
                byte as char, self.pos
            )))
        }
    }

    fn literal(&mut self, text: &'static [u8], value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(text) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(error(&format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Value::String(self.string()?)),
            b'n' => self.literal(b"null", Value::Null),
            b't' => self.literal(b"true", Value::Bool(true)),
            b'f' => self.literal(b"false", Value::Bool(false)),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(error(&format!(
                "unexpected '{}' at byte {}",
                other as char, self.pos
            ))),
        }
    }

    /// The items of an object or array up to `close`, each read by
    /// `item`, separated by commas.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.peek()? == close {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.peek()? {
                b',' => self.pos += 1,
                b if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                other => {
                    return Err(error(&format!(
                        "expected ',' or '{}', got '{}' at byte {}",
                        close as char, other as char, self.pos
                    )));
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut map = HashMap::new();
        self.items(b'}', |p| {
            p.skip_ws();
            let key = p.string()?;
            p.expect(b':')?;
            map.insert(key, p.value()?);
            Ok(())
        })?;
        Ok(Value::Object(map))
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut values = Vec::new();
        self.items(b']', |p| {
            values.push(p.value()?);
            Ok(())
        })?;
        Ok(Value::Array(values))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash whole: both
            // are ASCII, so the run ends on a UTF-8 boundary of the &str
            // input.
            let start = self.pos;
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| *b != b'"' && *b != b'\\')
            {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos]).expect("input is valid UTF-8"),
            );
            match self.bytes.get(self.pos) {
                None => return Err(error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {} // a backslash
            }
            let escaped = self.bytes.get(self.pos + 1).copied();
            self.pos += 2;
            let c = match escaped.ok_or_else(|| error("unterminated escape"))? {
                e @ (b'"' | b'\\' | b'/') => e as char,
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{0008}',
                b'f' => '\u{000c}',
                b'u' => {
                    let code = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .and_then(|h| u32::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok())
                        .ok_or_else(|| error("invalid \\u escape"))?;
                    self.pos += 4;
                    // Surrogate halves never appear in our exports (we
                    // only \u-escape control characters); reject rather
                    // than mis-decode.
                    char::from_u32(code).ok_or_else(|| error("\\u escape is not a scalar value"))?
                }
                other => {
                    return Err(error(&format!("unsupported escape '\\{}'", other as char)));
                }
            };
            out.push(c);
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        // Callers peeked a sign or digit, so the text is never empty.
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        Ok(Value::Number(text.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn booleans_and_integers_parse() {
        let value = parse("{\"a\": true, \"b\": false, \"c\": -42, \"d\": 18446744073709551615}")
            .expect("parses");
        let obj = value.as_object("doc").expect("object");
        assert!(bool::read(&obj["a"]).unwrap());
        assert!(!bool::read(&obj["b"]).unwrap());
        assert_eq!(i32::read(&obj["c"]).unwrap(), -42);
        assert_eq!(u64::read(&obj["d"]).unwrap(), u64::MAX);
        assert!(u64::read(&obj["a"]).is_err());
        assert!(bool::read(&obj["c"]).is_err());
    }

    #[test]
    fn shortest_roundtrip_decimals_are_bit_exact() {
        for bits in [
            0u64,
            1,
            f64::MIN_POSITIVE.to_bits(),
            (0.1f64).to_bits(),
            (6123.0f64 / 3844.0).to_bits(),
            f64::MAX.to_bits(),
            (-1.0f64 / 3.0).to_bits(),
        ] {
            let v = f64::from_bits(bits);
            let text = format!("{v:?}");
            let parsed = f64::read(&parse(&text).expect("parses")).expect("number");
            assert_eq!(parsed.to_bits(), bits, "{text}");
        }
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        let nasty = "a\"b\\c\nd\te\u{1}f — ünïcode";
        let doc = to_string(&nasty.to_string());
        let back = parse(&doc).expect("parses");
        assert_eq!(back.as_str("s").expect("string"), nasty);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for doc in ["", "{", "[1,", "tru", "nul", "{\"a\" 1}", "1 2", "[1] x"] {
            assert!(parse(doc).is_err(), "{doc:?} must be rejected");
        }
    }
}
