//! The byte codec behind every on-disk format of this crate.
//!
//! Spill runs and data-page rows ([`crate::spill`]), the catalog image
//! ([`crate::pager::image`]), index blobs ([`crate::index`]), WAL frames
//! and commit records ([`crate::wal`]) and the header page
//! ([`crate::pager::store`]) all encode through one [`Writer`] and decode
//! through one bounded [`Reader`].
//!
//! # Encoding
//!
//! Integers and float bits are little-endian. A string is a `u32` byte
//! length plus UTF-8; a list is a `u32` element count plus the elements.
//! A [`Value`] is a one-byte kind tag plus its payload (containers as a
//! count plus elements, a tuple as a [`Record`]: a count plus
//! `(label, value)` pairs). A [`Ty`] is a one-byte tag plus its
//! components. Values and types nest recursively, NaN floats round-trip
//! bit-exactly.
//!
//! # Bounds
//!
//! Decoding never panics and never recurses without bound: truncated
//! bytes, a bad tag, invalid UTF-8, a count larger than the bytes left,
//! trailing bytes ([`Reader::expect_end`]) and value or type nesting
//! deeper than [`MAX_DEPTH`] are each a [`ModelError::Io`] naming the
//! format. The paths that persist values or types (spill runs, data
//! pages, the catalog image and index blobs) go through
//! [`Writer::finish`], which refuses the same nesting (and any length
//! over `u32`), so everything written reads back.

use std::collections::BTreeSet;
use std::fmt::Display;
use std::sync::Arc;

use tmql_model::{ModelError, Record, Result, Ty, Value};

/// Deepest value or type nesting the codec writes or reads. The query
/// language nests at most `tmql_lang::MAX_NESTING_DEPTH` (64) levels;
/// the bound keeps decoding of hostile bytes far from the stack limit of
/// a 2 MiB thread.
pub const MAX_DEPTH: usize = 256;

/// Largest capacity reserved up front for one decoded count: the count
/// comes from the bytes, so it sizes an allocation only this far and the
/// rest grows as elements actually decode.
const MAX_RESERVE: usize = 4096;

mod tag {
    pub const NULL: u8 = 0;
    pub const FALSE: u8 = 1;
    pub const TRUE: u8 = 2;
    pub const INT: u8 = 3;
    pub const FLOAT: u8 = 4;
    pub const STR: u8 = 5;
    pub const TUPLE: u8 = 6;
    pub const SET: u8 = 7;
    pub const LIST: u8 = 8;
    pub const VARIANT: u8 = 9;
}

mod ty_tag {
    pub const BOOL: u8 = 0;
    pub const INT: u8 = 1;
    pub const FLOAT: u8 = 2;
    pub const STR: u8 = 3;
    pub const TUPLE: u8 = 4;
    pub const SET: u8 = 5;
    pub const LIST: u8 = 6;
    pub const VARIANT: u8 = 7;
    pub const CLASS: u8 = 8;
    pub const ANY: u8 = 9;
}

/// Appends encoded fields to a byte buffer. Writing never fails;
/// [`Writer::finish`] reports the first value nested deeper than
/// [`MAX_DEPTH`] or length over `u32` it saw.
#[derive(Debug)]
pub struct Writer {
    buf: Vec<u8>,
    format: &'static str,
    depth: usize,
    error: Option<String>,
}

impl Writer {
    /// An empty writer for `format` (the name its errors carry).
    pub fn new(format: &'static str) -> Writer {
        Writer::with_capacity(format, 64)
    }

    /// An empty writer with `capacity` bytes reserved.
    pub fn with_capacity(format: &'static str, capacity: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(capacity),
            format,
            depth: 0,
            error: None,
        }
    }

    fn fail(&mut self, what: impl Display) {
        if self.error.is_none() {
            self.error = Some(format!("{} encode: {what}", self.format));
        }
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// An `f64` as its bit pattern (NaN payloads survive).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Raw bytes, no prefix.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    fn len32(&mut self, n: usize) -> u32 {
        u32::try_from(n).unwrap_or_else(|_| {
            self.fail(format_args!("length {n} exceeds u32"));
            u32::MAX
        })
    }

    /// A `u32` element count or byte length.
    pub fn count(&mut self, n: usize) {
        let v = self.len32(n);
        self.u32(v);
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.count(s.len());
        self.bytes(s.as_bytes());
    }

    /// Whatever `body` writes, prefixed with its `u32` byte length.
    pub fn sized(&mut self, body: impl FnOnce(&mut Writer)) {
        let at = self.buf.len();
        self.u32(0);
        body(self);
        let v = self.len32(self.buf.len() - at - 4);
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    fn enter(&mut self) {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            self.fail(format_args!("nesting deeper than {MAX_DEPTH} levels"));
        }
    }

    /// One tagged value.
    pub fn value(&mut self, v: &Value) {
        self.enter();
        match v {
            Value::Null => self.u8(tag::NULL),
            Value::Bool(false) => self.u8(tag::FALSE),
            Value::Bool(true) => self.u8(tag::TRUE),
            Value::Int(i) => {
                self.u8(tag::INT);
                self.u64(*i as u64);
            }
            Value::Float(x) => {
                self.u8(tag::FLOAT);
                self.f64(*x);
            }
            Value::Str(s) => {
                self.u8(tag::STR);
                self.str(s);
            }
            Value::Tuple(rec) => {
                self.u8(tag::TUPLE);
                self.record(rec);
            }
            Value::Set(items) => {
                self.u8(tag::SET);
                self.count(items.len());
                items.iter().for_each(|item| self.value(item));
            }
            Value::List(items) => {
                self.u8(tag::LIST);
                self.count(items.len());
                items.iter().for_each(|item| self.value(item));
            }
            Value::Variant(label, inner) => {
                self.u8(tag::VARIANT);
                self.str(label);
                self.value(inner);
            }
        }
        self.depth -= 1;
    }

    /// A record: field count, then `(label, value)` pairs.
    pub fn record(&mut self, rec: &Record) {
        self.count(rec.len());
        for (label, v) in rec.iter() {
            self.str(label);
            self.value(v);
        }
    }

    /// One tagged type.
    pub fn ty(&mut self, ty: &Ty) {
        self.enter();
        match ty {
            Ty::Bool => self.u8(ty_tag::BOOL),
            Ty::Int => self.u8(ty_tag::INT),
            Ty::Float => self.u8(ty_tag::FLOAT),
            Ty::Str => self.u8(ty_tag::STR),
            Ty::Tuple(fields) => {
                self.u8(ty_tag::TUPLE);
                self.labeled_tys(fields);
            }
            Ty::Set(t) => {
                self.u8(ty_tag::SET);
                self.ty(t);
            }
            Ty::List(t) => {
                self.u8(ty_tag::LIST);
                self.ty(t);
            }
            Ty::Variant(alts) => {
                self.u8(ty_tag::VARIANT);
                self.labeled_tys(alts);
            }
            Ty::Class(n) => {
                self.u8(ty_tag::CLASS);
                self.str(n);
            }
            Ty::Any => self.u8(ty_tag::ANY),
        }
        self.depth -= 1;
    }

    /// A count, then `(label, type)` pairs — tuple fields, variant
    /// alternatives and table columns.
    pub fn labeled_tys(&mut self, fields: &[(String, Ty)]) {
        self.count(fields.len());
        for (l, t) in fields {
            self.str(l);
            self.ty(t);
        }
    }

    /// The bytes, or the first reason they would not read back.
    pub fn finish(self) -> Result<Vec<u8>> {
        match self.error {
            None => Ok(self.buf),
            Some(e) => Err(ModelError::Io(e)),
        }
    }

    /// The bytes, unchecked — for formats that hold no values or types
    /// and callers that only measure an encoding.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// A bounds-checked cursor over encoded bytes. Every read that runs past
/// the end, and every malformed field, is a [`ModelError::Io`] naming
/// the format.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    format: &'static str,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf` for `format` (the name its errors carry).
    pub fn new(format: &'static str, buf: &'a [u8]) -> Reader<'a> {
        Reader {
            buf,
            pos: 0,
            format,
            depth: 0,
        }
    }

    /// A decode error for this format.
    pub fn err(&self, what: impl Display) -> ModelError {
        ModelError::Io(format!("{} decode: {what}", self.format))
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(self.err(format_args!("truncated (want {n} bytes)")));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// An `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        self.u64().map(f64::from_bits)
    }

    /// A `u32` element count. Every element takes at least one byte, so a
    /// count above the bytes left is corruption, caught before any loop.
    pub fn count(&mut self) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(self.err(format_args!(
                "count {n} exceeds the {} bytes left",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes).map_err(|e| self.err(format_args!("invalid UTF-8: {e}")))
    }

    /// A count, then that many elements read by `each`.
    pub fn list<T>(&mut self, mut each: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let n = self.count()?;
        let mut out = Vec::with_capacity(n.min(MAX_RESERVE));
        for _ in 0..n {
            out.push(each(self)?);
        }
        Ok(out)
    }

    /// A `u32` byte length, then exactly that many bytes read by `body`.
    pub fn sized<T>(&mut self, body: impl FnOnce(&mut Reader<'a>) -> Result<T>) -> Result<T> {
        let n = self.u32()? as usize;
        let mut inner = Reader {
            buf: self.take(n)?,
            pos: 0,
            format: self.format,
            depth: self.depth,
        };
        let v = body(&mut inner)?;
        inner.expect_end()?;
        Ok(v)
    }

    /// Fail unless every byte was consumed.
    pub fn expect_end(&self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(self.err(format_args!("{n} trailing bytes"))),
        }
    }

    fn enter(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format_args!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    /// One tagged value.
    pub fn value(&mut self) -> Result<Value> {
        self.enter()?;
        let v = match self.u8()? {
            tag::NULL => Value::Null,
            tag::FALSE => Value::Bool(false),
            tag::TRUE => Value::Bool(true),
            tag::INT => Value::Int(self.u64()? as i64),
            tag::FLOAT => Value::Float(self.f64()?),
            tag::STR => Value::Str(Arc::from(self.str()?)),
            tag::TUPLE => Value::Tuple(self.record()?),
            tag::SET => {
                let n = self.count()?;
                let mut items = BTreeSet::new();
                for _ in 0..n {
                    items.insert(self.value()?);
                }
                Value::Set(items)
            }
            tag::LIST => Value::List(self.list(Self::value)?),
            tag::VARIANT => {
                let label = Arc::from(self.str()?);
                Value::Variant(label, Box::new(self.value()?))
            }
            other => return Err(self.err(format_args!("unknown value tag {other}"))),
        };
        self.depth -= 1;
        Ok(v)
    }

    /// A record: field count, then `(label, value)` pairs.
    pub fn record(&mut self) -> Result<Record> {
        Record::new(self.list(|r| Ok((r.str()?.to_string(), r.value()?)))?)
    }

    /// One tagged type.
    pub fn ty(&mut self) -> Result<Ty> {
        self.enter()?;
        let ty = match self.u8()? {
            ty_tag::BOOL => Ty::Bool,
            ty_tag::INT => Ty::Int,
            ty_tag::FLOAT => Ty::Float,
            ty_tag::STR => Ty::Str,
            ty_tag::TUPLE => Ty::Tuple(self.labeled_tys()?),
            ty_tag::SET => Ty::Set(Box::new(self.ty()?)),
            ty_tag::LIST => Ty::List(Box::new(self.ty()?)),
            ty_tag::VARIANT => Ty::Variant(self.labeled_tys()?),
            ty_tag::CLASS => Ty::Class(self.str()?.to_string()),
            ty_tag::ANY => Ty::Any,
            other => return Err(self.err(format_args!("unknown type tag {other}"))),
        };
        self.depth -= 1;
        Ok(ty)
    }

    /// A count, then `(label, type)` pairs.
    pub fn labeled_tys(&mut self) -> Result<Vec<(String, Ty)>> {
        self.list(|r| Ok((r.str()?.to_string(), r.ty()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `levels` nested one-element lists around a `Null`.
    fn nested_list(levels: usize) -> Value {
        (0..levels).fold(Value::Null, |v, _| Value::List(vec![v]))
    }

    #[test]
    fn values_at_the_bound_round_trip_and_deeper_ones_are_refused() {
        // Every value is one level: MAX_DEPTH - 1 lists around a Null is
        // the deepest value that fits.
        let ok = nested_list(MAX_DEPTH - 1);
        let mut w = Writer::new("test");
        w.value(&ok);
        let bytes = w.finish().unwrap();
        let mut r = Reader::new("test", &bytes);
        assert_eq!(r.value().unwrap(), ok);
        r.expect_end().unwrap();

        let deep = nested_list(MAX_DEPTH);
        let mut w = Writer::new("test");
        w.value(&deep);
        let err = w.finish().unwrap_err();
        assert!(err.to_string().contains("test encode"), "{err}");
        let mut w = Writer::new("test");
        w.value(&deep);
        let bytes = w.into_bytes();
        let err = Reader::new("test", &bytes).value().unwrap_err();
        assert!(matches!(err, ModelError::Io(_)), "{err}");
    }

    #[test]
    fn types_share_the_depth_bound() {
        let deep = (0..MAX_DEPTH).fold(Ty::Int, |t, _| Ty::Set(Box::new(t)));
        let mut w = Writer::new("test");
        w.ty(&deep);
        assert!(w.finish().is_err());
        let mut w = Writer::new("test");
        w.ty(&deep);
        let bytes = w.into_bytes();
        assert!(Reader::new("test", &bytes).ty().is_err());
    }

    #[test]
    fn sized_sections_and_counts_are_checked() {
        let mut w = Writer::new("test");
        w.sized(|w| w.str("abc"));
        let bytes = w.finish().unwrap();
        assert_eq!(bytes, [7, 0, 0, 0, 3, 0, 0, 0, b'a', b'b', b'c']);
        let mut r = Reader::new("test", &bytes);
        assert_eq!(r.sized(|r| r.str().map(str::to_string)).unwrap(), "abc");
        // A section whose body leaves bytes unread is an error.
        let mut r = Reader::new("test", &bytes);
        assert!(r.sized(|r| r.u8()).is_err());
        // A count larger than the bytes left fails before any element.
        let mut r = Reader::new("test", &[9, 0, 0, 0, 1]);
        let err = r.list(Reader::u8).unwrap_err();
        assert!(err.to_string().contains("test decode: count 9"), "{err}");
    }
}
