//! Encoding half of the network data representation.
//!
//! The format is byte-order independent (LEB128 varints, zigzag for signed
//! integers, explicit little-endian for floats) and self-describing: every
//! value is preceded by a tag byte, and interface references embed their
//! full structural signature. Self-description is what lets a receiving
//! domain type-check a payload it has never seen a schema for — the paper's
//! "self-describing systems are more open-ended and scale better" (§6).
//!
//! Encoders write through the [`EncodeBuf`] sink so the same code fills a
//! [`bytes::BytesMut`], a plain `Vec<u8>`, or a recycled
//! [`crate::pool::PooledBuf`] from the encode-buffer pool. Sizes come from
//! the same code: [`ByteCount`] is a sink that only counts, so
//! [`encoded_len`] runs [`encode_value`] into it and is *exact* by
//! construction: a pooled buffer sized this way never reallocates
//! mid-encode.

use crate::ifref::InterfaceRef;
use crate::value::Value;
use odp_types::{InterfaceType, OperationKind, OperationSig, OutcomeSig, TypeSpec};

/// Value tags. `u8` on the wire.
pub(crate) mod tag {
    pub const UNIT: u8 = 0x00;
    pub const BOOL: u8 = 0x01;
    pub const INT: u8 = 0x02;
    pub const FLOAT: u8 = 0x03;
    pub const STR: u8 = 0x04;
    pub const BYTES: u8 = 0x05;
    pub const SEQ: u8 = 0x06;
    pub const RECORD: u8 = 0x07;
    pub const IFREF: u8 = 0x08;
}

/// Type-spec tags.
pub(crate) mod spec_tag {
    pub const UNIT: u8 = 0x00;
    pub const BOOL: u8 = 0x01;
    pub const INT: u8 = 0x02;
    pub const FLOAT: u8 = 0x03;
    pub const STR: u8 = 0x04;
    pub const BYTES: u8 = 0x05;
    pub const SEQ: u8 = 0x06;
    pub const RECORD: u8 = 0x07;
    pub const INTERFACE: u8 = 0x08;
    pub const ANY: u8 = 0x09;
}

/// Byte sink the encoder writes into.
///
/// Deliberately minimal (append-only, infallible) so it can be satisfied
/// without `unsafe` by growable buffers of any provenance: fresh
/// `BytesMut`s, plain `Vec<u8>`s, and pooled buffers alike.
pub trait EncodeBuf {
    /// Append one byte.
    fn push_u8(&mut self, b: u8);
    /// Append a slice.
    fn push_slice(&mut self, s: &[u8]);
}

impl EncodeBuf for bytes::BytesMut {
    fn push_u8(&mut self, b: u8) {
        self.extend_from_slice(&[b]);
    }
    fn push_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

impl EncodeBuf for Vec<u8> {
    fn push_u8(&mut self, b: u8) {
        self.push(b);
    }
    fn push_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

/// A sink that stores nothing and counts the bytes pushed into it.
///
/// Running an encoder into a `ByteCount` yields that encoder's exact
/// output length, so buffers are sized by the writer that fills them.
/// The encoders are generic over the sink, so counting is monomorphized
/// like any other encode: no dynamic dispatch per byte.
#[derive(Debug)]
pub struct ByteCount(usize);

impl ByteCount {
    /// The number of bytes `write` pushes into its sink.
    #[must_use]
    pub fn measure(write: impl FnOnce(&mut ByteCount)) -> usize {
        let mut count = ByteCount(0);
        write(&mut count);
        count.0
    }
}

impl EncodeBuf for ByteCount {
    fn push_u8(&mut self, _b: u8) {
        self.0 += 1;
    }
    fn push_slice(&mut self, s: &[u8]) {
        self.0 += s.len();
    }
}

/// Appends an unsigned LEB128 varint.
pub fn put_varint<B: EncodeBuf + ?Sized>(buf: &mut B, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push_u8(byte);
            return;
        }
        buf.push_u8(byte | 0x80);
    }
}

/// Appends a zigzag-encoded signed varint.
fn put_signed<B: EncodeBuf + ?Sized>(buf: &mut B, v: i64) {
    put_varint(buf, zigzag(v));
}

/// Zigzag-encodes a signed integer.
#[must_use]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverts the encoder's zigzag mapping.
#[must_use]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Writes a length-prefixed string (no tag byte): the raw form used for
/// record field names and signature identifiers.
pub fn put_str<B: EncodeBuf + ?Sized>(buf: &mut B, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.push_slice(s.as_bytes());
}

/// Writes a record header (tag byte + field count). The caller must follow
/// with exactly `count` [`put_str`]`(name)` + [`encode_value`]`(value)`
/// pairs; this lets hot paths stream a borrowed map straight into the sink
/// without materializing a `Value::Record`.
pub fn put_record_header<B: EncodeBuf + ?Sized>(buf: &mut B, count: usize) {
    buf.push_u8(tag::RECORD);
    put_varint(buf, count as u64);
}

/// Encodes a standalone string as a tagged `Str` value — the same bytes
/// [`encode_value`] would emit for `Value::str(s)`, without constructing
/// the intermediate [`Value`]. Hot encoders (outcome terminations, record
/// builders) use this to avoid cloning strings they only borrow.
pub fn encode_str_value<B: EncodeBuf + ?Sized>(buf: &mut B, s: &str) {
    buf.push_u8(tag::STR);
    put_str(buf, s);
}

/// Encodes one [`Value`] (tag + body) into `buf`.
pub fn encode_value<B: EncodeBuf + ?Sized>(buf: &mut B, value: &Value) {
    match value {
        Value::Unit => buf.push_u8(tag::UNIT),
        Value::Bool(b) => {
            buf.push_u8(tag::BOOL);
            buf.push_u8(u8::from(*b));
        }
        Value::Int(i) => {
            buf.push_u8(tag::INT);
            put_signed(buf, *i);
        }
        Value::Float(x) => {
            buf.push_u8(tag::FLOAT);
            buf.push_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => encode_str_value(buf, s.as_str()),
        Value::Bytes(b) => {
            buf.push_u8(tag::BYTES);
            put_varint(buf, b.len() as u64);
            buf.push_slice(b);
        }
        Value::Seq(items) => {
            buf.push_u8(tag::SEQ);
            put_varint(buf, items.len() as u64);
            for item in items {
                encode_value(buf, item);
            }
        }
        Value::Record(fields) => {
            buf.push_u8(tag::RECORD);
            put_varint(buf, fields.len() as u64);
            for (name, v) in fields {
                put_str(buf, name);
                encode_value(buf, v);
            }
        }
        Value::Interface(r) => {
            buf.push_u8(tag::IFREF);
            encode_interface_ref(buf, r);
        }
    }
}

/// Encodes an [`InterfaceRef`] body (no tag).
fn encode_interface_ref<B: EncodeBuf + ?Sized>(buf: &mut B, r: &InterfaceRef) {
    put_varint(buf, r.iface.raw());
    put_varint(buf, r.home.raw());
    put_varint(buf, r.epoch);
    put_varint(buf, r.protocols.len() as u64);
    for p in &r.protocols {
        put_varint(buf, p.raw());
    }
    match r.relocator {
        Some(n) => {
            buf.push_u8(1);
            put_varint(buf, n.raw());
        }
        None => buf.push_u8(0),
    }
    match r.group {
        Some(g) => {
            buf.push_u8(1);
            put_varint(buf, g.raw());
        }
        None => buf.push_u8(0),
    }
    encode_interface_type(buf, &r.ty);
}

/// Encodes an [`InterfaceType`] (operation list).
pub fn encode_interface_type<B: EncodeBuf + ?Sized>(buf: &mut B, ty: &InterfaceType) {
    let ops = ty.operations();
    put_varint(buf, ops.len() as u64);
    for op in ops {
        encode_operation(buf, op);
    }
}

fn encode_operation<B: EncodeBuf + ?Sized>(buf: &mut B, op: &OperationSig) {
    put_str(buf, &op.name);
    buf.push_u8(match op.kind {
        OperationKind::Interrogation => 0,
        OperationKind::Announcement => 1,
    });
    put_varint(buf, op.params.len() as u64);
    for p in &op.params {
        encode_type_spec(buf, p);
    }
    put_varint(buf, op.outcomes.len() as u64);
    for o in &op.outcomes {
        encode_outcome(buf, o);
    }
}

fn encode_outcome<B: EncodeBuf + ?Sized>(buf: &mut B, o: &OutcomeSig) {
    put_str(buf, &o.name);
    put_varint(buf, o.results.len() as u64);
    for r in &o.results {
        encode_type_spec(buf, r);
    }
}

/// Encodes a [`TypeSpec`] (tag + body).
fn encode_type_spec<B: EncodeBuf + ?Sized>(buf: &mut B, spec: &TypeSpec) {
    match spec {
        TypeSpec::Unit => buf.push_u8(spec_tag::UNIT),
        TypeSpec::Bool => buf.push_u8(spec_tag::BOOL),
        TypeSpec::Int => buf.push_u8(spec_tag::INT),
        TypeSpec::Float => buf.push_u8(spec_tag::FLOAT),
        TypeSpec::Str => buf.push_u8(spec_tag::STR),
        TypeSpec::Bytes => buf.push_u8(spec_tag::BYTES),
        TypeSpec::Seq(elem) => {
            buf.push_u8(spec_tag::SEQ);
            encode_type_spec(buf, elem);
        }
        TypeSpec::Record(fields) => {
            buf.push_u8(spec_tag::RECORD);
            put_varint(buf, fields.len() as u64);
            for (n, t) in fields {
                put_str(buf, n);
                encode_type_spec(buf, t);
            }
        }
        TypeSpec::Interface(ty) => {
            buf.push_u8(spec_tag::INTERFACE);
            encode_interface_type(buf, ty);
        }
        TypeSpec::Any => buf.push_u8(spec_tag::ANY),
    }
}

/// Exact encoded size of a value (tag + body): [`encode_value`] run
/// into a [`ByteCount`], so the size is the encoder's own output length.
/// The encode-buffer pool sizes acquisitions with this, so a pooled
/// encode never reallocates mid-write.
#[must_use]
pub fn encoded_len(value: &Value) -> usize {
    ByteCount::measure(|count| encode_value(count, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            if v < 128 {
                assert_eq!(buf.len(), 1);
            }
            assert!(buf.len() <= 10);
        }
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes stay small.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn encoded_len_is_exact() {
        use crate::ifref::InterfaceRef;
        use odp_types::{InterfaceId, NodeId};
        let iref = InterfaceRef::new(
            InterfaceId(700_000),
            NodeId(3),
            InterfaceType::new(vec![OperationSig {
                name: "observe".into(),
                kind: OperationKind::Interrogation,
                params: vec![TypeSpec::Int, TypeSpec::seq(TypeSpec::Str)],
                outcomes: vec![OutcomeSig::new("ok", vec![TypeSpec::Any])],
            }]),
        );
        let values = [
            Value::Unit,
            Value::Bool(true),
            Value::Int(0),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(std::f64::consts::PI),
            Value::str(""),
            Value::str("hello world"),
            Value::bytes(vec![0u8; 100]),
            Value::from(vec![1i64, 2, 3]),
            Value::record([("a", Value::Int(1)), ("b", Value::str("x"))]),
            Value::Interface(iref),
        ];
        for v in values {
            let mut buf = BytesMut::new();
            encode_value(&mut buf, &v);
            assert_eq!(
                buf.len(),
                encoded_len(&v),
                "{v:?}: encoded {} != predicted {}",
                buf.len(),
                encoded_len(&v)
            );
        }
    }

    #[test]
    fn str_value_matches_encode_value() {
        let mut via_value = BytesMut::new();
        encode_value(&mut via_value, &Value::str("paper"));
        let mut direct = BytesMut::new();
        encode_str_value(&mut direct, "paper");
        assert_eq!(&via_value[..], &direct[..]);
    }

    #[test]
    fn vec_sink_matches_bytesmut_sink() {
        let v = Value::record([("xs", Value::from(vec![1i64, 2]))]);
        let mut a = BytesMut::new();
        encode_value(&mut a, &v);
        let mut b: Vec<u8> = Vec::new();
        encode_value(&mut b, &v);
        assert_eq!(&a[..], &b[..]);
    }

    fn first_byte(v: &Value) -> u8 {
        let mut buf: Vec<u8> = Vec::new();
        encode_value(&mut buf, v);
        buf[0]
    }

    /// Every value tag constant is pinned to the leading byte its encoder
    /// actually emits — renumbering a tag without revisiting both sides of
    /// the codec breaks here (and trips odp-lint's L4 exhaustiveness rule).
    #[test]
    fn value_tags_are_exhaustive_and_pinned() {
        use odp_types::{InterfaceId, NodeId};
        assert_eq!(first_byte(&Value::Unit), tag::UNIT);
        assert_eq!(first_byte(&Value::Bool(false)), tag::BOOL);
        assert_eq!(first_byte(&Value::Int(-7)), tag::INT);
        assert_eq!(first_byte(&Value::Float(1.5)), tag::FLOAT);
        assert_eq!(first_byte(&Value::str("t")), tag::STR);
        assert_eq!(first_byte(&Value::bytes(vec![9u8])), tag::BYTES);
        assert_eq!(first_byte(&Value::from(vec![1i64])), tag::SEQ);
        assert_eq!(
            first_byte(&Value::record([("k", Value::Unit)])),
            tag::RECORD
        );
        let iref = InterfaceRef::new(InterfaceId(1), NodeId(1), InterfaceType::new(Vec::new()));
        assert_eq!(first_byte(&Value::Interface(iref)), tag::IFREF);
    }

    fn spec_byte(spec: &TypeSpec) -> u8 {
        let mut buf: Vec<u8> = Vec::new();
        encode_type_spec(&mut buf, spec);
        buf[0]
    }

    /// Same pinning for the type-spec tag space, which is one constant
    /// wider than the value space (`ANY` has no value-level counterpart).
    #[test]
    fn spec_tags_are_exhaustive_and_pinned() {
        assert_eq!(spec_byte(&TypeSpec::Unit), spec_tag::UNIT);
        assert_eq!(spec_byte(&TypeSpec::Bool), spec_tag::BOOL);
        assert_eq!(spec_byte(&TypeSpec::Int), spec_tag::INT);
        assert_eq!(spec_byte(&TypeSpec::Float), spec_tag::FLOAT);
        assert_eq!(spec_byte(&TypeSpec::Str), spec_tag::STR);
        assert_eq!(spec_byte(&TypeSpec::Bytes), spec_tag::BYTES);
        assert_eq!(spec_byte(&TypeSpec::seq(TypeSpec::Int)), spec_tag::SEQ);
        assert_eq!(
            spec_byte(&TypeSpec::record([("f", TypeSpec::Int)])),
            spec_tag::RECORD
        );
        assert_eq!(
            spec_byte(&TypeSpec::interface(InterfaceType::new(Vec::new()))),
            spec_tag::INTERFACE
        );
        assert_eq!(spec_byte(&TypeSpec::Any), spec_tag::ANY);
    }
}
