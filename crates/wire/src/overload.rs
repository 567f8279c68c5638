//! Overload-plane wire codec: call priority and deadline budget.
//!
//! §5.1 of the paper requires that "communications quality of service
//! constraints must be specified (either explicitly or by default)" on
//! every invocation. Under offered load beyond capacity those constraints
//! are only enforceable if the *server* can see them before dispatch, so
//! the invocation envelope carries two overload-plane fields next to the
//! trace context:
//!
//! * a **priority byte** ([`CallPriority`]) — which bounded admission
//!   queue the call joins when the capsule is saturated;
//! * a **deadline budget** (u64 microseconds, big-endian, `0` = none) —
//!   the time the caller still has. Clocks are not synchronized across
//!   nodes, so the budget is *relative*: the receiver anchors it to the
//!   frame's arrival instant, which makes queueing delay count against it.
//!
//! How a shed call is answered is `odp-core`'s business (an engineering
//! code inside the reply body). The tag constants live in a `tag` module so
//! the L4 wire-exhaustiveness lint pins every one to an encode site, a
//! decode arm and a round-trip test.

use crate::encode::EncodeBuf;
use bytes::{Buf, Bytes};

/// Overload-plane tag bytes.
pub(crate) mod tag {
    /// Priority byte: admitted ahead of everything else (control-plane
    /// traffic: relocation, supervision, probes).
    pub(super) const PRIO_HIGH: u8 = 0;
    /// Priority byte: ordinary application interrogations.
    pub(super) const PRIO_NORMAL: u8 = 1;
    /// Priority byte: bulk / best-effort traffic (stream frames,
    /// announcements), first to be shed.
    pub(super) const PRIO_LOW: u8 = 2;
}

/// Scheduling class of one invocation, carried in the request envelope
/// next to the deadline budget (one byte on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum CallPriority {
    /// Admitted ahead of everything else; last to be shed.
    High,
    /// Ordinary application traffic.
    #[default]
    Normal,
    /// Bulk / best-effort traffic; first to be shed.
    Low,
}

impl CallPriority {
    /// All priorities, highest first (queue scan order).
    pub const ALL: [CallPriority; 3] =
        [CallPriority::High, CallPriority::Normal, CallPriority::Low];

    /// The wire byte for this priority.
    #[must_use]
    fn to_wire(self) -> u8 {
        match self {
            CallPriority::High => tag::PRIO_HIGH,
            CallPriority::Normal => tag::PRIO_NORMAL,
            CallPriority::Low => tag::PRIO_LOW,
        }
    }

    /// Decodes a wire byte; `None` for bytes no priority encodes to
    /// (a malformed or newer-version peer).
    #[must_use]
    pub fn from_wire(byte: u8) -> Option<CallPriority> {
        match byte {
            tag::PRIO_HIGH => Some(CallPriority::High),
            tag::PRIO_NORMAL => Some(CallPriority::Normal),
            tag::PRIO_LOW => Some(CallPriority::Low),
            _ => None,
        }
    }

    /// Index into per-priority arrays, highest priority first.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            CallPriority::High => 0,
            CallPriority::Normal => 1,
            CallPriority::Low => 2,
        }
    }
}

/// Bytes the overload fields occupy in an envelope: priority byte plus
/// big-endian u64 deadline budget in microseconds.
pub const OVERLOAD_WIRE_LEN: usize = 1 + 8;

/// Appends the overload fields (priority byte, relative deadline budget
/// in microseconds, `0` = no deadline) to an envelope under
/// construction.
pub fn put_overload<B: EncodeBuf + ?Sized>(
    buf: &mut B,
    priority: CallPriority,
    budget_micros: u64,
) {
    buf.push_u8(priority.to_wire());
    buf.push_slice(&budget_micros.to_be_bytes());
}

/// Consumes and decodes the overload fields from the front of `buf`.
/// Returns `None` — without consuming anything — on truncation or an
/// unknown priority byte.
pub fn get_overload(buf: &mut Bytes) -> Option<(CallPriority, u64)> {
    let fields = buf.get(..OVERLOAD_WIRE_LEN)?;
    let priority = CallPriority::from_wire(*fields.first()?)?;
    let mut micros = [0u8; 8];
    micros.copy_from_slice(fields.get(1..)?);
    buf.advance(OVERLOAD_WIRE_LEN);
    Some((priority, u64::from_be_bytes(micros)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn priorities_round_trip_every_wire_byte() {
        for p in CallPriority::ALL {
            assert_eq!(CallPriority::from_wire(p.to_wire()), Some(p));
        }
        assert_eq!(
            CallPriority::from_wire(tag::PRIO_HIGH),
            Some(CallPriority::High)
        );
        assert_eq!(
            CallPriority::from_wire(tag::PRIO_NORMAL),
            Some(CallPriority::Normal)
        );
        assert_eq!(
            CallPriority::from_wire(tag::PRIO_LOW),
            Some(CallPriority::Low)
        );
        assert_eq!(CallPriority::from_wire(0xFF), None);
    }

    #[test]
    fn overload_fields_round_trip_through_envelope() {
        let mut buf = BytesMut::new();
        put_overload(&mut buf, CallPriority::Low, 1_500_000);
        buf.extend_from_slice(b"rest");
        let mut bytes = buf.freeze();
        assert_eq!(
            get_overload(&mut bytes),
            Some((CallPriority::Low, 1_500_000))
        );
        assert_eq!(&bytes[..], b"rest");
    }

    #[test]
    fn truncated_or_unknown_priority_rejected_without_consuming() {
        let mut short = Bytes::from_static(&[0u8; 8]);
        assert_eq!(get_overload(&mut short), None);
        assert_eq!(short.len(), 8);
        let mut unknown = Bytes::from_static(&[9, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(get_overload(&mut unknown), None);
        assert_eq!(unknown.len(), 9);
    }

    #[test]
    fn priority_ordering_matches_queue_scan_order() {
        assert!(CallPriority::High < CallPriority::Normal);
        assert!(CallPriority::Normal < CallPriority::Low);
        for (i, p) in CallPriority::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }
}
