//! Group views: the versioned membership of a replica group.

use odp_types::GroupId;
use odp_wire::{InterfaceRef, Value};
use std::sync::Arc;

/// A versioned, ordered member list. Order is significant: the first
/// member is the sequencer; fail-over walks down the list. The list is
/// shared: a view changes by replacement, so readers (a client picking a
/// member per call) take the whole list for the price of one `Arc`.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupView {
    /// The group's identity.
    pub group: GroupId,
    /// Monotonically increasing view version; bumped on every change.
    pub version: u64,
    /// Member interfaces in sequencer-preference order.
    pub members: Arc<[InterfaceRef]>,
}

impl GroupView {
    /// Creates the initial view (version 1).
    #[must_use]
    pub fn initial(group: GroupId, members: Vec<InterfaceRef>) -> Self {
        Self {
            group,
            version: 1,
            members: members.into(),
        }
    }

    /// Current sequencer (first member), if any.
    #[must_use]
    pub fn sequencer(&self) -> Option<&InterfaceRef> {
        self.members.first()
    }

    /// Position of the member with interface id `iface`.
    #[must_use]
    pub fn position_of(&self, iface: odp_types::InterfaceId) -> Option<usize> {
        self.members.iter().position(|m| m.iface == iface)
    }

    /// A new view with `member` appended and the version bumped.
    #[must_use]
    pub fn with_member(&self, member: InterfaceRef) -> Self {
        Self {
            group: self.group,
            version: self.version + 1,
            members: self.members.iter().cloned().chain([member]).collect(),
        }
    }

    /// A new view without the member `iface`, version bumped.
    #[must_use]
    pub fn without_member(&self, iface: odp_types::InterfaceId) -> Self {
        Self {
            group: self.group,
            version: self.version + 1,
            members: self
                .members
                .iter()
                .filter(|m| m.iface != iface)
                .cloned()
                .collect(),
        }
    }

    /// Encodes the view as a wire value (for `__grp_view` /
    /// `__grp_get_view`).
    #[must_use]
    pub fn encode(&self) -> Value {
        Value::record([
            ("group", Value::Int(self.group.raw() as i64)),
            ("version", Value::Int(self.version as i64)),
            (
                "members",
                Value::Seq(self.members.iter().cloned().map(Value::Interface).collect()),
            ),
        ])
    }

    /// Decodes a view encoded by [`GroupView::encode`].
    #[must_use]
    pub fn decode(value: &Value) -> Option<Self> {
        let group = GroupId(value.field("group")?.as_int()? as u64);
        let version = value.field("version")?.as_int()? as u64;
        let members = value
            .field("members")?
            .as_seq()?
            .iter()
            .map(|v| v.as_interface().cloned())
            .collect::<Option<Arc<[_]>>>()?;
        Some(Self {
            group,
            version,
            members,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_types::{InterfaceId, InterfaceType, NodeId};

    fn member(id: u64) -> InterfaceRef {
        InterfaceRef::new(InterfaceId(id), NodeId(id), InterfaceType::empty())
    }

    #[test]
    fn membership_changes_bump_version() {
        let v1 = GroupView::initial(GroupId(1), vec![member(1), member(2)]);
        assert_eq!(v1.version, 1);
        assert_eq!(v1.sequencer().unwrap().iface, InterfaceId(1));
        let v2 = v1.with_member(member(3));
        assert_eq!(v2.version, 2);
        assert_eq!(v2.members.len(), 3);
        let v3 = v2.without_member(InterfaceId(1));
        assert_eq!(v3.version, 3);
        assert_eq!(v3.sequencer().unwrap().iface, InterfaceId(2));
        assert_eq!(v3.position_of(InterfaceId(3)), Some(1));
        assert_eq!(v3.position_of(InterfaceId(1)), None);
    }

    #[test]
    fn view_codec_round_trips() {
        let v = GroupView::initial(GroupId(9), vec![member(1), member(2), member(3)]);
        let decoded = GroupView::decode(&v.encode()).unwrap();
        assert_eq!(decoded, v);
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(GroupView::decode(&Value::Int(3)).is_none());
        assert!(GroupView::decode(&Value::record([("group", Value::Int(1))])).is_none());
    }
}
