//! Service offers and property constraints.

use odp_wire::{InterfaceRef, Value};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of an offer within one trader.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OfferId(pub u64);

impl fmt::Display for OfferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "offer:{}", self.0)
    }
}

/// A service offer: the reference to the service interface plus qualifying
/// properties (§6: "service offers can be qualified with properties to
/// distinguish them").
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceOffer {
    /// Offer identity within its trader.
    pub id: OfferId,
    /// The offered interface.
    pub service: InterfaceRef,
    /// Qualifying properties, e.g. `{"colour": true, "ppm": 12}`.
    pub properties: BTreeMap<String, Value>,
}

impl ServiceOffer {
    /// Property accessor.
    #[must_use]
    fn property(&self, name: &str) -> Option<&Value> {
        self.properties.get(name)
    }
}

/// A single constraint on an offer's properties.
#[derive(Debug, Clone, PartialEq)]
pub enum PropertyConstraint {
    /// The property must exist and equal the value exactly.
    Equals(String, Value),
    /// The property must exist, be an integer, and be ≥ the bound.
    AtLeast(String, i64),
    /// The property must exist, be an integer, and be ≤ the bound.
    AtMost(String, i64),
    /// The property must exist (any value).
    Exists(String),
}

impl PropertyConstraint {
    /// Whether `offer` satisfies this constraint.
    #[must_use]
    pub fn matches(&self, offer: &ServiceOffer) -> bool {
        match self {
            PropertyConstraint::Equals(name, value) => offer.property(name) == Some(value),
            PropertyConstraint::AtLeast(name, bound) => offer
                .property(name)
                .and_then(Value::as_int)
                .is_some_and(|v| v >= *bound),
            PropertyConstraint::AtMost(name, bound) => offer
                .property(name)
                .and_then(Value::as_int)
                .is_some_and(|v| v <= *bound),
            PropertyConstraint::Exists(name) => offer.property(name).is_some(),
        }
    }

    /// Encodes a constraint list as a wire record for the trader's ADT
    /// interface. Keys are plain names for [`PropertyConstraint::Equals`],
    /// `min:name`, `max:name` and `has:name` for the others.
    #[must_use]
    pub fn encode_all(constraints: &[PropertyConstraint]) -> Value {
        let fields = constraints
            .iter()
            .map(|c| match c {
                PropertyConstraint::Equals(name, value) => (name.clone(), value.clone()),
                PropertyConstraint::AtLeast(name, bound) => {
                    (format!("min:{name}"), Value::Int(*bound))
                }
                PropertyConstraint::AtMost(name, bound) => {
                    (format!("max:{name}"), Value::Int(*bound))
                }
                PropertyConstraint::Exists(name) => (format!("has:{name}"), Value::Unit),
            })
            .collect();
        Value::Record(fields)
    }

    /// Decodes a constraint record produced by
    /// [`PropertyConstraint::encode_all`].
    #[must_use]
    pub fn decode_all(record: &Value) -> Vec<PropertyConstraint> {
        let Value::Record(fields) = record else {
            return Vec::new();
        };
        fields
            .iter()
            .map(|(key, value)| {
                if let Some(name) = key.strip_prefix("min:") {
                    PropertyConstraint::AtLeast(name.to_owned(), value.as_int().unwrap_or(i64::MIN))
                } else if let Some(name) = key.strip_prefix("max:") {
                    PropertyConstraint::AtMost(name.to_owned(), value.as_int().unwrap_or(i64::MAX))
                } else if let Some(name) = key.strip_prefix("has:") {
                    PropertyConstraint::Exists(name.to_owned())
                } else {
                    PropertyConstraint::Equals(key.clone(), value.clone())
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_types::{InterfaceId, InterfaceType, NodeId};

    fn offer(props: &[(&str, Value)]) -> ServiceOffer {
        ServiceOffer {
            id: OfferId(1),
            service: InterfaceRef::new(InterfaceId(1), NodeId(1), InterfaceType::empty()),
            properties: props
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        }
    }

    #[test]
    fn constraint_matching() {
        let o = offer(&[("colour", Value::Bool(true)), ("ppm", Value::Int(12))]);
        assert!(PropertyConstraint::Equals("colour".into(), Value::Bool(true)).matches(&o));
        assert!(!PropertyConstraint::Equals("colour".into(), Value::Bool(false)).matches(&o));
        assert!(PropertyConstraint::AtLeast("ppm".into(), 10).matches(&o));
        assert!(!PropertyConstraint::AtLeast("ppm".into(), 20).matches(&o));
        assert!(PropertyConstraint::AtMost("ppm".into(), 12).matches(&o));
        assert!(PropertyConstraint::Exists("ppm".into()).matches(&o));
        assert!(!PropertyConstraint::Exists("duplex".into()).matches(&o));
        // Missing property never matches bounds.
        assert!(!PropertyConstraint::AtLeast("missing".into(), 0).matches(&o));
        // Non-integer property never matches bounds.
        assert!(!PropertyConstraint::AtLeast("colour".into(), 0).matches(&o));
    }

    #[test]
    fn constraint_codec_round_trips() {
        let constraints = vec![
            PropertyConstraint::Equals("colour".into(), Value::Bool(true)),
            PropertyConstraint::AtLeast("ppm".into(), 10),
            PropertyConstraint::AtMost("queue".into(), 3),
            PropertyConstraint::Exists("duplex".into()),
        ];
        let encoded = PropertyConstraint::encode_all(&constraints);
        let decoded = PropertyConstraint::decode_all(&encoded);
        assert_eq!(decoded, constraints);
    }

    #[test]
    fn decode_tolerates_non_record() {
        assert!(PropertyConstraint::decode_all(&Value::Int(3)).is_empty());
    }
}
