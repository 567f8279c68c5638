//! The type manager.
//!
//! §6 of the paper: *"Trading is intimately concerned with type-checking: a
//! trader needs access to descriptions of the types of the services it
//! offers: it may be convenient to gather these description up within a type
//! manager. The type manager can impose additional constraints on type
//! matching beyond those implied by the type system of the ODP computational
//! language. Taken together, traders and type managers provide within an ODP
//! system a description of its capabilities: self-describing systems are
//! more open-ended and scale better than those which have a fixed external
//! description."*
//!
//! A [`TypeManager`] therefore provides:
//!
//! * a registry of **named** interface types (names are conveniences for
//!   people and traders — conformance itself never consults them);
//! * **additional match constraints**: administrator-asserted rules that
//!   *narrow* structural matching (e.g. "anything matching `printer` must
//!   also declare a `status` operation").

use crate::conformance::{conforms, ConformanceError};
use crate::signature::InterfaceType;
use std::collections::HashMap;
use std::fmt;

/// Errors produced by the type manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeManagerError {
    /// A type name was registered twice with different signatures.
    Conflict {
        /// The conflicting name.
        name: String,
    },
    /// Structural conformance failed.
    NotConformant(ConformanceError),
    /// An administrator constraint rejected the match.
    ConstraintRejected {
        /// Name of the rejecting constraint.
        constraint: String,
    },
}

impl fmt::Display for TypeManagerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeManagerError::Conflict { name } => {
                write!(
                    f,
                    "type name `{name}` already registered with a different signature"
                )
            }
            TypeManagerError::NotConformant(e) => write!(f, "signatures do not conform: {e}"),
            TypeManagerError::ConstraintRejected { constraint } => {
                write!(f, "match rejected by constraint `{constraint}`")
            }
        }
    }
}

impl std::error::Error for TypeManagerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TypeManagerError::NotConformant(e) => Some(e),
            _ => None,
        }
    }
}

/// An administrator-installed predicate narrowing type matches.
///
/// Constraints receive the provided and required signatures and may veto a
/// structurally sound match.
type MatchConstraint = Box<dyn Fn(&InterfaceType, &InterfaceType) -> bool + Send + Sync>;

/// Registry of named interface types plus additional match rules.
#[derive(Default)]
pub struct TypeManager {
    names: HashMap<String, InterfaceType>,
    constraints: Vec<(String, MatchConstraint)>,
}

impl TypeManager {
    /// Creates an empty type manager.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `ty` under `name`. Re-registering the identical signature
    /// is idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`TypeManagerError::Conflict`] if the name is taken by a
    /// different signature.
    pub fn register<S: Into<String>>(
        &mut self,
        name: S,
        ty: InterfaceType,
    ) -> Result<(), TypeManagerError> {
        let name = name.into();
        match self.names.get(&name) {
            Some(existing) if *existing != ty => Err(TypeManagerError::Conflict { name }),
            Some(_) => Ok(()),
            None => {
                self.names.insert(name, ty);
                Ok(())
            }
        }
    }

    /// Number of registered names.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no names are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over registered `(name, type)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &InterfaceType)> {
        self.names.iter().map(|(n, t)| (n.as_str(), t))
    }

    /// Installs a named constraint that can veto structurally sound
    /// matches. This *narrows* matching.
    pub fn add_constraint<S, F>(&mut self, name: S, predicate: F)
    where
        S: Into<String>,
        F: Fn(&InterfaceType, &InterfaceType) -> bool + Send + Sync + 'static,
    {
        self.constraints.push((name.into(), Box::new(predicate)));
    }

    /// Full match check between anonymous signatures: structural
    /// conformance, then every installed constraint.
    ///
    /// # Errors
    ///
    /// [`TypeManagerError::NotConformant`] or
    /// [`TypeManagerError::ConstraintRejected`].
    pub fn check_match(
        &self,
        provided: &InterfaceType,
        required: &InterfaceType,
    ) -> Result<(), TypeManagerError> {
        conforms(provided, required).map_err(TypeManagerError::NotConformant)?;
        self.check_constraints(provided, required)
    }

    fn check_constraints(
        &self,
        provided: &InterfaceType,
        required: &InterfaceType,
    ) -> Result<(), TypeManagerError> {
        for (name, pred) in &self.constraints {
            if !pred(provided, required) {
                return Err(TypeManagerError::ConstraintRejected {
                    constraint: name.clone(),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Debug for TypeManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TypeManager")
            .field("names", &self.names.len())
            .field("constraints", &self.constraints.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::{InterfaceTypeBuilder, OutcomeSig, TypeSpec};

    fn printer() -> InterfaceType {
        InterfaceTypeBuilder::new()
            .interrogation("print", vec![TypeSpec::Bytes], vec![OutcomeSig::ok(vec![])])
            .build()
    }

    fn printer_with_status() -> InterfaceType {
        InterfaceTypeBuilder::new()
            .interrogation("print", vec![TypeSpec::Bytes], vec![OutcomeSig::ok(vec![])])
            .interrogation("status", vec![], vec![OutcomeSig::ok(vec![TypeSpec::Str])])
            .build()
    }

    #[test]
    fn register_and_lookup() {
        let mut tm = TypeManager::new();
        tm.register("printer", printer()).unwrap();
        let lookup = |name: &str| tm.iter().find(|(n, _)| *n == name).map(|(_, t)| t.clone());
        assert_eq!(lookup("printer"), Some(printer()));
        assert_eq!(lookup("scanner"), None);
    }

    #[test]
    fn idempotent_reregistration_conflicting_rejected() {
        let mut tm = TypeManager::new();
        tm.register("printer", printer()).unwrap();
        tm.register("printer", printer()).unwrap();
        assert!(matches!(
            tm.register("printer", printer_with_status()),
            Err(TypeManagerError::Conflict { .. })
        ));
        assert_eq!(tm.len(), 1);
    }

    #[test]
    fn structural_match_through_manager() {
        let tm = TypeManager::new();
        assert!(tm.check_match(&printer_with_status(), &printer()).is_ok());
        assert!(matches!(
            tm.check_match(&printer(), &printer_with_status()),
            Err(TypeManagerError::NotConformant(_))
        ));
    }

    #[test]
    fn constraints_narrow_matching() {
        let mut tm = TypeManager::new();
        tm.add_constraint("must-have-status", |provided, _| {
            provided.operation("status").is_some()
        });
        assert!(tm.check_match(&printer_with_status(), &printer()).is_ok());
        assert!(matches!(
            tm.check_match(&printer(), &printer()),
            Err(TypeManagerError::ConstraintRejected { .. })
        ));
    }

    #[test]
    fn iteration_and_emptiness() {
        let mut tm = TypeManager::new();
        assert!(tm.is_empty());
        tm.register("printer", printer()).unwrap();
        let names: Vec<_> = tm.iter().map(|(n, _)| n.to_owned()).collect();
        assert_eq!(names, vec!["printer"]);
    }
}
