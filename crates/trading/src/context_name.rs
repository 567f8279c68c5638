//! Context-relative naming (§6).
//!
//! *"Federation requires cross linking of autonomous traders: such a
//! structure is inevitably an arbitrary graph, and therefore names are
//! potentially ambiguous, since their meaning depends upon where they are
//! interpreted: there is no canonical root. The ambiguity can be overcome by
//! extending names with information about how to get back to their defining
//! context whenever they are sent as argument or results."*
//!
//! A [`ContextName`] is a path through the trader link graph:
//! `"dept/printers"` names whatever the link `dept` leads to, then the link
//! `printers` from there. The segment `".."` means "the context this name
//! was defined in" — when a name crosses a federation border, the sender
//! prefixes `".."` (via [`ContextName::exported`]) so the receiver can get
//! back to the defining context. Receivers resolve `".."` against the link
//! they received the name through ([`ContextName::rebase`]).

use std::fmt;
use std::str::FromStr;

/// The parent segment.
const PARENT: &str = "..";

/// A context-relative name: a path of trader link names.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ContextName {
    segments: Vec<String>,
}

/// Errors from name parsing and manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
// odp-lint: allow(l8, reason = "the error type of the public `ContextName::new`")
pub enum NameError {
    /// A segment was empty or contained `/`.
    BadSegment(String),
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::BadSegment(s) => write!(f, "bad name segment `{s}`"),
        }
    }
}

impl std::error::Error for NameError {}

impl ContextName {
    /// The empty name: "here".
    #[must_use]
    pub fn here() -> Self {
        Self::default()
    }

    /// Builds a name from segments.
    ///
    /// # Errors
    ///
    /// [`NameError::BadSegment`] for empty segments or segments containing
    /// `/`.
    pub fn new<I, S>(segments: I) -> Result<Self, NameError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let segments: Vec<String> = segments.into_iter().map(Into::into).collect();
        for s in &segments {
            if s.is_empty() || s.contains('/') {
                return Err(NameError::BadSegment(s.clone()));
            }
        }
        Ok(Self { segments })
    }

    /// True for the empty ("here") name.
    #[must_use]
    pub fn is_here(&self) -> bool {
        self.segments.is_empty()
    }

    /// Joins `other` onto this name and canonicalizes.
    #[must_use]
    pub fn join(&self, other: &ContextName) -> Self {
        let mut segments = self.segments.clone();
        segments.extend(other.segments.iter().cloned());
        Self { segments }.canonicalize()
    }

    /// Removes interior `x/..` pairs. Leading `..` segments are preserved:
    /// they can only be resolved by the receiving context.
    #[must_use]
    pub fn canonicalize(&self) -> Self {
        let mut out: Vec<String> = Vec::with_capacity(self.segments.len());
        for seg in &self.segments {
            if seg == PARENT && out.last().is_some_and(|s| s != PARENT) {
                out.pop();
            } else {
                out.push(seg.clone());
            }
        }
        Self { segments: out }
    }

    /// The form of this name for export across a federation border: the
    /// receiver reaches our context through their link to us, so the name
    /// gains a leading `..` ("how to get back to the defining context").
    #[must_use]
    pub fn exported(&self) -> Self {
        let mut segments = Vec::with_capacity(1 + self.segments.len());
        segments.push(PARENT.to_owned());
        segments.extend(self.segments.iter().cloned());
        Self { segments }
    }

    /// Resolves a received name against `back_link`, the receiver's link
    /// name leading back to the sender: leading `..` segments become
    /// `back_link`, then the result is canonicalized.
    #[must_use]
    pub fn rebase(&self, back_link: &str) -> Self {
        let mut segments = Vec::with_capacity(self.segments.len());
        for seg in &self.segments {
            if seg == PARENT {
                segments.push(back_link.to_owned());
            } else {
                segments.push(seg.clone());
            }
        }
        Self { segments }.canonicalize()
    }

    /// Pops the first segment, returning it and the remainder.
    #[must_use]
    pub fn split_first(&self) -> Option<(&str, ContextName)> {
        let (first, rest) = self.segments.split_first()?;
        Some((
            first.as_str(),
            ContextName {
                segments: rest.to_vec(),
            },
        ))
    }
}

impl fmt::Display for ContextName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.segments.is_empty() {
            write!(f, ".")
        } else {
            write!(f, "{}", self.segments.join("/"))
        }
    }
}

impl FromStr for ContextName {
    type Err = NameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() || s == "." {
            return Ok(Self::here());
        }
        Self::new(s.split('/'))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> ContextName {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(name("a/b/c").to_string(), "a/b/c");
        assert_eq!(name(".").to_string(), ".");
        assert_eq!(ContextName::here().to_string(), ".");
        assert!("a//b".parse::<ContextName>().is_err());
    }

    #[test]
    fn canonicalize_removes_interior_parents() {
        assert_eq!(name("a/../b").canonicalize(), name("b"));
        assert_eq!(name("a/b/../../c").canonicalize(), name("c"));
        // Leading parents survive: only the receiver can resolve them.
        assert_eq!(name("../a").canonicalize(), name("../a"));
        assert_eq!(name("../../a").canonicalize(), name("../../a"));
        assert_eq!(name("a/../../b").canonicalize(), name("../b"));
    }

    #[test]
    fn canonicalize_is_idempotent() {
        for s in ["a/../b", "../x", "a/b/c", "a/b/../../../z"] {
            let once = name(s).canonicalize();
            assert_eq!(once.canonicalize(), once, "{s}");
        }
    }

    #[test]
    fn export_then_rebase_round_trips() {
        // Trader A defines "printers/colour". It sends the name to B, which
        // reaches A through its link "siteA".
        let defined = name("printers/colour");
        let on_the_wire = defined.exported();
        assert_eq!(on_the_wire, name("../printers/colour"));
        let at_b = on_the_wire.rebase("siteA");
        assert_eq!(at_b, name("siteA/printers/colour"));
    }

    #[test]
    fn join_canonicalizes() {
        assert_eq!(name("a/b").join(&name("../c")), name("a/c"));
        assert_eq!(ContextName::here().join(&name("x")), name("x"));
    }

    #[test]
    fn split_first_walks_the_path() {
        let n = name("a/b/c");
        let (head, rest) = n.split_first().unwrap();
        assert_eq!(head, "a");
        assert_eq!(rest, name("b/c"));
        assert!(ContextName::here().split_first().is_none());
    }

    #[test]
    fn child_validates() {
        assert!(ContextName::new(["ok"]).is_ok());
        assert!(ContextName::new(["not/ok"]).is_err());
        assert!(ContextName::new([""]).is_err());
    }
}
