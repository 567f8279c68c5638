//! Federated trading: traversal of the trader link graph.
//!
//! §6: *"Federation requires cross linking of autonomous traders: such a
//! structure is inevitably an arbitrary graph."* Queries addressed by a
//! [`ContextName`] path walk the graph link by link; each hop is a real ODP
//! invocation on the linked trader's ADT interface, so federated traders
//! can live in different capsules, different domains, or (with
//! `odp-federation` interceptors in the path) different technology islands.
//!
//! Loop protection is by hop budget: the graph is arbitrary and no trader
//! can see it globally, so a budget is the only thing that works without
//! central coordination.

use crate::offer::PropertyConstraint;
use crate::trader::{capsule_of, template, Trader, TraderError};
use crate::ContextName;
use odp_core::{Outcome, TransparencyPolicy};
use odp_types::InterfaceType;
use odp_wire::{InterfaceRef, Value};

/// Default federation hop budget.
const DEFAULT_HOPS: u32 = 16;

/// Imports through a context-relative path: empty path ⇒ local import,
/// otherwise follow the first link and recurse remotely.
///
/// # Errors
///
/// [`TraderError::UnknownLink`] for a missing link, [`TraderError::HopLimit`]
/// when the budget is spent, [`TraderError::Forward`] if a linked trader
/// cannot be reached.
pub fn import_path(
    trader: &Trader,
    path: &ContextName,
    required: &InterfaceType,
    constraints: &[PropertyConstraint],
    max_results: usize,
    hops: u32,
) -> Result<Vec<InterfaceRef>, TraderError> {
    let path = path.canonicalize();
    if path.is_here() {
        return Ok(trader
            .import(required, constraints, max_results)
            .into_iter()
            .map(|o| o.service)
            .collect());
    }
    if hops == 0 {
        return Err(TraderError::HopLimit);
    }
    let (link_name, rest) = path.split_first().expect("non-empty path");
    let linked = trader
        .link_ref(link_name)
        .ok_or_else(|| TraderError::UnknownLink(link_name.to_owned()))?;
    let capsule = capsule_of(trader).ok_or_else(|| {
        TraderError::Forward("trader has no capsule attached for forwarding".to_owned())
    })?;
    let binding = capsule.bind_with(linked, TransparencyPolicy::default());
    let outcome = binding
        .interrogate(
            "import_path",
            vec![
                Value::str(rest.to_string()),
                template(required.clone()),
                PropertyConstraint::encode_all(constraints),
                Value::Int(max_results as i64),
                Value::Int(i64::from(hops - 1)),
            ],
        )
        .map_err(|e| TraderError::Forward(e.to_string()))?;
    match outcome.termination.to_string().as_str() {
        "ok" => Ok(outcome
            .result()
            .and_then(Value::as_seq)
            .map(|seq| {
                seq.iter()
                    .filter_map(Value::as_interface)
                    .cloned()
                    .collect()
            })
            .unwrap_or_default()),
        "none" => Ok(Vec::new()),
        "unknown_link" => Err(TraderError::UnknownLink(
            outcome
                .result()
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_owned(),
        )),
        "hop_limit" => Err(TraderError::HopLimit),
        other => Err(TraderError::Forward(format!(
            "unexpected termination `{other}`"
        ))),
    }
}

/// Servant-side decoding for the `import_path` operation.
pub(crate) fn dispatch_import_path(trader: &Trader, args: &[Value]) -> Outcome {
    let Some(path_str) = args.first().and_then(Value::as_str) else {
        return Outcome::fail("import_path requires a path string");
    };
    let Ok(path) = path_str.parse::<ContextName>() else {
        return Outcome::fail("bad path");
    };
    let Some(required) = args.get(1).and_then(Value::as_interface) else {
        return Outcome::fail("import_path requires a template reference");
    };
    let constraints = args
        .get(2)
        .map(PropertyConstraint::decode_all)
        .unwrap_or_default();
    let max = args
        .get(3)
        .and_then(Value::as_int)
        .map_or(16, |n| n.max(0) as usize);
    let hops = args
        .get(4)
        .and_then(Value::as_int)
        .map_or(DEFAULT_HOPS, |n| n.max(0) as u32);
    match import_path(trader, &path, &required.ty, &constraints, max, hops) {
        Ok(refs) if refs.is_empty() => Outcome::new("none", vec![]),
        Ok(refs) => Outcome::ok(vec![Value::Seq(
            refs.into_iter().map(Value::Interface).collect(),
        )]),
        Err(TraderError::UnknownLink(name)) => Outcome::new("unknown_link", vec![Value::str(name)]),
        Err(TraderError::HopLimit) => Outcome::new("hop_limit", vec![]),
        Err(e) => Outcome::fail(e.to_string()),
    }
}
