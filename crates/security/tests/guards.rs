//! Integration tests: guarded objects over the network — authentication,
//! integrity, replay refusal, and policy enforcement, all from declarative
//! statements.

use odp_core::{ExportConfig, FnServant, InvokeError, Outcome, Servant, TransparencyPolicy, World};
use odp_security::secret::establish;
use odp_security::{AuthLayer, Guard, SecretStore, SecurityPolicy};
use odp_types::signature::{InterfaceTypeBuilder, OutcomeSig};
use odp_types::{InterfaceType, TypeSpec};
use odp_wire::Value;
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn vault_type() -> InterfaceType {
    InterfaceTypeBuilder::new()
        .interrogation("read", vec![], vec![OutcomeSig::ok(vec![TypeSpec::Int])])
        .interrogation("write", vec![TypeSpec::Int], vec![OutcomeSig::ok(vec![])])
        .build()
}

struct Rig {
    world: World,
    vault_ref: odp_wire::InterfaceRef,
    guard: Arc<Guard>,
    alice: Arc<SecretStore>,
    mallory: Arc<SecretStore>,
}

fn rig() -> Rig {
    let world = World::builder().capsules(2).build();
    let server_store = Arc::new(SecretStore::new("vault"));
    let alice = Arc::new(SecretStore::new("alice"));
    let mallory = Arc::new(SecretStore::new("mallory"));
    establish(&alice, &server_store, 11);
    // Mallory shares a secret too, but policy won't let her write.
    establish(&mallory, &server_store, 13);
    let policy = SecurityPolicy::deny_all()
        .allow("alice", &["read", "write"])
        .allow("mallory", &["read"]);
    let guard = Guard::generate(Arc::clone(&server_store), policy);
    let value = std::sync::atomic::AtomicI64::new(7);
    let servant = FnServant::new(vault_type(), move |op, args, _ctx| match op {
        "read" => Outcome::ok(vec![Value::Int(value.load(Ordering::SeqCst))]),
        "write" => {
            value.store(args[0].as_int().unwrap_or(0), Ordering::SeqCst);
            Outcome::ok(vec![])
        }
        _ => Outcome::fail("no such op"),
    });
    let vault_ref = world.capsule(0).export_with(
        Arc::new(servant) as Arc<dyn Servant>,
        ExportConfig {
            layers: vec![guard.clone() as Arc<dyn odp_core::ServerLayer>],
            ..ExportConfig::default()
        },
    );
    Rig {
        world,
        vault_ref,
        guard,
        alice,
        mallory,
    }
}

fn bind_as(rig: &Rig, store: &Arc<SecretStore>) -> odp_core::ClientBinding {
    let policy =
        TransparencyPolicy::default().with_layer(AuthLayer::new(Arc::clone(store), "vault"));
    rig.world
        .capsule(1)
        .bind_with(rig.vault_ref.clone(), policy)
}

#[test]
fn authenticated_authorized_calls_pass() {
    let r = rig();
    let binding = bind_as(&r, &r.alice);
    binding.interrogate("write", vec![Value::Int(42)]).unwrap();
    assert_eq!(binding.interrogate("read", vec![]).unwrap().int(), Some(42));
    assert_eq!(r.guard.admitted.load(Ordering::Relaxed), 2);
    assert_eq!(r.guard.denied.load(Ordering::Relaxed), 0);
}

#[test]
fn unauthenticated_calls_denied() {
    let r = rig();
    // No AuthLayer: the reference works at the engineering level but the
    // guard refuses ("a secure object must check that any access is from a
    // valid source", §7.1 — possessing the reference is not enough).
    let binding = r.world.capsule(1).bind(r.vault_ref.clone());
    let err = binding.interrogate("read", vec![]).unwrap_err();
    assert!(matches!(err, InvokeError::Denied(_)), "{err:?}");
    assert_eq!(r.guard.denied.load(Ordering::Relaxed), 1);
}

#[test]
fn policy_limits_operations_per_principal() {
    let r = rig();
    let binding = bind_as(&r, &r.mallory);
    // Mallory may read…
    assert!(binding.interrogate("read", vec![]).is_ok());
    // …but not write, despite valid authentication.
    let err = binding
        .interrogate("write", vec![Value::Int(0)])
        .unwrap_err();
    assert!(
        matches!(err, InvokeError::Denied(ref why) if why.contains("policy")),
        "{err:?}"
    );
}

#[test]
fn unknown_principal_denied() {
    let r = rig();
    let eve = Arc::new(SecretStore::new("eve"));
    // Eve shares no secret with the vault: minting fails client-side.
    let binding = bind_as(&r, &eve);
    let err = binding.interrogate("read", vec![]).unwrap_err();
    assert!(
        matches!(err, InvokeError::Denied(ref why) if why.contains("no secret")),
        "{err:?}"
    );
}

#[test]
fn forged_tag_denied() {
    let r = rig();
    // Hand-craft a request with a bogus token via raw annotations.
    let binding = r.world.capsule(1).bind(r.vault_ref.clone());
    let forged = odp_security::Token {
        principal: "alice".into(),
        nonce: 10_000,
        tag: 0x1234_5678,
    };
    let mut ann = std::collections::BTreeMap::new();
    ann.insert(odp_security::secret::AUTH_KEY.to_owned(), forged.encode());
    let err = binding
        .interrogate_annotated("read", vec![], ann)
        .unwrap_err();
    assert!(
        matches!(err, InvokeError::Denied(ref why) if why.contains("tag")),
        "{err:?}"
    );
}

#[test]
fn replayed_credentials_denied() {
    let r = rig();
    // Mint one valid token, then present it twice via raw annotations.
    let token = r
        .alice
        .mint("vault", r.vault_ref.iface, "read", &[])
        .unwrap();
    let binding = r.world.capsule(1).bind(r.vault_ref.clone());
    let mut ann = std::collections::BTreeMap::new();
    ann.insert(odp_security::secret::AUTH_KEY.to_owned(), token.encode());
    assert!(binding
        .interrogate_annotated("read", vec![], ann.clone())
        .is_ok());
    let err = binding
        .interrogate_annotated("read", vec![], ann)
        .unwrap_err();
    assert!(
        matches!(err, InvokeError::Denied(ref why) if why.contains("replay")),
        "{err:?}"
    );
}

#[test]
fn integrity_tampering_detected() {
    let r = rig();
    // Mint a token for writing 5, then send different arguments under it.
    let token = r
        .alice
        .mint("vault", r.vault_ref.iface, "write", &[Value::Int(5)])
        .unwrap();
    let binding = r.world.capsule(1).bind(r.vault_ref.clone());
    let mut ann = std::collections::BTreeMap::new();
    ann.insert(odp_security::secret::AUTH_KEY.to_owned(), token.encode());
    let err = binding
        .interrogate_annotated("write", vec![Value::Int(5_000_000)], ann)
        .unwrap_err();
    assert!(matches!(err, InvokeError::Denied(_)), "{err:?}");
}

#[test]
fn guard_composes_with_other_layers() {
    // Guard + serialized discipline together; the guard runs first.
    let world = World::builder().capsules(2).build();
    let server_store = Arc::new(SecretStore::new("svc"));
    let alice = Arc::new(SecretStore::new("alice"));
    establish(&alice, &server_store, 3);
    let guard = Guard::generate(
        Arc::clone(&server_store),
        SecurityPolicy::deny_all().allow_all("alice"),
    );
    let ty = InterfaceTypeBuilder::new()
        .interrogation("f", vec![], vec![OutcomeSig::ok(vec![])])
        .build();
    let servant = FnServant::new(ty, |_, _, _| Outcome::ok(vec![]));
    let r = world.capsule(0).export_with(
        Arc::new(servant) as Arc<dyn Servant>,
        ExportConfig {
            layers: vec![guard.clone() as Arc<dyn odp_core::ServerLayer>],
            discipline: odp_core::SyncDiscipline::Serialized,
        },
    );
    let binding = world.capsule(1).bind_with(
        r,
        TransparencyPolicy::default().with_layer(AuthLayer::new(alice, "svc")),
    );
    for _ in 0..5 {
        binding.interrogate("f", vec![]).unwrap();
    }
    assert_eq!(guard.admitted.load(Ordering::Relaxed), 5);
}
