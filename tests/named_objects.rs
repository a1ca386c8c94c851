//! The name directory end to end: names → UIDs → bound replicas (§2.2's
//! full lookup chain), including atomicity of creation-with-naming.

use groupview::{
    Account, AccountOp, DbError, KvMap, KvOp, KvReply, NodeId, ReplicationPolicy, System,
};

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

fn build() -> System {
    System::builder(401)
        .nodes(6)
        .policy(ReplicationPolicy::Active)
        .build()
}

#[test]
fn create_named_lookup_invoke_roundtrip() {
    let sys = build();
    let uid = sys
        .create_typed_named(
            "accounts/alice",
            Account::new(500),
            &[n(1), n(2)],
            &[n(1), n(2)],
        )
        .expect("create named");

    let mut tx = sys.client(n(4)).begin().with_replicas(2);
    let account = tx
        .bind_by_name::<Account>("accounts/alice")
        .expect("activate by name");
    assert_eq!(account.uid(), uid.uid());
    let balance = tx
        .invoke(&account, AccountOp::Withdraw(100))
        .expect("withdraw");
    assert_eq!(balance, 400);
    tx.commit().expect("commit");
}

#[test]
fn unknown_names_fail_cleanly() {
    let sys = build();
    let mut tx = sys.client(n(4)).begin().with_replicas(1);
    let err = tx
        .bind_by_name::<Account>("no/such/object")
        .expect_err("unknown name");
    assert!(matches!(
        err,
        groupview::ActivateError::Db(DbError::NotFound(_))
    ));
    tx.abort();
}

#[test]
fn name_collisions_abort_creation_atomically() {
    let sys = build();
    sys.create_typed_named("kv/config", KvMap::new(), &[n(1)], &[n(1)])
        .expect("first");
    let objects_before = sys.naming().server_db.uids().len();
    let err = sys
        .create_typed_named("kv/config", KvMap::new(), &[n(2)], &[n(2)])
        .expect_err("name taken");
    assert!(matches!(err, DbError::AlreadyExists(_)));
    // The failed creation left nothing behind: no object entries, no name.
    assert_eq!(sys.naming().server_db.uids().len(), objects_before);
    assert_eq!(
        sys.directory().local().names(),
        vec!["kv/config".to_string()]
    );
}

#[test]
fn names_survive_naming_node_crash_and_recovery() {
    let sys = build();
    sys.create_typed_named("kv/session", KvMap::new(), &[n(1), n(2)], &[n(1), n(2)])
        .expect("create");
    // Write through the name.
    let client = sys.client(n(4));
    let mut tx = client.begin().with_replicas(2);
    let session = tx.bind_by_name::<KvMap>("kv/session").expect("activate");
    tx.invoke(&session, KvOp::Put("user".into(), "mcl".into()))
        .expect("put");
    tx.commit().expect("commit");

    // The naming node crashes: lookups fail while it is down...
    sys.sim().crash(n(0));
    let mut tx = client.begin().with_replicas(2);
    assert!(tx.bind_by_name::<KvMap>("kv/session").is_err());
    tx.abort();

    // ...and work again after recovery (directory state is in the service's
    // persistent object, which our simulation keeps with the service).
    sys.recovery().recover_node(n(0));
    let mut tx = client.begin().with_replicas(2);
    let session = tx
        .bind_by_name::<KvMap>("kv/session")
        .expect("activate after recovery");
    let value = tx.invoke(&session, KvOp::Get("user".into())).expect("get");
    assert_eq!(value, KvReply::Value("mcl".into()));
    tx.commit().expect("commit");
}

#[test]
fn directory_updates_are_transactional_with_the_client_action() {
    let sys = build();
    let uid = sys
        .create_typed_named("tmp/a", KvMap::new(), &[n(1)], &[n(1)])
        .expect("create")
        .uid();
    // Rename within an action, then abort: the rename is undone.
    let tx = sys.tx();
    let action = tx.begin_top(n(0));
    let dir = sys.directory().local();
    assert!(dir.unbind_name(action, "tmp/a").unwrap());
    dir.bind_name(action, "tmp/b", uid).unwrap();
    tx.abort(action);
    assert_eq!(dir.names(), vec!["tmp/a".to_string()]);
    // And committed when the action commits.
    let action = tx.begin_top(n(0));
    assert!(dir.unbind_name(action, "tmp/a").unwrap());
    dir.bind_name(action, "tmp/b", uid).unwrap();
    tx.commit(action).unwrap();
    assert_eq!(dir.names(), vec!["tmp/b".to_string()]);
}
