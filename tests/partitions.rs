//! Network partitions: the paper's §2.3(2)(i) notes active replication
//! keeps an object available "in the absence of network partitions
//! preventing communication". These tests pin down what partitions do to
//! the binding machinery — and that consistency survives them.

use groupview::{Counter, CounterOp, NodeId, ReplicationPolicy, System};

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

fn build(seed: u64) -> (System, groupview::Uid) {
    let sys = System::builder(seed)
        .nodes(6)
        .policy(ReplicationPolicy::Active)
        .build();
    let uid = sys
        .create_object(
            Box::new(Counter::new(0)),
            &[n(1), n(2), n(3)],
            &[n(1), n(2), n(3)],
        )
        .expect("create");
    (sys, uid)
}

#[test]
fn client_partitioned_from_naming_service_cannot_bind() {
    let (sys, uid) = build(201);
    let client = sys.client(n(4));
    let counter = client.open::<Counter>(uid);
    sys.sim().partition(n(4), n(0));
    let mut tx = client.begin().with_replicas(2);
    let err = tx.bind(&counter).expect_err("naming unreachable");
    assert!(matches!(err, groupview::ActivateError::Bind(_)));
    tx.abort();
    // Healing restores service.
    sys.sim().heal(n(4), n(0));
    let mut tx = client.begin().with_replicas(2);
    tx.invoke(&counter, CounterOp::Add(1))
        .expect("bind after heal");
    tx.commit().expect("commit");
}

#[test]
fn client_partitioned_from_a_server_binds_elsewhere() {
    let (sys, uid) = build(202);
    let client = sys.client(n(4));
    let counter = client.open::<Counter>(uid);
    // The client cannot reach n1, but n2/n3 still serve it.
    sys.sim().partition(n(4), n(1));
    let mut tx = client.begin().with_replicas(2);
    let group = tx.bind(&counter).expect("bind around partition");
    assert!(
        !group.servers.contains(&n(1)),
        "partitioned server probed dead"
    );
    assert_eq!(group.servers.len(), 2);
    tx.invoke(&counter, CounterOp::Add(5)).expect("invoke");
    tx.commit().expect("commit");
}

#[test]
fn store_partitioned_at_commit_gets_excluded_then_reincluded() {
    let (sys, uid) = build(203);
    let client = sys.client(n(4));
    let counter = client.open::<Counter>(uid);
    let mut tx = client.begin().with_replicas(2);
    tx.invoke(&counter, CounterOp::Add(9)).expect("invoke");
    // The commit coordinator (the client's node) loses contact with n3.
    sys.sim().partition(n(4), n(3));
    tx.commit().expect("commit without n3");
    let st = sys.naming().state_db.entry(uid).expect("entry");
    assert_eq!(
        st.stores,
        vec![n(1), n(2)],
        "unreachable store excluded at commit"
    );
    // n3's store is now stale; after the partition heals, the recovery
    // protocol refreshes and re-includes it (the node never crashed, but
    // the same §4.2 routine applies).
    sys.sim().heal(n(4), n(3));
    let report = sys.recovery().recover_store(n(3));
    assert_eq!(report.included, vec![uid]);
    let st = sys.naming().state_db.entry(uid).expect("entry");
    assert_eq!(st.stores.len(), 3);
    let state = sys.stores().read_local(n(3), uid).expect("state");
    assert_eq!(
        Counter::decode(&state.data).value(),
        9,
        "refreshed to latest"
    );
}

#[test]
fn partition_between_groups_blocks_cross_traffic_only() {
    let (sys, uid) = build(204);
    // Split: {naming, servers} | {client node 4}; client 5 unaffected.
    sys.sim()
        .partition_groups(&[n(0), n(1), n(2), n(3)], &[n(4)]);
    let cut_off = sys.client(n(4));
    let counter = cut_off.open::<Counter>(uid);
    let mut tx = cut_off.begin().with_replicas(2);
    assert!(tx.bind(&counter).is_err());
    tx.abort();

    let mut tx = sys.client(n(5)).begin().with_replicas(2);
    tx.invoke(&counter, CounterOp::Add(2))
        .expect("unaffected side");
    tx.commit().expect("commit");

    sys.sim().heal_all();
    let mut tx = cut_off.begin().with_replicas(2);
    assert_eq!(tx.invoke(&counter, CounterOp::Get).expect("after heal"), 2);
    tx.commit().expect("commit");
}

#[test]
fn no_stale_reads_across_partition_heal_cycles() {
    let (sys, uid) = build(205);
    let mut expected = 0i64;
    for round in 0..8u32 {
        // Rotate a partition between the client node and one store node.
        let victim = n(1 + (round % 3));
        sys.sim().partition(n(4), victim);
        let client = sys.client(n(4));
        let counter = client.open::<Counter>(uid);
        let mut tx = client.begin().with_replicas(2);
        match tx.invoke(&counter, CounterOp::Add(1)) {
            Ok(_) => expected += i64::from(tx.commit().is_ok()),
            Err(_) => tx.abort(),
        }
        sys.sim().heal_all();
        // Heal-time recovery for whatever got excluded.
        for store in [n(1), n(2), n(3)] {
            sys.recovery().recover_store(store);
        }
        // Every listed store must hold the latest committed value.
        let st = sys.naming().state_db.entry(uid).expect("entry");
        for &node in &st.stores {
            let state = sys.stores().read_local(node, uid).expect("state");
            assert_eq!(
                Counter::decode(&state.data).value(),
                expected,
                "round {round}: stale store {node} listed in St"
            );
        }
    }
    assert!(expected > 0, "some rounds must commit");
}

#[test]
fn cohort_partitioned_from_coordinator_is_expelled_not_stale() {
    // Coordinator-cohort: a cohort that cannot receive checkpoints must not
    // survive in the activation set with stale state.
    let sys = System::builder(206)
        .nodes(6)
        .policy(ReplicationPolicy::CoordinatorCohort)
        .build();
    let uid = sys
        .create_object(
            Box::new(Counter::new(0)),
            &[n(1), n(2), n(3)],
            &[n(1), n(2), n(3)],
        )
        .expect("create");
    let client = sys.client(n(4));
    let counter = client.open::<Counter>(uid);
    // Action 1 activates all three; coordinator is n1.
    let mut tx = client.begin().with_replicas(3);
    let group = tx.bind(&counter).expect("activate");
    assert_eq!(group.servers, vec![n(1), n(2), n(3)]);
    // n3 gets partitioned from the coordinator: it misses the checkpoint.
    sys.sim().partition(n(1), n(3));
    tx.invoke(&counter, CounterOp::Add(5)).expect("invoke");
    tx.commit().expect("commit");
    // n3 was expelled from the activation (unloaded); a new action joins
    // only the fresh members and never sees stale state through n3.
    sys.sim().heal_all();
    let mut tx = client.begin().with_replicas(3);
    assert_eq!(
        tx.invoke(&counter, CounterOp::Get).expect("activate again"),
        5,
        "no stale cohort"
    );
    tx.commit().expect("commit");
}
