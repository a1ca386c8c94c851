//! Workspace smoke test: the root-crate quickstart, end to end.
//!
//! This is the façade's doc example as a plain integration test, so a
//! broken workspace wiring (manifests, re-exports, cross-crate `From`
//! chains) fails here with a readable assertion rather than a doctest
//! harness error.

use groupview::{Counter, CounterOp, ReplicationPolicy, System};

#[test]
fn quickstart_runs_end_to_end() -> Result<(), Box<dyn std::error::Error>> {
    // A five-node world; node 0 hosts the naming service.
    let sys = System::builder(42)
        .nodes(5)
        .policy(ReplicationPolicy::Active)
        .build();
    let nodes = sys.sim().nodes();

    // A counter stored on three nodes, servable by the same three.
    let uid = sys.create_typed(Counter::new(0), &nodes[1..4], &nodes[1..4])?;

    // A client runs an atomic action against two active replicas, through
    // a typed transaction.
    let client = sys.client(nodes[4]);
    let counter = uid.open(&client);
    let mut tx = client.begin().with_replicas(2);
    assert_eq!(tx.invoke(&counter, CounterOp::Add(10))?, 10);
    tx.commit()?;

    // A crash of one replica is masked; the state is safe on every store.
    sys.sim().crash(nodes[1]);
    let mut tx = client.begin_read().with_replicas(2);
    assert_eq!(tx.invoke(&counter, CounterOp::Get)?, 10);
    tx.commit()?;
    Ok(())
}
