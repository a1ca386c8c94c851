//! Quickstart: create a replicated persistent object, mutate it inside an
//! atomic action, crash a replica, and show the object stays available with
//! the committed state.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use groupview::{Counter, CounterOp, ReplicationPolicy, System};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A five-node world. Node n0 hosts the naming service (the paper's
    // "group view database"); n1-n3 can run servers and hold object stores;
    // n4 runs the client application.
    let sys = System::builder(42)
        .nodes(5)
        .policy(ReplicationPolicy::Active)
        .build();
    let nodes = sys.sim().nodes();
    let (servers, client_node) = (&nodes[1..4], nodes[4]);

    // Create a persistent counter: Sv = St = {n1, n2, n3}. The typed uid
    // remembers the class, so the handle below needs no turbofish.
    let uid = sys.create_typed(Counter::new(0), servers, servers)?;
    println!("created {uid}: Sv = St = {{n1, n2, n3}}");

    // First atomic action: bind two replicas and add 10. A transaction
    // encodes typed operations and decodes replies for us.
    let client = sys.client(client_node);
    let counter = uid.open(&client);
    let mut tx = client.begin().with_replicas(2);
    let servers = tx.bind(&counter)?.servers.clone();
    println!("bound to servers {servers:?} (|Sv'| = 2)");
    let value = tx.invoke(&counter, CounterOp::Add(10))?;
    println!("Add(10) -> {value}");
    tx.commit()?;
    println!("committed; every store in St now holds version 1");

    // Crash one of the bound replicas. Active replication masks it.
    sys.sim().crash(servers[0]);
    println!(
        "crashed {} — the binding service routes around it",
        servers[0]
    );

    // A read-only transaction binds read-only — it joins the live
    // activation (here the surviving replica) — and takes read locks.
    let mut tx = client.begin_read().with_replicas(2);
    let servers = tx.bind(&counter)?.servers.clone();
    let value = tx.invoke(&counter, CounterOp::Get)?;
    println!("after the crash: bound {servers:?}, Get -> {value}");
    tx.commit()?;

    // Batched invocation: three ops in one wire frame and one replica
    // round; replies are index-aligned with the ops. The one write op
    // makes the whole batch take the write lock.
    let mut tx = client.begin().with_replicas(2);
    let replies = tx.invoke_batch(
        &counter,
        &[CounterOp::Get, CounterOp::Add(5), CounterOp::Get],
    )?;
    println!("batch [Get, Add(5), Get] -> {replies:?}");
    tx.commit()?;

    // The simulated run is deterministic: same seed, same story.
    println!(
        "virtual time {} / {} messages delivered",
        sys.sim().now(),
        sys.sim().counters().delivered
    );
    Ok(())
}
