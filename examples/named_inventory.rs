//! Named persistent objects: the full §2.2 lookup chain — a user-given
//! name resolves through the directory to a UID, the UID binds to replicas,
//! and everything (naming included) is transactional.
//!
//! Models a small warehouse: replicated KvMap shelves registered under
//! human-readable names, plus an account for the till. Creation-with-naming
//! is atomic, and renames roll back with their action.
//!
//! ```text
//! cargo run --example named_inventory
//! ```

use groupview::{Account, AccountOp, KvMap, KvOp, NodeId, ReplicationPolicy, System};

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sys = System::builder(5)
        .nodes(7)
        .policy(ReplicationPolicy::Active)
        .build();
    let shelf_nodes = [n(1), n(2), n(3)];

    // Create named objects; name + databases + initial states commit as one
    // atomic action each.
    for name in ["shelves/tools", "shelves/paint"] {
        sys.create_typed_named(name, KvMap::new(), &shelf_nodes, &shelf_nodes)?;
        println!("created {name}");
    }
    sys.create_typed_named("till", Account::new(0), &shelf_nodes, &shelf_nodes)?;
    println!("created till");

    // A name collision aborts atomically — nothing is half-created.
    let err = sys
        .create_typed_named("till", Account::new(9), &shelf_nodes, &shelf_nodes)
        .unwrap_err();
    println!("duplicate 'till' refused: {err}");

    // Stock the shelves and take payment in one atomic action, all via
    // names (each lookup is a nested action of the sale). `bind_by_name`
    // resolves, activates, and hands back a typed handle in one step.
    let clerk = sys.client(n(5));
    let mut sale = clerk.begin().with_replicas(2);
    let tools = sale.bind_by_name::<KvMap>("shelves/tools")?;
    let till = sale.bind_by_name::<Account>("till")?;
    sale.invoke(&tools, KvOp::Put("hammer".into(), "3 in stock".into()))?;
    sale.invoke(&till, AccountOp::Deposit(25))?;
    sale.commit()?;
    println!("sale committed: stocked hammers, took 25 into the till");

    // A crash between actions does not disturb names or state.
    sys.sim().crash(n(1));
    println!("n1 crashed");

    let mut audit = clerk.begin_read().with_replicas(1);
    let tools = audit.bind_by_name::<KvMap>("shelves/tools")?;
    let till = audit.bind_by_name::<Account>("till")?;
    let stock = audit.invoke(&tools, KvOp::Get("hammer".into()))?;
    let balance = audit.invoke(&till, AccountOp::Balance)?;
    audit.commit()?;
    println!(
        "after the crash: hammer -> {:?}, till -> {balance}",
        stock.value().unwrap_or("")
    );

    // Renames are transactional too: abort undoes them.
    let tx = sys.tx();
    let rename = tx.begin_top(n(0));
    let dir = sys.directory().local();
    let uid = dir.lookup(rename, "shelves/paint")?;
    dir.unbind_name(rename, "shelves/paint")?;
    dir.bind_name(rename, "shelves/decorating", uid)?;
    tx.abort(rename);
    println!(
        "rename aborted; directory still has: {:?}",
        sys.directory().local().names()
    );
    assert!(sys
        .directory()
        .local()
        .names()
        .contains(&"shelves/paint".to_string()));
    Ok(())
}
