//! Bank transfers: atomic actions across several replicated accounts, with
//! crash injection — the classic motivating workload for the
//! object-and-action model (paper §2.2).
//!
//! Runs a batch of transfers between replicated accounts while servers crash
//! and recover, then audits the books: despite failures and aborts, the
//! total balance is conserved, because every transfer is an atomic action.
//! Each transfer is a typed [`Tx`]: `begin` → `invoke` both legs → `commit`
//! drives one store two-phase commit over both accounts; any error path
//! just drops the builder, which replays the undo arena. The audit asserts
//! conservation and the process exits non-zero if the books don't balance,
//! so CI can run this example as a check.
//!
//! ```text
//! cargo run --example bank_transfers
//! ```

use groupview::{Account, AccountOp, Handle, NodeId, ReplicationPolicy, System, Tx, TypedUid};

const ACCOUNTS: usize = 4;
const INITIAL_BALANCE: u64 = 1_000;
const TRANSFERS: usize = 60;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sys = System::builder(7)
        .nodes(8)
        .policy(ReplicationPolicy::Active)
        .build();
    let nodes = sys.sim().nodes();
    let bank_nodes = &nodes[1..5]; // n1-n4 hold servers and stores
    let teller_node = nodes[6];

    // Open the accounts, replicated across three nodes each (staggered).
    let mut accounts: Vec<TypedUid<Account>> = Vec::new();
    for i in 0..ACCOUNTS {
        let replicas: Vec<NodeId> = (0..3)
            .map(|j| bank_nodes[(i + j) % bank_nodes.len()])
            .collect();
        let uid = sys.create_typed(Account::new(INITIAL_BALANCE), &replicas, &replicas)?;
        accounts.push(uid);
        println!("account {i}: {uid} on {replicas:?}");
    }

    let teller = sys.client(teller_node);
    let tills: Vec<Handle<Account>> = accounts.iter().map(|uid| uid.open(&teller)).collect();
    let mut committed = 0u32;
    let mut aborted = 0u32;

    for round in 0..TRANSFERS {
        // Crash and recover bank nodes as the batch runs.
        match round {
            15 => {
                println!("-- crash {} --", bank_nodes[0]);
                sys.sim().crash(bank_nodes[0]);
            }
            30 => {
                println!("-- crash {} --", bank_nodes[2]);
                sys.sim().crash(bank_nodes[2]);
            }
            40 => {
                println!("-- recover {} and {} --", bank_nodes[0], bank_nodes[2]);
                sys.recovery().recover_node(bank_nodes[0]);
                sys.recovery().recover_node(bank_nodes[2]);
            }
            _ => {}
        }

        let from = &tills[round % ACCOUNTS];
        let to = &tills[(round + 1) % ACCOUNTS];
        let amount = 10 + (round as u64 % 90);

        // One transfer = one typed transaction touching two replicated
        // objects; dropping `tx` on any early exit aborts it (the undo
        // arena replays in reverse), so no error path can leak a half-done
        // transfer.
        let mut tx: Tx = teller.begin().with_replicas(2);
        let outcome = (|| -> Result<bool, Box<dyn std::error::Error>> {
            if tx.invoke(from, AccountOp::Withdraw(amount))? == AccountOp::REFUSED {
                return Ok(false); // insufficient funds: roll back
            }
            tx.invoke(to, AccountOp::Deposit(amount))?;
            Ok(true)
        })();
        match outcome {
            Ok(true) => match tx.commit() {
                Ok(()) => committed += 1,
                Err(_) => aborted += 1,
            },
            Ok(false) | Err(_) => {
                aborted += 1; // tx drops here, aborting the action
            }
        }
    }

    println!("\n{committed} transfers committed, {aborted} aborted");

    // Audit: read every account and check conservation of money.
    let mut audit = sys.client(nodes[7]).begin_read().with_replicas(1);
    let mut total = 0u64;
    for (i, account) in accounts.iter().enumerate() {
        let balance = audit.invoke(account, AccountOp::Balance)?;
        println!("account {i}: balance {balance}");
        total += balance;
    }
    audit.commit()?;

    let expected = INITIAL_BALANCE * ACCOUNTS as u64;
    println!("total = {total} (expected {expected})");
    if total != expected {
        eprintln!("AUDIT FAILED: atomicity violated — money was created or destroyed");
        std::process::exit(1);
    }
    println!("books balance: every transfer was atomic despite {aborted} aborts");
    Ok(())
}
