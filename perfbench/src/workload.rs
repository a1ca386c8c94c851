//! The three workloads. Each is a closed loop in one OS thread: a logical
//! client starts its next action only after the previous one committed or
//! aborted, and every action goes through `Client::begin` → `Tx::invoke` →
//! `Tx::commit`.

use crate::trace::{Call, Tracer};
use groupview::{
    Account, AccountOp, Client, Counter, CounterOp, Handle, NetConfig, NodeId, ReplicationPolicy,
    System, Tx, Uid,
};
use std::time::Instant;

/// Starting balance of every account: large enough that no withdrawal in
/// a run is refused for lack of funds.
pub const INITIAL_BALANCE: u64 = 1_000_000;
/// `CounterOp::Add(1)` calls per `counter_long` action.
pub const ADDS_PER_ACTION: u32 = 32;
/// Largest amount one transfer moves.
const MAX_AMOUNT: u64 = 100;
/// Share of `read_mostly_warm` actions that are one-account reads, in %.
const READ_PERCENT: u64 = 90;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CounterLong,
    ReadMostlyWarm,
    TransferCrash,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::CounterLong, Kind::ReadMostlyWarm, Kind::TransferCrash];

    pub fn name(self) -> &'static str {
        match self {
            Kind::CounterLong => "counter_long",
            Kind::ReadMostlyWarm => "read_mostly_warm",
            Kind::TransferCrash => "transfer_crash",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The world seed (network jitter, the program's own draws) is fixed
    /// per workload; the workload seed drives only the benchmark's picks.
    pub fn world_seed(self) -> u64 {
        match self {
            Kind::CounterLong => 1101,
            Kind::ReadMostlyWarm => 1103,
            Kind::TransferCrash => 1104,
        }
    }

    /// Actions per second this workload ran at on the seed commit (2-core
    /// reference box); `--seconds` times this is a run's action budget.
    fn nominal_rate(self) -> usize {
        match self {
            Kind::CounterLong => 9_000,
            Kind::ReadMostlyWarm => 3_000,
            Kind::TransferCrash => 19_000,
        }
    }
}

/// How big a run is.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Objects created (counters or accounts).
    pub population: usize,
    /// Logical clients taking turns call by call.
    pub clients: usize,
    /// Rounds per run: each builds a fresh world (`setup_s` is the median
    /// set-up) and measures `actions` on it, so memory stays bounded by one
    /// round while the run measures longer.
    pub rounds: usize,
    /// Measured actions per round.
    pub actions: usize,
    /// Untimed actions after creation, before a round's window.
    pub warmup: usize,
    /// Actions per sample of throughput and latency, per fault-schedule
    /// window (`transfer_crash`) and per traced-run block.
    pub window: usize,
}

impl Size {
    pub fn full(kind: Kind, seconds: u64) -> Size {
        const WINDOW: usize = 4000;
        let budget = kind.nominal_rate() * seconds as usize;
        // Rounds of about two nominal seconds keep one world's memory the
        // same however long the run; `read_mostly_warm` has a set-up of
        // seconds, so it runs three longer rounds instead. Whole windows,
        // so every crash is followed by its recovery.
        let (population, clients, windows) = match kind {
            Kind::CounterLong => (1_000, 1, 5),
            Kind::TransferCrash => (10_000, 1, 10),
            Kind::ReadMostlyWarm => (30_000, 4, (budget / 3).div_ceil(WINDOW)),
        };
        let actions = windows.max(2) * WINDOW;
        Size {
            population,
            clients,
            rounds: ((budget as f64 / actions as f64).round() as usize).max(2),
            actions,
            warmup: 500,
            window: WINDOW,
        }
    }

    /// A seconds-long size for the benchmark's own tests.
    pub fn tiny(kind: Kind) -> Size {
        Size {
            population: if kind == Kind::ReadMostlyWarm { 60 } else { 20 },
            clients: if kind == Kind::ReadMostlyWarm { 4 } else { 1 },
            rounds: 2,
            actions: 400,
            warmup: 20,
            window: 100,
        }
    }
}

/// SplitMix64: the benchmark's own generator, seeded by `--seed`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// What one action does; indices are into the world's population.
#[derive(Debug, Clone, Copy)]
enum Plan {
    Adds { obj: usize },
    Transfer { from: usize, to: usize, amount: u64 },
    Read { obj: usize },
}

impl Plan {
    fn ops(self) -> usize {
        match self {
            Plan::Adds { .. } => ADDS_PER_ACTION as usize,
            Plan::Transfer { .. } => 2,
            Plan::Read { .. } => 1,
        }
    }

    /// Whether op `i` is the action's first touch of its object.
    fn first_touch(self, i: usize) -> bool {
        match self {
            Plan::Adds { .. } | Plan::Read { .. } => i == 0,
            Plan::Transfer { .. } => true,
        }
    }

    fn objects(self) -> [Option<usize>; 2] {
        match self {
            Plan::Adds { obj } | Plan::Read { obj } => [Some(obj), None],
            Plan::Transfer { from, to, .. } => [Some(from), Some(to)],
        }
    }
}

/// An action between `begin` and its commit or abort.
struct InFlight {
    tx: Tx,
    /// Ops of `started.plan` done so far.
    next: usize,
    started: Started,
}

/// What `begin` recorded about an action.
#[derive(Clone, Copy)]
struct Started {
    plan: Plan,
    span: u64,
    start: Instant,
    sim_start_us: u64,
}

/// Per-action samples of one measured window.
#[derive(Debug, Default)]
pub struct Samples {
    /// Wall ns from `begin()` to the commit or abort returning.
    pub wall_ns: Vec<u64>,
    /// Virtual µs charged to the client's account over the same span.
    pub sim_us: Vec<u64>,
    pub committed: u64,
    pub failed: u64,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        Samples {
            wall_ns: Vec::with_capacity(n),
            sim_us: Vec::with_capacity(n),
            ..Samples::default()
        }
    }

    pub fn attempted(&self) -> u64 {
        self.committed + self.failed
    }
}

/// A built world: the system, its population and the clients' handles.
pub struct World {
    pub sys: System,
    kind: Kind,
    size: Size,
    rng: Rng,
    uids: Vec<Uid>,
    /// Nodes holding stores (and servers).
    store_nodes: Vec<NodeId>,
    clients: Vec<Client>,
    counters: Vec<Vec<Handle<Counter>>>,
    accounts: Vec<Vec<Handle<Account>>>,
    inflight: Vec<Option<InFlight>>,
    /// Whether finished actions advance the fault schedule.
    faults: bool,
    /// Actions finished under the fault schedule (indexes its windows).
    scheduled: usize,
    crashed: Option<NodeId>,
    /// Committed actions since creation, warm-up included.
    committed_total: u64,
    /// `try_passivate` calls that found the object still in use.
    pub passivate_refused: u64,
    /// Objects `recover_node` left to retry.
    pub recover_deferred: u64,
}

impl World {
    /// Builds the world, creates the population and warms it up; `round`
    /// and `seed` together seed the benchmark's picks.
    pub fn setup(kind: Kind, size: Size, seed: u64, round: usize) -> World {
        let sys = System::builder(kind.world_seed())
            .nodes(if kind == Kind::CounterLong { 5 } else { 7 })
            .policy(ReplicationPolicy::Active)
            .net(NetConfig::default())
            .build();
        let nodes = sys.sim().nodes();
        let client_node = *nodes.last().expect("world has nodes");
        let (store_nodes, counters) = match kind {
            Kind::CounterLong => (nodes[1..4].to_vec(), true),
            _ => (nodes[1..6].to_vec(), false),
        };
        let mut uids = Vec::with_capacity(size.population);
        for i in 0..size.population {
            let uid = if counters {
                sys.create_typed(Counter::new(0), &store_nodes, &store_nodes)
                    .map(|t| t.uid())
            } else {
                // Three staggered replicas per account across the bank.
                let replicas: Vec<NodeId> = (0..3)
                    .map(|j| store_nodes[(i + j) % store_nodes.len()])
                    .collect();
                sys.create_typed(Account::new(INITIAL_BALANCE), &replicas, &replicas)
                    .map(|t| t.uid())
            };
            uids.push(uid.expect("creating the population cannot fail on a healthy world"));
        }
        let clients: Vec<Client> = (0..size.clients).map(|_| sys.client(client_node)).collect();
        let open_all = |c: &Client| -> (Vec<Handle<Counter>>, Vec<Handle<Account>>) {
            if counters {
                (uids.iter().map(|&u| c.open(u)).collect(), Vec::new())
            } else {
                (Vec::new(), uids.iter().map(|&u| c.open(u)).collect())
            }
        };
        let (counters, accounts) = clients.iter().map(open_all).unzip();
        let mut world = World {
            sys,
            kind,
            size,
            rng: Rng(seed ^ (round as u64).wrapping_mul(0xA076_1D64_78BD_642F)),
            uids,
            store_nodes,
            inflight: (0..size.clients).map(|_| None).collect(),
            faults: false,
            clients,
            counters,
            accounts,
            scheduled: 0,
            crashed: None,
            committed_total: 0,
            passivate_refused: 0,
            recover_deferred: 0,
        };
        if kind == Kind::ReadMostlyWarm {
            // Activate every account once, so the resident replica set is
            // constant while timing.
            for h in &world.accounts[0] {
                let mut tx = world.clients[0].begin();
                tx.invoke(h, AccountOp::Balance)
                    .expect("warm-up read cannot fail");
                tx.commit().expect("warm-up commit cannot fail");
            }
        }
        let mut off = Tracer::new(0);
        let mut scratch = Samples::with_capacity(size.warmup);
        world.run(size.warmup, &mut off, &mut scratch, None);
        world.faults = kind == Kind::TransferCrash;
        world
    }

    fn next_plan(&mut self) -> Plan {
        let n = self.size.population;
        let pair = |rng: &mut Rng| {
            let from = rng.below(n);
            let to = (from + 1 + rng.below(n - 1)) % n;
            let amount = 1 + rng.below(MAX_AMOUNT as usize) as u64;
            Plan::Transfer { from, to, amount }
        };
        match self.kind {
            Kind::CounterLong => Plan::Adds {
                obj: self.rng.below(n),
            },
            Kind::TransferCrash => pair(&mut self.rng),
            Kind::ReadMostlyWarm => {
                if (self.rng.next() % 100) < READ_PERCENT {
                    Plan::Read {
                        obj: self.rng.below(n),
                    }
                } else {
                    pair(&mut self.rng)
                }
            }
        }
    }

    /// Runs `actions` actions (clients take turns call by call), stopping
    /// early only past `deadline`.
    pub fn run(
        &mut self,
        actions: usize,
        tracer: &mut Tracer,
        out: &mut Samples,
        deadline: Option<Instant>,
    ) {
        let mut started = 0;
        let mut limit = actions;
        let mut turn = 0;
        loop {
            let idle = self.inflight[turn].is_none();
            if idle
                && started < limit
                && started.is_multiple_of(256)
                && deadline.is_some_and(|d| Instant::now() >= d)
            {
                limit = started;
            }
            if !idle || started < limit {
                started += usize::from(idle);
                self.step(turn, tracer, out);
            }
            if started >= limit && self.inflight.iter().all(Option::is_none) {
                return;
            }
            turn = (turn + 1) % self.clients.len();
        }
    }

    /// One public call for client `c`: begin, the next invoke, or commit.
    fn step(&mut self, c: usize, tracer: &mut Tracer, out: &mut Samples) {
        let track = c as u32 + 1;
        let sim = self.sys.sim().clone();
        let account = c as u64 + 1;
        sim.set_active_account(Some(account));
        let Some(mut f) = self.inflight[c].take() else {
            let started = Started {
                plan: self.next_plan(),
                span: tracer.span_id(),
                start: Instant::now(),
                sim_start_us: sim.account_cost(account).latency.as_micros(),
            };
            let client = &self.clients[c];
            let tx = tracer.call(Call::Begin, started.span, track, || client.begin());
            self.inflight[c] = Some(InFlight {
                tx,
                next: 0,
                started,
            });
            return;
        };
        let (plan, span) = (f.started.plan, f.started.span);
        let action = f.tx.action().raw();
        if f.next < plan.ops() {
            let call = if plan.first_touch(f.next) {
                Call::Activate
            } else {
                Call::Invoke
            };
            let i = f.next;
            if tracer.call(call, span, track, || self.invoke(c, &mut f.tx, plan, i)) {
                f.next += 1;
                self.inflight[c] = Some(f);
            } else {
                tracer.call(Call::Abort, span, track, || f.tx.abort());
                self.finish(c, action, f.started, false, tracer, out);
            }
            return;
        }
        let committed = tracer.call(Call::Commit, span, track, || f.tx.commit().is_ok());
        self.finish(c, action, f.started, committed, tracer, out);
    }

    fn invoke(&self, c: usize, tx: &mut Tx, plan: Plan, i: usize) -> bool {
        match plan {
            Plan::Adds { obj } => tx.invoke(&self.counters[c][obj], CounterOp::Add(1)).is_ok(),
            Plan::Read { obj } => tx
                .invoke(&self.accounts[c][obj], AccountOp::Balance)
                .is_ok(),
            Plan::Transfer { from, amount, .. } if i == 0 => matches!(
                tx.invoke(&self.accounts[c][from], AccountOp::Withdraw(amount)),
                Ok(r) if r != AccountOp::REFUSED
            ),
            Plan::Transfer { to, amount, .. } => tx
                .invoke(&self.accounts[c][to], AccountOp::Deposit(amount))
                .is_ok(),
        }
    }

    fn finish(
        &mut self,
        c: usize,
        action: u64,
        started: Started,
        committed: bool,
        tracer: &mut Tracer,
        out: &mut Samples,
    ) {
        let Started {
            plan,
            span,
            start,
            sim_start_us,
        } = started;
        let end = Instant::now();
        let sim_us = self
            .sys
            .sim()
            .account_cost(c as u64 + 1)
            .latency
            .as_micros();
        out.wall_ns.push((end - start).as_nanos() as u64);
        out.sim_us.push(sim_us - sim_start_us);
        if committed {
            out.committed += 1;
            self.committed_total += 1;
        } else {
            out.failed += 1;
        }
        let track = c as u32 + 1;
        tracer.action(span, action, track, start, end);
        if self.kind == Kind::TransferCrash {
            // Objects not in use stay passive: the next touch binds again.
            for obj in plan.objects().into_iter().flatten() {
                let uid = self.uids[obj];
                let sys = &self.sys;
                if !tracer.call(Call::Passivate, 0, track, || sys.try_passivate(uid)) {
                    self.passivate_refused += 1;
                }
            }
        }
        if self.faults {
            self.scheduled += 1;
            self.fault_schedule(tracer);
        }
    }

    /// Halfway through each window one bank node (round-robin) crashes;
    /// at the window's end `recover_node` brings it back.
    fn fault_schedule(&mut self, tracer: &mut Tracer) {
        let w = self.size.window;
        if self.scheduled % w == w / 2 {
            let node = self.store_nodes[(self.scheduled / w) % self.store_nodes.len()];
            self.sys.sim().crash(node);
            self.crashed = Some(node);
        } else if self.scheduled.is_multiple_of(w) {
            if let Some(node) = self.crashed.take() {
                let sys = &self.sys;
                let report = tracer.call(Call::Recover, 0, 0, || sys.recovery().recover_node(node));
                self.recover_deferred +=
                    (report.insert_deferred.len() + report.refresh_deferred.len()) as u64;
            }
        }
    }

    /// The latest committed state of `uid` on any up store.
    fn latest(&self, uid: Uid) -> Option<Vec<u8>> {
        self.store_nodes
            .iter()
            .filter_map(|&n| {
                self.sys
                    .stores()
                    .with(n, |s| s.read(uid).ok())
                    .ok()
                    .flatten()
            })
            .max_by_key(|s| s.version)
            .map(|s| s.data.as_slice().to_vec())
    }

    /// In-doubt 2PC intents left on every store.
    pub fn indoubt(&self) -> usize {
        self.store_nodes
            .iter()
            .map(|&n| {
                self.sys
                    .stores()
                    .with(n, |s| s.indoubt().len())
                    .unwrap_or(0)
            })
            .sum()
    }

    /// The output checks, run outside the timed windows.
    pub fn check(&self) -> Result<(), String> {
        if self.crashed.is_some() {
            return Err("a node is still crashed at the end of a window".into());
        }
        let mut total: i128 = 0;
        for &uid in &self.uids {
            let data = self
                .latest(uid)
                .ok_or_else(|| format!("no store holds {uid}"))?;
            total += if self.kind == Kind::CounterLong {
                i128::from(Counter::decode(&data).value())
            } else {
                i128::from(Account::decode(&data).balance())
            };
        }
        let expected: i128 = if self.kind == Kind::CounterLong {
            i128::from(ADDS_PER_ACTION) * i128::from(self.committed_total)
        } else {
            i128::from(INITIAL_BALANCE) * self.uids.len() as i128
        };
        if total != expected {
            return Err(format!(
                "{} total is {total}, expected {expected}",
                if self.kind == Kind::CounterLong {
                    "counter"
                } else {
                    "balance"
                }
            ));
        }
        if self.kind == Kind::TransferCrash {
            let left = self.indoubt();
            if left != 0 {
                return Err(format!("{left} in-doubt intents left after recovery"));
            }
        }
        Ok(())
    }
}
