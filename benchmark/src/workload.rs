//! Workloads, their seeded inputs, the fixtures they run on, the
//! closed-loop load driver and the correctness checks.

use crate::hist::Hist;
use crate::servants::{BenchCounter, Echo, Ledger, ACCOUNTS};
use crate::shims::{self, ClientShim, Parts, ServerProbe, ServerShim, SLOTS};
use odp::core::layers::AccessLayer;
use odp::core::{ClientLayer, ServerLayer};
use odp::prelude::*;
use odp::storage::{CheckpointPolicy, LoggingLayer, StableRepository, WriteAheadLog};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Load threads, one per core; each is one closed-loop client.
pub const CLIENTS: usize = 2;
/// Distinct seeded batches each `rpc_bulk` client cycles through.
const BATCHES: usize = 16;
const RECORDS: usize = 128;
const BLOB: usize = 4096;
/// Most announcements a fixture lets be sent and not yet delivered. A
/// co-located announcement runs on a thread of its own and passes
/// admission like a call. When the host stalls those threads, an
/// unbounded backlog overflows the admission queue (64), and calls are
/// shed. With at most 16 undelivered plus the 2 callers, the queue
/// cannot fill. Without a stall the backlog stays far below the limit.
const MAX_UNDELIVERED: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RpcSmall,
    RpcBulk,
    LedgerLocal,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "rpc_small" => Some(Self::RpcSmall),
            "rpc_bulk" => Some(Self::RpcBulk),
            "ledger_local" => Some(Self::LedgerLocal),
            _ => None,
        }
    }

    /// Operation names, indexed by [`Op::kind`].
    pub fn op_names(self) -> &'static [&'static str] {
        match self {
            Self::RpcSmall => &["add", "read"],
            Self::RpcBulk => &["echo"],
            Self::LedgerLocal => &["balance", "deposit", "audit"],
        }
    }

    /// Clients call from capsules of their own over SimNet; otherwise
    /// they call from inside the server's capsule (co-located).
    pub fn remote(self) -> bool {
        self != Self::LedgerLocal
    }

    /// Operations each client runs during set-up, before any timing. The
    /// remote workloads make more calls than the server's REX reply cache
    /// holds (4096), so it is full and evicting before measurement.
    fn warmup_ops(self) -> u64 {
        match self {
            Self::RpcSmall | Self::RpcBulk => 2_100,
            Self::LedgerLocal => 5_000,
        }
    }

    fn interface_type(self) -> InterfaceType {
        match self {
            Self::RpcSmall => BenchCounter::default().interface_type(),
            Self::RpcBulk => Echo.interface_type(),
            Self::LedgerLocal => Ledger::default().interface_type(),
        }
    }
}

/// SplitMix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Op {
    Add(i64),
    Read,
    Echo(usize),
    Balance(usize),
    Deposit(usize, i64),
    Audit(usize),
}

impl Op {
    /// Index into [`Workload::op_names`].
    pub fn kind(self) -> usize {
        match self {
            Op::Add(_) | Op::Echo(_) | Op::Balance(_) => 0,
            Op::Read | Op::Deposit(..) => 1,
            Op::Audit(_) => 2,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Op::Add(_) => "add",
            Op::Read => "read",
            Op::Echo(_) => "echo",
            Op::Balance(_) => "balance",
            Op::Deposit(..) => "deposit",
            Op::Audit(_) => "audit",
        }
    }

    fn announcement(self) -> bool {
        matches!(self, Op::Audit(_))
    }

    /// Operations that change servant state (the WAL logs `deposit`).
    fn mutating(self) -> bool {
        matches!(self, Op::Add(_) | Op::Deposit(..))
    }
}

/// One load thread's inputs and its model of the answers it must get.
pub struct Client {
    index: usize,
    rng: Rng,
    /// `rpc_small`: sum of this client's `add`s.
    pub added: i64,
    /// `rpc_bulk`: the seeded batches, and per batch the last echo
    /// received, which is sent again next time instead of a fresh copy.
    batches: Vec<[Value; 2]>,
    spare: Vec<Option<Vec<Value>>>,
    /// `ledger_local`: balances of the accounts this client owns
    /// (`account % CLIENTS == index`); no other thread writes them.
    model: Vec<i64>,
    pub deposited: i64,
    pub writes: u64,
}

fn seeded_str(rng: &mut Rng) -> String {
    let len = 8 + rng.below(17) as usize;
    (0..len)
        .map(|_| char::from(b'a' + rng.below(26) as u8))
        .collect()
}

impl Client {
    /// The clients of `workload`, with all inputs derived from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Vec<Client> {
        (0..CLIENTS)
            .map(|index| {
                let mut rng = Rng::new(seed ^ (0xC1_1E47 * (index as u64 + 1)));
                let batches = if workload == Workload::RpcBulk {
                    (0..BATCHES).map(|_| Self::batch(&mut rng)).collect()
                } else {
                    Vec::new()
                };
                Client {
                    index,
                    rng,
                    added: 0,
                    spare: vec![None; batches.len()],
                    batches,
                    model: vec![0; ACCOUNTS],
                    deposited: 0,
                    writes: 0,
                }
            })
            .collect()
    }

    fn batch(rng: &mut Rng) -> [Value; 2] {
        let records = (0..RECORDS)
            .map(|_| {
                Value::record([
                    ("id", Value::Int((rng.next_u64() >> 1) as i64)),
                    ("name", Value::str(seeded_str(rng))),
                    ("active", Value::Bool(rng.below(2) == 1)),
                ])
            })
            .collect();
        let blob: Vec<u8> = (0..BLOB).map(|_| rng.next_u64() as u8).collect();
        [Value::Seq(records), Value::bytes(blob)]
    }

    fn own_account(&mut self) -> usize {
        self.rng.below((ACCOUNTS / CLIENTS) as u64) as usize * CLIENTS + self.index
    }

    pub fn next_op(&mut self, workload: Workload) -> Op {
        match workload {
            Workload::RpcSmall => match self.rng.below(4) {
                3 => Op::Read,
                _ => Op::Add(1 + self.rng.below(100) as i64),
            },
            Workload::RpcBulk => Op::Echo(self.rng.below(BATCHES as u64) as usize),
            Workload::LedgerLocal => {
                let roll = self.rng.below(10);
                let account = self.own_account();
                match roll {
                    0..=5 => Op::Balance(account),
                    6..=8 => Op::Deposit(account, 1 + self.rng.below(1000) as i64),
                    _ => Op::Audit(account),
                }
            }
        }
    }

    fn request(&mut self, op: Op) -> Vec<Value> {
        match op {
            Op::Add(n) => vec![Value::Int(n)],
            Op::Read => vec![],
            Op::Echo(b) => self.spare[b]
                .take()
                .unwrap_or_else(|| self.batches[b].to_vec()),
            Op::Balance(a) | Op::Audit(a) => vec![Value::Int(a as i64)],
            Op::Deposit(a, amount) => vec![Value::Int(a as i64), Value::Int(amount)],
        }
    }

    /// The results a correct server returns for `op` (before `check`
    /// updates the model).
    fn expected(&self, op: Op) -> Vec<Value> {
        match op {
            Op::Add(n) => vec![Value::Int(self.added + n)],
            Op::Read => vec![Value::Int(self.added)],
            Op::Echo(b) => self.batches[b].to_vec(),
            Op::Balance(a) => vec![Value::Int(self.model[a])],
            Op::Deposit(a, amount) => vec![Value::Int(self.model[a] + amount)],
            Op::Audit(_) => vec![],
        }
    }

    /// Updates the model for `op` and says whether `result` is a correct
    /// answer. A failed call counts as a wrong answer.
    fn check(&mut self, op: Op, result: Result<Option<Outcome>, InvokeError>) -> bool {
        let answer = |r: &Option<Outcome>| r.as_ref().filter(|o| o.is_ok()).and_then(Outcome::int);
        match op {
            Op::Add(n) => {
                self.added += n;
                // Other clients add too, so the counter is at least our sum.
                matches!(result, Ok(ref r) if answer(r) >= Some(self.added))
            }
            Op::Read => matches!(result, Ok(ref r) if answer(r) >= Some(self.added)),
            Op::Echo(b) => match result {
                Ok(Some(out)) if out.is_ok() && out.results[..] == self.batches[b][..] => {
                    self.spare[b] = Some(out.results);
                    true
                }
                _ => false,
            },
            Op::Balance(a) => matches!(result, Ok(ref r) if answer(r) == Some(self.model[a])),
            Op::Deposit(a, amount) => {
                self.model[a] += amount;
                self.deposited += amount;
                self.writes += 1;
                matches!(result, Ok(ref r) if answer(r) == Some(self.model[a]))
            }
            Op::Audit(_) => result.is_ok(),
        }
    }
}

/// The servant behind a fixture, with the server layers a check reads.
pub enum Target {
    Counter(Arc<BenchCounter>),
    Echo,
    Ledger {
        ledger: Arc<Ledger>,
        wal: Arc<WriteAheadLog>,
        logging: Arc<LoggingLayer>,
        admission: Arc<AdmissionLayer>,
    },
}

/// Public counters summed over a fixture, read before and after a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub frames: u64,
    pub bytes: u64,
    pub duplicates: u64,
    pub deadlines: u64,
    pub fast_path: u64,
    pub checkpoints: u64,
    pub admitted: u64,
    pub shed: u64,
}

impl Counters {
    pub fn since(self, before: Counters) -> Counters {
        Counters {
            frames: self.frames - before.frames,
            bytes: self.bytes - before.bytes,
            duplicates: self.duplicates - before.duplicates,
            deadlines: self.deadlines - before.deadlines,
            fast_path: self.fast_path - before.fast_path,
            checkpoints: self.checkpoints - before.checkpoints,
            admitted: self.admitted - before.admitted,
            shed: self.shed - before.shed,
        }
    }
}

/// Per-part histograms of the traced calls of one load thread.
pub struct PartHists {
    pub total: Hist,
    pub stub: Hist,
    pub retry: Hist,
    pub location: Hist,
    pub access: Hist,
    pub request_path: Hist,
    pub admission: Hist,
    pub wal: Hist,
    pub wal_write: Hist,
    pub servant: Hist,
    pub reply_path: Hist,
    pub unmatched: u64,
}

impl PartHists {
    pub fn new() -> Self {
        Self {
            total: Hist::new(),
            stub: Hist::new(),
            retry: Hist::new(),
            location: Hist::new(),
            access: Hist::new(),
            request_path: Hist::new(),
            admission: Hist::new(),
            wal: Hist::new(),
            wal_write: Hist::new(),
            servant: Hist::new(),
            reply_path: Hist::new(),
            unmatched: 0,
        }
    }

    fn hists(&mut self) -> [&mut Hist; 11] {
        [
            &mut self.total,
            &mut self.stub,
            &mut self.retry,
            &mut self.location,
            &mut self.access,
            &mut self.request_path,
            &mut self.admission,
            &mut self.wal,
            &mut self.wal_write,
            &mut self.servant,
            &mut self.reply_path,
        ]
    }

    fn clear(&mut self) {
        for h in self.hists() {
            h.clear();
        }
        self.unmatched = 0;
    }

    fn record(&mut self, p: &Parts, write: bool) {
        self.total.record(p.total);
        self.stub.record(p.stub);
        self.retry.record(p.retry);
        self.location.record(p.location);
        self.access.record(p.request_path + p.reply_path);
        self.request_path.record(p.request_path);
        self.admission.record(p.admission);
        self.wal.record(p.wal);
        if write {
            self.wal_write.record(p.wal);
        }
        self.servant.record(p.servant);
        self.reply_path.record(p.reply_path);
    }

    pub fn merge(&mut self, o: &PartHists) {
        self.total.merge(&o.total);
        self.stub.merge(&o.stub);
        self.retry.merge(&o.retry);
        self.location.merge(&o.location);
        self.access.merge(&o.access);
        self.request_path.merge(&o.request_path);
        self.admission.merge(&o.admission);
        self.wal.merge(&o.wal);
        self.wal_write.merge(&o.wal_write);
        self.servant.merge(&o.servant);
        self.reply_path.merge(&o.reply_path);
        self.unmatched += o.unmatched;
    }
}

/// What one load thread saw during one drive. A run allocates these once
/// and reuses them for every window: histograms allocated afresh on each
/// window's new thread would spread over allocator arenas and show in
/// `peak_rss_mb` as growth of the program.
pub struct ThreadStats {
    pub attempted: [u64; 3],
    pub failed: [u64; 3],
    pub elapsed_ns: u64,
    pub latency: Hist,
    /// Caller-side cost of announcements.
    pub announce: Hist,
    pub parts: Option<PartHists>,
}

impl ThreadStats {
    fn new(traced: bool) -> Self {
        Self {
            attempted: [0; 3],
            failed: [0; 3],
            elapsed_ns: 0,
            latency: Hist::new(),
            announce: Hist::new(),
            parts: traced.then(PartHists::new),
        }
    }

    fn clear(&mut self) {
        self.attempted = [0; 3];
        self.failed = [0; 3];
        self.elapsed_ns = 0;
        self.latency.clear();
        self.announce.clear();
        if let Some(parts) = &mut self.parts {
            parts.clear();
        }
    }

    pub fn ok(&self) -> u64 {
        self.attempted.iter().sum::<u64>() - self.failed.iter().sum::<u64>()
    }
}

enum Stop {
    After(u64),
    For(Duration),
}

/// A running world with the workload's servant exported and one binding
/// per client.
pub struct Fixture {
    pub workload: Workload,
    pub target: Target,
    bindings: Vec<ClientBinding>,
    callers: Vec<NodeId>,
    probe: Option<Arc<ServerProbe>>,
    /// Announcements sent, to compare with those the servant counted.
    announced: AtomicU64,
    world: World,
}

impl Fixture {
    /// Set-up as `setup_s` times it: builds the world, exports, binds,
    /// pre-populates (`ledger_local`) and warms up. `traced` adds the
    /// timing shims on both sides.
    pub fn setup(workload: Workload, seed: u64, traced: bool, clients: &mut [Client]) -> Self {
        let capsules = if workload.remote() { 1 + CLIENTS } else { 1 };
        let world = World::builder().capsules(capsules).seed(seed).build();
        let server = Arc::clone(world.capsule(0));
        let probe = traced.then(|| Arc::new(ServerProbe::new(server.node())));
        let shim = |slot: usize| -> Vec<Arc<dyn ServerLayer>> {
            probe
                .iter()
                .map(|p| Arc::new(ServerShim::new(slot, p)) as Arc<dyn ServerLayer>)
                .collect()
        };
        let (servant, target, admission_slot, wal_slot): (Arc<dyn Servant>, _, Vec<_>, Vec<_>) =
            match workload {
                Workload::RpcSmall => {
                    let counter = Arc::new(BenchCounter::default());
                    (counter.clone(), Target::Counter(counter), vec![], vec![])
                }
                Workload::RpcBulk => (Arc::new(Echo), Target::Echo, vec![], vec![]),
                Workload::LedgerLocal => {
                    let ledger = Arc::new(Ledger::default());
                    let servant: Arc<dyn Servant> = ledger.clone();
                    let wal = Arc::new(WriteAheadLog::new());
                    let admission = AdmissionLayer::new(AdmissionPolicy::default());
                    let logging = LoggingLayer::new(
                        &servant,
                        Arc::clone(&wal),
                        Arc::new(StableRepository::default()),
                        CheckpointPolicy::default(),
                        Arc::new(|op: &str| op == "deposit"),
                    );
                    let layers = (
                        vec![admission.clone() as Arc<dyn ServerLayer>],
                        vec![logging.clone() as Arc<dyn ServerLayer>],
                    );
                    let target = Target::Ledger {
                        ledger,
                        wal,
                        logging,
                        admission,
                    };
                    (servant, target, layers.0, layers.1)
                }
            };
        let mut layers = shim(0);
        layers.extend(admission_slot);
        layers.extend(shim(1));
        layers.extend(wal_slot);
        layers.extend(shim(2));
        let reference = server.export_with(
            servant,
            ExportConfig {
                layers,
                ..ExportConfig::default()
            },
        );
        let mut bindings = Vec::with_capacity(CLIENTS);
        let mut callers = Vec::with_capacity(CLIENTS);
        for i in 0..CLIENTS {
            let capsule = if workload.remote() {
                world.capsule(1 + i)
            } else {
                &server
            };
            callers.push(capsule.node());
            bindings.push(if traced {
                traced_binding(capsule, reference.clone())
            } else {
                capsule.bind(reference.clone())
            });
        }
        let fixture = Fixture {
            workload,
            target,
            bindings,
            callers,
            probe,
            announced: AtomicU64::new(0),
            world,
        };
        if workload == Workload::LedgerLocal {
            fixture.prepopulate(clients);
        }
        let mut stats = fixture.stats();
        fixture.drive(clients, &mut stats, Stop::After(workload.warmup_ops()));
        fixture
    }

    /// Opens every account with a seeded deposit made by its owner.
    fn prepopulate(&self, clients: &mut [Client]) {
        for account in 0..ACCOUNTS {
            let client = &mut clients[account % CLIENTS];
            let op = Op::Deposit(account, 1 + client.rng.below(10_000) as i64);
            let result = self.bindings[client.index]
                .interrogate(op.name(), client.request(op))
                .map(Some);
            // A wrong answer here also shows in the final balance check.
            client.check(op, result);
        }
    }

    /// One [`ThreadStats`] per client, with part histograms if traced.
    pub fn stats(&self) -> Vec<ThreadStats> {
        (0..CLIENTS)
            .map(|_| ThreadStats::new(self.probe.is_some()))
            .collect()
    }

    /// Runs every client for `window`; `stats` then hold what each saw.
    pub fn run_for(&self, clients: &mut [Client], stats: &mut [ThreadStats], window: Duration) {
        self.drive(clients, stats, Stop::For(window));
    }

    fn drive(&self, clients: &mut [Client], stats: &mut [ThreadStats], stop: Stop) {
        let barrier = Barrier::new(clients.len());
        std::thread::scope(|s| {
            for (client, stats) in clients.iter_mut().zip(stats.iter_mut()) {
                let barrier = &barrier;
                let stop = &stop;
                s.spawn(move || {
                    stats.clear();
                    barrier.wait();
                    self.load(client, stats, stop);
                });
            }
        });
    }

    /// One client's closed loop: the next call starts when the last one
    /// returned and was checked.
    fn load(&self, client: &mut Client, stats: &mut ThreadStats, stop: &Stop) {
        let binding = &self.bindings[client.index];
        let caller = self.callers[client.index];
        let first = shims::now_ns();
        let (limit, deadline) = match *stop {
            Stop::After(n) => (n, u64::MAX),
            Stop::For(d) => (
                u64::MAX,
                first + u64::try_from(d.as_nanos()).unwrap_or(u64::MAX),
            ),
        };
        let mut end = first;
        let mut done = 0;
        while done < limit && end < deadline {
            let op = client.next_op(self.workload);
            let args = client.request(op);
            if op.announcement() {
                self.await_backlog_room();
            }
            let start = shims::now_ns();
            let result = if op.announcement() {
                self.announce(binding, op.name(), args).map(|()| None)
            } else {
                binding.interrogate(op.name(), args).map(Some)
            };
            end = shims::now_ns();
            let kind = op.kind();
            stats.attempted[kind] += 1;
            if !client.check(op, result) {
                stats.failed[kind] += 1;
            }
            stats.latency.record(end - start);
            if op.announcement() {
                stats.announce.record(end - start);
            } else if let (Some(parts), Some(probe)) = (stats.parts.as_mut(), &self.probe) {
                let server = probe.stamps(caller);
                match Parts::split(start, end, &shims::client_stamps(), &server) {
                    // `rpc_bulk` has no mutating operation; its WAL slot
                    // is measured over every call.
                    Some(p) => {
                        parts.record(&p, op.mutating() || self.workload == Workload::RpcBulk)
                    }
                    None => parts.unmatched += 1,
                }
            }
            done += 1;
        }
        stats.elapsed_ns = end - first;
    }

    fn announce(
        &self,
        binding: &ClientBinding,
        op: &str,
        args: Vec<Value>,
    ) -> Result<(), InvokeError> {
        binding.announce(op, args)?;
        self.announced.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Announcements the servant received; only the ledger has any.
    fn delivered(&self) -> u64 {
        match &self.target {
            Target::Ledger { ledger, .. } => ledger.audits.load(Ordering::SeqCst),
            Target::Counter(_) | Target::Echo => 0,
        }
    }

    /// Waits, outside any timed call, until fewer than
    /// [`MAX_UNDELIVERED`] announcements are in flight.
    fn await_backlog_room(&self) {
        while self.announced.load(Ordering::SeqCst) >= self.delivered() + MAX_UNDELIVERED {
            std::thread::yield_now();
        }
    }

    pub fn counters(&self) -> Counters {
        let stats = self.world.net().stats();
        let mut c = Counters {
            frames: stats.sent.load(Ordering::SeqCst),
            bytes: stats.bytes.load(Ordering::SeqCst),
            ..Counters::default()
        };
        for capsule in self.world.capsules().iter().chain([self.world.system()]) {
            let rex = capsule.rex();
            c.duplicates += rex.duplicates_suppressed.load(Ordering::SeqCst);
            c.deadlines += rex.deadlines_expired.load(Ordering::SeqCst);
            c.fast_path += capsule.stats.local_fast_path.load(Ordering::SeqCst);
        }
        if let Target::Ledger {
            logging, admission, ..
        } = &self.target
        {
            c.checkpoints = logging.checkpoints.load(Ordering::SeqCst);
            c.admitted = admission.admitted.load(Ordering::SeqCst);
            c.shed = admission.shed.load(Ordering::SeqCst);
        }
        c
    }

    /// Waits (bounded) until every announcement sent was delivered, then
    /// checks the servant's final state against the clients' models.
    /// Returns one line per failed check.
    pub fn verify(&self, clients: &[Client]) -> Vec<String> {
        let mut problems = Vec::new();
        let announced = self.announced.load(Ordering::SeqCst);
        let give_up = Instant::now() + Duration::from_secs(10);
        while self.delivered() < announced && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(1));
        }
        if self.delivered() != announced {
            problems.push(format!(
                "{} of {announced} announcements delivered",
                self.delivered()
            ));
        }
        match &self.target {
            Target::Counter(counter) => {
                let added: i64 = clients.iter().map(|c| c.added).sum();
                if counter.value() != added {
                    problems.push(format!(
                        "counter {} != sum of adds {added}",
                        counter.value()
                    ));
                }
            }
            // Every echo was compared with its request as it returned.
            Target::Echo => {}
            Target::Ledger {
                ledger,
                wal,
                logging,
                ..
            } => {
                let deposited: i64 = clients.iter().map(|c| c.deposited).sum();
                if ledger.total() != deposited {
                    problems.push(format!(
                        "sum of balances {} != sum of deposits {deposited}",
                        ledger.total()
                    ));
                }
                let writes: u64 = clients.iter().map(|c| c.writes).sum();
                let every = CheckpointPolicy::default().every_n_ops;
                let checkpoints = logging.checkpoints.load(Ordering::SeqCst);
                if wal.len() as u64 >= every {
                    problems.push(format!("WAL holds {} records", wal.len()));
                }
                // Not `==`: two writers can both see the since-checkpoint
                // count reach the interval and both checkpoint, so the
                // count can exceed writes / every. The excess shows in
                // `storage.checkpoints_per_1k_writes` (README.md).
                if checkpoints < writes / every {
                    problems.push(format!(
                        "{checkpoints} checkpoints for {writes} writes (at least {} expected)",
                        writes / every
                    ));
                }
            }
        }
        problems
    }
}

/// The default binding's exact client layers, with a timing shim before
/// each and one above the access layer: shim0, retry, shim1, location,
/// shim2, access.
fn traced_binding(capsule: &Arc<Capsule>, target: InterfaceRef) -> ClientBinding {
    let policy = TransparencyPolicy::default();
    let cell = capsule.bind(target).target_cell();
    let real = policy.build_layers(capsule, &cell);
    let names: Vec<_> = real.iter().map(|l| l.name()).collect();
    assert_eq!(
        names,
        ["failure:retry", "location"],
        "the default transparency policy changed; the shim slots and the \
         transparency.* metrics assume retry then location"
    );
    let mut layers: Vec<Arc<dyn ClientLayer>> = Vec::with_capacity(2 * SLOTS - 1);
    for (slot, layer) in real.into_iter().enumerate() {
        layers.push(Arc::new(ClientShim::new(slot)));
        layers.push(layer);
    }
    layers.push(Arc::new(ClientShim::new(SLOTS - 1)));
    ClientBinding::assemble(
        cell,
        layers,
        AccessLayer::new(capsule, policy.force_remote),
        policy.qos,
    )
}

/// Per-operation cost of the wire work one call of `workload` does,
/// timed by calling `odp::wire` directly on the workload's generated
/// values: marshal and unmarshal of the request arguments and the
/// results, and the type check of the arguments. Returns ns per
/// operation as `[marshal, unmarshal, check]`.
pub fn wire_costs(workload: Workload, seed: u64) -> [f64; 3] {
    let ty = workload.interface_type();
    let mut client = Client::generate(workload, seed).swap_remove(0);
    let samples: Vec<(Vec<Value>, Vec<Value>, Vec<TypeSpec>)> = (0..64)
        .map(|_| {
            let op = client.next_op(workload);
            let expected = client.expected(op);
            let args = client.request(op);
            let specs = ty
                .operation(op.name())
                .map(|sig| sig.params.clone())
                .unwrap_or_default();
            (args, expected, specs)
        })
        .collect();
    let frames: Vec<_> = samples
        .iter()
        .map(|(args, results, _)| (odp::wire::marshal(args), odp::wire::marshal(results)))
        .collect();
    let n = samples.len();
    let marshal = per_op_ns(n, || {
        for (args, results, _) in &samples {
            std::hint::black_box(odp::wire::marshal_pooled(std::hint::black_box(args)).len());
            std::hint::black_box(odp::wire::marshal_pooled(std::hint::black_box(results)).len());
        }
    });
    let unmarshal = per_op_ns(n, || {
        for (args, results) in &frames {
            let a = odp::wire::unmarshal_frame(std::hint::black_box(args));
            let r = odp::wire::unmarshal_frame(std::hint::black_box(results));
            std::hint::black_box((a.is_ok(), r.is_ok()));
        }
    });
    let check = per_op_ns(n, || {
        for (args, _, specs) in &samples {
            for (v, spec) in args.iter().zip(specs) {
                std::hint::black_box(odp::wire::check_value(std::hint::black_box(v), spec).is_ok());
            }
        }
    });
    [marshal, unmarshal, check]
}

/// Median over 7 batches of the ns per operation of `pass`, which runs
/// `ops` operations; each batch repeats it for at least 10 ms.
fn per_op_ns(ops: usize, mut pass: impl FnMut()) -> f64 {
    let mut reps = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..reps {
            pass();
        }
        if t.elapsed() >= Duration::from_millis(10) {
            break;
        }
        reps *= 2;
    }
    let mut batches: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                pass();
            }
            t.elapsed().as_nanos() as f64 / (reps as f64 * ops as f64)
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}
