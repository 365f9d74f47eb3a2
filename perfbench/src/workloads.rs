//! The three workloads, each driven by one client thread over one
//! connection to a fleet served from this process.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

use he_accel::{
    Completion, CompletionQueue, EvalEngine, Multiplier, ProductRequest, ServeConfig, ServeError,
    ServedMultiplier, ServerPool, SsaSoftware,
};
use he_bigint::UBig;
use he_dghv::{Ciphertext, CiphertextMultiplier, CircuitEvaluator, DghvParams, KeyPair};
use he_net::{NetServer, NetSession};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::{karatsuba_matches, product_matches, Residues};
use crate::trace::{SpanId, Tracer};

/// Operand size of every workload: the paper's 786,432 bits.
pub const OPERAND_BITS: usize = he_ssa::PAPER_OPERAND_BITS;
/// Products in flight on the closed `wire_fresh` loop.
pub const WINDOW: usize = 32;
/// Fresh operands per pool: cycled, so an operand recurs only after
/// `POOL` others — far beyond every card's 128-entry digest LRU.
pub const POOL: usize = 512;
/// Products of the warm-up that ends each set-up.
pub const WARM_UP: usize = 32;
/// Offered load of the open `pinned_open` loop.
pub const RATE_PER_S: f64 = 40.0;
/// Deadline of every `pinned_open` request.
pub const DEADLINE: Duration = Duration::from_millis(500);
/// The open loop is invalid if its generator's p99 lateness exceeds
/// this: two mean inter-arrival gaps, a tenth of the deadline.
pub const LAG_BOUND_MS: f64 = 2e3 / RATE_PER_S;
/// Leaves of one `dghv_and_tree` circuit (depth 4, 15 AND gates).
pub const LEAVES: usize = 16;
/// Seeded ciphertext pool the leaves are drawn from (fits the LRU).
pub const CT_POOL: usize = 64;
/// Ciphertexts of the pool that encrypt 1 (the rest encrypt 0).
const CT_ONES: usize = 48;
/// Products checked bit-exact against Karatsuba per window.
const KARATSUBA_SAMPLES: usize = 6;
/// How long a window waits for in-flight requests after it ends.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);
/// Name of the registered operand on `pinned_open`.
const PIN: &str = "pinned";

/// A workload operand with its check residues.
#[derive(Debug, Clone)]
pub struct Operand {
    /// The integer.
    pub value: UBig,
    /// Its residues modulo the check primes.
    pub residues: Residues,
}

impl Operand {
    fn new(value: UBig) -> Operand {
        let residues = Residues::of(&value);
        Operand { value, residues }
    }

    fn random(rng: &mut StdRng, bits: usize) -> Operand {
        Operand::new(UBig::random_bits(rng, bits))
    }
}

/// The in-process fleet behind a loopback socket, and the one client
/// connection the workload uses.
pub struct Fleet {
    /// The listening fleet.
    pub server: NetServer,
    /// The workload's connection.
    pub session: NetSession,
}

impl Fleet {
    /// Spawns `engines` as a fleet with `ServeConfig::default()`, binds
    /// it on loopback TCP, and connects.
    pub fn spawn<M>(engines: Vec<EvalEngine<M>>) -> std::io::Result<Fleet>
    where
        M: Multiplier + Send + Sync + 'static,
    {
        let pool = ServerPool::spawn(engines, ServeConfig::default());
        let server = NetServer::bind_tcp(pool, "127.0.0.1:0")?;
        let session = NetSession::connect(server.local_endpoint())
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        Ok(Fleet { server, session })
    }

    /// The shipped configuration: `cards` cards of the paper's SSA plan.
    pub fn paper(cards: usize) -> std::io::Result<Fleet> {
        Fleet::spawn(
            (0..cards)
                .map(|_| EvalEngine::new(SsaSoftware::paper()))
                .collect(),
        )
    }

    /// Closes the connection and shuts the fleet down, joining its
    /// threads.
    pub fn shutdown(self) {
        self.session.close();
        self.server.shutdown();
    }
}

/// What one timed window did.
#[derive(Debug, Default)]
pub struct Window {
    /// Window length.
    pub seconds: f64,
    /// Products requested.
    pub attempted: u64,
    /// Products returned and verified.
    pub verified: u64,
    /// Verified products returned before the window closed.
    pub in_window: u64,
    /// Outputs that failed a check (products or decrypted circuits).
    pub mismatches: u64,
    /// Requests answered `Expired`.
    pub expired: u64,
    /// Requests the client could not submit.
    pub refused: u64,
    /// Requests that failed any other way, or never came back.
    pub lost: u64,
    /// Per-request latency: from due time (open loop) or submission
    /// (closed loops) to the verified result. A request is one product,
    /// or one whole AND tree on `dghv_and_tree`.
    pub latencies_ms: Vec<f64>,
    /// Generator lateness: behind the schedule (open loop), or from a
    /// freed slot to the next submission (closed loops).
    pub lag_ms: Vec<f64>,
    /// Client time spent in circuits, the throughput denominator of
    /// `dghv_and_tree`.
    pub busy_s: f64,
}

impl Window {
    /// Failed + expired + refused + mismatched.
    pub fn failed(&self) -> u64 {
        self.mismatches + self.expired + self.refused + self.lost
    }

    /// Verified products per second of the window (of busy client time
    /// on `dghv_and_tree`, where every product is one AND gate).
    pub fn products_per_s(&self) -> f64 {
        if self.busy_s > 0.0 {
            self.verified as f64 / self.busy_s
        } else {
            self.in_window as f64 / self.seconds
        }
    }

    /// Folds another window of the same run into this one.
    pub fn absorb(&mut self, other: Window) {
        self.seconds += other.seconds;
        self.attempted += other.attempted;
        self.verified += other.verified;
        self.in_window += other.in_window;
        self.mismatches += other.mismatches;
        self.expired += other.expired;
        self.refused += other.refused;
        self.lost += other.lost;
        self.latencies_ms.extend(other.latencies_ms);
        self.lag_ms.extend(other.lag_ms);
        self.busy_s += other.busy_s;
    }

    fn settle(
        &mut self,
        result: Result<UBig, ServeError>,
        a: Residues,
        b: Residues,
    ) -> Option<UBig> {
        match result {
            Ok(product) if product_matches(a, b, &product) => {
                self.verified += 1;
                Some(product)
            }
            Ok(_) => {
                self.mismatches += 1;
                None
            }
            Err(ServeError::Expired { .. }) => {
                self.expired += 1;
                None
            }
            Err(_) => {
                self.lost += 1;
                None
            }
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Whether product `k` of a seeded run joins the Karatsuba sample.
fn sampled(seed: u64, k: usize) -> bool {
    let mut x = seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (x >> 40).is_multiple_of(64)
}

/// One workload's inputs and client state.
pub enum Workload {
    /// Closed loop, both operands inline and fresh.
    WireFresh(WireFresh),
    /// Open Poisson loop, pinned × fresh, with deadlines.
    PinnedOpen(PinnedOpen),
    /// Closed loop of DGHV AND trees through `ServedMultiplier`.
    DghvAndTree(DghvAndTree),
}

/// `wire_fresh` state.
pub struct WireFresh {
    seed: u64,
    pool: Vec<Operand>,
    next: usize,
    samples: Vec<(usize, UBig)>,
}

/// `pinned_open` state.
pub struct PinnedOpen {
    pinned: Operand,
    pool: Vec<Operand>,
    arrivals: StdRng,
    next: usize,
}

/// `dghv_and_tree` state.
pub struct DghvAndTree {
    seed: u64,
    keys: Option<KeyPair>,
    leaves: Vec<(Ciphertext, bool)>,
    picks: StdRng,
}

impl Workload {
    /// Generates the workload's inputs from `seed` (DGHV keys and
    /// ciphertexts are made in set-up, which they belong to).
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = |rng: &mut StdRng| {
            (0..POOL)
                .map(|_| Operand::random(rng, OPERAND_BITS))
                .collect()
        };
        Some(match name {
            "wire_fresh" => Workload::WireFresh(WireFresh {
                seed,
                pool: pool(&mut rng),
                next: 0,
                samples: Vec::new(),
            }),
            "pinned_open" => Workload::PinnedOpen(PinnedOpen {
                pinned: Operand::random(&mut rng, OPERAND_BITS),
                pool: pool(&mut rng),
                arrivals: StdRng::seed_from_u64(seed ^ 0xA11),
                next: 0,
            }),
            "dghv_and_tree" => Workload::DghvAndTree(DghvAndTree {
                seed,
                keys: None,
                leaves: Vec::new(),
                picks: StdRng::seed_from_u64(seed ^ 0x7EE),
            }),
            _ => return None,
        })
    }

    /// One full set-up: (keys and ciphertext pool), fleet spawn with its
    /// plans, bind and connect, pin registration, and a verified warm-up.
    pub fn set_up(&mut self, cards: usize) -> Result<Fleet, String> {
        if let Workload::DghvAndTree(w) = self {
            w.make_keys();
        }
        let fleet = Fleet::paper(cards).map_err(|e| format!("fleet set-up: {e}"))?;
        if let Workload::PinnedOpen(w) = self {
            fleet
                .session
                .register(PIN, w.pinned.value.clone())
                .map_err(|e| format!("pin registration: {e}"))?;
        }
        let warm = self.warm_up(&fleet.session);
        if warm.failed() > 0 || warm.verified == 0 {
            return Err(format!("warm-up failed its checks: {warm:?}"));
        }
        Ok(fleet)
    }

    fn warm_up(&mut self, session: &NetSession) -> Window {
        match self {
            Workload::WireFresh(w) => {
                w.next = 0;
                let mut window = Window::default();
                let mut queue: CompletionQueue<NetSession, usize> = CompletionQueue::new(session);
                for k in 0..WARM_UP {
                    let (a, b) = w.pair(k);
                    let request = ProductRequest::new(a.value.clone(), b.value.clone());
                    if queue.submit_tagged(request, k).is_err() {
                        window.refused += 1;
                    }
                }
                for done in queue.drain() {
                    let (a, b) = w.pair(done.tag);
                    window.settle(done.result, a.residues, b.residues);
                }
                w.next = WARM_UP;
                window
            }
            Workload::PinnedOpen(w) => {
                let mut window = Window::default();
                let mut queue: CompletionQueue<NetSession, usize> = CompletionQueue::new(session);
                for k in 0..WARM_UP {
                    let fresh = &w.pool[POOL - 1 - k];
                    let request = session.request_with(PIN, fresh.value.clone());
                    if queue.submit_tagged(request, POOL - 1 - k).is_err() {
                        window.refused += 1;
                    }
                }
                for done in queue.drain() {
                    let fresh = w.pool[done.tag].residues;
                    window.settle(done.result, w.pinned.residues, fresh);
                }
                window
            }
            Workload::DghvAndTree(w) => {
                let mut picks = StdRng::seed_from_u64(w.seed ^ 0x3A7);
                w.run_trees(session, Duration::ZERO, &mut picks, None)
            }
        }
    }

    /// Runs the timed window for `length`; spans go to `tracer` if given.
    pub fn run(
        &mut self,
        session: &NetSession,
        length: Duration,
        tracer: Option<&mut Tracer>,
    ) -> Window {
        let mut window = match self {
            Workload::WireFresh(w) => w.run(session, length, tracer),
            Workload::PinnedOpen(w) => w.run(session, length, tracer),
            Workload::DghvAndTree(w) => {
                let mut picks = w.picks.clone();
                let window = w.run_trees(session, length, &mut picks, tracer);
                w.picks = picks;
                window
            }
        };
        window.seconds = length.as_secs_f64();
        window
    }

    /// Bit-exact Karatsuba check of the products sampled so far (run
    /// after the timed window); returns how many were checked.
    pub fn verify_samples(&mut self, window: &mut Window) -> usize {
        let Workload::WireFresh(w) = self else {
            return 0;
        };
        let samples = std::mem::take(&mut w.samples);
        for (k, product) in &samples {
            let (a, b) = w.pair(*k);
            if !karatsuba_matches(&a.value, &b.value, product) {
                window.mismatches += 1;
            }
        }
        samples.len()
    }

    /// The first `count` operand pairs of the workload's own traffic.
    pub fn pairs(&self, count: usize) -> Vec<(UBig, UBig)> {
        (0..count)
            .map(|k| match self {
                Workload::WireFresh(w) => {
                    let (a, b) = w.pair(k);
                    (a.value.clone(), b.value.clone())
                }
                Workload::PinnedOpen(w) => (w.pinned.value.clone(), w.pool[k % POOL].value.clone()),
                Workload::DghvAndTree(w) => {
                    let n = w.leaves.len();
                    (
                        w.leaves[(2 * k) % n].0.value().clone(),
                        w.leaves[(2 * k + 1) % n].0.value().clone(),
                    )
                }
            })
            .collect()
    }

    /// Whether requests ride a pinned operand on the wire.
    pub fn pinned(&self) -> bool {
        matches!(self, Workload::PinnedOpen(_))
    }

    /// The DGHV keys, when set-up made them.
    pub fn keys(&self) -> Option<&KeyPair> {
        match self {
            Workload::DghvAndTree(w) => w.keys.as_ref(),
            _ => None,
        }
    }
}

impl WireFresh {
    fn pair(&self, k: usize) -> (&Operand, &Operand) {
        (&self.pool[(2 * k) % POOL], &self.pool[(2 * k + 1) % POOL])
    }

    fn run(
        &mut self,
        session: &NetSession,
        length: Duration,
        mut tracer: Option<&mut Tracer>,
    ) -> Window {
        let mut window = Window::default();
        let mut queue: CompletionQueue<NetSession, (usize, Instant)> =
            CompletionQueue::new(session);
        let start = Instant::now();
        let end = start + length;
        let mut freed: Option<Instant> = None;
        loop {
            while queue.in_flight() < WINDOW && Instant::now() < end {
                let k = self.next;
                self.next += 1;
                let (a, b) = self.pair(k);
                let request = ProductRequest::new(a.value.clone(), b.value.clone());
                let now = Instant::now();
                if let Some(at) = freed.take() {
                    window.lag_ms.push(ms(now - at));
                }
                window.attempted += 1;
                if queue.submit_tagged(request, (k, now)).is_err() {
                    window.refused += 1;
                }
            }
            let Some(done) = queue.recv() else { break };
            let now = Instant::now();
            freed = Some(now);
            let (k, submitted) = done.tag;
            if let Some(tracer) = tracer.as_deref_mut() {
                tracer.record("request", submitted, now, 0, Some(k as u64));
            }
            let (a, b) = self.pair(k);
            let (ra, rb) = (a.residues, b.residues);
            if let Some(product) = window.settle(done.result, ra, rb) {
                window.latencies_ms.push(ms(now - submitted));
                if now <= end {
                    window.in_window += 1;
                }
                if self.samples.len() < KARATSUBA_SAMPLES && sampled(self.seed, k) {
                    self.samples.push((k, product));
                }
            }
        }
        window
    }
}

impl PinnedOpen {
    fn run(
        &mut self,
        session: &NetSession,
        length: Duration,
        mut tracer: Option<&mut Tracer>,
    ) -> Window {
        let mut window = Window::default();
        let mut queue: CompletionQueue<NetSession, (usize, Instant)> =
            CompletionQueue::new(session);
        let start = Instant::now();
        let end = start + length;
        let mut due = start;
        let (pool, pinned) = (&self.pool, self.pinned.residues);
        let settle = |window: &mut Window,
                      done: Completion<(usize, Instant)>,
                      tracer: &mut Option<&mut Tracer>| {
            let now = Instant::now();
            let (k, due) = done.tag;
            if let Some(tracer) = tracer.as_deref_mut() {
                tracer.record("request", due, now, 0, Some(k as u64));
            }
            if window
                .settle(done.result, pinned, pool[k % POOL].residues)
                .is_some()
            {
                window.latencies_ms.push(ms(now - due));
                if now <= end {
                    window.in_window += 1;
                }
            }
        };
        loop {
            // Seeded Poisson arrivals: exponential gaps at the fixed rate.
            let uniform = ((self.arrivals.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
            due += Duration::from_secs_f64(-uniform.ln() / RATE_PER_S);
            if due >= end {
                break;
            }
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                if queue.in_flight() == 0 {
                    std::thread::sleep(due - now);
                } else if let Some(done) = queue.recv_timeout(due - now) {
                    settle(&mut window, done, &mut tracer);
                }
            }
            let k = self.next;
            self.next += 1;
            window.lag_ms.push(ms(Instant::now() - due));
            window.attempted += 1;
            let fresh = pool[k % POOL].value.clone();
            let request = session.request_with(PIN, fresh).with_deadline(DEADLINE);
            if queue.submit_tagged(request, (k, due)).is_err() {
                window.refused += 1;
            }
        }
        let drain_end = Instant::now() + DRAIN_LIMIT;
        while queue.in_flight() > 0 {
            let left = drain_end.saturating_duration_since(Instant::now());
            match queue.recv_timeout(left) {
                Some(done) => settle(&mut window, done, &mut tracer),
                None => break,
            }
        }
        window.lost += queue.in_flight() as u64;
        window
    }
}

/// A `CiphertextMultiplier` view that times each served level and keeps
/// copies of operands and products for checking after the circuit.
pub struct Recorder<'a, M> {
    inner: &'a M,
    levels: RefCell<Vec<(Instant, Instant)>>,
    kept: RefCell<Vec<(UBig, UBig, UBig)>>,
    /// Time spent copying for the checks, excluded from every timing.
    excluded: Cell<Duration>,
}

/// What a [`Recorder`] saw since it was last drained.
pub struct Recorded {
    /// Start and end of every `multiply_pairs` call (one circuit level).
    pub levels: Vec<(Instant, Instant)>,
    /// Every `(a, b, a·b)` served.
    pub kept: Vec<(UBig, UBig, UBig)>,
    /// Copying time inside the recorded interval.
    pub excluded: Duration,
}

impl<'a, M> Recorder<'a, M> {
    /// Records calls into `inner`.
    pub fn new(inner: &'a M) -> Recorder<'a, M> {
        Recorder {
            inner,
            levels: RefCell::new(Vec::new()),
            kept: RefCell::new(Vec::new()),
            excluded: Cell::new(Duration::ZERO),
        }
    }

    /// Drains what was recorded.
    pub fn take(&self) -> Recorded {
        Recorded {
            levels: self.levels.take(),
            kept: self.kept.take(),
            excluded: self.excluded.take(),
        }
    }
}

impl<M: CiphertextMultiplier> CiphertextMultiplier for Recorder<'_, M> {
    fn multiply(&self, a: &UBig, b: &UBig) -> UBig {
        self.multiply_pairs(&[(a, b)])
            .pop()
            .expect("one product per pair")
    }

    fn multiply_pairs(&self, pairs: &[(&UBig, &UBig)]) -> Vec<UBig> {
        let start = Instant::now();
        let products = self.inner.multiply_pairs(pairs);
        let end = Instant::now();
        self.levels.borrow_mut().push((start, end));
        let mut kept = self.kept.borrow_mut();
        for ((a, b), product) in pairs.iter().zip(&products) {
            kept.push(((*a).clone(), (*b).clone(), product.clone()));
        }
        self.excluded.set(self.excluded.get() + end.elapsed());
        products
    }

    fn name(&self) -> &'static str {
        "recorded"
    }
}

impl DghvAndTree {
    fn make_keys(&mut self) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let keys = KeyPair::generate(DghvParams::small_paper(), &mut rng)
            .expect("paper parameters are valid");
        self.leaves = (0..CT_POOL)
            .map(|i| {
                let bit = i < CT_ONES;
                (keys.public().encrypt(bit, &mut rng), bit)
            })
            .collect();
        self.keys = Some(keys);
    }

    /// A tree's leaves: half the trees are all ones (root 1), the rest
    /// hold one to three zeros (root 0).
    fn pick(picks: &mut StdRng) -> (Vec<usize>, bool) {
        let zeros = if picks.gen::<bool>() {
            0
        } else {
            picks.gen_range(1..4usize)
        };
        let mut ones: Vec<usize> = (0..CT_ONES).collect();
        let mut nils: Vec<usize> = (CT_ONES..CT_POOL).collect();
        let mut chosen = Vec::with_capacity(LEAVES);
        for (from, count) in [(&mut ones, LEAVES - zeros), (&mut nils, zeros)] {
            for i in 0..count {
                let j = picks.gen_range(i..from.len());
                from.swap(i, j);
                chosen.push(from[i]);
            }
        }
        for i in (1..chosen.len()).rev() {
            let j = picks.gen_range(0..i + 1);
            chosen.swap(i, j);
        }
        (chosen, zeros == 0)
    }

    /// Evaluates trees until `length` has passed (at least one tree).
    fn run_trees(
        &mut self,
        session: &NetSession,
        length: Duration,
        picks: &mut StdRng,
        mut tracer: Option<&mut Tracer>,
    ) -> Window {
        let keys = self.keys.as_ref().expect("set-up made the keys");
        let served = ServedMultiplier::new(session);
        let recorder = Recorder::new(&served);
        let evaluator = CircuitEvaluator::new(keys.public(), &recorder);
        let mut window = Window::default();
        let end = Instant::now() + length;
        let mut tree = 0u64;
        let mut freed: Option<Instant> = None;
        loop {
            let (chosen, expected) = DghvAndTree::pick(picks);
            let leaves: Vec<Ciphertext> =
                chosen.iter().map(|&i| self.leaves[i].0.clone()).collect();
            let start = Instant::now();
            if let Some(at) = freed {
                window.lag_ms.push(ms(start - at));
            }
            let root = evaluator.and_tree(&leaves);
            let stop = Instant::now();
            let recorded = recorder.take();
            let busy = (stop - start).saturating_sub(recorded.excluded);
            window.attempted += (LEAVES - 1) as u64;
            window.busy_s += busy.as_secs_f64();
            window.latencies_ms.push(ms(busy));
            if let Some(tracer) = tracer.as_deref_mut() {
                let id: SpanId = tracer.record("circuit", start, stop, 0, Some(tree));
                for (from, to) in &recorded.levels {
                    tracer.record("level", *from, *to, id, Some(tree));
                }
            }
            for (a, b, product) in &recorded.kept {
                if product_matches(Residues::of(a), Residues::of(b), product) {
                    window.verified += 1;
                } else {
                    window.mismatches += 1;
                }
            }
            match root {
                Ok(root) if keys.secret().decrypt(&root) == expected => {}
                Ok(_) => window.mismatches += 1,
                Err(_) => window.lost += (LEAVES - 1) as u64,
            }
            tree += 1;
            freed = Some(stop);
            if Instant::now() >= end {
                break;
            }
        }
        window
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    use super::*;
    use crate::check::FlipOne;

    const BITS: usize = 2_000;

    fn small_wire_fresh(seed: u64) -> WireFresh {
        let mut rng = StdRng::seed_from_u64(seed);
        WireFresh {
            seed,
            pool: (0..POOL).map(|_| Operand::random(&mut rng, BITS)).collect(),
            next: 0,
            samples: Vec::new(),
        }
    }

    /// A two-card fleet whose `target`-th product has one bit flipped.
    fn tampered_fleet(target: u64) -> Fleet {
        let seen = Arc::new(AtomicU64::new(0));
        let card = || {
            let backend = SsaSoftware::for_operand_bits(BITS).expect("small plan");
            EvalEngine::new(FlipOne::new(backend, Arc::clone(&seen), target))
        };
        Fleet::spawn(vec![card(), card()]).expect("loopback fleet")
    }

    fn run_window(target: u64) -> Window {
        let fleet = tampered_fleet(target);
        let mut workload = small_wire_fresh(3);
        let mut window = workload.run(&fleet.session, Duration::from_millis(400), None);
        fleet.shutdown();
        for (k, product) in std::mem::take(&mut workload.samples) {
            let (a, b) = workload.pair(k);
            if !karatsuba_matches(&a.value, &b.value, &product) {
                window.mismatches += 1;
            }
        }
        window
    }

    #[test]
    fn one_flipped_bit_in_one_product_is_caught() {
        let window = run_window(50);
        assert!(window.verified > 50, "{window:?}");
        assert_eq!(window.mismatches, 1, "{window:?}");
        assert_eq!(window.failed(), 1);
    }

    #[test]
    fn an_honest_fleet_passes_every_check() {
        let window = run_window(u64::MAX);
        assert!(window.verified > 50, "{window:?}");
        assert_eq!(window.failed(), 0, "{window:?}");
    }

    #[test]
    fn trees_mix_all_ones_and_zero_roots() {
        let mut picks = StdRng::seed_from_u64(5);
        let trees: Vec<(Vec<usize>, bool)> =
            (0..64).map(|_| DghvAndTree::pick(&mut picks)).collect();
        assert!(trees.iter().any(|(_, root)| *root) && trees.iter().any(|(_, root)| !*root));
        for (leaves, root) in &trees {
            let mut sorted = leaves.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), LEAVES, "leaves are distinct");
            assert_eq!(leaves.iter().all(|&i| i < CT_ONES), *root);
        }
    }
}
