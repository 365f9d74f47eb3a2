//! The resident serving fleet: a shared job queue feeding one or more
//! long-lived [`EvalEngine`]s — one per accelerator card.
//!
//! The paper's accelerator pays off when it sits *resident* — a fixed
//! device fed a stream of 786,432-bit products — not when it is driven as
//! a one-shot function. This module is the host-side shape of that
//! deployment, at two scales:
//!
//! * [`ProductServer`] — one resident engine behind a bounded queue (the
//!   single-card deployment);
//! * [`ServerPool`] — a **fleet** of resident engines, each modeling one
//!   accelerator card, pulling micro-batches from one shared bounded
//!   queue (the multi-card deployment the paper's cloud scenario implies:
//!   many clients, several PCIe cards, one dispatch queue).
//!
//! Both speak the same submission surface ([`Submitter`]) — as does
//! [`ClientSession`], the per-client handle layered on top:
//!
//! * [`Submitter::submit`] blocks while the queue is full (natural
//!   backpressure for cooperating producers);
//! * [`Submitter::try_submit`] returns [`SubmitError::Full`] immediately,
//!   handing the request back for load shedding (sheds are counted in
//!   [`ServeStats::shed`]);
//! * pending jobs are **micro-batched**: a card claims a flush when
//!   [`ServeConfig::max_batch`] jobs are waiting or the oldest has waited
//!   [`ServeConfig::max_delay`], whichever comes first, and the whole
//!   flush goes through [`EvalEngine::run`] as one batch;
//! * flush claims are **deadline-aware** ([`FlushPolicy`]): under
//!   [`FlushPolicy::Edf`] (the default) a card picks the jobs with the
//!   earliest deadlines first, and an urgent deadline pulls the flush
//!   earlier than the batch window — under overload this expires strictly
//!   fewer jobs than FIFO order (`bench_fleet` measures exactly that);
//! * each job's result comes back through its [`ProductTicket`] —
//!   blocking [`ProductTicket::wait`], polling [`ProductTicket::try_wait`],
//!   bounded [`ProductTicket::wait_timeout`], or not at all
//!   ([`ProductTicket::cancel`] drops a queued job at claim time,
//!   counted in [`ServeStats::cancelled`]) — and a job whose deadline
//!   passes before execution is answered with [`ServeError::Expired`]
//!   instead of being run — [`ServeStats::expired_in_queue`] counts jobs
//!   that were already hopeless when a card dequeued them (queueing
//!   pressure), while [`ServeStats::expired_in_flush`] counts jobs
//!   overtaken during their own flush's preparation phase (compute
//!   pressure);
//! * a **reactor-style client** needs none of the ticket-per-thread
//!   machinery: [`CompletionQueue`] multiplexes the completions of many
//!   in-flight submissions onto one receiver with caller-supplied tags,
//!   so a single thread overlaps submission with completion
//!   ([`CompletionQueue::submit_tagged`] / [`CompletionQueue::recv`]);
//! * recurring operands can be **registered once** on a
//!   [`ClientSession`] ([`ClientSession::register`]): registered operands
//!   are pinned in every card's cache by id — no per-submit digest
//!   hashing, no digest-LRU pressure — and a stream submitted against them
//!   ([`ClientSession::submit_with`]) rides the cached-transform rungs
//!   from its first flush ([`ServeStats::pinned_hits`]);
//! * on a heterogeneous fleet, [`RoutePolicy::BySize`] steers every job
//!   to a card whose transform geometry fits its operands, so a small
//!   card never claims (and fails) a job only its bigger sibling can
//!   run;
//! * the fleet is **self-healing**: every flush runs under panic
//!   containment, its jobs are re-queued to surviving cards (up to
//!   [`ServeConfig::retry_limit`], within their deadline budget —
//!   [`ServeStats::retried`]), transient [`MultiplyError::Device`]
//!   faults are retried the same way, and a job that keeps killing
//!   flushes is quarantined with [`ServeError::Poisoned`] instead of
//!   taking the fleet down with it. On a supervised pool
//!   ([`ServerPool::with_backend_factory`]) a panicked card is *rebuilt*
//!   — exponential backoff, at most [`ServeConfig::restart_cap`]
//!   attempts, session pins replayed — and per-card [`CardHealth`] shows
//!   up in [`PoolStats::health`]; [`ServerPool::drain`] stops intake and
//!   finishes queued work before joining. The deterministic
//!   [`crate::fault::FaultyMultiplier`] harness drives all of it in
//!   tests and `bench_chaos`.
//!
//! On top of the queue each card keeps a **prepared-handle cache** (LRU,
//! keyed by the operand's digest): every operand of a flushed job is
//! pushed through [`Multiplier::prepare`] once and the handle retained, so
//! a recurring operand — a running accumulator, a fixed key element, a
//! SIMD mask — automatically lands on the one-cached/both-cached rungs of
//! the batch ladder without the caller managing handles at all. A flush's
//! cache **misses** are prepared in parallel at the product level
//! ([`EvalEngine::prepare_many`]): each missing forward transform already
//! fans out across cores internally, but independent misses no longer wait
//! on each other. Caches are per card — handles are provenance-stamped by
//! the backend instance that prepared them, so cards never share spectra
//! unless their transform geometry matches (see
//! [`crate::engine::HandleProvenance`]).
//!
//! A pool can additionally run a **speculative preparer**
//! ([`ServerPool::spawn_speculative`]): a background task that watches the
//! digest LRU's hit statistics and prepares the *stream-side* operand of
//! queued jobs — the fresh partner of a hot recurring operand — off the
//! critical path, so the next flush finds both spectra resident and the
//! product lands on the both-cached rung.
//!
//! [`ServedMultiplier`] closes the loop with the DGHV layer: it implements
//! [`he_dghv::CiphertextMultiplier`] over any [`Submitter`], so circuit
//! evaluation (`CircuitEvaluator::and_tree`, comparator sweeps) schedules
//! whole levels as one micro-batch through the resident fleet.
//!
//! # Example: one resident card
//!
//! ```
//! use he_accel::prelude::*;
//!
//! let engine = EvalEngine::new(SsaSoftware::for_operand_bits(256)?);
//! let server = ProductServer::spawn(engine, ServeConfig::default());
//! let a = UBig::from(123_456_789u64);
//! let tickets: Vec<ProductTicket> = (1..=4u64)
//!     .map(|k| {
//!         server
//!             .submit(ProductRequest::new(a.clone(), UBig::from(k)))
//!             .expect("server alive")
//!     })
//!     .collect();
//! for (k, ticket) in (1..=4u64).zip(tickets) {
//!     assert_eq!(ticket.wait().expect("served"), &a * &UBig::from(k));
//! }
//! let stats = server.shutdown();
//! assert_eq!(stats.completed, 4);
//! # Ok::<(), he_accel::MultiplyError>(())
//! ```
//!
//! # Example: a two-card fleet
//!
//! ```
//! use he_accel::prelude::*;
//!
//! // Two resident engines (two simulated cards) share one queue.
//! let cards = vec![
//!     EvalEngine::new(SsaSoftware::for_operand_bits(256)?),
//!     EvalEngine::new(SsaSoftware::for_operand_bits(256)?),
//! ];
//! let pool = ServerPool::spawn(cards, ServeConfig::default());
//! assert_eq!(pool.workers(), 2);
//! let a = UBig::from(1_000_003u64);
//! let tickets: Vec<ProductTicket> = (1..=8u64)
//!     .map(|k| {
//!         pool.submit(ProductRequest::new(a.clone(), UBig::from(k)))
//!             .expect("pool alive")
//!     })
//!     .collect();
//! for (k, ticket) in (1..=8u64).zip(tickets) {
//!     assert_eq!(ticket.wait().expect("served"), &a * &UBig::from(k));
//! }
//! let stats = pool.shutdown();
//! assert_eq!(stats.total().completed, 8);
//! assert_eq!(stats.per_worker.len(), 2);
//! # Ok::<(), he_accel::MultiplyError>(())
//! ```

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use he_bigint::UBig;
use he_dghv::{CiphertextMultiplier, PreparedFactor};
use he_ntt::par::lock_or_recover;

use crate::engine::{EvalEngine, OperandHandle, ProductJob};
use crate::multiplier::{Multiplier, MultiplyError};

/// How a card picks jobs out of the shared queue when it claims a flush.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Earliest-deadline-first: a flush takes the pending jobs with the
    /// earliest deadlines (deadline-less jobs rank last, in arrival
    /// order). Under overload this serves urgent jobs while they can
    /// still make it, expiring strictly fewer jobs than arrival order;
    /// with no deadlines in play it degenerates to FIFO exactly.
    #[default]
    Edf,
    /// Strict arrival order, deadlines ignored for *selection* (expiry
    /// and early-flush pulls still apply). The baseline `bench_fleet`
    /// compares EDF against.
    Fifo,
}

/// How jobs are matched to cards when a fleet's transform geometries
/// differ.
///
/// ```
/// use he_accel::prelude::*;
/// use std::time::Duration;
///
/// // A small card and a big card behind one queue: by-size routing
/// // sends each job to a card whose transform fits it.
/// let pool = ServerPool::spawn(
///     vec![
///         EvalEngine::new(SsaSoftware::for_operand_bits(2_000)?),
///         EvalEngine::new(SsaSoftware::for_operand_bits(100_000)?),
///     ],
///     ServeConfig {
///         route: RoutePolicy::BySize,
///         max_delay: Duration::from_millis(1),
///         ..ServeConfig::default()
///     },
/// );
/// let big = UBig::pow2(50_000); // only the 100k-bit card can run this
/// let ticket = pool.submit(ProductRequest::new(big.clone(), UBig::from(3u64)))?;
/// assert_eq!(ticket.wait().expect("routed to the big card"), &big * &UBig::from(3u64));
/// assert_eq!(pool.shutdown().total().failed, 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RoutePolicy {
    /// One shared queue, any card claims any job — the right default for
    /// homogeneous fleets (every card can run everything).
    #[default]
    Shared,
    /// A card only claims jobs whose operands fit its transform geometry
    /// ([`crate::Multiplier::operand_capacity_bits`]), so a heterogeneous
    /// fleet — small fast cards next to big ones — serves mixed-size
    /// traffic with zero capacity failures. A job too big for every
    /// *live* card stays claimable by all of them (it fails fast with
    /// the backend's own typed error instead of waiting forever — also
    /// when the one card that fitted it has died).
    BySize,
}

/// Tuning knobs of a [`ProductServer`] / [`ServerPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bounded submission-queue depth: [`Submitter::submit`] blocks and
    /// [`Submitter::try_submit`] sheds once this many jobs are waiting
    /// (minimum 1). Claimed micro-batches no longer count against the
    /// bound.
    pub queue_capacity: usize,
    /// Flush a micro-batch when this many jobs are pending (minimum 1).
    pub max_batch: usize,
    /// Flush a micro-batch when the oldest pending job has waited this
    /// long, even if the batch is not full — bounds added latency under
    /// light traffic.
    pub max_delay: Duration,
    /// How a flush selects its jobs from the shared queue (see
    /// [`FlushPolicy`]).
    pub policy: FlushPolicy,
    /// How jobs are matched to cards of differing transform geometry
    /// (see [`RoutePolicy`]; irrelevant on homogeneous fleets).
    pub route: RoutePolicy,
    /// Prepared-handle cache entries retained **per card** (LRU); `0`
    /// disables caching and every job runs as a raw three-transform
    /// product. Each entry holds the operand plus its full cached
    /// spectrum (at the paper's 64K-point plan roughly 0.6 MB), so this
    /// knob bounds each card's resident memory. Entries also age out:
    /// see [`ServeConfig::idle_trim_after`]. Backends whose handles
    /// cache nothing (the classical algorithms) disable the cache
    /// automatically.
    pub cache_capacity: usize,
    /// After this long with no traffic a card releases its backend's idle
    /// working memory ([`Multiplier::trim_resources`]) **and** its
    /// prepared-handle cache — a resident server must not pin a burst's
    /// worth of multi-MB scratch and spectra forever. The next burst
    /// re-prepares the operands it actually reuses.
    ///
    /// The same window bounds a cached handle's age under steady traffic:
    /// at the end of every flush a card drops the digest-cache handles
    /// last used more than this long before **that flush started** (so a
    /// flush that itself runs longer keeps the handles it used). Pinned
    /// operands are exempt.
    pub idle_trim_after: Duration,
    /// A recurring operand becomes *hot* — eligible to drive speculative
    /// preparation of its fresh partners — once its digest has hit a
    /// card's prepared-handle cache this many times (minimum 1; only
    /// consulted when the pool runs a speculative preparer).
    pub speculate_hot_after: u32,
    /// Speculatively prepared handles retained in the pool-shared staging
    /// store before cards claim them (oldest evicted first).
    pub speculate_store_capacity: usize,
    /// How many times a failed job is re-queued before the fleet gives
    /// up on it. A job in a **panicked** flush is re-queued to the
    /// surviving cards (and isolated: it runs alone until it proves
    /// innocent) until it has taken down `retry_limit + 1` flushes — then
    /// it is quarantined with [`ServeError::Poisoned`]. A job failing
    /// with a *transient* device fault ([`MultiplyError::Device`]) is
    /// re-queued the same number of times before its error is delivered.
    /// Retries honor the job's deadline budget; `0` disables retrying.
    pub retry_limit: u32,
    /// On a factory-supervised pool ([`ServerPool::with_backend_factory`]),
    /// how many **consecutive** restarts a card may attempt without
    /// completing a single clean flush in between, before it is declared
    /// [`CardHealth::Dead`]. A clean flush refills the budget.
    pub restart_cap: u32,
    /// Backoff before the first restart attempt of a panicked card;
    /// doubles per consecutive attempt (capped at ~1 s).
    pub restart_backoff: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_capacity: 256,
            max_batch: 64,
            max_delay: Duration::from_millis(5),
            policy: FlushPolicy::Edf,
            route: RoutePolicy::Shared,
            cache_capacity: 128,
            idle_trim_after: Duration::from_millis(250),
            speculate_hot_after: 2,
            speculate_store_capacity: 32,
            retry_limit: 2,
            restart_cap: 3,
            restart_backoff: Duration::from_millis(10),
        }
    }
}

/// One side of a product request: an inline operand, or a reference to
/// an operand a [`ClientSession`] registered (pinned in every card's
/// cache by id — resolved without hashing the operand's data).
#[derive(Debug, Clone)]
enum Operand {
    Inline(UBig),
    Pinned { id: u64, value: Arc<UBig> },
}

impl Operand {
    fn value(&self) -> &UBig {
        match self {
            Operand::Inline(value) => value,
            Operand::Pinned { value, .. } => value,
        }
    }
}

/// One product job: two owned operands and an optional deadline.
#[derive(Debug, Clone)]
pub struct ProductRequest {
    a: Operand,
    b: Operand,
    deadline: Option<Instant>,
}

impl ProductRequest {
    /// A request to multiply `a · b` with no deadline.
    pub fn new(a: UBig, b: UBig) -> ProductRequest {
        ProductRequest {
            a: Operand::Inline(a),
            b: Operand::Inline(b),
            deadline: None,
        }
    }

    /// Attaches a deadline `timeout` from now: if the job has not
    /// *started executing* by then, it is answered with
    /// [`ServeError::Expired`] instead of occupying a card. A deadline
    /// inside the micro-batch window pulls its flush earlier (scheduled a
    /// small margin before the deadline so execution starts in time), and
    /// under [`FlushPolicy::Edf`] an earlier deadline also wins a seat in
    /// the next flush; deadlines tighter than that scheduling margin
    /// (~0.5 ms) are best-effort even on an idle server.
    pub fn with_deadline(mut self, timeout: Duration) -> ProductRequest {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// The operands.
    pub fn operands(&self) -> (&UBig, &UBig) {
        (self.a.value(), self.b.value())
    }

    /// The absolute deadline, if one was attached.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The pin ids riding this request's operands (`None` for an inline
    /// side). Remote [`Submitter`] implementations use this to ship a
    /// pinned operand as its id alone instead of re-serializing the
    /// operand's bytes on every submission — the whole point of pinning,
    /// preserved across a wire.
    pub fn operand_pins(&self) -> (Option<u64>, Option<u64>) {
        let pin = |operand: &Operand| match operand {
            Operand::Pinned { id, .. } => Some(*id),
            Operand::Inline(_) => None,
        };
        (pin(&self.a), pin(&self.b))
    }

    /// A request multiplying a **pinned** operand (carried by `id` with
    /// its registered value) by a fresh inline operand.
    ///
    /// This is the constructor for remote transports that manage their
    /// own pin namespace (a network session registering operands on a
    /// far-end fleet). Local callers should pin through
    /// [`ClientSession::register`]/[`ClientSession::request_with`]
    /// instead: pin ids are pool-global, and a request built here with an
    /// id from a different namespace resolves against whatever that id
    /// means on the pool it is submitted to.
    pub fn pinned_with(id: u64, value: Arc<UBig>, fresh: UBig) -> ProductRequest {
        ProductRequest {
            a: Operand::Pinned { id, value },
            b: Operand::Inline(fresh),
            deadline: None,
        }
    }

    /// A request multiplying two **pinned** operands — the remote-
    /// transport counterpart of [`ClientSession::request_between`]; the
    /// same namespace caveat as [`ProductRequest::pinned_with`] applies.
    pub fn pinned_pair(a: (u64, Arc<UBig>), b: (u64, Arc<UBig>)) -> ProductRequest {
        ProductRequest {
            a: Operand::Pinned {
                id: a.0,
                value: a.1,
            },
            b: Operand::Pinned {
                id: b.0,
                value: b.1,
            },
            deadline: None,
        }
    }

    /// The job's size for routing: the wider of its two operands, in
    /// bits.
    fn required_bits(&self) -> usize {
        self.a.value().bit_len().max(self.b.value().bit_len())
    }
}

/// Why a served product failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The job's deadline passed before execution — either while it
    /// waited in the shared queue, or during its own flush's preparation
    /// phase (the two cases are attributed separately in [`ServeStats`]).
    Expired {
        /// How far past the deadline the job was when the server gave up
        /// on it.
        missed_by: Duration,
    },
    /// The backend rejected the product (capacity, parameters).
    Multiply(MultiplyError),
    /// The job was **quarantined**: every flush that included it took its
    /// card down (a panic in the backend — see the supervision story in
    /// the module docs), and after `attempts` such strikes the fleet
    /// answers the job with this error instead of letting it kill another
    /// card. Batch-mates of a poisonous job are re-queued and served by
    /// the surviving (or restarted) cards; only the job the failures
    /// isolate is quarantined.
    Poisoned {
        /// Flushes this job took down before the fleet gave up on it
        /// (`ServeConfig::retry_limit` + 1).
        attempts: u32,
    },
    /// The server shut down before delivering a result.
    Closed,
}

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServeError::Expired { missed_by } => {
                write!(f, "job deadline expired {missed_by:?} before execution")
            }
            ServeError::Multiply(e) => write!(f, "{e}"),
            ServeError::Poisoned { attempts } => write!(
                f,
                "job quarantined after taking down {attempts} consecutive flushes"
            ),
            ServeError::Closed => write!(f, "product server closed before delivering a result"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Multiply(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MultiplyError> for ServeError {
    fn from(e: MultiplyError) -> ServeError {
        ServeError::Multiply(e)
    }
}

/// Why a submission was not accepted; the request is handed back so the
/// caller can retry, reroute or shed it.
#[derive(Debug)]
pub enum SubmitError {
    /// The bounded queue is full (only [`Submitter::try_submit`] reports
    /// this; [`Submitter::submit`] blocks instead).
    Full(ProductRequest),
    /// Every worker is gone (shutdown, or the last card panicked).
    Closed(ProductRequest),
}

impl SubmitError {
    /// Recovers the rejected request.
    pub fn into_request(self) -> ProductRequest {
        match self {
            SubmitError::Full(request) | SubmitError::Closed(request) => request,
        }
    }
}

impl core::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SubmitError::Full(_) => write!(f, "submission queue is full"),
            SubmitError::Closed(_) => write!(f, "product server is closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Claim on one submitted job's result.
///
/// A ticket resolves exactly once — to the product, or to a typed
/// [`ServeError`] — and never hangs: if the serving worker dies (panic
/// included) or the job is dropped at shutdown, the ticket resolves to
/// [`ServeError::Closed`]. Dropping a ticket is a fire-and-forget
/// submission (the job still runs; its result is discarded);
/// [`ProductTicket::cancel`] additionally asks the fleet to *not* run a
/// still-queued job.
///
/// ```
/// use he_accel::prelude::*;
/// use std::time::Duration;
///
/// let server = ProductServer::spawn(
///     EvalEngine::new(SsaSoftware::for_operand_bits(256)?),
///     ServeConfig::default(),
/// );
/// let mut ticket = server.submit(ProductRequest::new(
///     UBig::from(6u64),
///     UBig::from(7u64),
/// ))?;
/// // Poll without blocking, bound the wait, or block — same ticket.
/// let product = match ticket.try_wait() {
///     Some(resolved) => resolved.expect("served"),
///     None => match ticket.wait_timeout(Duration::from_secs(30)) {
///         Some(resolved) => resolved.expect("served"),
///         None => ticket.wait().expect("served"),
///     },
/// };
/// assert_eq!(product, UBig::from(42u64));
/// server.shutdown();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ProductTicket {
    rx: mpsc::Receiver<Result<UBig, ServeError>>,
    cancelled: Arc<AtomicBool>,
}

impl ProductTicket {
    /// Blocks until the job's micro-batch is flushed and returns the
    /// product (or the job's typed failure).
    ///
    /// # Errors
    ///
    /// [`ServeError::Expired`] when the deadline passed before execution,
    /// [`ServeError::Multiply`] when the backend rejected the product, and
    /// [`ServeError::Closed`] when the server shut down first.
    pub fn wait(self) -> Result<UBig, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Closed))
    }

    /// Polls the ticket without blocking: `None` while the job is still
    /// queued or executing, `Some(outcome)` once it resolved. A ticket
    /// resolves once; polling again after taking the outcome reports
    /// [`ServeError::Closed`].
    pub fn try_wait(&mut self) -> Option<Result<UBig, ServeError>> {
        match self.rx.try_recv() {
            Ok(outcome) => Some(outcome),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Closed)),
        }
    }

    /// Blocks for at most `timeout`: `None` if the job has not resolved
    /// by then (the ticket stays valid — wait again, poll, or cancel),
    /// `Some(outcome)` once it has. A dead fleet resolves the ticket to
    /// [`ServeError::Closed`] rather than running out the timeout.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<Result<UBig, ServeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(outcome) => Some(outcome),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::Closed)),
        }
    }

    /// Withdraws the job: if it is still queued when a card claims its
    /// flush, it is dropped without running (counted in
    /// [`ServeStats::cancelled`]). Cancellation is best-effort — a job
    /// already claimed into a flush runs to completion; its result is
    /// discarded like any dropped ticket's.
    pub fn cancel(self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// A ticket resolved by the caller instead of by a local fleet — the
    /// building block for **remote** [`Submitter`] implementations: the
    /// transport hands the ticket to its client and resolves it from the
    /// connection's reader thread when the far end answers.
    ///
    /// The never-hangs contract survives the split: dropping the
    /// [`TicketResolver`] unresolved (connection lost, transport shut
    /// down) makes every wait on the ticket report
    /// [`ServeError::Closed`]. Cancelling the ticket raises a flag the
    /// resolver side can observe ([`TicketResolver::is_cancelled`]) and
    /// forward to the far end.
    pub fn remote() -> (ProductTicket, TicketResolver) {
        let (tx, rx) = mpsc::channel();
        let cancelled = Arc::new(AtomicBool::new(false));
        let ticket = ProductTicket {
            rx,
            cancelled: Arc::clone(&cancelled),
        };
        (ticket, TicketResolver { tx, cancelled })
    }
}

/// The resolving half of [`ProductTicket::remote`]: whoever holds it
/// answers the ticket exactly once — or drops it, which resolves the
/// ticket to [`ServeError::Closed`].
#[derive(Debug)]
pub struct TicketResolver {
    tx: mpsc::Sender<Result<UBig, ServeError>>,
    cancelled: Arc<AtomicBool>,
}

impl TicketResolver {
    /// Delivers the ticket's outcome. A ticket whose holder stopped
    /// listening (dropped it) absorbs the outcome silently.
    pub fn resolve(self, outcome: Result<UBig, ServeError>) {
        let _ = self.tx.send(outcome);
    }

    /// Whether the ticket side called [`ProductTicket::cancel`] — a
    /// remote transport polls this to forward the withdrawal to the far
    /// end (cancellation stays best-effort, exactly as locally).
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }
}

/// Best-effort withdrawal handle for a sink-bound submission — what
/// [`ProductTicket::cancel`] is to a ticket-bound one. Minted by
/// [`ClientSession::submit_into_cancellable`] so a server-side front end
/// (e.g. a network connection reactor) can honor an out-of-band cancel
/// message for a job whose completion travels through a
/// [`CompletionSink`]: if the job is still queued when a card claims its
/// flush, it is dropped without running (counted in
/// [`ServeStats::cancelled`]) and its sink resolves
/// [`ServeError::Closed`].
#[derive(Debug, Clone)]
pub struct CancelHandle {
    cancelled: Arc<AtomicBool>,
}

impl CancelHandle {
    /// Asks the fleet not to run the job if it has not been claimed yet.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation was requested through this handle.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }
}

/// Lifetime counters of one serving worker (one card), returned by
/// [`ProductServer::shutdown`] and, per card, by [`ServerPool::shutdown`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Micro-batches flushed.
    pub flushes: u64,
    /// Jobs answered with a product.
    pub completed: u64,
    /// Jobs answered with a backend error.
    pub failed: u64,
    /// Jobs whose deadline had already passed when a card dequeued them —
    /// they expired **in the queue**, so the miss is attributable to
    /// queueing (arrival rate vs fleet capacity), not to the flush that
    /// found them.
    pub expired_in_queue: u64,
    /// Jobs that were still live when their flush was claimed but whose
    /// deadline passed during the flush's preparation phase — the miss is
    /// attributable to **compute** (the flush itself ran too long), not
    /// to queueing.
    pub expired_in_flush: u64,
    /// Jobs withdrawn by [`ProductTicket::cancel`] and dropped at claim
    /// time without running.
    pub cancelled: u64,
    /// Non-blocking submissions rejected with [`SubmitError::Full`] —
    /// load the bounded queue shed instead of buffering. Counted at the
    /// pool level (no card ever saw the job) and folded into the roll-up
    /// by [`PoolStats::total`].
    pub shed: u64,
    /// Operand lookups that hit the card's cached prepared handles.
    pub cache_hits: u64,
    /// Operand lookups that paid a fresh preparation.
    pub cache_misses: u64,
    /// Operand lookups resolved from the card's **pinned** handles — the
    /// operands a [`ClientSession::register`] call pinned by id, served
    /// without hashing the operand's data at all.
    pub pinned_hits: u64,
    /// Operand lookups answered by the pool's speculative preparer — the
    /// spectrum was ready before the flush started, off the critical
    /// path.
    pub speculative_hits: u64,
    /// Largest single flush, in jobs.
    pub largest_flush: usize,
    /// Idle-trim passes (backend scratch released after a quiet period).
    pub idle_trims: u64,
    /// Jobs re-queued after a panicked or transiently-failing flush —
    /// each re-queue counts once, on the card whose flush failed (see
    /// [`ServeConfig::retry_limit`]).
    pub retried: u64,
    /// Solo re-runs of jobs from a batch that reported an error — the
    /// per-job isolation pass that keeps one bad product from failing its
    /// batch-mates.
    pub reruns: u64,
    /// Times this card's engine was rebuilt from the backend factory
    /// after a panic ([`ServerPool::with_backend_factory`]).
    pub restarts: u64,
    /// Jobs quarantined with [`ServeError::Poisoned`] after exhausting
    /// their retry budget on panicked flushes.
    pub poisoned: u64,
}

impl ServeStats {
    /// Total jobs answered with [`ServeError::Expired`], wherever the
    /// deadline was missed.
    pub fn expired(&self) -> u64 {
        self.expired_in_queue + self.expired_in_flush
    }

    /// Folds another worker's counters into this one (counter fields add;
    /// `largest_flush` takes the maximum).
    pub fn absorb(&mut self, other: &ServeStats) {
        self.flushes += other.flushes;
        self.completed += other.completed;
        self.failed += other.failed;
        self.expired_in_queue += other.expired_in_queue;
        self.expired_in_flush += other.expired_in_flush;
        self.cancelled += other.cancelled;
        self.shed += other.shed;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.pinned_hits += other.pinned_hits;
        self.speculative_hits += other.speculative_hits;
        self.largest_flush = self.largest_flush.max(other.largest_flush);
        self.idle_trims += other.idle_trims;
        self.retried += other.retried;
        self.reruns += other.reruns;
        self.restarts += other.restarts;
        self.poisoned += other.poisoned;
    }
}

/// Supervision state of one card of a fleet (see [`PoolStats::health`]
/// and the card-health state diagram in `ARCHITECTURE.md`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CardHealth {
    /// Serving normally.
    #[default]
    Live,
    /// The card's worker caught a backend panic and is rebuilding its
    /// engine from the pool's backend factory (backoff, re-prepare,
    /// pin replay). It claims no jobs while restarting.
    Restarting,
    /// The card is gone for good: it panicked on a pool with no backend
    /// factory, or exhausted [`ServeConfig::restart_cap`] consecutive
    /// restart attempts. [`RoutePolicy::BySize`] stops routing to it;
    /// the fleet serves on with the survivors.
    Dead,
}

/// Counters of a whole fleet: one [`ServeStats`] per card plus the
/// pool-level speculation counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Per-card lifetime counters, in card order.
    pub per_worker: Vec<ServeStats>,
    /// Operands the speculative preparer transformed off the critical
    /// path (whether or not a card ended up claiming them).
    pub speculative_prepares: u64,
    /// Non-blocking submissions the pool rejected with
    /// [`SubmitError::Full`] — shed load that no card ever saw.
    pub shed: u64,
    /// Per-card supervision state, in card order (see [`CardHealth`]).
    /// [`ServerPool::shutdown`] and [`ServerPool::drain`] snapshot this
    /// *before* closing the queue, so a clean exit still reports the
    /// fleet's serving-time health.
    pub health: Vec<CardHealth>,
}

impl PoolStats {
    /// The fleet-wide roll-up of every card's counters, with the
    /// pool-level shed count folded into [`ServeStats::shed`].
    pub fn total(&self) -> ServeStats {
        let mut total = ServeStats::default();
        for worker in &self.per_worker {
            total.absorb(worker);
        }
        total.shed += self.shed;
        total
    }
}

/// The submission surface shared by [`ProductServer`] and [`ServerPool`]
/// — everything a client (or [`ServedMultiplier`]) needs to feed a
/// resident serving front.
pub trait Submitter {
    /// Submits a job, **blocking** while the bounded queue is full.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] (with the request handed back) if every
    /// worker is gone.
    fn submit(&self, request: ProductRequest) -> Result<ProductTicket, SubmitError>;

    /// Submits a job without blocking: a full queue returns
    /// [`SubmitError::Full`] with the request handed back — the
    /// backpressure signal for load-shedding producers (counted in
    /// [`ServeStats::shed`]).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when the queue is at capacity,
    /// [`SubmitError::Closed`] if every worker is gone.
    fn try_submit(&self, request: ProductRequest) -> Result<ProductTicket, SubmitError>;

    /// Submits a job whose completion is delivered through `sink` — onto
    /// the [`CompletionQueue`] that minted it — instead of a per-job
    /// ticket. Blocks while the queue is full, like [`Submitter::submit`].
    /// Wrappers forward this to their inner submitter; clients use
    /// [`CompletionQueue::submit_tagged`] rather than calling it
    /// directly.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] (with the request handed back) if every
    /// worker is gone.
    fn submit_into(&self, request: ProductRequest, sink: CompletionSink)
        -> Result<(), SubmitError>;

    /// Non-blocking [`Submitter::submit_into`]: a full queue returns
    /// [`SubmitError::Full`] with the request handed back (counted in
    /// [`ServeStats::shed`]).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when the queue is at capacity,
    /// [`SubmitError::Closed`] if every worker is gone.
    fn try_submit_into(
        &self,
        request: ProductRequest,
        sink: CompletionSink,
    ) -> Result<(), SubmitError>;
}

/// One job's slot on a [`CompletionQueue`]: carries the queue's shared
/// sender and the job's tag id. Minted by [`CompletionQueue::submit_tagged`],
/// consumed by the serving worker when it delivers the outcome — and
/// guaranteed to deliver exactly once: a sink dropped without an outcome
/// (worker panic, shutdown with the job still queued) reports
/// [`ServeError::Closed`], so a reactor draining the queue never hangs
/// on a job the fleet lost.
#[derive(Debug)]
pub struct CompletionSink {
    tx: mpsc::Sender<(u64, Result<UBig, ServeError>)>,
    tag: u64,
    sent: bool,
}

impl CompletionSink {
    /// Delivers the job's outcome to the owning [`CompletionQueue`].
    /// Wrapper [`Submitter`]s that execute jobs themselves (rather than
    /// forwarding to an inner fleet) complete their jobs through this.
    pub fn complete(mut self, outcome: Result<UBig, ServeError>) {
        self.sent = true;
        // A dropped CompletionQueue is a caller that stopped listening.
        let _ = self.tx.send((self.tag, outcome));
    }
}

impl Drop for CompletionSink {
    fn drop(&mut self) {
        if !self.sent {
            let _ = self.tx.send((self.tag, Err(ServeError::Closed)));
        }
    }
}

/// One resolved job from a [`CompletionQueue`]: the caller's tag and the
/// job's outcome.
#[derive(Debug)]
pub struct Completion<T> {
    /// The tag supplied at [`CompletionQueue::submit_tagged`].
    pub tag: T,
    /// The job's outcome — same contract as [`ProductTicket::wait`].
    pub result: Result<UBig, ServeError>,
}

/// A single-receiver multiplexer over many in-flight submissions: the
/// non-blocking, completion-driven alternative to holding one
/// [`ProductTicket`] (and one blocked thread) per job.
///
/// Submissions carry a caller-supplied tag; completions come back **in
/// completion order** — whichever flush finishes first — each carrying
/// its tag, so one reactor thread keeps an arbitrary number of products
/// in flight: submit until the window is full, [`CompletionQueue::recv`]
/// one completion, submit the next. Works over any [`Submitter`]: a
/// [`ProductServer`], a [`ServerPool`], or a [`ClientSession`] (tags
/// then ride pinned-operand requests too).
///
/// ```
/// use he_accel::prelude::*;
///
/// let server = ProductServer::spawn(
///     EvalEngine::new(SsaSoftware::for_operand_bits(256)?),
///     ServeConfig::default(),
/// );
/// let mut queue = CompletionQueue::new(&server);
/// for k in 2..6u64 {
///     queue
///         .submit_tagged(ProductRequest::new(UBig::from(k), UBig::from(k)), k)
///         .map_err(|(e, _)| e)?;
/// }
/// assert_eq!(queue.in_flight(), 4);
/// // One thread drains all four, in whatever order the fleet finished.
/// while let Some(done) = queue.recv() {
///     assert_eq!(done.result.expect("served"), UBig::from(done.tag * done.tag));
/// }
/// assert_eq!(queue.in_flight(), 0);
/// server.shutdown();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct CompletionQueue<'a, S: Submitter + ?Sized, T = u64> {
    submitter: &'a S,
    tx: mpsc::Sender<(u64, Result<UBig, ServeError>)>,
    rx: mpsc::Receiver<(u64, Result<UBig, ServeError>)>,
    /// Tag id → the caller's tag, for every job still in flight.
    tags: HashMap<u64, T>,
    next_id: u64,
}

impl<'a, S: Submitter + ?Sized, T> CompletionQueue<'a, S, T> {
    /// A completion queue feeding `submitter`.
    pub fn new(submitter: &'a S) -> CompletionQueue<'a, S, T> {
        let (tx, rx) = mpsc::channel();
        CompletionQueue {
            submitter,
            tx,
            rx,
            tags: HashMap::new(),
            next_id: 0,
        }
    }

    fn sink(&mut self, tag: T) -> (u64, CompletionSink) {
        let id = self.next_id;
        self.next_id += 1;
        self.tags.insert(id, tag);
        (
            id,
            CompletionSink {
                tx: self.tx.clone(),
                tag: id,
                sent: false,
            },
        )
    }

    /// Submits a job under `tag`, **blocking** while the bounded queue is
    /// full. The tag comes back with the job's completion.
    ///
    /// # Errors
    ///
    /// `(SubmitError::Closed, tag)` — request and tag both handed back —
    /// if every worker is gone.
    pub fn submit_tagged(
        &mut self,
        request: ProductRequest,
        tag: T,
    ) -> Result<(), (SubmitError, T)> {
        let (id, sink) = self.sink(tag);
        self.submitter.submit_into(request, sink).map_err(|error| {
            (
                error,
                self.tags.remove(&id).expect("tag registered just now"),
            )
        })
    }

    /// Non-blocking [`CompletionQueue::submit_tagged`]: a full queue
    /// hands request and tag back instead of blocking.
    ///
    /// # Errors
    ///
    /// `(SubmitError::Full, tag)` when the queue is at capacity,
    /// `(SubmitError::Closed, tag)` if every worker is gone.
    pub fn try_submit_tagged(
        &mut self,
        request: ProductRequest,
        tag: T,
    ) -> Result<(), (SubmitError, T)> {
        let (id, sink) = self.sink(tag);
        self.submitter
            .try_submit_into(request, sink)
            .map_err(|error| {
                (
                    error,
                    self.tags.remove(&id).expect("tag registered just now"),
                )
            })
    }

    /// Jobs submitted through this queue that have not completed yet.
    pub fn in_flight(&self) -> usize {
        self.tags.len()
    }

    /// Blocks for the next completion, in completion order. Returns
    /// `None` when nothing is in flight. Never hangs on a dead fleet:
    /// every accepted job's sink reports [`ServeError::Closed`] when it
    /// is dropped unanswered.
    pub fn recv(&mut self) -> Option<Completion<T>> {
        loop {
            if self.tags.is_empty() {
                return None;
            }
            // The queue holds its own sender, so the channel never
            // disconnects. Ids no longer registered are skipped: a
            // submission that failed after minting its sink delivers a
            // spurious `Closed` for a tag already handed back.
            let (id, result) = self.rx.recv().expect("queue holds a sender");
            if let Some(tag) = self.tags.remove(&id) {
                return Some(Completion { tag, result });
            }
        }
    }

    /// Non-blocking [`CompletionQueue::recv`]: `None` when no completion
    /// is ready right now (or nothing is in flight).
    pub fn try_recv(&mut self) -> Option<Completion<T>> {
        loop {
            if self.tags.is_empty() {
                return None;
            }
            let (id, result) = self.rx.try_recv().ok()?;
            if let Some(tag) = self.tags.remove(&id) {
                return Some(Completion { tag, result });
            }
        }
    }

    /// Bounded [`CompletionQueue::recv`]: `None` if no completion arrives
    /// within `timeout` (or nothing is in flight).
    pub fn recv_timeout(&mut self, timeout: Duration) -> Option<Completion<T>> {
        let deadline = Instant::now() + timeout;
        loop {
            if self.tags.is_empty() {
                return None;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            let (id, result) = self.rx.recv_timeout(remaining).ok()?;
            if let Some(tag) = self.tags.remove(&id) {
                return Some(Completion { tag, result });
            }
        }
    }

    /// Blocks until every in-flight job has completed and returns the
    /// completions in completion order.
    pub fn drain(&mut self) -> Vec<Completion<T>> {
        let mut done = Vec::with_capacity(self.tags.len());
        while let Some(completion) = self.recv() {
            done.push(completion);
        }
        done
    }
}

/// An **owned** mint/receiver pair for [`CompletionSink`]s — the
/// [`CompletionQueue`] reactor pattern detached from any borrowed
/// submitter, so the two halves can live on different threads with
/// independent lifetimes. A server-side reactor (e.g. a socket writer
/// thread draining one connection's completions) owns the
/// [`CompletionReceiver`] outright, while whatever accepts jobs keeps the
/// [`CompletionMint`] (`Clone`) and attaches a sink per submission via
/// [`Submitter::submit_into`].
///
/// The exactly-once delivery contract is the sink's own: a sink dropped
/// unanswered reports [`ServeError::Closed`], and
/// [`CompletionReceiver::recv`] returns `None` only once the mint and
/// every outstanding sink are gone — the receiver's loop terminates
/// naturally when the producing side shuts down.
pub fn completion_channel() -> (CompletionMint, CompletionReceiver) {
    let (tx, rx) = mpsc::channel();
    (CompletionMint { tx }, CompletionReceiver { rx })
}

/// The minting half of [`completion_channel`]: stamps
/// [`CompletionSink`]s, each tagged with a caller-chosen `u64`, all
/// delivering to the paired [`CompletionReceiver`].
#[derive(Debug, Clone)]
pub struct CompletionMint {
    tx: mpsc::Sender<(u64, Result<UBig, ServeError>)>,
}

impl CompletionMint {
    /// A sink delivering `(tag, outcome)` to the paired receiver.
    pub fn sink(&self, tag: u64) -> CompletionSink {
        CompletionSink {
            tx: self.tx.clone(),
            tag,
            sent: false,
        }
    }
}

/// The draining half of [`completion_channel`]: completions arrive in
/// completion order, each carrying the tag its sink was minted with.
#[derive(Debug)]
pub struct CompletionReceiver {
    rx: mpsc::Receiver<(u64, Result<UBig, ServeError>)>,
}

impl CompletionReceiver {
    /// Blocks for the next completion. Returns `None` once the mint and
    /// every outstanding sink have been dropped — the clean-shutdown
    /// signal for a reactor draining this receiver.
    pub fn recv(&self) -> Option<(u64, Result<UBig, ServeError>)> {
        self.rx.recv().ok()
    }

    /// Non-blocking [`CompletionReceiver::recv`]: `None` when no
    /// completion is ready right now *or* the channel is finished — use
    /// the blocking form to distinguish shutdown from idleness.
    pub fn try_recv(&self) -> Option<(u64, Result<UBig, ServeError>)> {
        self.rx.try_recv().ok()
    }
}

/// How far before a job's deadline its flush is scheduled. The margin
/// must cover the worker's wakeup-and-dispatch latency *and* the flush's
/// own operand-preparation phase (the in-flush expiry check runs after
/// prepare): a flush fired *at* the deadline would start execution just
/// past it and expire the very job the early flush was meant to save.
/// Condvar wakeup overshoot alone is routinely past 1 ms on a loaded
/// host, so this is milliseconds, not microseconds.
const DEADLINE_SCHEDULING_MARGIN: Duration = Duration::from_millis(10);

/// Where a job's outcome goes: a per-job ticket channel, or a tagged
/// slot on a client's [`CompletionQueue`].
#[derive(Debug)]
enum ReplySink {
    Ticket(mpsc::Sender<Result<UBig, ServeError>>),
    Tagged(CompletionSink),
}

impl ReplySink {
    fn send(self, outcome: Result<UBig, ServeError>) {
        match self {
            // A dropped ticket is a caller that stopped listening — fine.
            ReplySink::Ticket(tx) => {
                let _ = tx.send(outcome);
            }
            ReplySink::Tagged(sink) => sink.complete(outcome),
        }
    }
}

/// One buffered answer: the job's reply sink and its outcome (flushes
/// deliver these only after publishing their stats).
type Reply = (ReplySink, Result<UBig, ServeError>);

struct Submitted {
    request: ProductRequest,
    enqueued: Instant,
    /// Arrival order, the FIFO rank and the EDF tie-breaker.
    seq: u64,
    /// `(digest(a), digest(b))`, stamped at submission **outside** the
    /// queue lock — only on speculative pools, and only for fully inline
    /// requests — so the speculative preparer's queue scans never hash
    /// multi-hundred-KB operands while holding the mutex every submitter
    /// and card contends on.
    digests: Option<(u64, u64)>,
    /// The wider operand's bit length, stamped at submission so
    /// [`RoutePolicy::BySize`] eligibility checks under the queue lock
    /// are integer compares.
    required_bits: usize,
    /// Set by [`ProductTicket::cancel`]; a card claiming the job drops
    /// it without running.
    cancelled: Arc<AtomicBool>,
    /// When a card dequeued the job (stamped on claim; equals `enqueued`
    /// until then). In-queue expiry compares against this: a deadline
    /// already past at dequeue is hopeless, while one still ahead is
    /// honored by pulling the flush to start before it — so expiry is
    /// decided by the ordering of two events, not by how fast a worker
    /// happens to wake.
    seen: Instant,
    /// Times this job has been re-queued after a failed flush (panic or
    /// transient device fault); [`ServeConfig::retry_limit`] bounds it.
    retries: u32,
    /// Set when the job was part of a **panicked** flush: until it proves
    /// innocent, it is claimed alone — a poisonous job must not take
    /// batch-mates down with it twice.
    suspect: bool,
    reply: ReplySink,
}

/// The shared (backend-agnostic) half of a fleet: the bounded queue, the
/// speculation rendezvous, and the live per-card stats slots.
struct PoolShared {
    config: ServeConfig,
    /// Per-card operand capacity in bits (`None` = unbounded), in card
    /// order — what [`RoutePolicy::BySize`] routes against.
    capacities: Vec<Option<usize>>,
    /// Per-card supervision state ([`CardHealth`] encoded as a `u8`), in
    /// card order. A worker that exits for good (panic on an unsupervised
    /// pool, restart cap exhausted, shutdown) marks its slot `Dead` so
    /// [`RoutePolicy::BySize`] stops routing to a card that will never
    /// claim again — a job only a dead card fits becomes claimable by
    /// every survivor and fails fast with the backend's typed error
    /// instead of hanging. `Restarting` cards still count as routable:
    /// they come back.
    card_health: Vec<AtomicU8>,
    state: Mutex<QueueState>,
    /// Signaled on every push and on close; workers and the speculative
    /// preparer wait here.
    not_empty: Condvar,
    /// Signaled on every claim and on close; blocking submitters wait
    /// here.
    not_full: Condvar,
    seq: AtomicU64,
    /// Cards still running; the last one to exit (panic included) closes
    /// the queue so submitters cannot block on a dead fleet.
    workers_alive: AtomicUsize,
    /// Cards currently parked in their post-trim idle state. The
    /// pool-shared speculative state (hot statistics, staged spectra) is
    /// only cleared when **every** card is idle: one starved card timing
    /// out while its siblings chew through a long burst is not fleet
    /// idleness, and wiping the shared state then would defeat
    /// speculation exactly under sustained load.
    trimmed_cards: AtomicUsize,
    /// Per-card stats snapshots, refreshed at every flush boundary so
    /// [`ServerPool::stats`] can observe a live fleet.
    live: Vec<Mutex<ServeStats>>,
    /// Whether a speculative preparer is running (hot-digest tracking is
    /// skipped entirely when not).
    speculation: bool,
    /// Digest → cache-hit count, aggregated across cards; the speculative
    /// preparer reads it to find hot recurring operands.
    hot: Mutex<HashMap<u64, u32>>,
    /// Speculatively prepared handles staged for cards to claim.
    spec_store: Mutex<SpecStore>,
    spec_prepares: AtomicU64,
    /// Non-blocking submissions rejected because the queue was full.
    shed: AtomicU64,
    /// Id source for [`ClientSession::register`] pins — pool-global so
    /// no two sessions (or re-registrations) ever share an id. The
    /// operand itself travels with each request (an `Arc` clone), so
    /// cards prepare pins lazily from the job in hand.
    pin_seq: AtomicU64,
    /// Every live session registration `(pin id, operand)`, insertion
    /// ordered and bounded like the per-card pin stores. A card reborn
    /// from the backend factory replays this registry into its fresh
    /// engine, so restarted cards keep serving pinned operands hash-free
    /// without waiting for the next sighting of each pin.
    pin_registry: Mutex<PinRegistry>,
}

struct QueueState {
    pending: VecDeque<Submitted>,
    closed: bool,
}

/// The pool-shared record of session registrations, replayed into reborn
/// cards (see [`PoolShared::pin_registry`]). Bounded like the per-card pin
/// stores: oldest registrations age out first.
struct PinRegistry {
    capacity: usize,
    entries: Vec<(u64, Arc<UBig>)>,
}

impl PinRegistry {
    fn new(capacity: usize) -> PinRegistry {
        PinRegistry {
            capacity,
            entries: Vec::new(),
        }
    }

    fn insert(&mut self, id: u64, operand: Arc<UBig>) {
        if self.capacity == 0 {
            return;
        }
        while self.entries.len() >= self.capacity {
            self.entries.remove(0);
        }
        self.entries.push((id, operand));
    }

    fn remove(&mut self, id: u64) {
        self.entries.retain(|(pin, _)| *pin != id);
    }

    fn snapshot(&self) -> Vec<(u64, Arc<UBig>)> {
        self.entries.clone()
    }
}

impl PoolShared {
    fn close(&self) {
        lock_or_recover(&self.state).closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    fn lock_state(&self) -> MutexGuard<'_, QueueState> {
        // A worker panic mid-flush never holds this lock (flushes run
        // outside it), so poisoning can only come from a panicking
        // submitter — the queue itself is still consistent.
        lock_or_recover(&self.state)
    }

    fn set_health(&self, index: usize, health: CardHealth) {
        self.card_health[index].store(health as u8, Ordering::Relaxed);
    }

    fn health(&self, index: usize) -> CardHealth {
        match self.card_health[index].load(Ordering::Relaxed) {
            0 => CardHealth::Live,
            1 => CardHealth::Restarting,
            _ => CardHealth::Dead,
        }
    }

    fn health_snapshot(&self) -> Vec<CardHealth> {
        (0..self.card_health.len())
            .map(|i| self.health(i))
            .collect()
    }

    /// Whether any **non-dead** card's geometry fits an operand of `bits`
    /// bits (dead cards cannot claim, so they must not keep jobs routed
    /// away from the survivors; a restarting card still counts — it comes
    /// back).
    fn fits_any_live(&self, bits: usize) -> bool {
        self.capacities
            .iter()
            .enumerate()
            .any(|(i, cap)| self.health(i) != CardHealth::Dead && cap.is_none_or(|c| bits <= c))
    }

    /// Puts a job from a failed flush back on the queue for the next
    /// claim — surviving cards (or this one, once restarted) pick it up.
    /// Bypasses the capacity bound (the job was already admitted once;
    /// bouncing it against backpressure could deadlock a full queue) and
    /// the closed flag (during a shutdown drain, retried jobs must still
    /// reach a survivor; if every worker exits first, the exit path
    /// clears the queue and the job resolves [`ServeError::Closed`]).
    fn requeue(&self, job: Submitted) {
        self.lock_state().pending.push_back(job);
        self.not_empty.notify_all();
    }

    /// On speculative pools, digests are paid once per submission — on
    /// the submitter's thread, before any lock — so the speculative
    /// preparer's queue scans are pure map lookups under the mutex.
    /// Pinned operands never hash (that is the point of pinning); their
    /// jobs simply opt out of speculation.
    fn stamp_digests(&self, request: &ProductRequest) -> Option<(u64, u64)> {
        if !self.speculation {
            return None;
        }
        match (&request.a, &request.b) {
            (Operand::Inline(a), Operand::Inline(b)) => Some((digest(a), digest(b))),
            _ => None,
        }
    }

    /// The one enqueue path every submission flavor funnels through:
    /// blocking or shedding, ticket-bound or completion-queue-bound.
    fn enqueue(
        &self,
        blocking: bool,
        request: ProductRequest,
        reply: ReplySink,
        cancelled: Arc<AtomicBool>,
    ) -> Result<(), SubmitError> {
        let digests = self.stamp_digests(&request);
        let required_bits = request.required_bits();
        let capacity = self.config.queue_capacity.max(1);
        let mut state = self.lock_state();
        loop {
            if state.closed {
                return Err(SubmitError::Closed(request));
            }
            if state.pending.len() < capacity {
                break;
            }
            if !blocking {
                self.shed.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::Full(request));
            }
            state = self.not_full.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        let enqueued = Instant::now();
        state.pending.push_back(Submitted {
            request,
            enqueued,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            digests,
            required_bits,
            cancelled,
            seen: enqueued,
            retries: 0,
            suspect: false,
            reply,
        });
        drop(state);
        self.not_empty.notify_all();
        Ok(())
    }

    /// [`PoolShared::enqueue`] for ticket-bound submissions.
    fn enqueue_ticket(
        &self,
        blocking: bool,
        request: ProductRequest,
    ) -> Result<ProductTicket, SubmitError> {
        let (reply, rx) = mpsc::channel();
        let cancelled = Arc::new(AtomicBool::new(false));
        self.enqueue(
            blocking,
            request,
            ReplySink::Ticket(reply),
            Arc::clone(&cancelled),
        )?;
        Ok(ProductTicket { rx, cancelled })
    }

    /// [`PoolShared::enqueue`] for completion-queue-bound submissions.
    fn enqueue_sink(
        &self,
        blocking: bool,
        request: ProductRequest,
        sink: CompletionSink,
    ) -> Result<(), SubmitError> {
        self.enqueue(
            blocking,
            request,
            ReplySink::Tagged(sink),
            Arc::new(AtomicBool::new(false)),
        )
    }
}

fn digest(operand: &UBig) -> u64 {
    let mut hasher = DefaultHasher::new();
    operand.hash(&mut hasher);
    hasher.finish()
}

/// The pool-shared staging area for speculatively prepared handles.
///
/// One entry per digest (a digest collision simply skips speculation for
/// the colliding operand — cards verify the stored operand before
/// claiming, so a clash can never serve the wrong spectrum); oldest
/// entries are evicted first.
#[derive(Default)]
struct SpecStore {
    capacity: usize,
    order: VecDeque<u64>,
    entries: HashMap<u64, (UBig, OperandHandle)>,
}

impl SpecStore {
    fn new(capacity: usize) -> SpecStore {
        SpecStore {
            capacity,
            order: VecDeque::new(),
            entries: HashMap::new(),
        }
    }

    fn contains(&self, key: u64) -> bool {
        self.entries.contains_key(&key)
    }

    fn insert(&mut self, key: u64, operand: UBig, handle: OperandHandle) {
        if self.capacity == 0 || self.entries.contains_key(&key) {
            return;
        }
        while self.entries.len() >= self.capacity {
            match self.order.pop_front() {
                Some(oldest) => {
                    self.entries.remove(&oldest);
                }
                None => break,
            }
        }
        self.entries.insert(key, (operand, handle));
        self.order.push_back(key);
    }

    /// Removes and returns the staged handle for `operand` if it is
    /// present and was prepared by an instance interchangeable with
    /// `provenance`.
    fn take(
        &mut self,
        operand: &UBig,
        provenance: crate::engine::HandleProvenance,
    ) -> Option<OperandHandle> {
        let key = digest(operand);
        let matches = self
            .entries
            .get(&key)
            .is_some_and(|(stored, handle)| stored == operand && handle.provenance() == provenance);
        if !matches {
            return None;
        }
        self.order.retain(|k| *k != key);
        self.entries.remove(&key).map(|(_, handle)| handle)
    }

    fn clear(&mut self) {
        self.order.clear();
        self.entries.clear();
    }
}

/// A resident serving front over **one** card: one worker thread owning an
/// [`EvalEngine`], fed by a bounded queue of [`ProductRequest`]s (see the
/// [module docs](crate::serve) for the full contract). Internally this is
/// a [`ServerPool`] of one.
pub struct ProductServer {
    pool: ServerPool,
}

impl core::fmt::Debug for ProductServer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ProductServer")
            .field("open", &self.pool.is_open())
            .finish()
    }
}

impl ProductServer {
    /// Spawns the worker thread; the engine moves in and stays resident
    /// until [`ProductServer::shutdown`] (or drop).
    pub fn spawn<M>(engine: EvalEngine<M>, config: ServeConfig) -> ProductServer
    where
        M: Multiplier + Send + Sync + 'static,
    {
        ProductServer {
            pool: ServerPool::spawn(vec![engine], config),
        }
    }

    /// Submits a job, **blocking** while the bounded queue is full (see
    /// [`Submitter::submit`]).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] (with the request handed back) if the
    /// worker is gone.
    pub fn submit(&self, request: ProductRequest) -> Result<ProductTicket, SubmitError> {
        self.pool.submit(request)
    }

    /// Submits a job without blocking (see [`Submitter::try_submit`]).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when the queue is at capacity,
    /// [`SubmitError::Closed`] if the worker is gone.
    pub fn try_submit(&self, request: ProductRequest) -> Result<ProductTicket, SubmitError> {
        self.pool.try_submit(request)
    }

    /// A per-client [`ClientSession`] over this server (see
    /// [`ServerPool::session`]).
    pub fn session(&self) -> ClientSession {
        self.pool.session()
    }

    /// Closes the queue, drains every already-accepted job, joins the
    /// worker and returns its lifetime counters. Never panics — a dead
    /// worker's tickets already resolved [`ServeError::Closed`], and its
    /// last published stats snapshot stands in for the final counters.
    pub fn shutdown(self) -> ServeStats {
        self.pool.shutdown().total()
    }

    /// Graceful shutdown with a deadline (see [`ServerPool::drain`]):
    /// stops intake, finishes the accepted jobs for up to `timeout`,
    /// joins the worker, and reports whether the drain beat the clock.
    pub fn drain(self, timeout: Duration) -> DrainOutcome {
        self.pool.drain(timeout)
    }
}

impl Submitter for ProductServer {
    fn submit(&self, request: ProductRequest) -> Result<ProductTicket, SubmitError> {
        ProductServer::submit(self, request)
    }

    fn try_submit(&self, request: ProductRequest) -> Result<ProductTicket, SubmitError> {
        ProductServer::try_submit(self, request)
    }

    fn submit_into(
        &self,
        request: ProductRequest,
        sink: CompletionSink,
    ) -> Result<(), SubmitError> {
        self.pool.submit_into(request, sink)
    }

    fn try_submit_into(
        &self,
        request: ProductRequest,
        sink: CompletionSink,
    ) -> Result<(), SubmitError> {
        self.pool.try_submit_into(request, sink)
    }
}

/// The engine builder a supervised pool rebuilds panicked cards from
/// (see [`ServerPool::with_backend_factory`]).
type CardFactory<M> = Arc<dyn Fn(usize) -> EvalEngine<M> + Send + Sync>;

/// A serving **fleet**: several resident [`EvalEngine`]s — one per
/// simulated accelerator card — pulling deadline-aware micro-batches from
/// one shared bounded queue (see the [module docs](crate::serve) for the
/// full contract).
///
/// Every card keeps its own prepared-handle cache (handles are
/// provenance-stamped per backend instance), runs its flushes
/// independently, and reports its own [`ServeStats`]; the queue, the
/// backpressure bound, and the optional speculative preparer are shared.
pub struct ServerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<ServeStats>>,
    speculator: Option<JoinHandle<()>>,
}

impl core::fmt::Debug for ServerPool {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ServerPool")
            .field("workers", &self.workers.len())
            .field("open", &self.is_open())
            .field("speculative", &self.shared.speculation)
            .finish()
    }
}

impl ServerPool {
    /// Spawns one worker thread per engine; the engines move in and stay
    /// resident until [`ServerPool::shutdown`] (or drop). Cards may be
    /// heterogeneous (different transform geometries, even on the same
    /// host) — each prepares its own operands, so jobs never depend on
    /// cross-card handle compatibility.
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty.
    pub fn spawn<M>(engines: Vec<EvalEngine<M>>, config: ServeConfig) -> ServerPool
    where
        M: Multiplier + Send + Sync + 'static,
    {
        ServerPool::spawn_inner(engines, None, None, config)
    }

    /// Spawns a **supervised** fleet of `cards` workers whose engines come
    /// from `factory` (called once per card index up front) — and again
    /// whenever a card's flush panics: the worker catches the unwind,
    /// re-queues the flush's jobs to the surviving cards, rebuilds its
    /// engine from the factory under exponential backoff (bounded by
    /// [`ServeConfig::restart_cap`] consecutive attempts), replays the
    /// session pin registry into the fresh engine, and resumes claiming.
    /// [`PoolStats::health`] exposes each card's supervision state. On an
    /// *unsupervised* pool ([`ServerPool::spawn`]) a panicking card is
    /// simply lost for good.
    ///
    /// ```
    /// use he_accel::prelude::*;
    ///
    /// let pool = ServerPool::with_backend_factory(
    ///     2,
    ///     |_card| EvalEngine::new(SsaSoftware::for_operand_bits(256).expect("fits")),
    ///     ServeConfig::default(),
    /// );
    /// let ticket = pool.submit(ProductRequest::new(UBig::from(6u64), UBig::from(7u64)))?;
    /// assert_eq!(ticket.wait().expect("served"), UBig::from(42u64));
    /// let stats = pool.shutdown();
    /// assert_eq!(stats.health, vec![CardHealth::Live; 2]);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `cards` is zero, or if the factory panics while building
    /// the initial engines.
    pub fn with_backend_factory<M, F>(cards: usize, factory: F, config: ServeConfig) -> ServerPool
    where
        M: Multiplier + Send + Sync + 'static,
        F: Fn(usize) -> EvalEngine<M> + Send + Sync + 'static,
    {
        assert!(cards > 0, "a serving fleet needs at least one card");
        let factory: CardFactory<M> = Arc::new(factory);
        let engines = (0..cards).map(|index| factory(index)).collect();
        ServerPool::spawn_inner(engines, None, Some(factory), config)
    }

    /// Like [`ServerPool::spawn`], with one extra engine dedicated to
    /// **speculative both-cached promotion**: a background task that
    /// watches the fleet's digest-LRU hit statistics and pre-transforms
    /// the fresh partners of hot recurring operands while they wait in
    /// the queue, off the cards' critical path. Cards claim the staged
    /// spectra at flush time ([`ServeStats::speculative_hits`]); spectra
    /// are only interchangeable between instances of identical transform
    /// geometry, so the speculator engine should match the cards it feeds
    /// (a mismatched geometry is safe but useless — its handles are never
    /// claimed).
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty.
    pub fn spawn_speculative<M>(
        engines: Vec<EvalEngine<M>>,
        speculator: EvalEngine<M>,
        config: ServeConfig,
    ) -> ServerPool
    where
        M: Multiplier + Send + Sync + 'static,
    {
        ServerPool::spawn_inner(engines, Some(speculator), None, config)
    }

    fn spawn_inner<M>(
        engines: Vec<EvalEngine<M>>,
        speculator: Option<EvalEngine<M>>,
        factory: Option<CardFactory<M>>,
        config: ServeConfig,
    ) -> ServerPool
    where
        M: Multiplier + Send + Sync + 'static,
    {
        assert!(
            !engines.is_empty(),
            "a serving fleet needs at least one card"
        );
        let capacities: Vec<Option<usize>> = engines
            .iter()
            .map(EvalEngine::operand_capacity_bits)
            .collect();
        let card_health = (0..engines.len())
            .map(|_| AtomicU8::new(CardHealth::Live as u8))
            .collect();
        let shared = Arc::new(PoolShared {
            config,
            capacities,
            card_health,
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            seq: AtomicU64::new(0),
            workers_alive: AtomicUsize::new(engines.len()),
            trimmed_cards: AtomicUsize::new(0),
            live: (0..engines.len())
                .map(|_| Mutex::new(ServeStats::default()))
                .collect(),
            speculation: speculator.is_some(),
            hot: Mutex::new(HashMap::new()),
            spec_store: Mutex::new(SpecStore::new(config.speculate_store_capacity)),
            spec_prepares: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            pin_seq: AtomicU64::new(0),
            pin_registry: Mutex::new(PinRegistry::new(config.cache_capacity)),
        });
        let workers = engines
            .into_iter()
            .enumerate()
            .map(|(index, engine)| {
                let shared = Arc::clone(&shared);
                let factory = factory.clone();
                std::thread::Builder::new()
                    .name(format!("he-serve-card-{index}"))
                    .spawn(move || CardWorker::new(index, engine, shared, factory).run())
                    .expect("spawn serving-card worker")
            })
            .collect();
        let speculator = speculator.map(|engine| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("he-serve-speculator".into())
                .spawn(move || run_speculator(engine, shared))
                .expect("spawn speculative preparer")
        });
        ServerPool {
            shared,
            workers,
            speculator,
        }
    }

    /// Number of cards serving this pool.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    fn is_open(&self) -> bool {
        !self.shared.lock_state().closed
    }

    /// A per-client session over this pool: register recurring operands
    /// once, then stream products against them (see [`ClientSession`]).
    pub fn session(&self) -> ClientSession {
        ClientSession {
            shared: Arc::clone(&self.shared),
            names: HashMap::new(),
        }
    }

    /// A live snapshot of the fleet's counters (refreshed at every flush
    /// boundary), without stopping anything.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            per_worker: self
                .shared
                .live
                .iter()
                .map(|slot| *lock_or_recover(slot))
                .collect(),
            speculative_prepares: self.shared.spec_prepares.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            health: self.shared.health_snapshot(),
        }
    }

    /// Joins every worker, recovering stats even from a card whose
    /// *thread* died (a panic outside the supervised flush path): the
    /// card's last published live-slot snapshot stands in for the final
    /// counters a clean exit would have returned. A dead worker must not
    /// panic the caller mid-drain.
    fn join_workers(&mut self) -> Vec<ServeStats> {
        let per_worker = self
            .workers
            .drain(..)
            .enumerate()
            .map(|(index, w)| {
                w.join().unwrap_or_else(|_| {
                    self.shared
                        .live
                        .get(index)
                        .map(|slot| *lock_or_recover(slot))
                        .unwrap_or_default()
                })
            })
            .collect();
        if let Some(speculator) = self.speculator.take() {
            let _ = speculator.join();
        }
        per_worker
    }

    /// Closes the queue, drains every already-accepted job, joins every
    /// card and returns the fleet's lifetime counters. Never panics: a
    /// card whose worker thread died is reported through
    /// [`PoolStats::health`] (its tickets resolved
    /// [`ServeError::Closed`] when it went down), and its last published
    /// stats snapshot stands in for the final counters.
    pub fn shutdown(mut self) -> PoolStats {
        // Health reflects the serving-time state: snapshot before the
        // workers exit (every exit marks its card `Dead`).
        let health = self.shared.health_snapshot();
        self.shared.close();
        let per_worker = self.join_workers();
        // Jobs accepted after the cards drained and exited (a losing race
        // with shutdown) answer `Closed` through their dropped senders.
        self.shared.lock_state().pending.clear();
        PoolStats {
            per_worker,
            speculative_prepares: self.shared.spec_prepares.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            health,
        }
    }

    /// Graceful shutdown with a deadline: stops intake immediately, lets
    /// the fleet finish every already-accepted job for up to `timeout`,
    /// then joins the workers and reports whether the drain beat the
    /// clock.
    ///
    /// If the timeout expires first, the jobs still queued are dropped
    /// (their tickets and sinks resolve [`ServeError::Closed`]) and
    /// [`DrainOutcome::clean`] is `false`; in-flight flushes still run to
    /// completion — a running multiply cannot be preempted — so the call
    /// may return somewhat after the deadline, but never hangs on queued
    /// work.
    ///
    /// ```
    /// use he_accel::prelude::*;
    /// use std::time::Duration;
    ///
    /// let pool = ServerPool::spawn(
    ///     vec![EvalEngine::new(SsaSoftware::for_operand_bits(256)?)],
    ///     ServeConfig { max_delay: Duration::from_secs(10), ..ServeConfig::default() },
    /// );
    /// let ticket = pool.submit(ProductRequest::new(UBig::from(6u64), UBig::from(7u64)))?;
    /// // Intake stops, the queued job still completes (the long batch
    /// // window does not stall the drain), and the fleet joins.
    /// let outcome = pool.drain(Duration::from_secs(30));
    /// assert!(outcome.clean);
    /// assert_eq!(outcome.stats.total().completed, 1);
    /// assert_eq!(ticket.wait().expect("drained, not dropped"), UBig::from(42u64));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn drain(mut self, timeout: Duration) -> DrainOutcome {
        let health = self.shared.health_snapshot();
        self.shared.close();
        let deadline = Instant::now() + timeout;
        // Workers self-exit once the closed queue is drained, so "queue
        // empty and everyone gone" is the drain-complete signal.
        let mut clean = true;
        while self.shared.workers_alive.load(Ordering::Acquire) > 0 {
            if Instant::now() >= deadline {
                clean = false;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        if !clean {
            // Give up on the still-queued jobs so the join below waits
            // only for in-flight flushes, not the whole backlog; dropped
            // reply sinks resolve their callers to `Closed`.
            self.shared.lock_state().pending.clear();
        }
        let per_worker = self.join_workers();
        self.shared.lock_state().pending.clear();
        DrainOutcome {
            stats: PoolStats {
                per_worker,
                speculative_prepares: self.shared.spec_prepares.load(Ordering::Relaxed),
                shed: self.shared.shed.load(Ordering::Relaxed),
                health,
            },
            clean,
        }
    }
}

/// What [`ServerPool::drain`] / [`ProductServer::drain`] came back with:
/// the fleet's final counters, and whether every accepted job finished
/// inside the timeout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainOutcome {
    /// The fleet's lifetime counters (same shape as
    /// [`ServerPool::shutdown`]'s).
    pub stats: PoolStats,
    /// `true` when every accepted job was answered before the timeout;
    /// `false` when the deadline expired with jobs still queued (those
    /// resolved [`ServeError::Closed`]).
    pub clean: bool,
}

impl Drop for ServerPool {
    fn drop(&mut self) {
        self.shared.close();
        for worker in self.workers.drain(..) {
            // Drain-and-join; a worker panic surfaces through tickets as
            // `Closed`, not through drop.
            let _ = worker.join();
        }
        if let Some(speculator) = self.speculator.take() {
            let _ = speculator.join();
        }
        self.shared.lock_state().pending.clear();
    }
}

impl Submitter for ServerPool {
    fn submit(&self, request: ProductRequest) -> Result<ProductTicket, SubmitError> {
        self.shared.enqueue_ticket(true, request)
    }

    fn try_submit(&self, request: ProductRequest) -> Result<ProductTicket, SubmitError> {
        self.shared.enqueue_ticket(false, request)
    }

    fn submit_into(
        &self,
        request: ProductRequest,
        sink: CompletionSink,
    ) -> Result<(), SubmitError> {
        self.shared.enqueue_sink(true, request, sink)
    }

    fn try_submit_into(
        &self,
        request: ProductRequest,
        sink: CompletionSink,
    ) -> Result<(), SubmitError> {
        self.shared.enqueue_sink(false, request, sink)
    }
}

/// A per-client handle over a serving fleet: register a recurring
/// operand **once**, then stream products against it by name.
///
/// Registration pins the operand in every card's cache by id: no digest
/// is ever computed for it (at paper scale that is hashing ~100 KB per
/// submission), the pinned handle sits outside the digest cache's LRU
/// (each card keeps up to `cache_capacity` pins of its own,
/// least-recently-used evicted first, so register churn stays bounded),
/// and a stream submitted with [`ClientSession::submit_with`] rides the
/// cached-transform rungs from its first flush —
/// [`ServeStats::pinned_hits`] counts exactly these hash-free
/// resolutions. Products of two registered operands
/// ([`ClientSession::submit_between`]) run both-cached with zero hashing
/// on either side.
///
/// Sessions are cheap, `Clone + Send`, and independent per client:
/// cloning carries the registrations made so far, and registrations are
/// client-local names (two sessions may both call something `"mask"`).
/// A session outlives its pool gracefully — submissions after shutdown
/// return [`SubmitError::Closed`]. Being a [`Submitter`], a session also
/// feeds a [`CompletionQueue`] or a [`ServedMultiplier`] directly.
///
/// ```
/// use he_accel::prelude::*;
///
/// let server = ProductServer::spawn(
///     EvalEngine::new(SsaSoftware::for_operand_bits(256)?),
///     ServeConfig::default(),
/// );
/// let mut session = server.session();
/// // The recurring accumulator is registered once…
/// session.register("acc", UBig::from(1_000_003u64));
/// // …and a stream of fresh operands runs against it by name.
/// let tickets: Vec<ProductTicket> = (2..6u64)
///     .map(|k| session.submit_with("acc", UBig::from(k)))
///     .collect::<Result<_, _>>()?;
/// for (k, ticket) in (2..6u64).zip(tickets) {
///     assert_eq!(ticket.wait().expect("served"), UBig::from(k * 1_000_003));
/// }
/// let stats = server.shutdown();
/// // The pinned operand resolved without hashing on every product.
/// assert!(stats.pinned_hits >= 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone)]
pub struct ClientSession {
    shared: Arc<PoolShared>,
    /// Client-local name → (pin id, the registered operand).
    names: HashMap<String, (u64, Arc<UBig>)>,
}

impl core::fmt::Debug for ClientSession {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ClientSession")
            .field("registered", &self.names.len())
            .finish()
    }
}

impl ClientSession {
    /// Registers a recurring operand under a client-local name. Every
    /// card pins its prepared handle by id (prepared lazily at the
    /// operand's first flush, re-prepared after an idle trim), outside
    /// the digest cache and never digest-hashed; each card retains at
    /// most `cache_capacity` pins (least-recently-used evicted first),
    /// re-preparing an evicted live pin at its next use. Re-registering
    /// a name replaces the operand (the old pin ages out of every
    /// card's store).
    pub fn register(&mut self, name: impl Into<String>, operand: UBig) {
        let id = self.shared.pin_seq.fetch_add(1, Ordering::Relaxed);
        let operand = Arc::new(operand);
        let mut registry = lock_or_recover(&self.shared.pin_registry);
        // The registry backs pin *replay* on restarted cards; a replaced
        // registration must not be replayed forever.
        if let Some((old_id, _)) = self.names.insert(name.into(), (id, Arc::clone(&operand))) {
            registry.remove(old_id);
        }
        registry.insert(id, operand);
    }

    /// Releases a registration. Cards drop the pinned handle at their
    /// next idle trim; in-flight jobs referencing it still complete.
    pub fn unregister(&mut self, name: &str) {
        if let Some((id, _)) = self.names.remove(name) {
            lock_or_recover(&self.shared.pin_registry).remove(id);
        }
    }

    /// Names currently registered on this session.
    pub fn registered(&self) -> usize {
        self.names.len()
    }

    fn pinned(&self, name: &str) -> Operand {
        let (id, value) = self
            .names
            .get(name)
            .unwrap_or_else(|| panic!("operand {name:?} is not registered on this session"));
        Operand::Pinned {
            id: *id,
            value: Arc::clone(value),
        }
    }

    /// A request multiplying the registered operand `name` by a fresh
    /// operand — submit it yourself (deadline attached, through a
    /// [`CompletionQueue`], …) or use [`ClientSession::submit_with`].
    ///
    /// # Panics
    ///
    /// Panics if `name` was never registered on this session.
    pub fn request_with(&self, name: &str, fresh: UBig) -> ProductRequest {
        ProductRequest {
            a: self.pinned(name),
            b: Operand::Inline(fresh),
            deadline: None,
        }
    }

    /// A request multiplying two registered operands — the both-pinned
    /// product: no hashing, no LRU traffic, both spectra resident.
    ///
    /// # Panics
    ///
    /// Panics if either name was never registered on this session.
    pub fn request_between(&self, a: &str, b: &str) -> ProductRequest {
        ProductRequest {
            a: self.pinned(a),
            b: self.pinned(b),
            deadline: None,
        }
    }

    /// Submits registered-operand × fresh, blocking while the queue is
    /// full.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] if every worker is gone.
    ///
    /// # Panics
    ///
    /// Panics if `name` was never registered on this session.
    pub fn submit_with(&self, name: &str, fresh: UBig) -> Result<ProductTicket, SubmitError> {
        self.shared
            .enqueue_ticket(true, self.request_with(name, fresh))
    }

    /// Submits the product of two registered operands, blocking while
    /// the queue is full.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] if every worker is gone.
    ///
    /// # Panics
    ///
    /// Panics if either name was never registered on this session.
    pub fn submit_between(&self, a: &str, b: &str) -> Result<ProductTicket, SubmitError> {
        self.shared.enqueue_ticket(true, self.request_between(a, b))
    }

    /// [`Submitter::submit_into`] with a withdrawal handle: the job's
    /// completion still travels through `sink`, but the returned
    /// [`CancelHandle`] can ask the fleet to drop the job before a card
    /// claims it — the hook a remote front end needs to honor an
    /// out-of-band cancel message for sink-bound jobs (a ticket's cancel
    /// flag is unreachable from a [`CompletionSink`] submission). A job
    /// cancelled in the queue resolves its sink to
    /// [`ServeError::Closed`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] (with the request handed back; the sink
    /// resolves [`ServeError::Closed`]) if every worker is gone.
    pub fn submit_into_cancellable(
        &self,
        request: ProductRequest,
        sink: CompletionSink,
    ) -> Result<CancelHandle, SubmitError> {
        let cancelled = Arc::new(AtomicBool::new(false));
        self.shared.enqueue(
            true,
            request,
            ReplySink::Tagged(sink),
            Arc::clone(&cancelled),
        )?;
        Ok(CancelHandle { cancelled })
    }
}

impl Submitter for ClientSession {
    fn submit(&self, request: ProductRequest) -> Result<ProductTicket, SubmitError> {
        self.shared.enqueue_ticket(true, request)
    }

    fn try_submit(&self, request: ProductRequest) -> Result<ProductTicket, SubmitError> {
        self.shared.enqueue_ticket(false, request)
    }

    fn submit_into(
        &self,
        request: ProductRequest,
        sink: CompletionSink,
    ) -> Result<(), SubmitError> {
        self.shared.enqueue_sink(true, request, sink)
    }

    fn try_submit_into(
        &self,
        request: ProductRequest,
        sink: CompletionSink,
    ) -> Result<(), SubmitError> {
        self.shared.enqueue_sink(false, request, sink)
    }
}

/// What a card found when it went back to the queue.
enum Claim {
    Batch(Vec<Submitted>),
    IdleTrim,
    Closed,
}

/// One card of the fleet: an engine, its private handle cache, and its
/// counters.
struct CardWorker<M> {
    index: usize,
    engine: EvalEngine<M>,
    shared: Arc<PoolShared>,
    cache: HandleCache,
    /// Handles of session-registered operands, keyed by pin id: resolved
    /// without hashing, exempt from the digest cache's LRU pressure,
    /// rebuilt lazily after an idle trim. Bounded on its own terms (at
    /// most `cache_capacity` pins, least-recently-used evicted first) so
    /// register-churn — sessions re-registering names, clients coming
    /// and going without `unregister` — cannot grow a card's resident
    /// spectra without limit; an evicted live pin is simply re-prepared
    /// at its next flush.
    pinned: HashMap<u64, PinnedSlot>,
    pin_tick: u64,
    /// This card's transform capacity in bits (`None` = unbounded) — its
    /// side of the [`RoutePolicy::BySize`] eligibility check.
    capacity: Option<usize>,
    stats: ServeStats,
    /// Whether this card already trimmed during the current idle period
    /// (one trim per quiet stretch, then park until traffic returns).
    trimmed: bool,
    /// The engine rebuilder on a supervised pool
    /// ([`ServerPool::with_backend_factory`]); `None` = a panicking flush
    /// kills this card for good.
    factory: Option<CardFactory<M>>,
    /// Restart attempts since the last clean flush; bounded by
    /// [`ServeConfig::restart_cap`].
    consecutive_restarts: u32,
}

/// Runs when a card exits, however it exits. Marks the card
/// [`CardHealth::Dead`] (and wakes the fleet, so [`RoutePolicy::BySize`]
/// survivors re-evaluate and claim the jobs only the dead card used to
/// fit); the **last** card to go additionally closes the queue — a fleet whose every worker
/// panicked must refuse submissions instead of blocking them forever —
/// and drops the jobs nobody is left to run, so their tickets and
/// completion sinks resolve to [`ServeError::Closed`] instead of
/// hanging until the pool handle is torn down.
struct AliveGuard<'a> {
    shared: &'a PoolShared,
    index: usize,
}

// lint: supervisor
// (From here to the end of the speculator, the code runs on worker
// threads that hold client reply sinks: a panic is a hung client. The
// he-lint gate keeps these paths free of unwrap/expect/panic/indexing.)
impl Drop for AliveGuard<'_> {
    fn drop(&mut self) {
        self.shared.set_health(self.index, CardHealth::Dead);
        if self.shared.workers_alive.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.shared.close();
            // `close` set the flag, so nothing can be pushed after this
            // clear: every orphaned job's reply sink drops here, which
            // is what resolves its caller.
            self.shared.lock_state().pending.clear();
        } else {
            // Wake parked survivors: jobs this card alone fitted are now
            // claimable by everyone.
            self.shared.not_empty.notify_all();
        }
    }
}

/// One pinned prepared handle and its recency (for the pin store's own
/// LRU bound).
struct PinnedSlot {
    handle: OperandHandle,
    last_used: u64,
}

impl<M: Multiplier + Sync> CardWorker<M> {
    fn new(
        index: usize,
        engine: EvalEngine<M>,
        shared: Arc<PoolShared>,
        factory: Option<CardFactory<M>>,
    ) -> CardWorker<M> {
        let cache = HandleCache::new(shared.config.cache_capacity);
        // lint: allow(panic-path) -- constructor; `index` comes from the pool's own enumerate()
        let capacity = shared.capacities[index];
        CardWorker {
            index,
            engine,
            shared,
            cache,
            pinned: HashMap::new(),
            pin_tick: 0,
            capacity,
            stats: ServeStats::default(),
            trimmed: false,
            factory,
            consecutive_restarts: 0,
        }
    }

    /// Retains a freshly prepared pinned handle, evicting the
    /// least-recently-used pin beyond the store's bound (the digest
    /// cache's capacity knob doubles as the pin bound — both hold the
    /// same kind of multi-hundred-KB spectra).
    fn pin(&mut self, id: u64, handle: OperandHandle) {
        let cap = self.shared.config.cache_capacity.max(1);
        while self.pinned.len() >= cap {
            let Some((&oldest, _)) = self.pinned.iter().min_by_key(|(_, slot)| slot.last_used)
            else {
                break;
            };
            self.pinned.remove(&oldest);
        }
        self.pin_tick += 1;
        self.pinned.insert(
            id,
            PinnedSlot {
                handle,
                last_used: self.pin_tick,
            },
        );
    }

    /// Whether this card may claim `job` under the pool's
    /// [`RoutePolicy`].
    fn eligible(&self, job: &Submitted) -> bool {
        match self.shared.config.route {
            RoutePolicy::Shared => true,
            RoutePolicy::BySize => match self.capacity {
                None => true,
                // A job no live card fits stays claimable by everyone:
                // it fails fast with the backend's typed error instead
                // of waiting on a card that does not exist (or died).
                Some(cap) => {
                    job.required_bits <= cap || !self.shared.fits_any_live(job.required_bits)
                }
            },
        }
    }

    /// Queue positions of the jobs this card may claim (all of them
    /// under [`RoutePolicy::Shared`]).
    fn eligible_indices(&self, pending: &VecDeque<Submitted>) -> Vec<usize> {
        pending
            .iter()
            .enumerate()
            .filter(|(_, job)| self.eligible(job))
            .map(|(i, _)| i)
            .collect()
    }

    fn run(mut self) -> ServeStats {
        let shared = Arc::clone(&self.shared);
        let _guard = AliveGuard {
            shared: &shared,
            index: self.index,
        };
        loop {
            match self.claim() {
                Claim::Batch(batch) => {
                    if self.trimmed {
                        self.trimmed = false;
                        self.shared.trimmed_cards.fetch_sub(1, Ordering::AcqRel);
                    }
                    let survived = self.flush(batch);
                    self.publish();
                    if survived {
                        self.consecutive_restarts = 0;
                    } else if !self.recover() {
                        // Unsupervised, or the restart budget is spent:
                        // this card is done; AliveGuard marks it Dead and
                        // the survivors carry the fleet.
                        break;
                    }
                }
                Claim::IdleTrim => {
                    // Release what residency costs when traffic is quiet:
                    // this card's scratch units and cached spectra (both
                    // multi-MB at paper scale); the next burst re-prepares
                    // what it reuses.
                    self.engine.backend().trim_resources();
                    self.cache.clear();
                    // Pinned handles drop with the rest (and with them
                    // any pins a session has since unregistered); the
                    // next flush that references a live pin re-prepares
                    // it from the job in hand (requests carry the
                    // registered operand).
                    self.pinned.clear();
                    self.stats.idle_trims += 1;
                    self.trimmed = true;
                    let idle_now = self.shared.trimmed_cards.fetch_add(1, Ordering::AcqRel) + 1;
                    // The *shared* speculative state empties only once the
                    // whole fleet has gone quiet: hot statistics from a
                    // past burst must not steer speculation for the next,
                    // but one starved card timing out while its siblings
                    // chew through a long burst is not fleet idleness —
                    // wiping the staged spectra then would defeat
                    // speculation exactly under sustained load.
                    if self.shared.speculation && idle_now == self.shared.live.len() {
                        lock_or_recover(&self.shared.hot).clear();
                        lock_or_recover(&self.shared.spec_store).clear();
                    }
                    self.publish();
                }
                Claim::Closed => break,
            }
        }
        self.stats
    }

    /// Refreshes this card's live stats slot (for [`ServerPool::stats`]).
    fn publish(&self) {
        if let Some(slot) = self.shared.live.get(self.index) {
            *lock_or_recover(slot) = self.stats;
        }
    }

    /// Blocks until there is a micro-batch **this card may run** (under
    /// [`RoutePolicy::BySize`] only jobs that fit its geometry), the
    /// card should trim, or the fleet is shut down.
    fn claim(&self) -> Claim {
        let config = &self.shared.config;
        let max_batch = config.max_batch.max(1);
        let mut state = self.shared.lock_state();
        loop {
            // Jobs pending for *other* cards are none of this card's
            // business: an empty eligible set idles (and eventually
            // trims) this card even while its siblings are loaded.
            let eligible = self.eligible_indices(&state.pending);
            if eligible.is_empty() {
                if state.closed {
                    return Claim::Closed;
                }
                if self.trimmed {
                    // Already trimmed this idle period: park until
                    // traffic (or shutdown) wakes the fleet.
                    state = self
                        .shared
                        .not_empty
                        .wait(state)
                        .unwrap_or_else(|e| e.into_inner());
                } else {
                    let (next, timeout) = self
                        .shared
                        .not_empty
                        .wait_timeout(state, config.idle_trim_after)
                        .unwrap_or_else(|e| e.into_inner());
                    state = next;
                    if timeout.timed_out()
                        && !state.closed
                        && self.eligible_indices(&state.pending).is_empty()
                    {
                        return Claim::IdleTrim;
                    }
                }
                continue;
            }
            // A suspect job (it rode a panicked flush) is claimed ALONE
            // and immediately: if it is poisonous it takes down only this
            // flush, and if it is an innocent batch-mate it completes
            // without waiting out another batch window it already paid.
            let suspect_pos = eligible
                .iter()
                .copied()
                .find(|&i| state.pending.get(i).is_some_and(|job| job.suspect));
            if let Some(pos) = suspect_pos {
                if let Some(mut job) = state.pending.remove(pos) {
                    job.seen = Instant::now();
                    drop(state);
                    self.shared.not_full.notify_all();
                    return Claim::Batch(vec![job]);
                }
                continue;
            }
            let now = Instant::now();
            let due = flush_due(&state.pending, &eligible, config);
            if state.closed || eligible.len() >= max_batch || now >= due {
                let batch = pop_batch(&mut state.pending, &eligible, config);
                drop(state);
                // Capacity was freed; unblock waiting submitters.
                self.shared.not_full.notify_all();
                return Claim::Batch(batch);
            }
            // The batch is still filling: wait out the window, waking on
            // every push to re-evaluate (a new job may complete the batch
            // or pull the window earlier with its deadline).
            let (next, _) = self
                .shared
                .not_empty
                .wait_timeout(state, due - now)
                .unwrap_or_else(|e| e.into_inner());
            state = next;
        }
    }

    /// Runs one claimed micro-batch end to end, with every engine call
    /// supervised by `catch_unwind`. Returns `false` when the backend
    /// panicked — the jobs that were in flight have been re-queued (or
    /// quarantined: [`ServeError::Poisoned`]) and the caller must restart
    /// or retire this card.
    fn flush(&mut self, batch: Vec<Submitted>) -> bool {
        if batch.is_empty() {
            return true;
        }
        let started = Instant::now();
        self.stats.flushes += 1;
        self.stats.largest_flush = self.stats.largest_flush.max(batch.len());
        // Replies are buffered and sent only after this card's stats are
        // published: a caller that just saw its ticket answered must find
        // the completion already reflected in `ServerPool::stats`.
        let mut replies: Vec<Reply> = Vec::with_capacity(batch.len());
        // Cancelled jobs are dropped at claim time — no work, no reply
        // (the ticket was consumed by `cancel`; its sink drop is inert).
        // Then expire jobs whose deadline had already passed when this
        // card dequeued them — they were hopeless before any flush could
        // act, and the miss belongs to queueing, not to this flush. A
        // deadline still ahead at dequeue is honored below: the claim
        // loop pulled this flush to start before it, so the decision is
        // the ordering of two recorded events, not a race against the
        // worker's wakeup latency.
        let mut live: Vec<Submitted> = Vec::with_capacity(batch.len());
        for job in batch {
            if job.cancelled.load(Ordering::Relaxed) {
                self.stats.cancelled += 1;
                continue;
            }
            match job.request.deadline {
                Some(deadline) if deadline < job.seen => {
                    self.stats.expired_in_queue += 1;
                    replies.push((
                        job.reply,
                        Err(ServeError::Expired {
                            missed_by: job.seen.saturating_duration_since(deadline),
                        }),
                    ));
                }
                _ => live.push(job),
            }
        }
        let mut survived = true;
        if !live.is_empty() {
            // Phase 1 (cache writes): make sure every operand has a
            // prepared handle, paying each digest's forward transform at
            // most once — and paying independent misses concurrently. An
            // operand the backend cannot prepare simply stays uncached —
            // the job then runs raw and surfaces the backend's own error.
            // A *panicking* preparation (a poisonous operand, a dying
            // card) is caught: the worker thread survives and the jobs go
            // back to the queue.
            let prepared = catch_unwind(AssertUnwindSafe(|| self.prepare_operands(&live)));
            if prepared.is_err() {
                survived = false;
                for job in live {
                    self.requeue_or_quarantine(job, &mut replies);
                }
                live = Vec::new();
            }
            // A job that was live at dequeue but whose deadline passed
            // while this flush prepared its operands has been overtaken
            // by compute, not by queueing: it cannot start in time, so it
            // is dropped here and attributed to the flush.
            let now = Instant::now();
            let mut run: Vec<Submitted> = Vec::with_capacity(live.len());
            for job in live {
                match job.request.deadline {
                    Some(deadline) if deadline < now => {
                        self.stats.expired_in_flush += 1;
                        replies.push((
                            job.reply,
                            Err(ServeError::Expired {
                                missed_by: now.saturating_duration_since(deadline),
                            }),
                        ));
                    }
                    _ => run.push(job),
                }
            }
            if !run.is_empty() {
                survived = self.execute(run, &mut replies);
            }
        }
        if survived {
            // Evict only after the batch ran: every handle it borrowed
            // was live, so the cache may transiently exceed its capacity
            // within a single flush. Handles idle past `idle_trim_after`
            // go first: a card that never idles (steady traffic) would
            // otherwise keep a full LRU of stale spectra. Age counts from
            // this flush's start, so a flush slower than the idle window
            // keeps the handles it just used. A handle never hit since an
            // earlier flush prepared it goes too, whatever its age.
            self.cache
                .expire_unused(started, self.shared.config.idle_trim_after);
            self.cache.evict_to_capacity();
        } else {
            // An unwind tore through the backend mid-operation: every
            // handle it minted is suspect, so the reborn (or retired)
            // card starts clean. Pins are replayed from the session
            // registry on restart.
            self.cache.clear();
            self.pinned.clear();
        }
        self.finish_flush(replies);
        survived
    }

    /// Phase 2 of a flush: assemble the batch on the cached handles —
    /// digest-keyed for inline operands, id-keyed for pinned ones — and
    /// run it as one unit, with panic containment and per-job error
    /// isolation. Returns `false` when the engine panicked (the
    /// unanswered jobs have been re-queued or quarantined).
    fn execute(&mut self, run: Vec<Submitted>, replies: &mut Vec<Reply>) -> bool {
        let cache = &self.cache;
        let pinned = &self.pinned;
        let engine = &self.engine;
        let lookup = |operand: &Operand| -> Option<&OperandHandle> {
            match operand {
                Operand::Inline(value) => cache.get(value),
                Operand::Pinned { id, .. } => pinned.get(id).map(|slot| &slot.handle),
            }
        };
        let jobs: Vec<ProductJob<'_>> = run
            .iter()
            .map(|job| {
                let (a, b) = (&job.request.a, &job.request.b);
                match (lookup(a), lookup(b)) {
                    (Some(ha), Some(hb)) => ProductJob::Prepared(ha, hb),
                    (Some(ha), None) => ProductJob::OnePrepared(ha, b.value()),
                    // Multiplication commutes, so a lone cached `b`
                    // still saves its forward transform.
                    (None, Some(hb)) => ProductJob::OnePrepared(hb, a.value()),
                    (None, None) => ProductJob::Raw(a.value(), b.value()),
                }
            })
            .collect();
        // Per-job outcome; `None` = the job was in flight when the card
        // died (requeue it), `Some` = the backend answered (deliver it).
        let mut reruns = 0u64;
        let outcomes: Vec<Option<Result<UBig, MultiplyError>>> =
            match catch_unwind(AssertUnwindSafe(|| engine.run(&jobs))) {
                Ok(Ok(products)) => products.into_iter().map(|p| Some(Ok(p))).collect(),
                // A single-job batch's error is already exact.
                Ok(Err(err)) if jobs.len() == 1 => vec![Some(Err(err))],
                // A batch reports only its lowest-index error; rerun each
                // job alone so one oversized product does not fail its
                // batch-mates.
                Ok(Err(_)) => {
                    let mut solo: Vec<Option<Result<UBig, MultiplyError>>> =
                        Vec::with_capacity(jobs.len());
                    let mut died = false;
                    for job in &jobs {
                        // Once the card dies mid-rerun, the rest of the
                        // batch goes straight back to the queue.
                        if died {
                            solo.push(None);
                            continue;
                        }
                        reruns += 1;
                        match catch_unwind(AssertUnwindSafe(|| {
                            engine.run(std::slice::from_ref(job))
                        })) {
                            Ok(Ok(mut v)) => match v.pop() {
                                Some(product) => solo.push(Some(Ok(product))),
                                // An engine returning an empty batch for a
                                // one-job run is a device fault, not a
                                // reason to panic the supervisor.
                                None => solo.push(Some(Err(MultiplyError::Device(
                                    "engine returned an empty batch".into(),
                                )))),
                            },
                            Ok(Err(e)) => solo.push(Some(Err(e))),
                            Err(_) => {
                                died = true;
                                solo.push(None);
                            }
                        }
                    }
                    solo
                }
                Err(_) => run.iter().map(|_| None).collect(),
            };
        drop(jobs);
        self.stats.reruns += reruns;
        let mut survived = true;
        for (job, outcome) in run.into_iter().zip(outcomes) {
            match outcome {
                Some(Ok(product)) => {
                    self.stats.completed += 1;
                    replies.push((job.reply, Ok(product)));
                }
                Some(Err(err)) => self.fail_or_retry(job, err, replies),
                None => {
                    survived = false;
                    self.requeue_or_quarantine(job, replies);
                }
            }
        }
        survived
    }

    /// Delivers a backend error — or, for a *transient* device fault
    /// ([`MultiplyError::Device`]) with retry budget and deadline left,
    /// re-queues the job so another card (or this one, recovered) can
    /// try again. Deterministic errors (capacity, parameters) are never
    /// retried: they would fail identically everywhere.
    fn fail_or_retry(&mut self, mut job: Submitted, err: MultiplyError, replies: &mut Vec<Reply>) {
        let transient = matches!(err, MultiplyError::Device(_));
        if !transient || job.retries >= self.shared.config.retry_limit {
            self.stats.failed += 1;
            replies.push((job.reply, Err(ServeError::Multiply(err))));
            return;
        }
        let now = Instant::now();
        if let Some(deadline) = job.request.deadline {
            if deadline < now {
                self.stats.expired_in_flush += 1;
                replies.push((
                    job.reply,
                    Err(ServeError::Expired {
                        missed_by: now.saturating_duration_since(deadline),
                    }),
                ));
                return;
            }
        }
        job.retries += 1;
        self.stats.retried += 1;
        self.shared.requeue(job);
    }

    /// A job whose flush panicked: back to the queue as a *suspect* (it
    /// will be claimed alone, so a poisonous job cannot take batch-mates
    /// down twice) — or, once it has taken down `retry_limit + 1`
    /// flushes, quarantined with [`ServeError::Poisoned`] so it stops
    /// killing cards.
    fn requeue_or_quarantine(&mut self, mut job: Submitted, replies: &mut Vec<Reply>) {
        if job.cancelled.load(Ordering::Relaxed) {
            self.stats.cancelled += 1;
            return;
        }
        if job.retries >= self.shared.config.retry_limit {
            self.stats.poisoned += 1;
            replies.push((
                job.reply,
                Err(ServeError::Poisoned {
                    attempts: job.retries + 1,
                }),
            ));
            return;
        }
        let now = Instant::now();
        if let Some(deadline) = job.request.deadline {
            if deadline < now {
                self.stats.expired_in_flush += 1;
                replies.push((
                    job.reply,
                    Err(ServeError::Expired {
                        missed_by: now.saturating_duration_since(deadline),
                    }),
                ));
                return;
            }
        }
        job.retries += 1;
        job.suspect = true;
        self.stats.retried += 1;
        self.shared.requeue(job);
    }

    /// After a failed flush on a supervised pool: rebuild this card's
    /// engine from the factory — exponential backoff, at most
    /// [`ServeConfig::restart_cap`] consecutive attempts without a clean
    /// flush — and replay the session pin registry into the fresh
    /// engine. Returns `false` when the card must retire instead.
    fn recover(&mut self) -> bool {
        let Some(factory) = self.factory.clone() else {
            return false;
        };
        loop {
            if self.consecutive_restarts >= self.shared.config.restart_cap {
                return false;
            }
            self.consecutive_restarts += 1;
            self.shared.set_health(self.index, CardHealth::Restarting);
            // 1×, 2×, 4×, … the configured backoff, capped at a second:
            // a flapping card must not hammer the factory, and must not
            // stall its share of the queue for long either.
            let shift = (self.consecutive_restarts - 1).min(10);
            let backoff = self
                .shared
                .config
                .restart_backoff
                .saturating_mul(1u32 << shift)
                .min(Duration::from_secs(1));
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            // The factory itself may panic (the "device" is still sick):
            // that is a failed attempt, not a dead worker.
            let index = self.index;
            match catch_unwind(AssertUnwindSafe(|| factory(index))) {
                Err(_) => continue,
                Ok(engine) => {
                    self.engine = engine;
                    self.capacity = self.engine.operand_capacity_bits();
                    self.stats.restarts += 1;
                    // Replay the session pins so the reborn card serves
                    // registered operands hash-free from its first flush.
                    // A panic during replay (a poisonous pin, the device
                    // dying again) fails this attempt.
                    if catch_unwind(AssertUnwindSafe(|| self.replay_pins())).is_err() {
                        self.cache.clear();
                        self.pinned.clear();
                        continue;
                    }
                    self.shared.set_health(self.index, CardHealth::Live);
                    self.publish();
                    return true;
                }
            }
        }
    }

    /// Re-prepares every registered session operand into the (fresh)
    /// engine's pin store — the warm-up that lets a restarted card keep
    /// its hash-free pinned serving.
    fn replay_pins(&mut self) {
        if self.cache.is_disabled() {
            return;
        }
        let pins = lock_or_recover(&self.shared.pin_registry).snapshot();
        for (id, operand) in pins {
            if let Ok(handle) = self.engine.prepare(&operand) {
                if handle.is_cached() {
                    self.pin(id, handle);
                }
            }
        }
    }

    /// Publishes this flush's counters, then delivers the buffered
    /// replies — in that order, so `ServerPool::stats` never lags a
    /// ticket the caller has already collected.
    fn finish_flush(&self, replies: Vec<Reply>) {
        self.publish();
        for (reply, outcome) in replies {
            reply.send(outcome);
        }
    }

    /// Phase 1 of a flush: resolve pinned operands by id (no hashing),
    /// look every inline operand up in this card's digest cache, claim
    /// speculatively staged spectra, and prepare the remaining misses
    /// **in parallel** at the product level
    /// ([`EvalEngine::prepare_many`]).
    fn prepare_operands(&mut self, live: &[Submitted]) {
        if self.cache.is_disabled() {
            return;
        }
        let provenance = self.engine.backend().provenance();
        let mut hot_hits: Vec<u64> = Vec::new();
        // Unique operands this flush must prepare, in first-seen order,
        // with the count of their repeat sightings inside the same flush:
        // once the first sighting's preparation lands, every repeat is
        // served from the cache in phase 2 — a hit, and evidence of
        // recurrence, same as a cross-flush hit. Until then the repeats
        // stay provisional (a raw or failed preparation caches nothing,
        // so crediting them up front would invent hits).
        let mut missing: Vec<&UBig> = Vec::new();
        // Session-pinned operands this card has not prepared yet (first
        // sighting, or the pin was dropped by an idle trim): prepared in
        // the same parallel pass, retained by id.
        let mut pinned_missing: Vec<(u64, &UBig)> = Vec::new();
        let mut repeats: HashMap<u64, u64> = HashMap::new();
        let mut scheduled: HashSet<u64> = HashSet::new();
        let mut pinned_scheduled: HashSet<u64> = HashSet::new();
        let mut pinned_repeats: HashMap<u64, u64> = HashMap::new();
        for job in live {
            for side in [&job.request.a, &job.request.b] {
                let operand = match side {
                    Operand::Pinned { id, value } => {
                        // The whole point of pinning: resolution is an
                        // integer map lookup, never a digest of the
                        // operand's data, and the handle is exempt from
                        // LRU pressure. Repeats behind a first sighting
                        // in the same flush stay provisional until its
                        // preparation lands, like digest-cache repeats.
                        if let Some(slot) = self.pinned.get_mut(id) {
                            self.pin_tick += 1;
                            slot.last_used = self.pin_tick;
                            self.stats.pinned_hits += 1;
                        } else if !pinned_scheduled.insert(*id) {
                            *pinned_repeats.entry(*id).or_insert(0) += 1;
                        } else {
                            pinned_missing.push((*id, value));
                        }
                        continue;
                    }
                    Operand::Inline(value) => value,
                };
                let key = digest(operand);
                if self.cache.touch(operand, key) {
                    self.stats.cache_hits += 1;
                    if self.shared.speculation {
                        hot_hits.push(key);
                    }
                    continue;
                }
                if scheduled.contains(&key) {
                    *repeats.entry(key).or_insert(0) += 1;
                    continue;
                }
                if self.shared.speculation {
                    let staged = lock_or_recover(&self.shared.spec_store).take(operand, provenance);
                    if let Some(handle) = staged {
                        self.cache.insert(operand.clone(), key, handle);
                        self.stats.speculative_hits += 1;
                        scheduled.insert(key);
                        continue;
                    }
                }
                scheduled.insert(key);
                missing.push(operand);
            }
        }
        // ONE parallel preparation pass over pinned misses and digest
        // misses together — a lone unpinned session operand overlaps the
        // inline misses' transforms instead of serializing ahead of
        // them. Pinned handles go into the id-keyed pin map; a
        // preparation that fails (or caches nothing) leaves the pin
        // unresolved — the job runs raw and surfaces the backend's own
        // error.
        let to_prepare: Vec<&UBig> = pinned_missing
            .iter()
            .map(|(_, value)| *value)
            .chain(missing.iter().copied())
            .collect();
        let mut prepared_results = if to_prepare.is_empty() {
            Vec::new()
        } else {
            self.engine.prepare_many(&to_prepare)
        }
        .into_iter();
        for ((id, _), prepared) in pinned_missing.iter().zip(prepared_results.by_ref()) {
            if let Ok(handle) = prepared {
                if handle.is_cached() {
                    self.pin(*id, handle);
                    // The pin's repeats in this same flush resolve
                    // from the map in phase 2 — hash-free hits.
                    self.stats.pinned_hits += pinned_repeats.remove(id).unwrap_or(0);
                }
            }
        }
        // Only a successful, spectrum-bearing preparation touches the
        // cache; a raw-fallback backend caches no spectrum, so retaining
        // handles would only clone operands into resident memory for zero
        // transform savings — turn the cache off for good.
        let mut disabled = false;
        {
            for (operand, prepared) in missing.iter().zip(prepared_results) {
                match prepared {
                    Ok(handle) if handle.is_cached() => {
                        let key = digest(operand);
                        self.cache.insert((*operand).clone(), key, handle);
                        self.stats.cache_misses += 1;
                        // The repeats of a now-cached operand are hits.
                        if let Some(count) = repeats.remove(&key) {
                            self.stats.cache_hits += count;
                            if self.shared.speculation {
                                hot_hits.extend(std::iter::repeat_n(key, count as usize));
                            }
                        }
                    }
                    Ok(_) => {
                        self.cache.disable();
                        disabled = true;
                        break;
                    }
                    // Unpreparable (e.g. the operand alone exceeds the
                    // transform capacity): the job runs raw and surfaces
                    // the backend's own error.
                    Err(_) => {}
                }
            }
        }
        // Repeats of operands that hit the speculative store also resolve
        // from the cache in phase 2.
        if !disabled {
            for (&key, &count) in &repeats {
                if self.cache.contains_key(key) {
                    self.stats.cache_hits += count;
                    if self.shared.speculation {
                        hot_hits.extend(std::iter::repeat_n(key, count as usize));
                    }
                }
            }
        }
        if self.shared.speculation && !hot_hits.is_empty() {
            let mut hot = lock_or_recover(&self.shared.hot);
            // Bound the statistics map: a pathological stream of distinct
            // hot digests must not grow resident memory without limit.
            if hot.len() > 4096 {
                hot.clear();
            }
            for key in hot_hits {
                *hot.entry(key).or_insert(0) += 1;
            }
        }
    }
}

/// When the batch currently forming must flush: the oldest *eligible*
/// job's age bound, pulled earlier by any eligible job's deadline
/// (running a job *before* its deadline beats expiring it at the full
/// batch window). The deadline pull is scheduled
/// [`DEADLINE_SCHEDULING_MARGIN`] *before* the deadline itself, so the
/// job has started executing — not just been scheduled — by the instant
/// it promised; a flush fired exactly at the deadline would always find
/// the job microseconds expired.
fn flush_due(pending: &VecDeque<Submitted>, eligible: &[usize], config: &ServeConfig) -> Instant {
    let jobs = || eligible.iter().filter_map(|&i| pending.get(i));
    // An empty (or stale) eligible set means there is nothing to wait
    // for: flush now rather than panic a worker over a racing index.
    let Some(oldest) = jobs().map(|job| job.enqueued).min() else {
        return Instant::now();
    };
    jobs()
        .filter_map(|job| job.request.deadline)
        .map(|d| d.checked_sub(DEADLINE_SCHEDULING_MARGIN).unwrap_or(d))
        .fold(oldest + config.max_delay, Instant::min)
}

/// Claims up to `max_batch` jobs from the claiming card's eligible set
/// under the configured [`FlushPolicy`] and stamps their dequeue
/// instant; ineligible jobs stay queued for the cards that fit them.
fn pop_batch(
    pending: &mut VecDeque<Submitted>,
    eligible: &[usize],
    config: &ServeConfig,
) -> Vec<Submitted> {
    let take = eligible.len().min(config.max_batch.max(1));
    // Contiguous-prefix fast path: with every pending job eligible (the
    // Shared default) FIFO is a straight O(take) front drain — no index
    // set, no queue rebuild.
    if matches!(config.policy, FlushPolicy::Fifo) && eligible.len() == pending.len() {
        let mut batch: Vec<Submitted> = pending.drain(..take).collect();
        let now = Instant::now();
        for job in &mut batch {
            job.seen = now;
        }
        return batch;
    }
    let chosen: HashSet<usize> = match config.policy {
        FlushPolicy::Fifo => eligible.iter().take(take).copied().collect(),
        FlushPolicy::Edf => {
            // Rank the eligible jobs: earliest deadline first,
            // deadline-less jobs last, arrival order as tie-breaker.
            let mut order: Vec<usize> = eligible.to_vec();
            order.sort_by(|&i, &j| {
                match (pending.get(i), pending.get(j)) {
                    (Some(a), Some(b)) => match (a.request.deadline, b.request.deadline) {
                        (Some(da), Some(db)) => da.cmp(&db).then(a.seq.cmp(&b.seq)),
                        (Some(_), None) => core::cmp::Ordering::Less,
                        (None, Some(_)) => core::cmp::Ordering::Greater,
                        (None, None) => a.seq.cmp(&b.seq),
                    },
                    // A stale index (nothing pending there) sorts last.
                    (Some(_), None) => core::cmp::Ordering::Less,
                    (None, Some(_)) => core::cmp::Ordering::Greater,
                    (None, None) => core::cmp::Ordering::Equal,
                }
            });
            order.truncate(take);
            order.into_iter().collect()
        }
    };
    let mut batch = Vec::with_capacity(take);
    if chosen.len() == pending.len() {
        batch.extend(pending.drain(..));
    } else {
        let mut rest = VecDeque::with_capacity(pending.len().saturating_sub(take));
        for (i, job) in pending.drain(..).enumerate() {
            if chosen.contains(&i) {
                batch.push(job);
            } else {
                rest.push_back(job);
            }
        }
        *pending = rest;
    }
    let now = Instant::now();
    for job in &mut batch {
        job.seen = now;
    }
    batch
}

/// The speculative preparer: watches the queue and the fleet's hit
/// statistics, and transforms the fresh partners of hot recurring
/// operands into the shared staging store — off the cards' critical path.
fn run_speculator<M: Multiplier + Sync>(engine: EvalEngine<M>, shared: Arc<PoolShared>) {
    let config = &shared.config;
    let hot_after = config.speculate_hot_after.max(1);
    let per_pass = config.max_batch.max(1);
    loop {
        // Snapshot speculation candidates under the queue lock: pending
        // jobs where one side's digest is hot (its spectrum is surely
        // cached on some card) and the other side — the stream side — is
        // neither hot nor already staged. Digests were stamped at
        // submission (outside this lock), so the scan is map lookups
        // plus at most `per_pass` bounded operand clones — it never
        // hashes operand data while submitters and cards contend on the
        // mutex.
        let candidates: Vec<(u64, UBig)> = {
            let mut state = shared.lock_state();
            loop {
                if state.closed {
                    return;
                }
                if !state.pending.is_empty() {
                    break;
                }
                state = shared
                    .not_empty
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
            let hot = lock_or_recover(&shared.hot);
            let store = lock_or_recover(&shared.spec_store);
            let is_hot = |key: u64| hot.get(&key).copied().unwrap_or(0) >= hot_after;
            let mut picked: Vec<(u64, UBig)> = Vec::new();
            let mut picked_keys: HashSet<u64> = HashSet::new();
            'scan: for job in state.pending.iter() {
                let Some((key_a, key_b)) = job.digests else {
                    continue;
                };
                let (a, b) = job.request.operands();
                for (this, key, partner_key) in [(a, key_a, key_b), (b, key_b, key_a)] {
                    if is_hot(partner_key)
                        && !is_hot(key)
                        && !store.contains(key)
                        && !picked_keys.contains(&key)
                    {
                        picked_keys.insert(key);
                        picked.push((key, this.clone()));
                        if picked.len() >= per_pass {
                            break 'scan;
                        }
                    }
                }
            }
            picked
        };
        if candidates.is_empty() {
            // Traffic is flowing but nothing is speculable right now
            // (operands cold, or already staged); re-check after one
            // batch window rather than spinning on the queue lock.
            let state = shared.lock_state();
            if state.closed {
                return;
            }
            let wait = config.max_delay.max(Duration::from_millis(1));
            drop(shared.not_empty.wait_timeout(state, wait));
            continue;
        }
        for (key, operand) in candidates {
            if shared.lock_state().closed {
                return;
            }
            if let Ok(handle) = engine.prepare(&operand) {
                if handle.is_cached() {
                    lock_or_recover(&shared.spec_store).insert(key, operand, handle);
                    shared.spec_prepares.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}
// lint: end supervisor

struct CacheSlot {
    operand: UBig,
    handle: OperandHandle,
    last_used: u64,
    used_at: Instant,
    /// Whether a lookup has found this slot since its insertion.
    hit: bool,
}

/// Per-card LRU cache of prepared operand handles, keyed by the operand's
/// 64-bit digest (collisions are verified against the stored operand, so a
/// digest clash can never serve the wrong spectrum).
struct HandleCache {
    capacity: usize,
    tick: u64,
    len: usize,
    entries: HashMap<u64, Vec<CacheSlot>>,
}

impl HandleCache {
    fn new(capacity: usize) -> HandleCache {
        HandleCache {
            capacity,
            tick: 0,
            len: 0,
            entries: HashMap::new(),
        }
    }

    fn is_disabled(&self) -> bool {
        self.capacity == 0
    }

    /// Turns the cache off for good (raw-fallback backends: retaining
    /// handles would only clone operands into resident memory for zero
    /// transform savings).
    fn disable(&mut self) {
        self.capacity = 0;
        self.clear();
    }

    /// Looks the operand up, bumping its recency. Returns whether it was
    /// cached.
    fn touch(&mut self, operand: &UBig, key: u64) -> bool {
        if self.capacity == 0 {
            return false;
        }
        self.tick += 1;
        let tick = self.tick;
        match self
            .entries
            .get_mut(&key)
            .and_then(|chain| chain.iter_mut().find(|s| s.operand == *operand))
        {
            Some(slot) => {
                slot.last_used = tick;
                slot.used_at = Instant::now();
                slot.hit = true;
                true
            }
            None => false,
        }
    }

    /// Inserts a freshly prepared handle.
    fn insert(&mut self, operand: UBig, key: u64, handle: OperandHandle) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        self.entries.entry(key).or_default().push(CacheSlot {
            operand,
            handle,
            last_used: self.tick,
            used_at: Instant::now(),
            hit: false,
        });
        self.len += 1;
    }

    /// Drops every cached handle (capacity and auto-disable state are
    /// kept); the next flush re-prepares what it needs.
    fn clear(&mut self) {
        self.entries.clear();
        self.len = 0;
    }

    /// Whether any slot is cached under this digest (phase-1 repeat
    /// accounting; the operand itself is verified on `get`).
    fn contains_key(&self, key: u64) -> bool {
        self.entries
            .get(&key)
            .is_some_and(|chain| !chain.is_empty())
    }

    /// Read-only lookup (no recency update; phase 2 of a flush).
    fn get(&self, operand: &UBig) -> Option<&OperandHandle> {
        self.entries
            .get(&digest(operand))?
            .iter()
            .find(|s| s.operand == *operand)
            .map(|s| &s.handle)
    }

    /// Drops every handle last used more than `max_idle` before
    /// `flush_start`, and every handle that was never hit and was
    /// inserted before `flush_start`: an operand that one whole flush
    /// passed over without reuse has shown no reuse to keep its spectrum
    /// resident for (a stream of fresh operands would otherwise retain
    /// a full idle window's worth of dead spectra).
    fn expire_unused(&mut self, flush_start: Instant, max_idle: Duration) {
        let cutoff = flush_start.checked_sub(max_idle);
        self.entries.retain(|_, chain| {
            chain.retain(|slot| {
                if slot.hit {
                    cutoff.is_none_or(|cutoff| slot.used_at >= cutoff)
                } else {
                    slot.used_at >= flush_start
                }
            });
            !chain.is_empty()
        });
        self.len = self.entries.values().map(Vec::len).sum();
    }

    /// Evicts least-recently-used entries until the capacity holds.
    fn evict_to_capacity(&mut self) {
        while self.len > self.capacity {
            let Some((&key, oldest_tick)) = self
                .entries
                .iter()
                .filter_map(|(key, chain)| {
                    chain.iter().map(|s| s.last_used).min().map(|t| (key, t))
                })
                .min_by_key(|&(_, tick)| tick)
            else {
                return;
            };
            let chain = self.entries.get_mut(&key).expect("chain just found");
            chain.retain(|s| s.last_used != oldest_tick);
            if chain.is_empty() {
                self.entries.remove(&key);
            }
            self.len = self.entries.values().map(Vec::len).sum();
        }
    }
}

/// A [`CiphertextMultiplier`] that routes every homomorphic product
/// through a serving front — a single [`ProductServer`] or a whole
/// [`ServerPool`] — so DGHV circuit evaluation (AND-trees, comparator
/// sweeps, SIMD mask products) schedules whole levels as one micro-batch
/// on the resident fleet (see `he_dghv::CircuitEvaluator::and_tree`).
///
/// The fleet's handle caches make the recurring operands of those circuits
/// (masks, accumulators) hit the cached-transform rungs without any
/// preparation calls on this side; `prepare`d factors therefore keep only
/// the raw value.
///
/// # Panics
///
/// Like the other sized backends (`SsaBackend`), products that exceed the
/// engine's capacity panic — the DGHV layer guarantees ciphertexts fit the
/// backend it was built for. Server shutdown mid-product also panics.
#[derive(Debug)]
pub struct ServedMultiplier<'a, S: Submitter = ProductServer> {
    server: &'a S,
}

impl<'a, S: Submitter> ServedMultiplier<'a, S> {
    /// A DGHV backend view over a serving front.
    pub fn new(server: &'a S) -> ServedMultiplier<'a, S> {
        ServedMultiplier { server }
    }
}

impl<S: Submitter> CiphertextMultiplier for ServedMultiplier<'_, S> {
    fn multiply(&self, a: &UBig, b: &UBig) -> UBig {
        self.server
            .submit(ProductRequest::new(a.clone(), b.clone()))
            .expect("product server closed")
            .wait()
            .expect("served product failed")
    }

    fn multiply_pairs(&self, pairs: &[(&UBig, &UBig)]) -> Vec<UBig> {
        // Submit the whole level, then collect: the fleet micro-batches
        // the stream, so independent gates of one circuit level share
        // flushes (and the cached transforms of recurring operands).
        let tickets: Vec<ProductTicket> = pairs
            .iter()
            .map(|(a, b)| {
                self.server
                    .submit(ProductRequest::new((*a).clone(), (*b).clone()))
                    .expect("product server closed")
            })
            .collect();
        tickets
            .into_iter()
            .map(|t| t.wait().expect("served product failed"))
            .collect()
    }

    fn multiply_prepared_many(&self, a: &PreparedFactor, bs: &[&UBig]) -> Vec<UBig> {
        // The fleet's own digest caches are the preparation layer here;
        // submitting raw pairs lets it reuse the recurring factor's
        // spectrum across the whole sweep.
        let pairs: Vec<(&UBig, &UBig)> = bs.iter().map(|b| (a.raw(), *b)).collect();
        self.multiply_pairs(&pairs)
    }

    fn name(&self) -> &'static str {
        "served-engine"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultyMultiplier};
    use crate::multiplier::{Karatsuba, SsaSoftware};
    use std::sync::atomic::AtomicU64;

    fn small_engine(bits: usize) -> EvalEngine<SsaSoftware> {
        EvalEngine::new(SsaSoftware::for_operand_bits(bits).unwrap())
    }

    /// A queue entry for the claim-order unit tests.
    fn test_submitted(
        seq: u64,
        base: Instant,
        deadline_ms: Option<u64>,
        tx: &mpsc::Sender<Result<UBig, ServeError>>,
    ) -> Submitted {
        let request = ProductRequest {
            a: Operand::Inline(UBig::from(seq)),
            b: Operand::Inline(UBig::from(seq)),
            deadline: deadline_ms.map(|ms| base + Duration::from_millis(ms)),
        };
        Submitted {
            required_bits: request.required_bits(),
            request,
            enqueued: base,
            seq,
            digests: None,
            cancelled: Arc::new(AtomicBool::new(false)),
            seen: base,
            retries: 0,
            suspect: false,
            reply: ReplySink::Ticket(tx.clone()),
        }
    }

    fn small_server(config: ServeConfig) -> ProductServer {
        ProductServer::spawn(small_engine(2_000), config)
    }

    #[test]
    fn serves_products_in_submission_order() {
        let server = small_server(ServeConfig {
            max_batch: 4,
            max_delay: Duration::from_millis(1),
            ..ServeConfig::default()
        });
        let tickets: Vec<ProductTicket> = (1..=10u64)
            .map(|k| {
                server
                    .submit(ProductRequest::new(UBig::from(k), UBig::from(1_000_003u64)))
                    .unwrap()
            })
            .collect();
        for (k, ticket) in (1..=10u64).zip(tickets) {
            assert_eq!(ticket.wait().unwrap(), UBig::from(k * 1_000_003));
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 10);
        assert_eq!(stats.failed + stats.expired(), 0);
        // The recurring right-hand operand hit the cache after its first
        // preparation.
        assert!(stats.cache_hits >= 9, "stats: {stats:?}");
    }

    #[test]
    fn recurring_operands_hit_the_handle_cache() {
        let server = small_server(ServeConfig::default());
        let fixed = UBig::from(0xdead_beefu64);
        let tickets: Vec<ProductTicket> = (0..8u64)
            .map(|k| {
                server
                    .submit(ProductRequest::new(fixed.clone(), UBig::from(k + 2)))
                    .unwrap()
            })
            .collect();
        for (k, ticket) in (0..8u64).zip(tickets) {
            assert_eq!(ticket.wait().unwrap(), &fixed * &UBig::from(k + 2));
        }
        let stats = server.shutdown();
        // 16 operand lookups; `fixed` misses once, each stream element
        // misses once → at least 7 hits from the recurring operand.
        assert!(stats.cache_hits >= 7, "stats: {stats:?}");
        assert!(stats.cache_misses <= 9, "stats: {stats:?}");
    }

    #[test]
    fn expired_deadline_is_a_typed_error_and_spares_batch_mates() {
        let server = small_server(ServeConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(20),
            ..ServeConfig::default()
        });
        let doomed = server
            .submit(
                ProductRequest::new(UBig::from(3u64), UBig::from(5u64))
                    .with_deadline(Duration::ZERO),
            )
            .unwrap();
        let fine = server
            .submit(ProductRequest::new(UBig::from(7u64), UBig::from(11u64)))
            .unwrap();
        assert!(matches!(doomed.wait(), Err(ServeError::Expired { .. })));
        assert_eq!(fine.wait().unwrap(), UBig::from(77u64));
        let stats = server.shutdown();
        // The zero deadline was already past at dequeue: an in-queue
        // expiry, not a flush-attributed one.
        assert_eq!(stats.expired_in_queue, 1);
        assert_eq!(stats.expired_in_flush, 0);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn deadline_inside_the_batch_window_runs_instead_of_expiring() {
        // The deadline pulls the flush earlier than max_delay — and the
        // flush must start *before* the deadline, so the job runs. (A
        // flush scheduled exactly at the deadline would always find the
        // job microseconds expired.) The margins are generous on purpose:
        // a preempted CI runner must not expire the job (deadline) or sit
        // on it (max_delay) — the elapsed-time assertion below is what
        // proves the deadline, not max_delay, triggered the flush.
        let server = small_server(ServeConfig {
            max_batch: 64,
            max_delay: Duration::from_secs(60),
            ..ServeConfig::default()
        });
        let started = Instant::now();
        let ticket = server
            .submit(
                ProductRequest::new(UBig::from(21u64), UBig::from(2u64))
                    .with_deadline(Duration::from_secs(2)),
            )
            .unwrap();
        assert_eq!(
            ticket
                .wait()
                .expect("deadline comfortably ahead of the flush"),
            UBig::from(42u64)
        );
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "the deadline must pull the flush well ahead of max_delay"
        );
        let stats = server.shutdown();
        assert_eq!(stats.expired(), 0);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn oversized_job_fails_alone() {
        let server = small_server(ServeConfig {
            max_batch: 4,
            max_delay: Duration::from_millis(10),
            // Cache off so the oversized operands reach the multiply path
            // (prepare would already reject them) — exercising the
            // per-job isolation fallback.
            cache_capacity: 0,
            ..ServeConfig::default()
        });
        let too_big = UBig::pow2(100_000);
        let bad = server
            .submit(ProductRequest::new(too_big.clone(), too_big))
            .unwrap();
        let good = server
            .submit(ProductRequest::new(UBig::from(6u64), UBig::from(7u64)))
            .unwrap();
        assert!(matches!(bad.wait(), Err(ServeError::Multiply(_))));
        assert_eq!(good.wait().unwrap(), UBig::from(42u64));
        let stats = server.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn shutdown_drains_accepted_jobs() {
        let server = small_server(ServeConfig {
            max_batch: 64,
            max_delay: Duration::from_secs(10),
            ..ServeConfig::default()
        });
        let tickets: Vec<ProductTicket> = (2..7u64)
            .map(|k| {
                server
                    .submit(ProductRequest::new(UBig::from(k), UBig::from(k)))
                    .unwrap()
            })
            .collect();
        // Shutdown closes the queue; the long max_delay must not stall
        // the drain.
        let stats = server.shutdown();
        assert_eq!(stats.completed, 5);
        for (k, ticket) in (2..7u64).zip(tickets) {
            assert_eq!(ticket.wait().unwrap(), UBig::from(k * k));
        }
    }

    #[test]
    fn idle_trim_releases_the_handle_cache() {
        let server = small_server(ServeConfig {
            max_batch: 4,
            max_delay: Duration::from_millis(1),
            idle_trim_after: Duration::from_millis(20),
            ..ServeConfig::default()
        });
        let fixed = UBig::from(0xfeedu64);
        let first = server
            .submit(ProductRequest::new(fixed.clone(), UBig::from(3u64)))
            .unwrap();
        assert_eq!(first.wait().unwrap(), &fixed * &UBig::from(3u64));
        // Let the worker go quiet long enough to trim scratch AND spectra.
        std::thread::sleep(Duration::from_millis(200));
        let second = server
            .submit(ProductRequest::new(fixed.clone(), UBig::from(5u64)))
            .unwrap();
        assert_eq!(second.wait().unwrap(), &fixed * &UBig::from(5u64));
        let stats = server.shutdown();
        assert!(stats.idle_trims >= 1, "stats: {stats:?}");
        // The recurring operand was re-prepared after the trim — every
        // lookup of this run was a miss, nothing survived the idle pass.
        assert_eq!(stats.cache_hits, 0, "stats: {stats:?}");
        assert_eq!(stats.cache_misses, 4, "stats: {stats:?}");
    }

    #[test]
    fn raw_backends_serve_with_the_cache_auto_disabled() {
        let server = ProductServer::spawn(EvalEngine::new(Karatsuba), ServeConfig::default());
        let tickets: Vec<ProductTicket> = (0..3)
            .map(|_| {
                server
                    .submit(ProductRequest::new(UBig::from(9u64), UBig::from(9u64)))
                    .unwrap()
            })
            .collect();
        for ticket in tickets {
            assert_eq!(ticket.wait().unwrap(), UBig::from(81u64));
        }
        let stats = server.shutdown();
        // Raw handles cache no spectrum, so the server stops digesting
        // and cloning operands after the first sighting.
        assert_eq!(stats.cache_hits, 0, "stats: {stats:?}");
        assert_eq!(stats.cache_misses, 0, "stats: {stats:?}");
    }

    #[test]
    fn pool_serves_across_all_cards() {
        let pool = ServerPool::spawn(
            vec![small_engine(2_000), small_engine(2_000)],
            ServeConfig {
                max_batch: 2,
                max_delay: Duration::from_millis(1),
                ..ServeConfig::default()
            },
        );
        assert_eq!(pool.workers(), 2);
        let tickets: Vec<ProductTicket> = (1..=24u64)
            .map(|k| {
                pool.submit(ProductRequest::new(UBig::from(k), UBig::from(999_983u64)))
                    .unwrap()
            })
            .collect();
        for (k, ticket) in (1..=24u64).zip(tickets) {
            assert_eq!(ticket.wait().unwrap(), UBig::from(k * 999_983));
        }
        let stats = pool.shutdown();
        assert_eq!(stats.per_worker.len(), 2);
        assert_eq!(stats.total().completed, 24);
        assert_eq!(stats.total().failed + stats.total().expired(), 0);
    }

    #[test]
    fn heterogeneous_cards_each_prepare_their_own_operands() {
        // Cards of different transform geometry share a queue: handles
        // are provenance-stamped per instance, so each card caches its
        // own spectra and every product stays bit-exact regardless of
        // which card claims it.
        let pool = ServerPool::spawn(
            vec![small_engine(2_000), small_engine(4_000)],
            ServeConfig {
                max_batch: 2,
                max_delay: Duration::from_millis(1),
                ..ServeConfig::default()
            },
        );
        let fixed = UBig::from(0xabcdu64);
        let tickets: Vec<ProductTicket> = (1..=16u64)
            .map(|k| {
                pool.submit(ProductRequest::new(fixed.clone(), UBig::from(k)))
                    .unwrap()
            })
            .collect();
        for (k, ticket) in (1..=16u64).zip(tickets) {
            assert_eq!(ticket.wait().unwrap(), &fixed * &UBig::from(k));
        }
        let stats = pool.shutdown();
        assert_eq!(stats.total().completed, 16);
    }

    #[test]
    fn edf_claims_earliest_deadlines_first() {
        let config = ServeConfig {
            max_batch: 2,
            policy: FlushPolicy::Edf,
            ..ServeConfig::default()
        };
        let mut pending: VecDeque<Submitted> = VecDeque::new();
        let base = Instant::now();
        let (tx, _rx) = mpsc::channel();
        for (seq, deadline_ms) in [
            (0u64, None),
            (1, Some(500u64)),
            (2, Some(50)),
            (3, Some(200)),
        ] {
            pending.push_back(test_submitted(seq, base, deadline_ms, &tx));
        }
        let all: Vec<usize> = (0..pending.len()).collect();
        let batch = pop_batch(&mut pending, &all, &config);
        let seqs: Vec<u64> = batch.iter().map(|j| j.seq).collect();
        // The 50 ms and 200 ms deadlines outrank the 500 ms one and the
        // deadline-less job.
        assert_eq!(seqs, vec![2, 3]);
        assert_eq!(pending.len(), 2);
        // FIFO takes arrival order regardless of deadlines.
        let fifo = ServeConfig {
            policy: FlushPolicy::Fifo,
            ..config
        };
        let all: Vec<usize> = (0..pending.len()).collect();
        let batch = pop_batch(&mut pending, &all, &fifo);
        let seqs: Vec<u64> = batch.iter().map(|j| j.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn edf_expires_fewer_than_fifo_under_overload() {
        // Deterministic queue-order check (no live threads): 4 pending
        // jobs, capacity for 2 per flush. The last two carry the tight
        // deadlines; EDF runs them first, FIFO lets them expire.
        let base = Instant::now();
        let (tx, _rx) = mpsc::channel();
        let build = |policy: FlushPolicy| {
            let mut pending: VecDeque<Submitted> = VecDeque::new();
            for (seq, deadline) in [(0u64, None), (1, None), (2, Some(1u64)), (3, Some(2))] {
                pending.push_back(test_submitted(seq, base, deadline, &tx));
            }
            let config = ServeConfig {
                max_batch: 2,
                policy,
                ..ServeConfig::default()
            };
            let all: Vec<usize> = (0..pending.len()).collect();
            pop_batch(&mut pending, &all, &config)
                .iter()
                .map(|j| j.seq)
                .collect::<Vec<u64>>()
        };
        assert_eq!(build(FlushPolicy::Edf), vec![2, 3]);
        assert_eq!(build(FlushPolicy::Fifo), vec![0, 1]);
    }

    #[test]
    fn cancelled_jobs_are_dropped_at_claim_and_counted() {
        // A long batch window keeps the first job queued until the batch
        // fills, so the cancel lands deterministically before the claim.
        let server = small_server(ServeConfig {
            max_batch: 4,
            max_delay: Duration::from_millis(500),
            ..ServeConfig::default()
        });
        let doomed = server
            .submit(ProductRequest::new(UBig::from(3u64), UBig::from(5u64)))
            .unwrap();
        doomed.cancel();
        let survivors: Vec<ProductTicket> = (2..5u64)
            .map(|k| {
                server
                    .submit(ProductRequest::new(UBig::from(k), UBig::from(k)))
                    .unwrap()
            })
            .collect();
        for (k, ticket) in (2..5u64).zip(survivors) {
            assert_eq!(ticket.wait().unwrap(), UBig::from(k * k));
        }
        let stats = server.shutdown();
        assert_eq!(stats.cancelled, 1, "stats: {stats:?}");
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.expired() + stats.failed, 0);
    }

    #[test]
    fn pop_batch_leaves_ineligible_jobs_queued() {
        // The BySize claim path: a card only pops its eligible subset;
        // the rest stay in arrival order for the cards that fit them.
        let config = ServeConfig {
            max_batch: 8,
            policy: FlushPolicy::Fifo,
            ..ServeConfig::default()
        };
        let base = Instant::now();
        let (tx, _rx) = mpsc::channel();
        let mut pending: VecDeque<Submitted> = VecDeque::new();
        for seq in 0..5u64 {
            pending.push_back(test_submitted(seq, base, None, &tx));
        }
        let eligible = vec![1usize, 3];
        let batch = pop_batch(&mut pending, &eligible, &config);
        assert_eq!(batch.iter().map(|j| j.seq).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(
            pending.iter().map(|j| j.seq).collect::<Vec<_>>(),
            vec![0, 2, 4]
        );
    }

    #[test]
    fn by_size_routing_keeps_oversized_jobs_off_small_cards() {
        // A small and a large card under BySize: a job only the large
        // card fits must never fail, however many times it is submitted.
        let pool = ServerPool::spawn(
            vec![small_engine(2_000), small_engine(50_000)],
            ServeConfig {
                max_batch: 2,
                max_delay: Duration::from_millis(1),
                route: RoutePolicy::BySize,
                ..ServeConfig::default()
            },
        );
        let big = UBig::pow2(20_000);
        let tickets: Vec<ProductTicket> = (1..=6u64)
            .map(|k| {
                pool.submit(ProductRequest::new(big.clone(), UBig::from(k)))
                    .unwrap()
            })
            .collect();
        for (k, ticket) in (1..=6u64).zip(tickets) {
            assert_eq!(ticket.wait().unwrap(), &big * &UBig::from(k));
        }
        // Small jobs still flow (either card may take them).
        let small = pool
            .submit(ProductRequest::new(UBig::from(6u64), UBig::from(7u64)))
            .unwrap();
        assert_eq!(small.wait().unwrap(), UBig::from(42u64));
        let stats = pool.shutdown();
        assert_eq!(stats.total().completed, 7);
        assert_eq!(stats.total().failed, 0, "stats: {stats:?}");
    }

    #[test]
    fn session_pins_survive_lru_pressure() {
        // Cache capacity of 1 would evict any digest-cached operand on
        // every flush of fresh traffic; the pinned operand is exempt.
        let server = small_server(ServeConfig {
            max_batch: 2,
            max_delay: Duration::from_millis(1),
            cache_capacity: 1,
            ..ServeConfig::default()
        });
        let mut session = server.session();
        let fixed = UBig::from(0xabcd_ef01u64);
        session.register("acc", fixed.clone());
        assert_eq!(session.registered(), 1);
        let tickets: Vec<ProductTicket> = (2..10u64)
            .map(|k| session.submit_with("acc", UBig::from(k)).unwrap())
            .collect();
        for (k, ticket) in (2..10u64).zip(tickets) {
            assert_eq!(ticket.wait().unwrap(), &fixed * &UBig::from(k));
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 8);
        // One lazy preparation, then every later sighting resolved from
        // the pin map — hash-free, eviction-proof.
        assert!(stats.pinned_hits >= 7, "stats: {stats:?}");
    }

    #[test]
    fn sessions_clone_and_unregister_independently() {
        let server = small_server(ServeConfig::default());
        let mut session = server.session();
        session.register("a", UBig::from(11u64));
        let mut sibling = session.clone();
        sibling.register("b", UBig::from(13u64));
        // The clone carries "a" and its own "b"; the original only "a".
        assert_eq!(
            sibling.submit_between("a", "b").unwrap().wait().unwrap(),
            UBig::from(143u64)
        );
        assert_eq!(session.registered(), 1);
        sibling.unregister("a");
        assert_eq!(sibling.registered(), 1);
        // The original's registration is untouched by the clone's
        // unregister of the shared name.
        assert_eq!(
            session
                .submit_with("a", UBig::from(2u64))
                .unwrap()
                .wait()
                .unwrap(),
            UBig::from(22u64)
        );
        server.shutdown();
    }

    #[test]
    fn completion_queue_over_a_session_carries_tags() {
        let server = small_server(ServeConfig {
            max_batch: 2,
            max_delay: Duration::from_millis(1),
            ..ServeConfig::default()
        });
        let mut session = server.session();
        session.register("acc", UBig::from(1_000_003u64));
        let requests: Vec<(ProductRequest, u64)> = (2..8u64)
            .map(|k| (session.request_with("acc", UBig::from(k)), k))
            .collect();
        let mut queue: CompletionQueue<'_, ClientSession, u64> = CompletionQueue::new(&session);
        for (request, tag) in requests {
            queue
                .submit_tagged(request, tag)
                .map_err(|(e, _)| e)
                .unwrap();
        }
        let mut seen = 0u64;
        while let Some(done) = queue.recv() {
            assert_eq!(
                done.result.unwrap(),
                UBig::from(done.tag) * UBig::from(1_000_003u64)
            );
            seen += 1;
        }
        assert_eq!(seen, 6);
        assert_eq!(queue.in_flight(), 0);
        let stats = server.shutdown();
        assert_eq!(stats.completed, 6);
        assert!(stats.pinned_hits > 0, "stats: {stats:?}");
    }

    #[test]
    fn speculative_preparer_stages_hot_partners() {
        // A recurring `fixed` operand times a fresh stream: once `fixed`
        // is hot, the speculator pre-transforms the stream side while the
        // jobs wait, and the cards claim the staged spectra.
        let pool = ServerPool::spawn_speculative(
            vec![small_engine(2_000)],
            small_engine(2_000),
            ServeConfig {
                max_batch: 4,
                max_delay: Duration::from_millis(5),
                speculate_hot_after: 1,
                ..ServeConfig::default()
            },
        );
        let fixed = UBig::from(0x5eedu64);
        // Rounds of traffic: the first rounds heat `fixed` up, later
        // rounds give the speculator queued jobs to work ahead of.
        let mut served = 0u64;
        for round in 0..6u64 {
            let tickets: Vec<ProductTicket> = (0..8u64)
                .map(|k| {
                    let b = UBig::from(1 + round * 101 + k * 7919);
                    pool.submit(ProductRequest::new(fixed.clone(), b)).unwrap()
                })
                .collect();
            for (k, ticket) in (0..8u64).zip(tickets) {
                let b = UBig::from(1 + round * 101 + k * 7919);
                assert_eq!(ticket.wait().unwrap(), &fixed * &b);
                served += 1;
            }
        }
        let stats = pool.shutdown();
        assert_eq!(stats.total().completed, served);
        // The speculator transformed at least one stream operand off the
        // critical path. (Claims are racy — the card may beat the
        // speculator to any given operand — but across 48 products some
        // speculative work must have landed.)
        assert!(
            stats.speculative_prepares > 0,
            "speculator never ran: {stats:?}"
        );
    }

    #[test]
    fn spec_store_verifies_operand_and_provenance() {
        let engine_small = small_engine(2_000);
        let engine_large = small_engine(500_000);
        let op = UBig::from(77u64);
        let handle = engine_small.prepare(&op).unwrap();
        let mut store = SpecStore::new(4);
        store.insert(digest(&op), op.clone(), handle);
        // A different geometry cannot claim the staged spectrum…
        assert!(store
            .take(&op, engine_large.backend().provenance())
            .is_none());
        // …a different operand cannot either…
        assert!(store
            .take(&UBig::from(78u64), engine_small.backend().provenance())
            .is_none());
        // …the matching instance takes it exactly once.
        assert!(store
            .take(&op, engine_small.backend().provenance())
            .is_some());
        assert!(store
            .take(&op, engine_small.backend().provenance())
            .is_none());
    }

    #[test]
    fn spec_store_evicts_oldest_first() {
        let engine = small_engine(2_000);
        let provenance = engine.backend().provenance();
        let mut store = SpecStore::new(2);
        let ops: Vec<UBig> = (1..=3u64).map(UBig::from).collect();
        for op in &ops {
            let handle = engine.prepare(op).unwrap();
            store.insert(digest(op), op.clone(), handle);
        }
        assert!(store.take(&ops[0], provenance).is_none(), "oldest evicted");
        assert!(store.take(&ops[1], provenance).is_some());
        assert!(store.take(&ops[2], provenance).is_some());
    }

    #[test]
    fn live_stats_observe_a_running_pool() {
        let pool = ServerPool::spawn(
            vec![small_engine(2_000)],
            ServeConfig {
                max_batch: 2,
                max_delay: Duration::from_millis(1),
                ..ServeConfig::default()
            },
        );
        let tickets: Vec<ProductTicket> = (1..=6u64)
            .map(|k| {
                pool.submit(ProductRequest::new(UBig::from(k), UBig::from(k)))
                    .unwrap()
            })
            .collect();
        for (k, ticket) in (1..=6u64).zip(tickets) {
            assert_eq!(ticket.wait().unwrap(), UBig::from(k * k));
        }
        // All tickets answered, so the flush-boundary snapshots must have
        // caught up with every completion.
        let live = pool.stats();
        assert_eq!(live.total().completed, 6);
        let stats = pool.shutdown();
        assert_eq!(stats.total().completed, 6);
    }

    #[test]
    fn cache_evicts_to_capacity_lru() {
        let engine = EvalEngine::new(SsaSoftware::for_operand_bits(128).unwrap());
        let mut cache = HandleCache::new(2);
        let ops: Vec<UBig> = (1..=3u64).map(UBig::from).collect();
        for op in &ops {
            let key = digest(op);
            assert!(!cache.touch(op, key));
            cache.insert(op.clone(), key, engine.prepare(op).unwrap());
        }
        // Touch op[1] so op[0] is the LRU entry.
        assert!(cache.touch(&ops[1], digest(&ops[1])));
        cache.evict_to_capacity();
        assert_eq!(cache.len, 2);
        assert!(cache.get(&ops[0]).is_none(), "LRU entry evicted");
        assert!(cache.get(&ops[1]).is_some());
        assert!(cache.get(&ops[2]).is_some());
    }

    #[test]
    fn cache_expires_handles_idle_past_the_trim_window() {
        let engine = EvalEngine::new(SsaSoftware::for_operand_bits(128).unwrap());
        let idle = Duration::from_millis(30);
        let mut cache = HandleCache::new(8);
        let [stale, reused, own] = [1u64, 2, 3].map(UBig::from);
        for op in [&stale, &reused] {
            cache.insert(op.clone(), digest(op), engine.prepare(op).unwrap());
        }
        // Flushes start further apart than the window; `reused` rides
        // each, `stale` none.
        for _ in 0..2 {
            std::thread::sleep(2 * idle);
            let started = Instant::now();
            assert!(cache.touch(&reused, digest(&reused)));
            cache.expire_unused(started, idle);
            assert!(cache.get(&stale).is_none(), "idle past the window");
            assert!(cache.get(&reused).is_some(), "used by this flush");
        }
        // A flush that itself outlasts the window keeps its own handles.
        let started = Instant::now();
        cache.insert(own.clone(), digest(&own), engine.prepare(&own).unwrap());
        std::thread::sleep(2 * idle);
        cache.expire_unused(started, idle);
        assert!(cache.get(&own).is_some(), "used by the slow flush");
        assert_eq!(cache.len, 2);
    }

    /// Runs one flush boundary on `cache`: the flush starts, looks up
    /// `hits`, and expires at its end under a window far longer than the
    /// test, so only the never-hit rule can drop anything.
    fn flush_boundary(cache: &mut HandleCache, hits: &[&UBig]) {
        std::thread::sleep(Duration::from_millis(1));
        let started = Instant::now();
        for op in hits {
            assert!(cache.touch(op, digest(op)));
        }
        cache.expire_unused(started, Duration::from_secs(3600));
    }

    #[test]
    fn cache_drops_a_fresh_handle_after_the_next_flush() {
        let engine = EvalEngine::new(SsaSoftware::for_operand_bits(128).unwrap());
        let mut cache = HandleCache::new(8);
        let fresh = UBig::from(11u64);
        // The flush that prepares the handle keeps it...
        let started = Instant::now();
        cache.insert(
            fresh.clone(),
            digest(&fresh),
            engine.prepare(&fresh).unwrap(),
        );
        cache.expire_unused(started, Duration::from_secs(3600));
        assert!(cache.get(&fresh).is_some(), "kept by its own flush");
        // ...and the next flush, which never looks it up, drops it.
        flush_boundary(&mut cache, &[]);
        assert!(cache.get(&fresh).is_none(), "never hit: dropped");
        assert_eq!(cache.len, 0);
    }

    #[test]
    fn cache_keeps_a_handle_hit_by_the_next_flush() {
        let engine = EvalEngine::new(SsaSoftware::for_operand_bits(128).unwrap());
        let mut cache = HandleCache::new(8);
        let [reused, fresh] = [12u64, 13].map(UBig::from);
        let started = Instant::now();
        for op in [&reused, &fresh] {
            cache.insert(op.clone(), digest(op), engine.prepare(op).unwrap());
        }
        cache.expire_unused(started, Duration::from_secs(3600));
        flush_boundary(&mut cache, &[&reused]);
        assert!(cache.get(&reused).is_some(), "hit by the next flush");
        assert!(cache.get(&fresh).is_none(), "never hit");
        // Once hit, the handle falls under the idle window only: flushes
        // that pass it over inside the window keep it.
        flush_boundary(&mut cache, &[]);
        flush_boundary(&mut cache, &[]);
        assert!(cache.get(&reused).is_some(), "inside the idle window");
        assert_eq!(cache.len, 1);
    }

    #[test]
    fn busy_cards_expire_handles_idle_past_the_trim_window() {
        let server = ServerPool::spawn(
            vec![small_engine(2_000)],
            ServeConfig {
                max_batch: 1,
                max_delay: Duration::from_millis(1),
                idle_trim_after: Duration::from_millis(100),
                ..ServeConfig::default()
            },
        );
        let product = |a: u64, b: u64| {
            let ticket = server
                .submit(ProductRequest::new(UBig::from(a), UBig::from(b)))
                .unwrap();
            assert_eq!(ticket.wait().unwrap(), UBig::from(a * b));
        };
        product(3, 5);
        // Traffic never pauses long enough for an idle trim, but operand
        // 3 sits out every flush for several windows. Few enough flushes
        // that the LRU capacity alone would still hold it.
        let mut fresh = 7u64;
        for _ in 0..15 {
            std::thread::sleep(Duration::from_millis(25));
            product(fresh, fresh + 1);
            fresh += 2;
        }
        let misses = server.stats().total().cache_misses;
        product(3, fresh);
        let stats = server.shutdown().total();
        assert_eq!(
            stats.cache_misses,
            misses + 2,
            "operand 3 expired: {stats:?}"
        );
    }

    #[test]
    fn unpreparable_operands_leave_no_cache_residue() {
        // Oversized operands fail preparation; the flush must not leak
        // digest chains for them (phase 1 only inserts successes).
        let server = small_server(ServeConfig {
            max_batch: 2,
            max_delay: Duration::from_millis(1),
            ..ServeConfig::default()
        });
        let oversized = UBig::pow2(100_000);
        let bad = server
            .submit(ProductRequest::new(oversized.clone(), oversized))
            .unwrap();
        assert!(matches!(bad.wait(), Err(ServeError::Multiply(_))));
        let good = server
            .submit(ProductRequest::new(UBig::from(6u64), UBig::from(9u64)))
            .unwrap();
        assert_eq!(good.wait().unwrap(), UBig::from(54u64));
        let stats = server.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
        // The oversized operand never counted as a miss (it was never
        // cached), the good pair paid two.
        assert_eq!(stats.cache_misses, 2, "stats: {stats:?}");
    }

    /// A card whose first `fails` batch calls return a transient device
    /// error, then heal — the deterministic retry harness.
    #[derive(Debug)]
    struct FlakyCard {
        fails: AtomicU64,
    }

    impl Multiplier for FlakyCard {
        fn multiply(&self, a: &UBig, b: &UBig) -> Result<UBig, MultiplyError> {
            Ok(a.mul_schoolbook(b))
        }

        fn multiply_batch_into(
            &self,
            jobs: &[ProductJob<'_>],
            out: &mut [UBig],
        ) -> Result<(), MultiplyError> {
            if self.fails.load(Ordering::Relaxed) > 0 {
                self.fails.fetch_sub(1, Ordering::Relaxed);
                return Err(MultiplyError::Device("transient DMA glitch".into()));
            }
            for (job, slot) in jobs.iter().zip(out) {
                let (a, b) = match job {
                    ProductJob::Raw(a, b) => (*a, *b),
                    _ => unreachable!("cache disabled in this test"),
                };
                *slot = self.multiply(a, b)?;
            }
            Ok(())
        }

        fn name(&self) -> &'static str {
            "flaky-card"
        }
    }

    #[test]
    fn transient_device_errors_retry_to_success() {
        // Two transient faults, retry_limit 2: the job survives exactly at
        // its retry budget and completes on the third attempt.
        let pool = ServerPool::spawn(
            vec![EvalEngine::new(FlakyCard {
                fails: AtomicU64::new(2),
            })],
            ServeConfig {
                max_batch: 1,
                max_delay: Duration::from_millis(1),
                cache_capacity: 0,
                retry_limit: 2,
                ..ServeConfig::default()
            },
        );
        let ticket = pool
            .submit(ProductRequest::new(UBig::from(6u64), UBig::from(7u64)))
            .unwrap();
        assert_eq!(ticket.wait().unwrap(), UBig::from(42u64));
        let stats = pool.shutdown().total();
        assert_eq!(stats.retried, 2, "stats: {stats:?}");
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.restarts, 0, "errors retry without a card rebuild");
    }

    #[test]
    fn exhausted_retry_budget_surfaces_the_device_error() {
        let pool = ServerPool::spawn(
            vec![EvalEngine::new(FlakyCard {
                fails: AtomicU64::new(100),
            })],
            ServeConfig {
                max_batch: 1,
                max_delay: Duration::from_millis(1),
                cache_capacity: 0,
                retry_limit: 2,
                ..ServeConfig::default()
            },
        );
        let ticket = pool
            .submit(ProductRequest::new(UBig::from(6u64), UBig::from(7u64)))
            .unwrap();
        assert!(matches!(
            ticket.wait(),
            Err(ServeError::Multiply(MultiplyError::Device(_)))
        ));
        let stats = pool.shutdown().total();
        assert_eq!(stats.retried, 2, "stats: {stats:?}");
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn supervised_card_restarts_after_a_panic() {
        // The factory's first build dies on every flush; rebuilds are
        // clean — so the in-flight jobs must come back via retry and the
        // card must finish Live.
        let builds = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&builds);
        let pool = ServerPool::with_backend_factory(
            1,
            move |_card| {
                let plan = if counter.fetch_add(1, Ordering::Relaxed) == 0 {
                    FaultPlan::new(11).panic_every(1)
                } else {
                    FaultPlan::new(11)
                };
                EvalEngine::new(FaultyMultiplier::new(
                    SsaSoftware::for_operand_bits(2_000).unwrap(),
                    plan,
                ))
            },
            ServeConfig {
                max_batch: 4,
                max_delay: Duration::from_millis(1),
                restart_backoff: Duration::from_millis(1),
                ..ServeConfig::default()
            },
        );
        let tickets: Vec<ProductTicket> = (1..=3u64)
            .map(|k| {
                pool.submit(ProductRequest::new(UBig::from(k), UBig::from(10u64)))
                    .unwrap()
            })
            .collect();
        for (k, ticket) in (1..=3u64).zip(tickets) {
            assert_eq!(ticket.wait().unwrap(), UBig::from(10 * k));
        }
        let stats = pool.shutdown();
        assert_eq!(stats.health, vec![CardHealth::Live]);
        let total = stats.total();
        assert_eq!(total.completed, 3);
        assert!(total.restarts >= 1, "stats: {total:?}");
        assert!(total.retried >= 1, "stats: {total:?}");
        assert!(builds.load(Ordering::Relaxed) >= 2, "factory rebuilt");
    }

    #[test]
    fn poison_job_is_quarantined_and_innocents_survive() {
        // One poison operand panics every flush it joins (even solo); the
        // fleet must isolate it, answer it `Poisoned`, and keep serving.
        let poison = UBig::from(0xbad_f00du64);
        let plan_poison = poison.clone();
        let pool = ServerPool::with_backend_factory(
            1,
            move |_card| {
                EvalEngine::new(FaultyMultiplier::new(
                    SsaSoftware::for_operand_bits(2_000).unwrap(),
                    FaultPlan::new(5).poison(plan_poison.clone()),
                ))
            },
            ServeConfig {
                max_batch: 4,
                max_delay: Duration::from_millis(1),
                retry_limit: 2,
                restart_backoff: Duration::from_millis(1),
                ..ServeConfig::default()
            },
        );
        let innocent_a = pool
            .submit(ProductRequest::new(UBig::from(6u64), UBig::from(7u64)))
            .unwrap();
        let doomed = pool
            .submit(ProductRequest::new(poison.clone(), UBig::from(3u64)))
            .unwrap();
        let innocent_b = pool
            .submit(ProductRequest::new(UBig::from(8u64), UBig::from(9u64)))
            .unwrap();
        assert_eq!(innocent_a.wait().unwrap(), UBig::from(42u64));
        assert_eq!(innocent_b.wait().unwrap(), UBig::from(72u64));
        // retry_limit 2 → the poison job takes down 3 flushes (its first
        // batch plus two solo retries), then is quarantined.
        assert!(matches!(
            doomed.wait(),
            Err(ServeError::Poisoned { attempts: 3 })
        ));
        // The card itself survives the poison job's three panics.
        let after = pool
            .submit(ProductRequest::new(UBig::from(11u64), UBig::from(11u64)))
            .unwrap();
        assert_eq!(after.wait().unwrap(), UBig::from(121u64));
        let stats = pool.shutdown();
        assert_eq!(stats.health, vec![CardHealth::Live]);
        let total = stats.total();
        assert_eq!(total.poisoned, 1, "stats: {total:?}");
        assert_eq!(total.completed, 3);
        assert!(total.restarts >= 3, "one rebuild per poison panic");
    }

    #[test]
    fn unsupervised_panic_still_kills_the_card() {
        // Without a factory there is nothing to rebuild from: the panic
        // retires the card, and (as the last card) closes the pool.
        let pool = ServerPool::spawn(
            vec![EvalEngine::new(FaultyMultiplier::new(
                SsaSoftware::for_operand_bits(2_000).unwrap(),
                FaultPlan::new(17).panic_every(1),
            ))],
            ServeConfig {
                max_batch: 1,
                max_delay: Duration::from_millis(1),
                ..ServeConfig::default()
            },
        );
        let ticket = pool
            .submit(ProductRequest::new(UBig::from(2u64), UBig::from(3u64)))
            .unwrap();
        // The job retries until its budget quarantines it — or the card
        // dies first and the sink resolves Closed; either way it resolves.
        assert!(ticket.wait().is_err());
        let stats = pool.shutdown();
        assert_eq!(stats.health, vec![CardHealth::Dead]);
    }

    #[test]
    fn drain_completes_queued_work_before_joining() {
        let pool = ServerPool::spawn(
            vec![small_engine(2_000)],
            ServeConfig {
                max_batch: 2,
                // Far-future flushes: only drain's close forces the work
                // out, which is exactly what the test pins.
                max_delay: Duration::from_secs(60),
                ..ServeConfig::default()
            },
        );
        let tickets: Vec<ProductTicket> = (1..=5u64)
            .map(|k| {
                pool.submit(ProductRequest::new(UBig::from(k), UBig::from(k)))
                    .unwrap()
            })
            .collect();
        let outcome = pool.drain(Duration::from_secs(30));
        assert!(outcome.clean, "drain finished inside its budget");
        assert_eq!(outcome.stats.total().completed, 5);
        for (k, ticket) in (1..=5u64).zip(tickets) {
            assert_eq!(ticket.wait().unwrap(), UBig::from(k * k));
        }
    }

    #[test]
    fn drain_timeout_fails_pending_jobs_closed() {
        // Every flush stalls 300 ms; a 1 ms drain budget must give up,
        // resolve what it can't run to `Closed`, and still join cleanly.
        let pool = ServerPool::spawn(
            vec![EvalEngine::new(FaultyMultiplier::new(
                SsaSoftware::for_operand_bits(2_000).unwrap(),
                FaultPlan::new(23).stall_every(1, Duration::from_millis(300)),
            ))],
            ServeConfig {
                max_batch: 1,
                max_delay: Duration::from_millis(1),
                ..ServeConfig::default()
            },
        );
        let tickets: Vec<ProductTicket> = (1..=4u64)
            .map(|k| {
                pool.submit(ProductRequest::new(UBig::from(k), UBig::from(k)))
                    .unwrap()
            })
            .collect();
        let outcome = pool.drain(Duration::from_millis(1));
        assert!(!outcome.clean, "stalled card cannot drain in 1 ms");
        let mut resolved = 0;
        let mut closed = 0;
        for ticket in tickets {
            match ticket.wait() {
                Ok(_) => resolved += 1,
                Err(ServeError::Closed) => closed += 1,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        // The in-flight flush finishes; jobs still queued at the deadline
        // are answered, not hung.
        assert_eq!(resolved + closed, 4);
        assert!(closed >= 1, "timeout cleared at least one queued job");
    }

    #[test]
    fn remote_ticket_resolves_and_reports_closed_on_dropped_resolver() {
        let (ticket, resolver) = ProductTicket::remote();
        resolver.resolve(Ok(UBig::from(42u64)));
        assert_eq!(ticket.wait().unwrap(), UBig::from(42u64));

        let (ticket, resolver) = ProductTicket::remote();
        drop(resolver);
        assert_eq!(ticket.wait(), Err(ServeError::Closed));
    }

    #[test]
    fn remote_ticket_cancel_is_visible_to_the_resolver() {
        let (ticket, resolver) = ProductTicket::remote();
        assert!(!resolver.is_cancelled());
        ticket.cancel();
        assert!(resolver.is_cancelled());
    }

    #[test]
    fn completion_channel_delivers_and_closes() {
        let (mint, receiver) = completion_channel();
        mint.sink(7).complete(Ok(UBig::from(6u64)));
        // An unanswered sink reports `Closed` from its drop.
        drop(mint.sink(8));
        let mut got = [
            receiver.recv().expect("first completion"),
            receiver.recv().expect("second completion"),
        ];
        got.sort_by_key(|(tag, _)| *tag);
        assert_eq!(got[0], (7, Ok(UBig::from(6u64))));
        assert_eq!(got[1], (8, Err(ServeError::Closed)));
        drop(mint);
        assert_eq!(receiver.recv(), None, "mint gone, channel finished");
    }

    #[test]
    fn cancellable_sink_submission_cancels_queued_jobs() {
        // One stalling card: the first job occupies it, the second is
        // cancelled while still queued and resolves `Closed`.
        let pool = ServerPool::spawn(
            vec![EvalEngine::new(FaultyMultiplier::new(
                SsaSoftware::for_operand_bits(2_000).unwrap(),
                FaultPlan::new(31).stall_every(1, Duration::from_millis(100)),
            ))],
            ServeConfig {
                max_batch: 1,
                max_delay: Duration::from_millis(1),
                ..ServeConfig::default()
            },
        );
        let session = pool.session();
        let (mint, receiver) = completion_channel();
        let _first = session
            .submit_into_cancellable(
                ProductRequest::new(UBig::from(3u64), UBig::from(3u64)),
                mint.sink(1),
            )
            .unwrap();
        let second = session
            .submit_into_cancellable(
                ProductRequest::new(UBig::from(4u64), UBig::from(4u64)),
                mint.sink(2),
            )
            .unwrap();
        second.cancel();
        assert!(second.is_cancelled());
        drop(mint);
        let mut outcomes = HashMap::new();
        while let Some((tag, outcome)) = receiver.recv() {
            outcomes.insert(tag, outcome);
        }
        assert_eq!(outcomes[&1], Ok(UBig::from(9u64)));
        assert_eq!(outcomes[&2], Err(ServeError::Closed));
        let stats = pool.shutdown().total();
        assert_eq!(stats.cancelled, 1);
    }

    #[test]
    fn pinned_request_constructors_round_trip_ids() {
        let value = Arc::new(UBig::from(5u64));
        let request = ProductRequest::pinned_with(9, Arc::clone(&value), UBig::from(7u64));
        assert_eq!(request.operand_pins(), (Some(9), None));
        assert_eq!(request.operands(), (&*value, &UBig::from(7u64)));
        let pair = ProductRequest::pinned_pair((1, Arc::clone(&value)), (2, value));
        assert_eq!(pair.operand_pins(), (Some(1), Some(2)));
        let inline = ProductRequest::new(UBig::from(1u64), UBig::from(2u64));
        assert_eq!(inline.operand_pins(), (None, None));
    }
}
