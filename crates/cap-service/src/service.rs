//! The sharded prediction service.
//!
//! Requests enter through a [`ServiceHandle`] and are routed by load IP
//! to one of N **shards**: one worker's state (backends, breakers,
//! ladder, counters, chaos plan) behind its own mutex. The caller — a
//! TCP connection thread, or whoever holds the handle in process —
//! locks its shard and serves the request on its own thread; there are
//! no worker threads and no channels. Admission control bounds how many
//! callers may wait for one shard and sheds the rest with a structured
//! [`ServiceError::Shed`] instead of queueing unboundedly. A request
//! carries an optional **deadline budget** that is honored at every
//! stage, and is served on whatever rung of the [`crate::ladder`] its
//! shard currently trusts. Backend calls run inside `catch_unwind`
//! sandboxes charged to per-component
//! [`crate::breaker::CircuitBreaker`]s.
//!
//! The cardinal invariant, enforced structurally and proven by the
//! chaos soak test: **every accepted request terminates in exactly one
//! reply** — a response or a structured error — no matter what panics,
//! stalls, or deadline expiries happen on the way.

use crate::backend::{Backend, BackendKind};
use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::error::ServiceError;
use crate::ladder::{Ladder, LadderConfig, LadderInputs, Rung};
use crate::names;
use cap_obs::Obs;
use cap_faults::service::{ServiceFault, ServiceFaultConfig, ServiceFaultPlan};
use cap_predictor::metrics::PredictorStats;
use cap_predictor::types::{LoadContext, Prediction};
use cap_snapshot::{
    Restorable, SectionReader, SectionWriter, Snapshot, SnapshotArchive, SnapshotBuilder,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Snapshot format version of the service archive.
const SERVICE_SNAPSHOT_VERSION: u32 = 1;
const SEC_SERVICE: &str = "service";

/// How often [`Service::shutdown`] re-reads a shard's waiter count.
const DRAIN_POLL: Duration = Duration::from_micros(100);

/// Everything the service needs to start.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker (shard) count; requests are routed by load IP.
    pub workers: usize,
    /// Most callers that may wait for one shard at once — the
    /// backpressure bound. A caller arriving to find this many waiting
    /// is shed.
    pub queue_capacity: usize,
    /// Primary backend (top rung).
    pub primary: BackendKind,
    /// Fallback backend (middle rung).
    pub fallback: BackendKind,
    /// Ladder tuning (promotion streak, pressure watermarks).
    pub ladder: LadderConfig,
    /// Breaker tuning (thresholds, cooldown, jitter).
    pub breaker: BreakerConfig,
    /// Seed for every random stream the service owns (breaker jitter);
    /// worker `i`'s streams derive from `seed + i`.
    pub seed: u64,
    /// Pin every worker to one rung and disable ladder movement
    /// (benches pricing a rung; operational overrides).
    pub pin_rung: Option<Rung>,
    /// Initial chaos plan per worker (worker `i` draws from
    /// `chaos_seed + i`); also settable at runtime via
    /// [`ServiceHandle::set_chaos`].
    pub chaos: Option<(u64, ServiceFaultConfig)>,
    /// Telemetry sink shared by admission control, every worker, their
    /// breakers, the ladder, and the backends. The default
    /// [`Obs::off`] keeps every hot-path mirror at a single branch.
    /// Never snapshotted: a warm restart comes up with whatever `obs`
    /// its own config carries.
    pub obs: Obs,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            primary: BackendKind::Hybrid,
            fallback: BackendKind::Stride,
            ladder: LadderConfig::default(),
            breaker: BreakerConfig::default(),
            seed: 0x5EB5_1CE5,
            pin_rung: None,
            chaos: None,
            obs: Obs::off(),
        }
    }
}

/// A request to the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Predict, then train with the resolved address — the serving
    /// analogue of one trace event through the batch driver.
    Observe {
        /// Static IP of the load.
        ip: u64,
        /// Immediate offset from the opcode.
        offset: i32,
        /// Global branch-history register at fetch.
        ghr: u64,
        /// The load's actual effective address.
        actual: u64,
    },
    /// Predict only; trains nothing.
    Predict {
        /// Static IP of the load.
        ip: u64,
        /// Immediate offset from the opcode.
        offset: i32,
        /// Global branch-history register at fetch.
        ghr: u64,
    },
}

impl Request {
    fn ip(&self) -> u64 {
        match self {
            Request::Observe { ip, .. } | Request::Predict { ip, .. } => *ip,
        }
    }
}

/// A successful reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Reply to [`Request::Observe`].
    Observed {
        /// Predicted address, if the active rung produced one.
        addr: Option<u64>,
        /// Whether confidence allowed speculation.
        speculate: bool,
        /// Whether the prediction matched the actual address.
        correct: bool,
        /// Rung the request was served on.
        rung: Rung,
    },
    /// Reply to [`Request::Predict`].
    Predicted {
        /// Predicted address, if the active rung produced one.
        addr: Option<u64>,
        /// Whether confidence allowed speculation.
        speculate: bool,
        /// Rung the request was served on.
        rung: Rung,
    },
}

/// The state of one breaker, as reported in stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerStat {
    /// Backend component the breaker guards.
    pub component: &'static str,
    /// Current state name (`closed` / `open` / `half-open`).
    pub state: &'static str,
    /// Lifetime Closed→Open transitions.
    pub trips: u64,
}

/// One worker's view of the world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Rung the worker is currently serving on.
    pub rung: Rung,
    /// Prediction requests served with a normal response.
    pub served: u64,
    /// Served requests per rung, [`Rung::ALL`] order.
    pub served_by_rung: [u64; 3],
    /// Requests whose budget ran out waiting for the shard.
    pub deadline_queued: u64,
    /// Requests whose budget expired during backend work.
    pub deadline_backend: u64,
    /// Backend panics contained by the sandbox.
    pub backend_panics: u64,
    /// Injected latency faults absorbed.
    pub faults_latency: u64,
    /// Injected queue stalls absorbed.
    pub faults_stall: u64,
    /// Ladder step-downs.
    pub demotions: u64,
    /// Ladder step-ups.
    pub promotions: u64,
    /// Primary and fallback breaker states.
    pub breakers: Vec<BreakerStat>,
    /// Callers waiting for the shard at the instant stats were taken.
    pub queue_depth: usize,
    /// Prediction metrics of the active rung's answers.
    pub predictor: PredictorStats,
}

/// Service-wide stats: handle-side admission counters plus every
/// worker's [`WorkerStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests admitted past backpressure control.
    pub accepted: u64,
    /// Requests shed by admission control (queue full).
    pub shed: u64,
    /// Requests refused because the service was shutting down.
    pub rejected_shutdown: u64,
    /// Per-worker detail.
    pub workers: Vec<WorkerStats>,
}

impl ServiceStats {
    /// All workers' predictor metrics merged.
    #[must_use]
    pub fn merged_predictor(&self) -> PredictorStats {
        let mut all = PredictorStats::new();
        for w in &self.workers {
            all.merge(&w.predictor);
        }
        all
    }

    /// The worst rung any worker currently sits on.
    #[must_use]
    pub fn worst_rung(&self) -> Rung {
        self.workers
            .iter()
            .map(|w| w.rung)
            .max()
            .unwrap_or(Rung::Hybrid)
    }
}

/// What [`Service::shutdown`] produced.
#[derive(Debug)]
pub struct ShutdownReport {
    /// Crash-consistent snapshot of every worker's predictor state and
    /// metrics, restorable via [`Service::start_restored`].
    pub snapshot: Vec<u8>,
    /// Admitted requests answered `ShuttingDown` during the drain:
    /// callers still waiting for their shard when the drain deadline
    /// passed (answered, never dropped).
    pub drain_rejected: u64,
    /// Final per-worker stats at the instant shutdown took each shard.
    pub workers: Vec<WorkerStats>,
}

// ---------------------------------------------------------------------
// Shards and admission
// ---------------------------------------------------------------------

/// One worker's state and the callers waiting for it.
struct Shard {
    /// Callers admitted to this shard that do not hold its lock yet:
    /// the queue depth, bounded by `queue_capacity`.
    waiters: AtomicUsize,
    /// `None` once [`Service::shutdown`] has taken the state.
    state: Mutex<Option<Worker>>,
}

impl Shard {
    fn lock(&self) -> MutexGuard<'_, Option<Worker>> {
        self.state
            .lock()
            .expect("shard lock: serving unwinds only inside its sandbox, never through the guard")
    }
}

struct Inner {
    shards: Vec<Shard>,
    primary: BackendKind,
    fallback: BackendKind,
    accepting: AtomicBool,
    accepted: AtomicU64,
    shed: AtomicU64,
    rejected_shutdown: AtomicU64,
    drain_rejected: AtomicU64,
    queue_capacity: usize,
    obs: Obs,
}

/// Cheap cloneable submission handle to a running [`Service`].
#[derive(Clone)]
pub struct ServiceHandle {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHandle")
            .field("workers", &self.inner.shards.len())
            .field("accepting", &self.inner.accepting.load(Ordering::Relaxed))
            .finish()
    }
}

/// Stable IP→worker routing (splitmix-style scramble, then modulo).
fn route(ip: u64, workers: usize) -> usize {
    (ip.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % workers.max(1)
}

/// Worker `index`'s chaos plan: `chaos` reseeded `seed + index`.
fn chaos_plan(chaos: Option<(u64, ServiceFaultConfig)>, index: usize) -> Option<ServiceFaultPlan> {
    chaos.map(|(seed, config)| ServiceFaultPlan::new(seed.wrapping_add(index as u64), config))
}

impl ServiceHandle {
    /// Admits one call to shard `index`, waits for the shard's lock and
    /// runs `f` on its worker state on the caller's thread, inside the
    /// outer panic sandbox. `f` also gets the shard's waiter count.
    fn on_shard<T>(
        &self,
        index: usize,
        f: impl FnOnce(&mut Worker, &AtomicUsize) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        let inner = &*self.inner;
        let shard = &inner.shards[index];
        // Count this caller before reading `accepting`. `shutdown`
        // clears `accepting` before it reads the count, so either it
        // waits for this caller or this caller sees the shutdown.
        let waiting = shard.waiters.fetch_add(1, Ordering::SeqCst);
        if !inner.accepting.load(Ordering::SeqCst) {
            shard.waiters.fetch_sub(1, Ordering::SeqCst);
            inner.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
            inner.obs.incr(names::REJECTED_SHUTDOWN);
            return Err(ServiceError::ShuttingDown);
        }
        if waiting >= inner.queue_capacity {
            shard.waiters.fetch_sub(1, Ordering::SeqCst);
            inner.shed.fetch_add(1, Ordering::Relaxed);
            inner.obs.incr(names::SHED);
            return Err(ServiceError::Shed {
                capacity: inner.queue_capacity,
            });
        }
        inner.accepted.fetch_add(1, Ordering::Relaxed);
        inner.obs.incr(names::ACCEPTED);

        let mut state = shard.lock();
        shard.waiters.fetch_sub(1, Ordering::SeqCst);
        // Past the drain deadline, or once shutdown has taken the state,
        // an admitted caller is answered ShuttingDown — never dropped.
        let worker = match state.as_mut() {
            Some(w) if w.drain_deadline.is_none_or(|d| Instant::now() < d) => w,
            _ => {
                inner.drain_rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::ShuttingDown);
            }
        };
        // The outer sandbox: if serving panics outside the backend
        // sandbox, the caller still gets a structured error and the
        // shard serves on.
        catch_unwind(AssertUnwindSafe(|| f(worker, &shard.waiters))).unwrap_or_else(|_| {
            worker.counters.backend_panics += 1;
            inner.obs.incr(names::BACKEND_PANIC);
            Err(ServiceError::BackendPanicked {
                component: "service",
            })
        })
    }

    /// Serves one request on the calling thread and returns its outcome.
    /// `budget` is the request's total deadline; `None` means no
    /// deadline.
    ///
    /// # Errors
    ///
    /// Every failure mode is a structured [`ServiceError`]. The call
    /// waits only for its shard's lock, behind fewer than
    /// `queue_capacity` other callers.
    pub fn call(
        &self,
        request: Request,
        budget: Option<Duration>,
    ) -> Result<Response, ServiceError> {
        let deadline = budget.map(|b| (Instant::now() + b, b));
        let shard = route(request.ip(), self.inner.shards.len());
        self.on_shard(shard, |worker, waiters| {
            worker.serve(request, deadline, waiters)
        })
    }

    /// Collects service-wide stats: one probe through every shard's
    /// admission, so the answer reflects each worker's own view.
    ///
    /// # Errors
    ///
    /// Structured [`ServiceError`] if any shard cannot answer.
    pub fn stats(&self) -> Result<ServiceStats, ServiceError> {
        let workers = (0..self.inner.shards.len())
            .map(|i| {
                self.on_shard(i, |worker, waiters| {
                    Ok(worker.worker_stats(waiters.load(Ordering::Relaxed)))
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(ServiceStats {
            accepted: self.inner.accepted.load(Ordering::Relaxed),
            shed: self.inner.shed.load(Ordering::Relaxed),
            rejected_shutdown: self.inner.rejected_shutdown.load(Ordering::Relaxed),
            workers,
        })
    }

    /// Takes a live warm-restart snapshot without stopping the service:
    /// one probe through every shard's admission, so each worker's
    /// section is serialized under its lock, between requests, and is
    /// internally consistent. Cross-worker skew is harmless — state is
    /// per-IP and an IP never spans workers. The bytes are restorable
    /// via [`Service::start_restored`] under the same config, and are
    /// what the cluster layer ships to warm replicas over
    /// `OP_SNAPSHOT_PULL`.
    ///
    /// # Errors
    ///
    /// Structured [`ServiceError`] if any shard cannot answer (shed
    /// under full queues, shutting down).
    pub fn snapshot_live(&self) -> Result<Vec<u8>, ServiceError> {
        let sections = (0..self.inner.shards.len())
            .map(|i| self.on_shard(i, |worker, _| Ok(worker.section())))
            .collect::<Result<_, _>>()?;
        Ok(assemble_service_snapshot(
            self.inner.primary,
            self.inner.fallback,
            sections,
        ))
    }

    /// Replaces every worker's chaos plan, locking each shard in turn.
    /// `None` stops injection; `Some((seed, config))` gives worker `i` a
    /// plan seeded `seed + i`.
    pub fn set_chaos(&self, chaos: Option<(u64, ServiceFaultConfig)>) {
        for (i, shard) in self.inner.shards.iter().enumerate() {
            if let Some(worker) = shard.lock().as_mut() {
                worker.chaos = chaos_plan(chaos, i);
            }
        }
    }

    /// True while the service accepts new requests.
    #[must_use]
    pub fn is_accepting(&self) -> bool {
        self.inner.accepting.load(Ordering::Acquire)
    }
}

// ---------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------

struct Slot {
    kind: BackendKind,
    backend: Box<dyn Backend>,
    breaker: CircuitBreaker,
}

#[derive(Default)]
struct Counters {
    served: u64,
    served_by_rung: [u64; 3],
    deadline_queued: u64,
    deadline_backend: u64,
    backend_panics: u64,
    faults_latency: u64,
    faults_stall: u64,
}

/// One shard's state, only ever touched under the shard's lock.
struct Worker {
    index: usize,
    slots: [Slot; 2],
    ladder: Ladder,
    pin_rung: Option<Rung>,
    stats: PredictorStats,
    counters: Counters,
    chaos: Option<ServiceFaultPlan>,
    /// Set by [`Service::shutdown`]; callers that get the shard past it
    /// are answered `ShuttingDown`.
    drain_deadline: Option<Instant>,
    obs: Obs,
}

/// Outcome of one guarded backend call.
enum Guarded {
    Ok(Prediction),
    Panicked,
}

impl Worker {
    /// Runs `predict` + optional `update` on one slot inside a panic
    /// sandbox, charging the slot's breaker. `fault` carries the
    /// injected failure for this call, if any.
    fn guarded_call(
        slot: &mut Slot,
        ctx: &LoadContext,
        actual: Option<u64>,
        fault: Option<ServiceFault>,
        now: Instant,
    ) -> Guarded {
        let result = catch_unwind(AssertUnwindSafe(|| {
            match fault {
                Some(ServiceFault::WorkerPanic) => {
                    panic!("injected worker panic (chaos)");
                }
                Some(ServiceFault::Latency(d)) => std::thread::sleep(d),
                _ => {}
            }
            let pred = slot.backend.predict(ctx);
            if let Some(actual) = actual {
                slot.backend.update(ctx, actual, &pred);
            }
            pred
        }));
        match result {
            Ok(pred) => {
                slot.breaker.on_success(now);
                Guarded::Ok(pred)
            }
            Err(_) => {
                slot.breaker.on_failure(now);
                Guarded::Panicked
            }
        }
    }

    fn worker_stats(&mut self, queue_depth: usize) -> WorkerStats {
        let now = Instant::now();
        WorkerStats {
            worker: self.index,
            rung: self.pin_rung.unwrap_or_else(|| self.ladder.rung()),
            served: self.counters.served,
            served_by_rung: self.counters.served_by_rung,
            deadline_queued: self.counters.deadline_queued,
            deadline_backend: self.counters.deadline_backend,
            backend_panics: self.counters.backend_panics,
            faults_latency: self.counters.faults_latency,
            faults_stall: self.counters.faults_stall,
            demotions: self.ladder.demotions(),
            promotions: self.ladder.promotions(),
            breakers: self
                .slots
                .iter_mut()
                .map(|s| BreakerStat {
                    component: s.kind.name(),
                    state: s.breaker.state(now).name(),
                    trips: s.breaker.trips(),
                })
                .collect(),
            queue_depth,
            predictor: self.stats,
        }
    }

    /// This worker's warm-restart section: both backends' state, then
    /// the predictor metrics. Live and shutdown snapshots share it.
    fn section(&self) -> Vec<u8> {
        let mut w = SectionWriter::new();
        for slot in &self.slots {
            slot.backend.write_state(&mut w);
        }
        self.stats.write_state(&mut w);
        w.into_bytes()
    }

    /// Serves one prediction request; whatever this returns is the
    /// caller's one reply. `waiters` is the shard's waiter count, the
    /// ladder's queue pressure.
    fn serve(
        &mut self,
        request: Request,
        deadline: Option<(Instant, Duration)>,
        waiters: &AtomicUsize,
    ) -> Result<Response, ServiceError> {
        // Queued stage: the budget may have run out while the caller
        // waited for the shard. A zero budget always has.
        if let Some((at, budget)) = deadline {
            if Instant::now() >= at {
                self.counters.deadline_queued += 1;
                self.obs.incr(names::DEADLINE_QUEUED);
                return Err(ServiceError::DeadlineExceeded {
                    stage: "queued",
                    budget,
                });
            }
        }

        // Draw this request's injected fault (worker-panic and latency
        // land inside the backend sandbox).
        let fault = match self.chaos.as_mut().and_then(ServiceFaultPlan::draw) {
            Some(ServiceFault::QueueStall(d)) => {
                // Stall the whole shard under its lock: everything
                // behind this request backs up, which is the point.
                self.counters.faults_stall += 1;
                self.obs.incr(names::FAULT_STALL);
                std::thread::sleep(d);
                None
            }
            Some(ServiceFault::Latency(d)) => {
                self.counters.faults_latency += 1;
                self.obs.incr(names::FAULT_LATENCY);
                Some(ServiceFault::Latency(d))
            }
            other => other,
        };

        let now = Instant::now();
        // Rung decision: pinned, or reassessed from breaker + queue
        // health.
        let rung = match self.pin_rung {
            Some(r) => r,
            None => {
                let inputs = LadderInputs {
                    hybrid_available: self.slots[0].breaker.call_permitted(now),
                    stride_available: self.slots[1].breaker.call_permitted(now),
                    queue_depth: waiters.load(Ordering::Relaxed),
                };
                self.ladder.reassess(&inputs)
            }
        };

        let (ctx, actual) = match request {
            Request::Observe {
                ip,
                offset,
                ghr,
                actual,
            } => (LoadContext::new(ip, offset, ghr), Some(actual)),
            Request::Predict { ip, offset, ghr } => (LoadContext::new(ip, offset, ghr), None),
        };

        // Serve on the chosen rung. On Hybrid the fallback slot trains
        // too (shadow training keeps the next rung warm, the same way
        // the paper's hybrid trains both components); on StrideOnly the
        // tripped primary is left alone; on Bypass nothing runs.
        let (active_pred, healthy) = match rung {
            Rung::Bypass => (Prediction::none(), true),
            Rung::StrideOnly => {
                match Self::guarded_call(&mut self.slots[1], &ctx, actual, fault, now) {
                    Guarded::Ok(p) => (p, true),
                    Guarded::Panicked => {
                        self.counters.backend_panics += 1;
                        self.obs.incr(names::BACKEND_PANIC);
                        self.ladder.note_outcome(false);
                        return Err(ServiceError::BackendPanicked {
                            component: self.slots[1].kind.name(),
                        });
                    }
                }
            }
            Rung::Hybrid => {
                let primary =
                    Self::guarded_call(&mut self.slots[0], &ctx, actual, fault, now);
                // Shadow-train the fallback (never fault-injected: the
                // injected fault was spent on the active call).
                if actual.is_some() {
                    match Self::guarded_call(&mut self.slots[1], &ctx, actual, None, now) {
                        Guarded::Ok(_) | Guarded::Panicked => {}
                    }
                }
                match primary {
                    Guarded::Ok(p) => (p, true),
                    Guarded::Panicked => {
                        self.counters.backend_panics += 1;
                        self.obs.incr(names::BACKEND_PANIC);
                        self.ladder.note_outcome(false);
                        return Err(ServiceError::BackendPanicked {
                            component: self.slots[0].kind.name(),
                        });
                    }
                }
            }
        };

        // Budget check after the backend stage: work past the deadline
        // is reported as such, not passed off as on-time.
        if let Some((at, budget)) = deadline {
            if Instant::now() >= at {
                self.counters.deadline_backend += 1;
                self.obs.incr(names::DEADLINE_BACKEND);
                self.ladder.note_outcome(false);
                return Err(ServiceError::DeadlineExceeded {
                    stage: "backend",
                    budget,
                });
            }
        }

        self.ladder.note_outcome(healthy);
        self.counters.served += 1;
        self.counters.served_by_rung[rung.index()] += 1;
        self.obs.incr(names::SERVED);
        if self.obs.enabled() {
            self.obs
                .record(names::LATENCY_BY_RUNG[rung.index()], now.elapsed().as_micros() as u64);
        }

        Ok(match request {
            Request::Observe { actual, .. } => {
                self.stats.record_with(&active_pred, actual, &self.obs);
                Response::Observed {
                    addr: active_pred.addr,
                    speculate: active_pred.speculate,
                    correct: active_pred.is_correct(actual),
                    rung,
                }
            }
            Request::Predict { .. } => Response::Predicted {
                addr: active_pred.addr,
                speculate: active_pred.speculate,
                rung,
            },
        })
    }
}

// ---------------------------------------------------------------------
// Service
// ---------------------------------------------------------------------

/// A running prediction service: owns the shards; hand out
/// [`ServiceHandle`]s with [`Service::handle`].
pub struct Service {
    inner: Arc<Inner>,
    config: ServiceConfig,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("workers", &self.inner.shards.len())
            .field("accepting", &self.inner.accepting.load(Ordering::Relaxed))
            .finish()
    }
}

impl Service {
    /// Starts the service with fresh (cold) predictor state.
    #[must_use]
    pub fn start(config: ServiceConfig) -> Self {
        Self::start_with(config, None).expect("cold start cannot fail")
    }

    /// Starts the service from a warm-restart snapshot produced by
    /// [`Service::shutdown`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadSnapshot`] when the bytes cannot be decoded
    /// or describe a different topology than `config`.
    pub fn start_restored(config: ServiceConfig, snapshot: &[u8]) -> Result<Self, ServiceError> {
        Self::start_with(config, Some(snapshot))
    }

    /// Warm restart when possible, cold start otherwise: a corrupt or
    /// missing snapshot must degrade to a cold start, never to a dead
    /// service. Returns the service and whether the snapshot was used.
    ///
    /// Degrading on a *present but bad* snapshot is visible to
    /// operators: it bumps [`names::SNAPSHOT_DEGRADED_COLD`] and emits
    /// one structured log line naming the decode failure. A plain cold
    /// start (no snapshot offered) stays silent — that path is routine.
    #[must_use]
    pub fn restore_or_cold(config: ServiceConfig, snapshot: Option<&[u8]>) -> (Self, bool) {
        if let Some(bytes) = snapshot {
            match Self::start_restored(config.clone(), bytes) {
                Ok(service) => return (service, true),
                Err(err) => {
                    config.obs.incr(names::SNAPSHOT_DEGRADED_COLD);
                    eprintln!(
                        "{{\"event\":\"{}\",\"snapshot_bytes\":{},\"reason\":{:?}}}",
                        names::SNAPSHOT_DEGRADED_COLD,
                        bytes.len(),
                        err.to_string()
                    );
                    return (Self::start(config), false);
                }
            }
        }
        (Self::start(config), false)
    }

    fn start_with(config: ServiceConfig, snapshot: Option<&[u8]>) -> Result<Self, ServiceError> {
        assert!(config.workers >= 1, "need at least one worker");
        assert!(config.queue_capacity >= 1, "need a nonempty queue");

        // Decode every worker's state up front so a bad snapshot fails
        // before the service exists.
        let states: Vec<Option<([Slot; 2], PredictorStats)>> = match snapshot {
            Some(bytes) => decode_service_snapshot(bytes, &config)?
                .into_iter()
                .map(Some)
                .collect(),
            None => (0..config.workers).map(|_| None).collect(),
        };
        let shards = states
            .into_iter()
            .enumerate()
            .map(|(index, state)| {
                let (mut slots, stats) = state.unwrap_or_else(|| {
                    let seed = config.seed.wrapping_add(index as u64 * 2);
                    let slot = |kind: BackendKind, seed: u64| Slot {
                        kind,
                        backend: kind.build(),
                        breaker: CircuitBreaker::new(config.breaker, seed),
                    };
                    (
                        [
                            slot(config.primary, seed),
                            slot(config.fallback, seed.wrapping_add(1)),
                        ],
                        PredictorStats::new(),
                    )
                });
                // Attach telemetry to everything this worker owns. This
                // runs on the restored path too: snapshots never carry
                // an Obs, so a warm restart re-attaches the live one.
                if config.obs.enabled() {
                    for slot in &mut slots {
                        slot.backend.set_obs(config.obs.clone());
                        slot.breaker.set_obs(config.obs.clone());
                    }
                }
                let mut ladder =
                    Ladder::new(config.ladder, config.pin_rung.unwrap_or(Rung::Hybrid));
                ladder.set_obs(config.obs.clone());
                Shard {
                    waiters: AtomicUsize::new(0),
                    state: Mutex::new(Some(Worker {
                        index,
                        slots,
                        ladder,
                        pin_rung: config.pin_rung,
                        stats,
                        counters: Counters::default(),
                        chaos: chaos_plan(config.chaos, index),
                        drain_deadline: None,
                        obs: config.obs.clone(),
                    })),
                }
            })
            .collect();

        Ok(Self {
            inner: Arc::new(Inner {
                shards,
                primary: config.primary,
                fallback: config.fallback,
                accepting: AtomicBool::new(true),
                accepted: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                rejected_shutdown: AtomicU64::new(0),
                drain_rejected: AtomicU64::new(0),
                queue_capacity: config.queue_capacity,
                obs: config.obs.clone(),
            }),
            config,
        })
    }

    /// A cloneable submission handle.
    #[must_use]
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// The config the service was started with.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Graceful shutdown: stop admitting (late callers get
    /// `ShuttingDown`), serve the callers already waiting for each shard
    /// until the `drain` deadline (past it they are answered
    /// `ShuttingDown`), take every shard's state, and return a
    /// warm-restart snapshot of the final predictor state.
    #[must_use]
    pub fn shutdown(self, drain: Duration) -> ShutdownReport {
        let inner = &*self.inner;
        inner.accepting.store(false, Ordering::SeqCst);
        let deadline = Instant::now() + drain;
        for shard in &inner.shards {
            if let Some(worker) = shard.lock().as_mut() {
                worker.drain_deadline = Some(deadline);
            }
        }

        let mut workers = Vec::with_capacity(inner.shards.len());
        let mut finals = Vec::with_capacity(inner.shards.len());
        for shard in &inner.shards {
            // Nobody is admitted any more, and past the deadline each
            // waiter is answered at once, so the count reaches zero by
            // the deadline plus the request in hand. Taking the state
            // only then means no admitted caller ever finds it gone.
            while shard.waiters.load(Ordering::SeqCst) > 0 {
                std::thread::sleep(DRAIN_POLL);
            }
            let mut worker = shard.lock().take().expect("shutdown takes each shard once");
            finals.push(worker.worker_stats(shard.waiters.load(Ordering::Relaxed)));
            workers.push(worker);
        }

        ShutdownReport {
            snapshot: assemble_service_snapshot(
                inner.primary,
                inner.fallback,
                workers.iter().map(Worker::section).collect(),
            ),
            drain_rejected: inner.drain_rejected.load(Ordering::Relaxed),
            workers: finals,
        }
    }
}

// ---------------------------------------------------------------------
// Warm-restart snapshot codec
// ---------------------------------------------------------------------

fn worker_section_name(index: usize) -> String {
    format!("worker-{index}")
}

/// Builds a service archive from already-serialized worker sections —
/// the shared tail of the shutdown snapshot and [`ServiceHandle::snapshot_live`].
fn assemble_service_snapshot(
    primary: BackendKind,
    fallback: BackendKind,
    sections: Vec<Vec<u8>>,
) -> Vec<u8> {
    let mut meta = SectionWriter::new();
    meta.put_u32(SERVICE_SNAPSHOT_VERSION);
    meta.put_u64(sections.len() as u64);
    meta.put_u8(primary.tag());
    meta.put_u8(fallback.tag());

    let mut b = SnapshotBuilder::new();
    b.add_raw(SEC_SERVICE, meta.into_bytes());
    for (i, section) in sections.into_iter().enumerate() {
        b.add_raw(&worker_section_name(i), section);
    }
    b.finish()
}

fn decode_service_snapshot(
    bytes: &[u8],
    config: &ServiceConfig,
) -> Result<Vec<([Slot; 2], PredictorStats)>, ServiceError> {
    let bad = |e: &dyn std::fmt::Display| ServiceError::BadSnapshot(e.to_string());

    let archive = SnapshotArchive::parse(bytes).map_err(|e| bad(&e))?;
    let meta_bytes = archive.section(SEC_SERVICE).map_err(|e| bad(&e))?;
    let mut meta = SectionReader::new(meta_bytes, SEC_SERVICE);
    let version = meta.take_u32("service snapshot version").map_err(|e| bad(&e))?;
    if version != SERVICE_SNAPSHOT_VERSION {
        return Err(ServiceError::BadSnapshot(format!(
            "service snapshot version {version}, supported {SERVICE_SNAPSHOT_VERSION}"
        )));
    }
    let workers = meta.take_u64("worker count").map_err(|e| bad(&e))? as usize;
    if workers != config.workers {
        return Err(ServiceError::BadSnapshot(format!(
            "snapshot has {workers} workers, config wants {} — routing would \
             scatter restored state",
            config.workers
        )));
    }
    let primary_tag = meta.take_u8("primary backend tag").map_err(|e| bad(&e))?;
    let fallback_tag = meta.take_u8("fallback backend tag").map_err(|e| bad(&e))?;
    meta.finish().map_err(|e| bad(&e))?;
    let kind_for_tag = |tag: u8, what: &str| {
        BackendKind::from_tag(tag).ok_or_else(|| {
            ServiceError::BadSnapshot(format!(
                "snapshot {what} backend tag {tag} is not registered \
                 (registered backends: {})",
                crate::backend::registered_names().join(", ")
            ))
        })
    };
    let primary = kind_for_tag(primary_tag, "primary")?;
    let fallback = kind_for_tag(fallback_tag, "fallback")?;
    if primary != config.primary || fallback != config.fallback {
        return Err(ServiceError::BadSnapshot(format!(
            "snapshot backends ({}/{}) do not match config ({}/{})",
            primary.name(),
            fallback.name(),
            config.primary.name(),
            config.fallback.name()
        )));
    }

    let mut states = Vec::with_capacity(workers);
    for i in 0..workers {
        let name = worker_section_name(i);
        let section = archive.section(&name).map_err(|e| bad(&e))?;
        let mut r = SectionReader::new(section, SEC_SERVICE);
        let primary_backend = primary.restore(&mut r).map_err(|e| bad(&e))?;
        let fallback_backend = fallback.restore(&mut r).map_err(|e| bad(&e))?;
        let stats = PredictorStats::read_state(&mut r).map_err(|e| bad(&e))?;
        r.finish().map_err(|e| bad(&e))?;
        let seed = config.seed.wrapping_add(i as u64 * 2);
        states.push((
            [
                Slot {
                    kind: primary,
                    backend: primary_backend,
                    breaker: CircuitBreaker::new(config.breaker, seed),
                },
                Slot {
                    kind: fallback,
                    backend: fallback_backend,
                    breaker: CircuitBreaker::new(config.breaker, seed + 1),
                },
            ],
            stats,
        ));
    }
    Ok(states)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            queue_capacity: 16,
            ..ServiceConfig::default()
        }
    }

    fn observe(ip: u64, actual: u64) -> Request {
        Request::Observe {
            ip,
            offset: 0,
            ghr: 0,
            actual,
        }
    }

    #[test]
    fn serves_and_learns_a_stride_pattern() {
        let service = Service::start(small_config());
        let handle = service.handle();
        let mut last_correct = false;
        for i in 0..200u64 {
            match handle.call(observe(0x400, 0x1000 + i * 8), None).unwrap() {
                Response::Observed { correct, rung, .. } => {
                    last_correct = correct;
                    assert_eq!(rung, Rung::Hybrid);
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        assert!(last_correct, "a constant stride must become predictable");
        let report = service.shutdown(Duration::from_secs(1));
        assert_eq!(report.drain_rejected, 0);
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for workers in 1..8 {
            for ip in [0u64, 1, 0x400, u64::MAX] {
                let w = route(ip, workers);
                assert!(w < workers);
                assert_eq!(w, route(ip, workers));
            }
        }
    }

    #[test]
    fn predict_only_does_not_train() {
        let service = Service::start(small_config());
        let handle = service.handle();
        for _ in 0..100 {
            let r = handle
                .call(
                    Request::Predict {
                        ip: 0x700,
                        offset: 0,
                        ghr: 0,
                    },
                    None,
                )
                .unwrap();
            match r {
                Response::Predicted { addr, .. } => assert_eq!(addr, None),
                other => panic!("unexpected reply {other:?}"),
            }
        }
        let stats = handle.stats().unwrap();
        assert_eq!(stats.merged_predictor().loads, 0, "predict-only never records a load");
        let _ = service.shutdown(Duration::from_millis(100));
    }

    #[test]
    fn tiny_deadline_is_reported_not_ignored() {
        let service = Service::start(small_config());
        let handle = service.handle();
        // A zero budget expires at the instant it is stamped, so the
        // queued-stage check rejects it however soon it runs.
        let err = handle
            .call(observe(0x400, 0x1000), Some(Duration::ZERO))
            .unwrap_err();
        assert!(
            matches!(
                err,
                ServiceError::DeadlineExceeded {
                    stage: "queued",
                    ..
                }
            ),
            "got {err:?}"
        );
        let stats = handle.stats().unwrap();
        let queued: u64 = stats.workers.iter().map(|w| w.deadline_queued).sum();
        let backend: u64 = stats.workers.iter().map(|w| w.deadline_backend).sum();
        assert_eq!((queued, backend), (1, 0));
        let _ = service.shutdown(Duration::from_millis(100));
    }

    #[test]
    fn shutdown_reports_empty_queues() {
        let service = Service::start(small_config());
        let handle = service.handle();
        for i in 0..100u64 {
            handle
                .call(observe(0x400 + (i % 8) * 0x40, 0x1000 + i * 8), None)
                .unwrap();
        }
        let report = service.shutdown(Duration::from_secs(1));
        assert_eq!(report.drain_rejected, 0);
        assert_eq!(report.workers.len(), 2);
        for w in &report.workers {
            assert_eq!(w.queue_depth, 0, "worker {} after a clean drain", w.worker);
        }
    }

    #[test]
    fn waiters_past_the_drain_deadline_are_answered_and_counted() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            ..small_config()
        });
        let inner = Arc::clone(&service.inner);
        let shard = &inner.shards[0];
        // Hold the shard as a long request would, and let three callers
        // queue behind it.
        let mut held = shard.lock();
        let callers: Vec<_> = (0..3u64)
            .map(|i| {
                let handle = service.handle();
                std::thread::spawn(move || handle.call(observe(0x400, 0x1000 + i * 8), None))
            })
            .collect();
        while shard.waiters.load(Ordering::SeqCst) < 3 {
            std::thread::yield_now();
        }
        // The drain deadline passes before any of them gets the shard.
        held.as_mut().expect("live state").drain_deadline = Some(Instant::now());
        drop(held);
        for caller in callers {
            assert_eq!(caller.join().unwrap(), Err(ServiceError::ShuttingDown));
        }

        let report = service.shutdown(Duration::ZERO);
        assert_eq!(report.drain_rejected, 3, "every rejected waiter is counted");
        assert_eq!(report.workers[0].served, 0);
        assert_eq!(report.workers[0].queue_depth, 0);
    }

    #[test]
    fn handle_after_shutdown_gets_structured_rejection() {
        let service = Service::start(small_config());
        let handle = service.handle();
        handle.call(observe(0x400, 0x1000), None).unwrap();
        let _ = service.shutdown(Duration::from_millis(200));
        assert!(!handle.is_accepting());
        assert_eq!(
            handle.call(observe(0x400, 0x1008), None).unwrap_err(),
            ServiceError::ShuttingDown
        );
    }

    #[test]
    fn warm_restart_roundtrips_predictor_state() {
        let config = small_config();
        let service = Service::start(config.clone());
        let handle = service.handle();
        for i in 0..300u64 {
            handle.call(observe(0x400 + (i % 4) * 0x40, 0x2000 + i * 16), None).unwrap();
        }
        let before = handle.stats().unwrap().merged_predictor();
        let report = service.shutdown(Duration::from_secs(1));

        let restored = Service::start_restored(config, &report.snapshot).expect("restores");
        let after = restored.handle().stats().unwrap().merged_predictor();
        assert_eq!(before, after, "restored metrics must be bit-identical");
        let _ = restored.shutdown(Duration::from_millis(100));
    }

    #[test]
    fn live_snapshot_restores_bit_identical_without_stopping_the_donor() {
        let config = small_config();
        let service = Service::start(config.clone());
        let handle = service.handle();
        for i in 0..300u64 {
            handle
                .call(observe(0x400 + (i % 4) * 0x40, 0x2000 + i * 16), None)
                .unwrap();
        }
        let at_snapshot = handle.stats().unwrap().merged_predictor();
        let live = handle.snapshot_live().expect("live snapshot");

        // The donor keeps serving after the snapshot — it never stopped.
        handle.call(observe(0x400, 0x9000), None).unwrap();

        let twin = Service::start_restored(config, &live).expect("restores");
        let twin_stats = twin.handle().stats().unwrap().merged_predictor();
        assert_eq!(
            twin_stats, at_snapshot,
            "live snapshot must capture the exact state at snapshot time"
        );
        let _ = twin.shutdown(Duration::from_millis(100));
        let _ = service.shutdown(Duration::from_millis(100));
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_cold_start() {
        let config = small_config();
        let (service, restored) = Service::restore_or_cold(config.clone(), Some(b"garbage"));
        assert!(!restored);
        // The cold service works.
        service.handle().call(observe(0x400, 0x1000), None).unwrap();
        let _ = service.shutdown(Duration::from_millis(100));

        // And a topology mismatch is refused by the strict path with a
        // structured error.
        let donor = Service::start(config);
        let snap = donor.shutdown(Duration::from_millis(100)).snapshot;
        let mut other = small_config();
        other.workers = 3;
        match Service::start_restored(other, &snap) {
            Err(ServiceError::BadSnapshot(why)) => assert!(why.contains("workers")),
            other => panic!("expected BadSnapshot, got {other:?}"),
        }
    }

    #[test]
    fn degrading_to_cold_start_is_counted_not_silent() {
        let registry = Arc::new(cap_obs::Registry::new());
        let mut config = small_config();
        config.obs = registry.obs();

        // No snapshot offered: routine cold start, no degradation count.
        let (cold, used) = Service::restore_or_cold(config.clone(), None);
        assert!(!used);
        let _ = cold.shutdown(Duration::from_millis(100));
        assert_eq!(
            registry.snapshot().counter(names::SNAPSHOT_DEGRADED_COLD),
            None
        );

        // A present-but-corrupt snapshot bumps the counter.
        let (service, used) = Service::restore_or_cold(config, Some(b"not an archive"));
        assert!(!used);
        let _ = service.shutdown(Duration::from_millis(100));
        assert_eq!(
            registry.snapshot().counter(names::SNAPSHOT_DEGRADED_COLD),
            Some(1)
        );
    }

    #[test]
    fn retired_tag_3_archive_starts_cold() {
        // Well-formed archives whose primary backend tag is retired (3 to
        // 6): real worker sections, re-framed under a doctored meta.
        let config = small_config();
        let donor = Service::start(config.clone());
        let bytes = donor.shutdown(Duration::from_millis(100)).snapshot;
        let archive = SnapshotArchive::parse(&bytes).expect("donor archive parses");
        for tag in 3..=6u8 {
            let mut meta = SectionWriter::new();
            meta.put_u32(SERVICE_SNAPSHOT_VERSION);
            meta.put_u64(config.workers as u64);
            meta.put_u8(tag);
            meta.put_u8(config.fallback.tag());
            let mut b = SnapshotBuilder::new();
            b.add_raw(SEC_SERVICE, meta.into_bytes());
            for i in 0..config.workers {
                let name = worker_section_name(i);
                let section = archive.section(&name).expect("worker section");
                b.add_raw(&name, section.to_vec());
            }
            let doctored = b.finish();

            match Service::start_restored(config.clone(), &doctored) {
                Err(ServiceError::BadSnapshot(msg)) => assert!(
                    msg.contains(&format!("primary backend tag {tag} is not registered")),
                    "error must name the retired tag {tag}: {msg}"
                ),
                Err(e) => panic!("tag {tag}: expected BadSnapshot, got {e:?}"),
                Ok(s) => {
                    let _ = s.shutdown(Duration::from_millis(100));
                    panic!("a tag-{tag} archive must not restore");
                }
            }

            let registry = Arc::new(cap_obs::Registry::new());
            let mut config = config.clone();
            config.obs = registry.obs();
            let (cold, used) = Service::restore_or_cold(config, Some(&doctored));
            assert!(!used, "a tag-{tag} archive must start cold");
            let _ = cold.shutdown(Duration::from_millis(100));
            assert_eq!(
                registry.snapshot().counter(names::SNAPSHOT_DEGRADED_COLD),
                Some(1),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn registry_reconciles_with_legacy_stats_views() {
        let registry = Arc::new(cap_obs::Registry::new());
        let mut config = small_config();
        config.obs = registry.obs();
        let service = Service::start(config);
        let handle = service.handle();
        for i in 0..400u64 {
            handle
                .call(observe(0x400 + (i % 8) * 0x40, 0x3000 + i * 8), None)
                .unwrap();
        }
        let stats = handle.stats().unwrap();
        let snap = registry.snapshot();
        let counter = |name: &str| snap.counter(name).unwrap_or(0);

        // Admission and worker counters are exact mirrors (the stats
        // probes themselves pass admission, hence `accepted`).
        assert_eq!(counter(names::ACCEPTED), stats.accepted);
        assert_eq!(counter(names::SHED), stats.shed);
        assert_eq!(counter(names::REJECTED_SHUTDOWN), stats.rejected_shutdown);
        let served: u64 = stats.workers.iter().map(|w| w.served).sum();
        assert_eq!(counter(names::SERVED), served);
        for rung in Rung::ALL {
            let by_rung: u64 = stats
                .workers
                .iter()
                .map(|w| w.served_by_rung[rung.index()])
                .sum();
            let hist = snap.histogram(names::LATENCY_BY_RUNG[rung.index()]);
            assert_eq!(hist.map_or(0, |h| h.count), by_rung, "{}", rung.name());
        }

        // The merged predictor metrics are recoverable from the
        // registry alone.
        assert_eq!(
            PredictorStats::from_obs_snapshot(&snap),
            stats.merged_predictor()
        );
        let _ = service.shutdown(Duration::from_millis(200));
    }

    #[test]
    fn predict_flood_gets_exactly_one_reply_per_request() {
        // Many concurrent deadline-free predicts against one worker on
        // the default hybrid: a full queue sheds and the callers retry,
        // but every accepted request gets exactly one valid reply.
        let config = ServiceConfig {
            workers: 1,
            queue_capacity: 64,
            ..ServiceConfig::default()
        };
        let service = Service::start(config);
        let handle = service.handle();

        // Train a stride so the predicts have addresses to produce.
        for i in 0..100u64 {
            handle.call(observe(0x400, 0x1000 + i * 8), None).unwrap();
        }

        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = handle.clone();
                std::thread::spawn(move || {
                    let mut answered = 0u64;
                    let mut with_addr = 0u64;
                    for _ in 0..200 {
                        loop {
                            match h.call(
                                Request::Predict {
                                    ip: 0x400,
                                    offset: 0,
                                    ghr: 0,
                                },
                                None,
                            ) {
                                Ok(Response::Predicted { addr, .. }) => {
                                    answered += 1;
                                    with_addr += u64::from(addr.is_some());
                                    break;
                                }
                                Ok(other) => panic!("unexpected reply {other:?}"),
                                Err(ServiceError::Shed { .. }) => continue,
                                Err(e) => panic!("unexpected error {e:?}"),
                            }
                        }
                    }
                    (answered, with_addr)
                })
            })
            .collect();
        let mut answered = 0u64;
        let mut with_addr = 0u64;
        for t in threads {
            let (a, w) = t.join().expect("flood thread");
            answered += a;
            with_addr += w;
        }
        assert_eq!(answered, 800, "every accepted predict gets exactly one reply");
        assert_eq!(with_addr, 800, "a trained stride predicts on every rung pass");

        let stats = handle.stats().unwrap();
        assert_eq!(stats.workers[0].served, 900, "100 observes + 800 predicts");
        // Predict-only traffic records no loads.
        assert_eq!(stats.merged_predictor().loads, 100);
        let report = service.shutdown(Duration::from_secs(1));
        assert_eq!(report.drain_rejected, 0);
    }

    #[test]
    fn pinned_rung_serves_there_and_stays() {
        let mut config = small_config();
        config.pin_rung = Some(Rung::StrideOnly);
        let service = Service::start(config);
        let handle = service.handle();
        for i in 0..50u64 {
            match handle.call(observe(0x900, 0x4000 + i * 8), None).unwrap() {
                Response::Observed { rung, .. } => assert_eq!(rung, Rung::StrideOnly),
                other => panic!("unexpected reply {other:?}"),
            }
        }
        let stats = handle.stats().unwrap();
        assert_eq!(stats.worst_rung(), Rung::StrideOnly);
        for w in &stats.workers {
            assert_eq!(w.served_by_rung[Rung::Hybrid.index()], 0);
        }
        let _ = service.shutdown(Duration::from_millis(100));
    }
}
