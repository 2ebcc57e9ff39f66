//! The staged Sirius serving runtime.
//!
//! [`SiriusServer::start`] wires the four typed pipeline stages (ASR →
//! classify → IMM → QA) into per-stage worker pools connected by bounded
//! MPMC queues:
//!
//! ```text
//!  submit ─try_send─▶ [asr queue] ─▶ ASR pool ─send─▶ [classify queue]
//!        ─▶ classify pool ──Action──▶ ticket completed
//!                         └─Question─▶ [imm queue] ─▶ IMM pool
//!        ─send─▶ [qa queue] ─▶ QA pool ─▶ ticket completed
//! ```
//!
//! **Admission control**: [`SiriusServer::submit`] uses a non-blocking
//! `try_send` into the ASR queue and sheds with
//! [`SiriusError::Overloaded`] when it is full — overload surfaces as a
//! typed rejection the client can retry, instead of unbounded queueing.
//! [`SiriusServer::submit_with_deadline`] is the deadline-aware policy on
//! top: it estimates the query's end-to-end sojourn from live queue depths,
//! in-flight counts and per-stage EWMA service times
//! ([`SiriusServer::expected_sojourn`]) and sheds with
//! [`SiriusError::DeadlineUnmeetable`] — carrying a drain-rate-derived
//! retry hint — the moment the deadline cannot be met, instead of only when
//! the ASR queue is physically full. Admitted deadlines ride along with the
//! job; a worker dequeuing an already-expired job drops it unserved
//! (`{stage}.expired`), so no stage service time is spent on an answer the
//! client has abandoned.
//!
//! **Back-pressure**: interior hand-offs use blocking `send`, so a slow
//! downstream stage stalls its upstream pool rather than growing a queue
//! without bound. The stage graph is a forward-only chain whose final pool
//! never blocks, so progress is always guaranteed (no cycles, no deadlock).
//!
//! **Graceful shutdown**: dropping (or [`SiriusServer::shutdown`]ting) the
//! runtime closes the ASR queue; each pool drains its queue, exits, and by
//! dropping its sender closes the next queue in the chain. Every accepted
//! query completes before the workers are joined.
//!
//! **Observability**: every pool records per-stage queue-wait and
//! service-time histograms, panic counters and (at snapshot time)
//! queue-depth gauges into one [`ServerMetrics`] registry — all lock-free
//! on the hot path. [`SiriusServer::metrics_snapshot`] exports the lot;
//! [`SiriusServer::start_with_recorder`] additionally attributes every
//! span of every query to a caller-supplied [`Recorder`].

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sirius::classifier::DeviceAction;
use sirius::error::SiriusError;
use sirius::pipeline::{Sirius, SiriusInput, SiriusOutcome, SiriusResponse, StageTiming};
use sirius::stage::{
    AsrRequest, AsrResponse, AsrStage, ClassifyRequest, ClassifyStage, ImmRequest, ImmStage,
    QaRequest, QaResponse, QaStage,
};
use sirius_obs::{Gauge, NoopRecorder, Recorder, Snapshot, SpanKind};
use sirius_par::queue::{bounded, SendError, Sender, TrySendError};
use sirius_speech::asr::{AcousticModelKind, AsrTiming};
use sirius_vision::db::ImmTiming;
use sirius_vision::image::GrayImage;

use crate::metrics::{ServerMetrics, STAGES};
use crate::pool::{spawn_stage_pool, Job};
use crate::qos::{TenantClass, TenantObs, TenantTable};
use crate::stream::{spawn_streaming_stages, StreamPolicy};

/// Sizing of one stage's pool and queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageConfig {
    /// Worker threads draining this stage's queue (clamped to at least 1).
    pub workers: usize,
    /// Bounded queue depth in front of the pool (clamped to at least 1).
    pub queue_depth: usize,
}

impl Default for StageConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            queue_depth: 16,
        }
    }
}

/// Configuration of the staged runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// ASR pool/queue sizing. Its queue is the admission-control queue.
    /// The default runs one worker per available core.
    pub asr: StageConfig,
    /// Query-classifier pool/queue sizing (the stage is microseconds, one
    /// worker is plenty).
    pub classify: StageConfig,
    /// Image-matching pool/queue sizing.
    pub imm: StageConfig,
    /// Question-answering pool/queue sizing.
    pub qa: StageConfig,
    /// Acoustic model every query is scored with.
    pub acoustic: AcousticModelKind,
    /// Streaming ASR ingestion and speculative downstream pipelining. The
    /// default (`chunk == 0`) serves whole utterances; see
    /// [`crate::stream`].
    pub stream: StreamPolicy,
    /// Tenant traffic classes served by [`SiriusServer::submit_classed`].
    /// Empty (the default) leaves only the class-less submit paths.
    pub tenants: Vec<TenantClass>,
}

/// Worker threads the default ASR pool runs: one per available core (at
/// least 1). ASR is most of every query (paper Fig. 9), so it gets every
/// core while the lighter downstream stages keep one worker each.
fn default_asr_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Default for ServerConfig {
    /// ASR runs one worker per available core; classify, IMM and QA run one
    /// worker each. [`ServerConfig::with_workers`]`(1)` gives the tandem of
    /// single servers instead.
    fn default() -> Self {
        Self {
            asr: StageConfig {
                workers: default_asr_workers(),
                ..StageConfig::default()
            },
            classify: StageConfig::default(),
            imm: StageConfig::default(),
            qa: StageConfig::default(),
            acoustic: AcousticModelKind::Gmm,
            stream: StreamPolicy::default(),
            tenants: Vec::new(),
        }
    }
}

impl ServerConfig {
    /// `workers` threads on each heavy stage (ASR, IMM, QA); the classifier
    /// keeps a single worker. `with_workers(1)` is the tandem of single
    /// servers the per-stage M/M/1 model assumes.
    pub fn with_workers(workers: usize) -> Self {
        let mut cfg = Self::default();
        cfg.asr.workers = workers;
        cfg.imm.workers = workers;
        cfg.qa.workers = workers;
        cfg
    }

    /// Sets the streaming ASR policy. With the default (non-streaming)
    /// policy the runtime serves whole utterances exactly as before.
    pub fn with_stream_policy(mut self, stream: StreamPolicy) -> Self {
        self.stream = stream;
        self
    }

    /// Sets the tenant traffic classes [`SiriusServer::submit_classed`]
    /// serves.
    pub fn with_tenant_classes(mut self, tenants: Vec<TenantClass>) -> Self {
        self.tenants = tenants;
        self
    }

    /// Sets every stage's queue depth.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.asr.queue_depth = depth;
        self.classify.queue_depth = depth;
        self.imm.queue_depth = depth;
        self.qa.queue_depth = depth;
        self
    }

    /// Total worker threads the runtime will spawn (the streaming
    /// speculation pool, when enabled, matches the ASR pool's size).
    pub fn total_workers(&self) -> usize {
        let spec = if self.stream.is_streaming() && self.stream.speculate {
            self.asr.workers.max(1)
        } else {
            0
        };
        self.asr.workers.max(1)
            + self.classify.workers.max(1)
            + self.imm.workers.max(1)
            + self.qa.workers.max(1)
            + spec
    }
}

pub(crate) struct TicketState {
    slot: Mutex<Option<Result<SiriusResponse, SiriusError>>>,
    done: Condvar,
}

/// Completion handle for one submitted query.
///
/// On success the response's `timing.total` is the **sojourn time** — queue
/// wait plus service across every stage, measured from admission — which is
/// exactly the quantity the M/M/1 model predicts.
pub struct Ticket {
    state: Arc<TicketState>,
    submitted: Instant,
}

impl Ticket {
    /// When the query was admitted.
    pub fn submitted_at(&self) -> Instant {
        self.submitted
    }

    /// Blocks until the query completes.
    pub fn wait(self) -> Result<SiriusResponse, SiriusError> {
        let mut slot = self.state.slot.lock().expect("ticket lock");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.state.done.wait(slot).expect("ticket lock");
        }
    }

    /// Blocks until the query completes or `timeout` elapses.
    ///
    /// On timeout the ticket is **kept** (unlike [`Ticket::wait`], which
    /// consumes it): the query is still in flight and the caller may wait
    /// again or poll with [`Ticket::try_take`].
    ///
    /// # Errors
    ///
    /// [`SiriusError::Timeout`] if no result arrived within `timeout`; any
    /// pipeline error the query itself completed with.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<SiriusResponse, SiriusError> {
        // A near-`Duration::MAX` timeout overflows `Instant` arithmetic;
        // such a deadline can never be reached, so degrade to an untimed
        // wait instead of panicking.
        let deadline = Instant::now().checked_add(timeout);
        let mut slot = self.state.slot.lock().expect("ticket lock");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            let Some(deadline) = deadline else {
                slot = self.state.done.wait(slot).expect("ticket lock");
                continue;
            };
            let now = Instant::now();
            if now >= deadline {
                return Err(SiriusError::Timeout { waited: timeout });
            }
            let (guard, _) = self
                .state
                .done
                .wait_timeout(slot, deadline - now)
                .expect("ticket lock");
            slot = guard;
        }
    }

    /// Non-blocking poll; `None` while the query is still in flight.
    pub fn try_take(&self) -> Option<Result<SiriusResponse, SiriusError>> {
        self.state.slot.lock().expect("ticket lock").take()
    }
}

fn complete(state: &Arc<TicketState>, result: Result<SiriusResponse, SiriusError>) {
    let mut slot = state.slot.lock().expect("ticket lock");
    *slot = Some(result);
    state.done.notify_all();
}

/// Completes a ticket and accounts for the outcome: successful queries
/// record their sojourn, failed ones bump the failure counter and record
/// theirs into the `sojourn_failed_ns` histogram, so every admitted
/// query's time is accounted and `accepted = completed + failed + in
/// flight` always balances.
///
/// *Every* terminating query — successful, errored, or expired — records
/// exactly one terminal `total` span when the recorder is enabled. The
/// span used to be recorded only on success, which made recorder-side
/// ledgers (spans-per-query censuses, trace reconstructions) silently
/// undercount whenever a query failed.
pub(crate) fn finish(
    metrics: &ServerMetrics,
    recorder: &dyn Recorder,
    ctx: &Ctx,
    result: Result<SiriusResponse, SiriusError>,
) {
    let sojourn = ctx.started.elapsed();
    let tenant = ctx.tenant.as_deref();
    match &result {
        Ok(_) => {
            metrics.completed.inc();
            metrics.sojourn.record_duration(sojourn);
            if let Some(tenant) = tenant {
                tenant.completed.inc();
                tenant.sojourn.record_duration(sojourn);
            }
        }
        Err(_) => {
            metrics.failed.inc();
            metrics.sojourn_failed.record_duration(sojourn);
            if let Some(tenant) = tenant {
                tenant.failed.inc();
            }
        }
    }
    if let Some(tenant) = tenant {
        tenant.in_flight.dec();
    }
    if recorder.enabled() {
        recorder.record("total", SpanKind::Total, sojourn);
    }
    complete(&ctx.ticket, result);
}

/// Completes the ticket of a job that expired in a queue: it already missed
/// its deadline, so the typed deadline error reports the time it actually
/// spent (all of it queue wait — no stage served it) and a zero-backlog
/// retry hint (the client's own abandoned job is gone; the next attempt
/// faces admission control afresh).
fn expire(metrics: &ServerMetrics, recorder: &dyn Recorder, ctx: Ctx) {
    let expected = ctx.started.elapsed();
    let deadline = ctx
        .deadline
        .map_or(Duration::ZERO, |d| d.duration_since(ctx.started));
    finish(
        metrics,
        recorder,
        &ctx,
        Err(SiriusError::DeadlineUnmeetable {
            expected,
            deadline,
            retry_after: expected.saturating_sub(deadline),
        }),
    );
}

/// Forwards a query to the next stage's queue with a blocking `send`
/// (back-pressure). A closed queue means the runtime is shutting down, so
/// the query completes with [`SiriusError::ShuttingDown`] instead.
fn hand_off<R>(
    metrics: &ServerMetrics,
    recorder: &dyn Recorder,
    tx: &Sender<Job<Ctx, R>>,
    ctx: Ctx,
    req: R,
) {
    let deadline = ctx.deadline;
    if let Err(SendError(job)) = tx.send(Job::with_deadline(ctx, req, deadline)) {
        finish(metrics, recorder, &job.ctx, Err(SiriusError::ShuttingDown));
    }
}

/// The stage a query leaves the pipeline through, with that stage's result.
pub(crate) enum Exit {
    /// The classifier recognized a device action.
    Action(DeviceAction),
    /// Question answering produced the answer.
    Answer(QaResponse),
}

/// Per-query state carried alongside stage requests as they move through
/// the queues. Grows monotonically: each stage adds what the final response
/// assembly needs.
pub(crate) struct Ctx {
    pub(crate) ticket: Arc<TicketState>,
    pub(crate) started: Instant,
    /// Absolute completion deadline (admission instant + the caller's SLO),
    /// `None` for deadline-free submits or unrepresentably far deadlines.
    pub(crate) deadline: Option<Instant>,
    pub(crate) image: Option<GrayImage>,
    pub(crate) recognized: String,
    pub(crate) asr_timing: AsrTiming,
    pub(crate) classify: Duration,
    pub(crate) imm_timing: Option<ImmTiming>,
    pub(crate) matched_venue: Option<String>,
    /// The tenant class's telemetry when the query entered through
    /// [`SiriusServer::submit_classed`].
    pub(crate) tenant: Option<Arc<TenantObs>>,
}

impl Ctx {
    /// The query's response: the stage results gathered so far plus the
    /// stage it exits through. Every completion route (the classifier's
    /// action exit, the QA stage and a confirmed streaming speculation)
    /// builds its response here, field for field as
    /// [`Sirius::try_process_with`] does.
    pub(crate) fn respond(&mut self, exit: Exit) -> SiriusResponse {
        let (outcome, qa) = match exit {
            Exit::Action(action) => (SiriusOutcome::Action(action), None),
            Exit::Answer(qa) => (SiriusOutcome::Answer(qa.answer), Some(qa.breakdown)),
        };
        SiriusResponse {
            recognized: std::mem::take(&mut self.recognized),
            outcome,
            matched_venue: self.matched_venue.take(),
            timing: StageTiming {
                asr: self.asr_timing,
                classify: self.classify,
                qa,
                imm: self.imm_timing,
                total: self.started.elapsed(),
            },
        }
    }
}

/// A retained handle onto one stage's queue that refreshes its depth and
/// capacity gauges on demand. Holding it keeps a `Sender` clone alive, so
/// probes must be dropped before the workers are joined at shutdown —
/// otherwise the interior queues never close.
struct QueueProbe {
    depth: Gauge,
    capacity: Gauge,
    read: Box<dyn Fn() -> (usize, usize) + Send + Sync>,
}

impl QueueProbe {
    fn new<T: Send + 'static>(metrics: &ServerMetrics, stage: &str, tx: &Sender<T>) -> Self {
        let probe = Self {
            depth: metrics
                .registry()
                .gauge(&metrics.scoped(&format!("{stage}.queue_depth"))),
            capacity: metrics
                .registry()
                .gauge(&metrics.scoped(&format!("{stage}.queue_capacity"))),
            read: {
                let tx = tx.clone();
                Box::new(move || (tx.len(), tx.capacity()))
            },
        };
        probe.refresh();
        probe
    }

    fn refresh(&self) {
        let (depth, capacity) = (self.read)();
        self.depth.set(depth as u64);
        self.capacity.set(capacity as u64);
    }

    /// The queue's current depth, read live (not the gauge's last value).
    fn depth_now(&self) -> usize {
        (self.read)().0
    }
}

/// The staged Sirius serving runtime. See the module docs for the queueing
/// topology and policies.
pub struct SiriusServer {
    sirius: Arc<Sirius>,
    config: ServerConfig,
    metrics: Arc<ServerMetrics>,
    tenants: TenantTable,
    submit_tx: Option<Sender<Job<Ctx, AsrRequest>>>,
    queue_probes: Vec<QueueProbe>,
    workers: Vec<JoinHandle<()>>,
}

impl SiriusServer {
    /// Starts worker pools for every stage over a shared trained assistant,
    /// with per-query span tracing disabled (metrics are always on — their
    /// hot path is a handful of relaxed atomics).
    pub fn start(sirius: Arc<Sirius>, config: ServerConfig) -> Self {
        Self::start_with_recorder(sirius, config, Arc::new(NoopRecorder))
    }

    /// Starts the runtime with a [`Recorder`] that receives every query's
    /// queue-wait/service spans per stage plus a `total` span on success.
    pub fn start_with_recorder(
        sirius: Arc<Sirius>,
        config: ServerConfig,
        recorder: Arc<dyn Recorder>,
    ) -> Self {
        Self::start_with_metrics(sirius, config, recorder, ServerMetrics::new())
    }

    /// Starts the runtime recording into caller-supplied metrics — the
    /// cluster front-end's hook for wiring every replica into one shared
    /// registry under per-replica prefixes
    /// ([`ServerMetrics::in_registry`]). The queue gauges inherit the
    /// metrics' prefix, so nothing aliases between replicas.
    pub fn start_with_metrics(
        sirius: Arc<Sirius>,
        config: ServerConfig,
        recorder: Arc<dyn Recorder>,
        metrics: Arc<ServerMetrics>,
    ) -> Self {
        let (asr_tx, asr_rx) = bounded::<Job<Ctx, AsrRequest>>(config.asr.queue_depth);
        let (cls_tx, cls_rx) = bounded::<Job<Ctx, ClassifyRequest>>(config.classify.queue_depth);
        let (imm_tx, imm_rx) = bounded::<Job<Ctx, ImmRequest>>(config.imm.queue_depth);
        let (qa_tx, qa_rx) = bounded::<Job<Ctx, QaRequest>>(config.qa.queue_depth);

        let tenants = TenantTable::build(&config.tenants, &metrics);

        let queue_probes = vec![
            QueueProbe::new(&metrics, "asr", &asr_tx),
            QueueProbe::new(&metrics, "classify", &cls_tx),
            QueueProbe::new(&metrics, "imm", &imm_tx),
            QueueProbe::new(&metrics, "qa", &qa_tx),
        ];

        let mut workers = Vec::with_capacity(config.total_workers());

        // QA pool: the chain's tail; completes tickets and never blocks.
        workers.extend(spawn_stage_pool(
            Arc::new(QaStage(Arc::clone(&sirius))),
            config.qa.workers,
            qa_rx,
            Arc::clone(&metrics.qa),
            Arc::clone(&recorder),
            {
                let metrics = Arc::clone(&metrics);
                let recorder = Arc::clone(&recorder);
                move |mut ctx: Ctx, result: Result<QaResponse, SiriusError>| {
                    let response = result.map(|qa| ctx.respond(Exit::Answer(qa)));
                    finish(&metrics, recorder.as_ref(), &ctx, response);
                }
            },
            {
                let metrics = Arc::clone(&metrics);
                let recorder = Arc::clone(&recorder);
                move |ctx: Ctx| expire(&metrics, recorder.as_ref(), ctx)
            },
        ));

        // IMM pool: match + rewrite, then forward to QA (blocking send =
        // back-pressure).
        workers.extend(spawn_stage_pool(
            Arc::new(ImmStage(Arc::clone(&sirius))),
            config.imm.workers,
            imm_rx,
            Arc::clone(&metrics.imm),
            Arc::clone(&recorder),
            {
                let metrics = Arc::clone(&metrics);
                let recorder = Arc::clone(&recorder);
                move |mut ctx: Ctx, result| match result {
                    Ok(imm) => {
                        ctx.imm_timing = imm.timing;
                        ctx.matched_venue = imm.matched_venue;
                        let req = QaRequest {
                            question: imm.question,
                        };
                        hand_off(&metrics, recorder.as_ref(), &qa_tx, ctx, req);
                    }
                    Err(err) => finish(&metrics, recorder.as_ref(), &ctx, Err(err)),
                }
            },
            {
                let metrics = Arc::clone(&metrics);
                let recorder = Arc::clone(&recorder);
                move |ctx: Ctx| expire(&metrics, recorder.as_ref(), ctx)
            },
        ));

        // Classify pool: actions complete immediately; questions continue to
        // IMM (which passes through when there is no image).
        workers.extend(spawn_stage_pool(
            Arc::new(ClassifyStage(Arc::clone(&sirius))),
            config.classify.workers,
            cls_rx,
            Arc::clone(&metrics.classify),
            Arc::clone(&recorder),
            {
                let metrics = Arc::clone(&metrics);
                let recorder = Arc::clone(&recorder);
                move |mut ctx: Ctx, result| match result {
                    Ok(cls) => {
                        ctx.classify = cls.elapsed;
                        if let Some(action) = cls.action {
                            let response = ctx.respond(Exit::Action(action));
                            finish(&metrics, recorder.as_ref(), &ctx, Ok(response));
                            return;
                        }
                        let req = ImmRequest {
                            question: ctx.recognized.clone(),
                            image: ctx.image.take(),
                        };
                        hand_off(&metrics, recorder.as_ref(), &imm_tx, ctx, req);
                    }
                    Err(err) => finish(&metrics, recorder.as_ref(), &ctx, Err(err)),
                }
            },
            {
                let metrics = Arc::clone(&metrics);
                let recorder = Arc::clone(&recorder);
                move |ctx: Ctx| expire(&metrics, recorder.as_ref(), ctx)
            },
        ));

        // ASR pool: the chain's head, fed by `submit`. Routing and expiry
        // are identical for the whole-utterance and streaming stages, so
        // both closures are built once and moved into whichever variant
        // the stream policy selects.
        let asr_route = {
            let metrics = Arc::clone(&metrics);
            let recorder = Arc::clone(&recorder);
            move |mut ctx: Ctx, result: Result<AsrResponse, SiriusError>| match result {
                Ok(asr) => {
                    ctx.recognized = asr.recognized.clone();
                    ctx.asr_timing = asr.timing;
                    let req = ClassifyRequest {
                        recognized: asr.recognized,
                    };
                    hand_off(&metrics, recorder.as_ref(), &cls_tx, ctx, req);
                }
                Err(err) => finish(&metrics, recorder.as_ref(), &ctx, Err(err)),
            }
        };
        let asr_expire = {
            let metrics = Arc::clone(&metrics);
            let recorder = Arc::clone(&recorder);
            move |ctx: Ctx| expire(&metrics, recorder.as_ref(), ctx)
        };
        if config.stream.is_streaming() {
            workers.extend(spawn_streaming_stages(
                Arc::clone(&sirius),
                &config,
                asr_rx,
                Arc::clone(&metrics),
                Arc::clone(&recorder),
                asr_route,
                asr_expire,
            ));
        } else {
            workers.extend(spawn_stage_pool(
                Arc::new(AsrStage(Arc::clone(&sirius))),
                config.asr.workers,
                asr_rx,
                Arc::clone(&metrics.asr),
                Arc::clone(&recorder),
                asr_route,
                asr_expire,
            ));
        }

        Self {
            sirius,
            config,
            metrics,
            tenants,
            submit_tx: Some(asr_tx),
            queue_probes,
            workers,
        }
    }

    /// The shared assistant this runtime serves.
    pub fn sirius(&self) -> &Arc<Sirius> {
        &self.sirius
    }

    /// The configuration the runtime was started with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The runtime's metrics (live handles; see [`crate::metrics`] for the
    /// naming scheme).
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// Refreshes the queue-depth/capacity gauges and exports every metric.
    pub fn metrics_snapshot(&self) -> Snapshot {
        for probe in &self.queue_probes {
            probe.refresh();
        }
        self.metrics.registry().snapshot()
    }

    /// Queries currently waiting in the admission (ASR) queue.
    pub fn admission_queue_len(&self) -> usize {
        self.submit_tx.as_ref().map_or(0, Sender::len)
    }

    /// Worker threads serving the stage at `STAGES` index `i`.
    fn stage_workers(&self, i: usize) -> usize {
        let stage = match i {
            0 => self.config.asr,
            1 => self.config.classify,
            2 => self.config.imm,
            _ => self.config.qa,
        };
        stage.workers.max(1)
    }

    /// The expected end-to-end sojourn of a query admitted *right now*:
    /// Σ over stages of `(queue depth + in-flight) / workers + 1` × the
    /// stage's recent mean service time (EWMA).
    ///
    /// Each stage term is the backlog a new arrival queues behind, spread
    /// over the stage's workers, plus its own service. Stages whose meter
    /// has not observed a job yet contribute nothing — a cold runtime
    /// admits everything and the estimate sharpens as the meters warm up.
    /// This is the deadline-aware admission policy's decision quantity; the
    /// paper's tail-latency target (Table 8) applied as a runtime check
    /// instead of an offline provisioning row.
    pub fn expected_sojourn(&self) -> Duration {
        let mut total_ns = 0.0f64;
        for (i, stage) in STAGES.iter().enumerate() {
            let obs = self.metrics.stage(stage).expect("known stage");
            let mean_ns = obs.service_meter.mean();
            if mean_ns <= 0.0 {
                continue;
            }
            let backlog = self.queue_probes[i].depth_now() + obs.in_flight.get() as usize;
            total_ns += mean_ns * (backlog as f64 / self.stage_workers(i) as f64 + 1.0);
        }
        Duration::from_nanos(total_ns as u64)
    }

    /// Admits a query, or sheds it if the admission queue is full.
    ///
    /// # Errors
    ///
    /// [`SiriusError::Overloaded`] when the ASR queue is at capacity;
    /// [`SiriusError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, input: SiriusInput) -> Result<Ticket, SiriusError> {
        self.submit_inner(input, None, None)
    }

    /// Admits a query under a tenant traffic class: weighted-fair,
    /// deadline-aware admission. The class's SLO becomes the query's
    /// deadline, but admission is gated on the class's **effective budget**
    /// `slo × weight / max_weight` — so as the expected sojourn grows,
    /// low-weight classes shed first and high-weight classes keep
    /// admitting until the estimate exceeds their full SLO. See
    /// [`crate::qos`] for the rule and the per-class `retry_after`
    /// semantics.
    ///
    /// # Errors
    ///
    /// [`SiriusError::UnknownTenantClass`] when `class` is not in
    /// [`ServerConfig::tenants`];
    /// [`SiriusError::DeadlineUnmeetable`] when the expected sojourn
    /// exceeds the class budget — `retry_after` is `expected − budget`,
    /// the drain the *class* needs before it admits again (longer than the
    /// raw-SLO hint for every class below max weight);
    /// [`SiriusError::Overloaded`] / [`SiriusError::ShuttingDown`] as for
    /// [`SiriusServer::submit`].
    pub fn submit_classed(&self, input: SiriusInput, class: &str) -> Result<Ticket, SiriusError> {
        let (class, obs) =
            self.tenants
                .lookup(class)
                .ok_or_else(|| SiriusError::UnknownTenantClass {
                    class: class.to_owned(),
                })?;
        let expected = self.expected_sojourn();
        let budget = self.tenants.budget(class);
        if expected > budget {
            self.metrics.shed_deadline.inc();
            obs.shed_deadline.inc();
            return Err(SiriusError::DeadlineUnmeetable {
                expected,
                deadline: class.slo,
                // The hint drains the backlog to the *class* budget, not to
                // the raw SLO: a low-weight class must wait out the extra
                // `slo − budget` of backlog its weight denies it.
                retry_after: expected - budget,
            });
        }
        self.submit_inner(input, Some(class.slo), Some(Arc::clone(obs)))
    }

    /// Admits a query only if its deadline looks meetable: sheds up front
    /// when the [`SiriusServer::expected_sojourn`] estimate already exceeds
    /// `deadline`, and stamps admitted jobs so workers drop them unserved
    /// if they expire in a queue anyway (completing the ticket with the
    /// same typed error).
    ///
    /// With an effectively infinite deadline (for example
    /// `Duration::MAX`) this behaves exactly like [`SiriusServer::submit`]:
    /// the estimate can never exceed it and the deadline stamp degrades to
    /// "none", leaving shed-on-full as the only admission policy.
    ///
    /// # Errors
    ///
    /// [`SiriusError::DeadlineUnmeetable`] when the expected sojourn
    /// exceeds `deadline` — `retry_after` is the estimate's excess over the
    /// deadline, i.e. how long the backlog ahead needs to drain at the
    /// current service rate before the deadline becomes meetable;
    /// [`SiriusError::Overloaded`] when the ASR queue is at capacity;
    /// [`SiriusError::ShuttingDown`] after shutdown began.
    pub fn submit_with_deadline(
        &self,
        input: SiriusInput,
        deadline: Duration,
    ) -> Result<Ticket, SiriusError> {
        let expected = self.expected_sojourn();
        if expected > deadline {
            self.metrics.shed_deadline.inc();
            return Err(SiriusError::DeadlineUnmeetable {
                expected,
                deadline,
                retry_after: expected - deadline,
            });
        }
        self.submit_inner(input, Some(deadline), None)
    }

    fn submit_inner(
        &self,
        input: SiriusInput,
        deadline: Option<Duration>,
        tenant: Option<Arc<TenantObs>>,
    ) -> Result<Ticket, SiriusError> {
        let tx = self.submit_tx.as_ref().ok_or(SiriusError::ShuttingDown)?;
        let started = Instant::now();
        // A deadline too far out to represent as an `Instant` can never
        // pass; carry it as "none" so workers skip the expiry check.
        let deadline = deadline.and_then(|d| started.checked_add(d));
        let state = Arc::new(TicketState {
            slot: Mutex::new(None),
            done: Condvar::new(),
        });
        let ctx = Ctx {
            ticket: Arc::clone(&state),
            started,
            deadline,
            image: input.image,
            recognized: String::new(),
            asr_timing: AsrTiming::default(),
            classify: Duration::ZERO,
            imm_timing: None,
            matched_venue: None,
            tenant: tenant.clone(),
        };
        let req = AsrRequest {
            audio: input.audio,
            acoustic: self.config.acoustic,
        };
        match tx.try_send(Job {
            ctx,
            req,
            enqueued: started,
            deadline,
        }) {
            Ok(()) => {
                self.metrics.accepted.inc();
                if let Some(tenant) = &tenant {
                    tenant.accepted.inc();
                    tenant.in_flight.inc();
                }
                Ok(Ticket {
                    state,
                    submitted: started,
                })
            }
            Err(TrySendError::Full(_)) => {
                self.metrics.shed.inc();
                if let Some(tenant) = &tenant {
                    tenant.shed.inc();
                }
                Err(SiriusError::Overloaded { stage: "asr" })
            }
            Err(TrySendError::Disconnected(_)) => {
                self.metrics.rejected_shutdown.inc();
                Err(SiriusError::ShuttingDown)
            }
        }
    }

    /// Submits and waits: the one-call synchronous client of the staged
    /// path. Output matches [`Sirius::process_with`] bit-for-bit (same
    /// stage methods, same order).
    pub fn process_sync(&self, input: SiriusInput) -> Result<SiriusResponse, SiriusError> {
        self.submit(input)?.wait()
    }

    /// Stops admitting, drains every accepted query, and joins all workers.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        // Closing the admission queue cascades: each pool drains, exits and
        // drops its sender to the next queue, closing that one in turn. The
        // queue probes hold sender clones on the interior queues, so they
        // must go first or the cascade never reaches the downstream pools.
        self.queue_probes.clear();
        drop(self.submit_tx.take());
        for worker in self.workers.drain(..) {
            worker.join().expect("stage worker never panics");
        }
    }
}

impl Drop for SiriusServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

impl std::fmt::Debug for SiriusServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SiriusServer")
            .field("config", &self.config)
            .field("workers", &self.workers.len())
            .field("accepting", &self.submit_tx.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_ticket() -> (Arc<TicketState>, Ticket) {
        let state = Arc::new(TicketState {
            slot: Mutex::new(None),
            done: Condvar::new(),
        });
        let ticket = Ticket {
            state: Arc::clone(&state),
            submitted: Instant::now(),
        };
        (state, ticket)
    }

    #[test]
    fn default_config_sizes_asr_from_the_machine() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cfg = ServerConfig::default();
        assert_eq!(cfg.asr.workers, cores);
        assert_eq!(cfg.classify.workers, 1);
        assert_eq!(cfg.imm.workers, 1);
        assert_eq!(cfg.qa.workers, 1);
        assert_eq!(cfg.total_workers(), cores + 3);
        // Explicit sizing still overrides the per-core default.
        let single = ServerConfig::with_workers(1);
        assert_eq!(single.asr.workers, 1);
        assert_eq!(single.total_workers(), 4);
    }

    #[test]
    fn wait_timeout_returns_typed_timeout_and_keeps_the_ticket() {
        let (state, ticket) = fresh_ticket();
        let waited = Duration::from_millis(10);
        assert_eq!(
            ticket.wait_timeout(waited),
            Err(SiriusError::Timeout { waited })
        );
        // The ticket survived the timeout; a late completion is observable.
        complete(&state, Err(SiriusError::ShuttingDown));
        assert_eq!(
            ticket.wait_timeout(Duration::from_secs(5)),
            Err(SiriusError::ShuttingDown)
        );
    }

    #[test]
    fn wait_timeout_near_duration_max_degrades_to_untimed_wait() {
        // Regression: `Instant::now() + Duration::MAX` panics on overflow;
        // an unrepresentable deadline must degrade to an untimed wait that
        // still observes the completion.
        for timeout in [Duration::MAX, Duration::MAX - Duration::from_nanos(1)] {
            let (state, ticket) = fresh_ticket();
            let completer = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                complete(&state, Err(SiriusError::ShuttingDown));
            });
            assert_eq!(ticket.wait_timeout(timeout), Err(SiriusError::ShuttingDown));
            completer.join().unwrap();
        }
    }

    #[test]
    fn wait_timeout_wakes_on_completion_before_the_deadline() {
        let (state, ticket) = fresh_ticket();
        let completer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            complete(&state, Err(SiriusError::StagePanicked { stage: "qa" }));
        });
        let begun = Instant::now();
        assert_eq!(
            ticket.wait_timeout(Duration::from_secs(30)),
            Err(SiriusError::StagePanicked { stage: "qa" })
        );
        assert!(begun.elapsed() < Duration::from_secs(30));
        completer.join().unwrap();
    }
}
