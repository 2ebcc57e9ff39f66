//! Streaming ASR serving with speculative downstream pipelining.
//!
//! The staged runtime's ASR workers normally see a whole utterance at once,
//! so a query's end-to-end latency is pinned at the **sum-of-stages floor**:
//! nothing downstream can start until the full decode finishes. This module
//! replays the utterance through [`sirius_speech::StreamingRecognizer`] in
//! paced chunks instead — modelling audio that *arrives over time* — and
//! exploits the recognizer's stable-prefix guarantee twice:
//!
//! 1. **Overlap**: the beam advances while later audio is still "arriving",
//!    so when the utterance ends only the clamped feature tail remains to
//!    decode. Measured from the end of audio arrival, ASR latency collapses
//!    from the full decode to the tail.
//! 2. **Speculation**: each time the committed prefix grows, the worker
//!    dispatches the prefix to a private speculation pool that runs the
//!    downstream stages (classify → IMM → QA, the exact
//!    [`Sirius::try_process_with`] order) on it. At utterance end the worker
//!    **reconciles**: if the latest speculation ran on exactly the final
//!    hypothesis, its payload is reused and the ticket completes
//!    immediately (`asr.spec_hit`); otherwise the query is forwarded
//!    through the ordinary classify queue (`asr.spec_miss`) and nothing
//!    downstream ever observes a wrong prefix.
//!
//! Both paths are bit-identical to the serial pipeline: the streaming
//! recognizer's final hypothesis equals batch `recognize_with_mode` by
//! construction, and the downstream stages are pure functions of the
//! recognized text and the image, so a payload computed speculatively on
//! the (confirmed) final text equals the one the staged path would compute.
//!
//! Degenerate audio — empty, or containing non-finite samples — is served
//! through the ordinary batch ASR stage instead of the streaming
//! recognizer, so malformed inputs produce byte-for-byte the serial
//! pipeline's response rather than a typed streaming error the serial path
//! would never surface.
//!
//! [`Sirius::try_process_with`]: sirius::pipeline::Sirius::try_process_with

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sirius::error::SiriusError;
use sirius::pipeline::{Sirius, SiriusResponse};
use sirius::stage::{
    AsrRequest, AsrResponse, ClassifyRequest, ClassifyResponse, ImmRequest, ImmResponse, QaRequest,
    QaResponse,
};
use sirius_obs::{Recorder, SpanKind};
use sirius_par::queue::{bounded, Receiver, Sender};
use sirius_speech::features::SAMPLE_RATE;
use sirius_vision::image::GrayImage;

use crate::metrics::{ServerMetrics, StreamObs};
use crate::pool::Job;
use crate::runtime::{finish, Ctx, Exit, ServerConfig};

/// Governs streaming ASR service: chunked ingestion pacing and speculative
/// downstream dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamPolicy {
    /// Audio duration ingested per chunk. `Duration::ZERO` (the default)
    /// disables streaming entirely: the runtime serves the ordinary
    /// whole-utterance ASR stage.
    pub chunk: Duration,
    /// Arrival pacing as a fraction of real time: chunk `k` is pushed no
    /// earlier than `pacing × (audio seconds through k)` after admission.
    /// `0.0` replays chunks back-to-back (useful for equivalence tests);
    /// `1.0` models live microphone capture.
    pub pacing: f64,
    /// Whether committed prefixes are speculatively forwarded downstream.
    /// Off, streaming still overlaps decode with arrival but every query
    /// routes through the classify queue at the end.
    pub speculate: bool,
}

impl Default for StreamPolicy {
    fn default() -> Self {
        Self {
            chunk: Duration::ZERO,
            pacing: 0.0,
            speculate: false,
        }
    }
}

impl StreamPolicy {
    /// A streaming policy ingesting `chunk` of audio at a time.
    pub fn new(chunk: Duration) -> Self {
        Self {
            chunk,
            ..Self::default()
        }
    }

    /// Sets the arrival pacing factor.
    pub fn with_pacing(mut self, pacing: f64) -> Self {
        self.pacing = pacing;
        self
    }

    /// Enables speculative downstream dispatch on committed prefixes.
    pub fn with_speculation(mut self) -> Self {
        self.speculate = true;
        self
    }

    /// Whether this policy calls for the streaming ASR stage at all.
    pub fn is_streaming(&self) -> bool {
        self.chunk > Duration::ZERO
    }

    /// Samples per ingestion chunk (at least 1).
    pub fn chunk_samples(&self) -> usize {
        ((self.chunk.as_secs_f64() * SAMPLE_RATE as f64).round() as usize).max(1)
    }
}

/// A speculatively computed downstream payload: everything the final
/// response needs past ASR. `imm`/`qa` are present exactly when the
/// classifier routed the text to the question path.
struct SpecPayload {
    classify: ClassifyResponse,
    imm: Option<ImmResponse>,
    qa: Option<QaResponse>,
}

/// One finished speculation: the prefix it ran on and what it produced.
struct SpecResult {
    generation: u64,
    text: String,
    payload: Result<SpecPayload, SiriusError>,
}

struct SpecInner {
    /// Highest generation dispatched so far; later prefixes supersede
    /// earlier ones, so workers skip jobs whose generation is stale.
    generation: u64,
    /// Dispatched-but-unfinished jobs; reconcile waits for zero so no
    /// speculation thread still holds the query's image when the ticket
    /// completes.
    outstanding: usize,
    /// The latest-generation finished speculation (latest wins).
    deposit: Option<SpecResult>,
}

/// Per-query rendezvous between the ASR worker and the speculation pool.
struct SpecCell {
    inner: Mutex<SpecInner>,
    done: Condvar,
}

impl SpecCell {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(SpecInner {
                generation: 0,
                outstanding: 0,
                deposit: None,
            }),
            done: Condvar::new(),
        })
    }
}

/// One speculative unit of work: run the downstream stages on `text`.
struct SpecJob {
    cell: Arc<SpecCell>,
    generation: u64,
    text: String,
    image: Option<GrayImage>,
}

/// Runs classify → IMM → QA on `text` exactly as the staged path would:
/// the same stage methods in the same order, so the payload is
/// bit-identical to what the queues would produce for the same text.
fn run_downstream(
    sirius: &Sirius,
    text: String,
    image: Option<GrayImage>,
) -> Result<SpecPayload, SiriusError> {
    let classify = sirius.stage_classify(ClassifyRequest {
        recognized: text.clone(),
    })?;
    if classify.action.is_some() {
        return Ok(SpecPayload {
            classify,
            imm: None,
            qa: None,
        });
    }
    let imm = sirius.stage_imm(ImmRequest {
        question: text,
        image,
    })?;
    let qa = sirius.stage_qa(QaRequest {
        question: imm.question.clone(),
    })?;
    Ok(SpecPayload {
        classify,
        imm: Some(imm),
        qa: Some(qa),
    })
}

/// Spawns the speculation pool: `workers` threads draining `rx`, running
/// each job's downstream stages and depositing the latest-generation
/// result into the job's cell. Threads exit when every sender is dropped
/// (the ASR workers own the senders, so the pool outlives every query).
fn spawn_spec_pool(
    sirius: Arc<Sirius>,
    workers: usize,
    rx: Receiver<SpecJob>,
) -> Vec<JoinHandle<()>> {
    (0..workers.max(1))
        .map(|i| {
            let sirius = Arc::clone(&sirius);
            let rx = rx.clone();
            std::thread::Builder::new()
                .name(format!("sirius-asr-spec-{i}"))
                .spawn(move || {
                    while let Some(job) = rx.recv() {
                        let stale = {
                            let inner = job.cell.inner.lock().expect("spec lock");
                            job.generation < inner.generation
                        };
                        let payload = if stale {
                            None
                        } else {
                            let text = job.text.clone();
                            let image = job.image.clone();
                            Some(
                                catch_unwind(AssertUnwindSafe(|| {
                                    run_downstream(&sirius, text, image)
                                }))
                                .unwrap_or(Err(SiriusError::StagePanicked { stage: "asr" })),
                            )
                        };
                        let mut inner = job.cell.inner.lock().expect("spec lock");
                        if let Some(payload) = payload {
                            let newer = inner
                                .deposit
                                .as_ref()
                                .is_none_or(|d| d.generation < job.generation);
                            if newer {
                                inner.deposit = Some(SpecResult {
                                    generation: job.generation,
                                    text: job.text,
                                    payload,
                                });
                            }
                        }
                        inner.outstanding = inner.outstanding.saturating_sub(1);
                        job.cell.done.notify_all();
                    }
                })
                .expect("spawn spec worker")
        })
        .collect()
}

/// What one streaming serve produced. One short-lived value per query,
/// consumed by the worker loop immediately — not worth boxing.
#[allow(clippy::large_enum_variant)]
enum Served {
    /// An ASR result to route through the ordinary classify queue (the
    /// no-speculation path, a speculation miss, or an error).
    Asr(Result<AsrResponse, SiriusError>),
    /// A confirmed speculation: ASR plus the whole downstream payload —
    /// the ticket completes without touching another queue.
    Complete {
        asr: AsrResponse,
        payload: SpecPayload,
    },
}

/// Sleeps until `due` (absolute); `None` (unrepresentable) never arrives,
/// so it is treated as "already due".
fn wait_until(due: Option<Instant>) {
    if let Some(due) = due {
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
    }
}

/// Serves one query through the streaming recognizer: paced chunk
/// ingestion, partial-commit telemetry, speculative dispatch, and the
/// final reconcile. See the module docs for the full story.
fn serve_streaming(
    sirius: &Sirius,
    policy: StreamPolicy,
    stream_obs: &StreamObs,
    spec_tx: Option<&Sender<SpecJob>>,
    ctx: &Ctx,
    req: AsrRequest,
) -> Served {
    // Degenerate audio takes the batch stage so the response (including
    // error behaviour) is byte-identical to the serial pipeline's.
    if req.audio.is_empty() || req.audio.iter().any(|s| !s.is_finite()) {
        return Served::Asr(sirius.stage_asr(req));
    }

    let mut rec = sirius.asr().streaming(req.acoustic);

    let spec_cell = spec_tx.map(|_| SpecCell::new());
    let chunk_samples = policy.chunk_samples();
    let mut last_committed = 0usize;
    let mut arrived = 0usize;
    for chunk in req.audio.chunks(chunk_samples) {
        arrived += chunk.len();
        if policy.pacing > 0.0 {
            let offset = policy.pacing * arrived as f64 / SAMPLE_RATE as f64;
            wait_until(ctx.started.checked_add(Duration::from_secs_f64(offset)));
        }
        let push_begun = Instant::now();
        let progress = match rec.push_chunk(chunk) {
            Ok(progress) => progress,
            // Unreachable (audio was pre-validated), but a typed error
            // must never panic a worker.
            Err(e) => return Served::Asr(Err(e.into())),
        };
        if progress.committed_words > last_committed {
            stream_obs.partials_emitted.inc();
            stream_obs
                .commit_latency
                .record_duration(push_begun.elapsed());
            if last_committed == 0 {
                stream_obs
                    .first_partial
                    .record_duration(ctx.started.elapsed());
            }
            if let (Some(tx), Some(cell)) = (spec_tx, &spec_cell) {
                let generation = {
                    let mut inner = cell.inner.lock().expect("spec lock");
                    inner.generation += 1;
                    inner.outstanding += 1;
                    inner.generation
                };
                let job = SpecJob {
                    cell: Arc::clone(cell),
                    generation,
                    text: rec.committed_text(),
                    image: ctx.image.clone(),
                };
                if tx.try_send(job).is_ok() {
                    stream_obs.spec_dispatched.inc();
                } else {
                    // Queue full (or closing): retract the reservation so
                    // reconcile does not wait for a job that never ran.
                    let mut inner = cell.inner.lock().expect("spec lock");
                    inner.outstanding = inner.outstanding.saturating_sub(1);
                    cell.done.notify_all();
                }
            }
            last_committed = progress.committed_words;
        }
    }

    let out = match rec.finish() {
        Ok(out) => out,
        Err(e) => return Served::Asr(Err(e.into())),
    };
    let asr_resp = AsrResponse {
        recognized: out.text,
        timing: out.timing,
    };

    // Reconcile: wait for every dispatched speculation (so none still
    // borrows the query), then reuse the deposit iff it ran on exactly
    // the final hypothesis and succeeded.
    if let Some(cell) = spec_cell {
        let deposit = {
            let mut inner = cell.inner.lock().expect("spec lock");
            while inner.outstanding > 0 {
                inner = cell.done.wait(inner).expect("spec lock");
            }
            inner.deposit.take()
        };
        let dispatched_any = deposit.is_some() || last_committed > 0;
        if let Some(result) = deposit {
            if result.text == asr_resp.recognized {
                if let Ok(payload) = result.payload {
                    stream_obs.spec_hit.inc();
                    return Served::Complete {
                        asr: asr_resp,
                        payload,
                    };
                }
            }
            stream_obs.spec_miss.inc();
        } else if dispatched_any {
            stream_obs.spec_miss.inc();
        }
    }
    Served::Asr(Ok(asr_resp))
}

/// The response of a confirmed speculation: records the ASR result and the
/// speculative downstream payload in `ctx` exactly as the staged routes in
/// `runtime.rs` would, then builds the response the same way they do.
fn assemble(ctx: &mut Ctx, asr: AsrResponse, payload: SpecPayload) -> SiriusResponse {
    ctx.recognized = asr.recognized;
    ctx.asr_timing = asr.timing;
    ctx.classify = payload.classify.elapsed;
    if let Some(action) = payload.classify.action {
        return ctx.respond(Exit::Action(action));
    }
    let imm = payload.imm.expect("question payload carries IMM");
    ctx.imm_timing = imm.timing;
    ctx.matched_venue = imm.matched_venue;
    ctx.respond(Exit::Answer(
        payload.qa.expect("question payload carries QA"),
    ))
}

/// Spawns the streaming ASR stage: `config.asr.workers` serving threads
/// plus (when speculation is on) an equal-sized speculation pool. Mirrors
/// the generic pool's instrumentation — queue wait, expiry at dequeue,
/// in-flight/service accounting, `catch_unwind` survival — and routes
/// each query either through `route` (into the classify queue) or, on a
/// confirmed speculation, straight to ticket completion.
pub(crate) fn spawn_streaming_stages<R, E>(
    sirius: Arc<Sirius>,
    config: &ServerConfig,
    rx: Receiver<Job<Ctx, AsrRequest>>,
    metrics: Arc<ServerMetrics>,
    recorder: Arc<dyn Recorder>,
    route: R,
    on_expired: E,
) -> Vec<JoinHandle<()>>
where
    R: Fn(Ctx, Result<AsrResponse, SiriusError>) + Send + Sync + Clone + 'static,
    E: Fn(Ctx) + Send + Sync + Clone + 'static,
{
    let policy = config.stream;
    let asr_workers = config.asr.workers.max(1);
    let mut workers = Vec::new();
    // The spec pool's queue is sized so a full ASR pool can have several
    // prefixes in flight each; overflow degrades to a dropped speculation,
    // never to blocking the decode loop.
    let spec_tx = if policy.speculate {
        let (tx, spec_rx) = bounded::<SpecJob>(config.asr.queue_depth.max(asr_workers * 4));
        workers.extend(spawn_spec_pool(Arc::clone(&sirius), asr_workers, spec_rx));
        Some(tx)
    } else {
        None
    };

    for i in 0..asr_workers {
        let sirius = Arc::clone(&sirius);
        let rx = rx.clone();
        let obs = Arc::clone(&metrics.asr);
        let stream_obs = Arc::clone(&metrics.stream);
        let metrics = Arc::clone(&metrics);
        let recorder = Arc::clone(&recorder);
        let spec_tx = spec_tx.clone();
        let route = route.clone();
        let on_expired = on_expired.clone();
        workers.push(
            std::thread::Builder::new()
                .name(format!("sirius-asr-{i}"))
                .spawn(move || {
                    while let Some(Job {
                        mut ctx,
                        req,
                        enqueued,
                        deadline,
                    }) = rx.recv()
                    {
                        let wait = enqueued.elapsed();
                        obs.queue_wait.record_duration(wait);
                        if recorder.enabled() {
                            recorder.record("asr", SpanKind::QueueWait, wait);
                        }
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            obs.expired.inc();
                            on_expired(ctx);
                            continue;
                        }
                        obs.in_flight.inc();
                        let begun = Instant::now();
                        let served = catch_unwind(AssertUnwindSafe(|| {
                            serve_streaming(
                                &sirius,
                                policy,
                                &stream_obs,
                                spec_tx.as_ref(),
                                &ctx,
                                req,
                            )
                        }));
                        let service = begun.elapsed();
                        obs.in_flight.dec();
                        obs.service.record_duration(service);
                        obs.service_meter.record_duration(service);
                        if recorder.enabled() {
                            recorder.record("asr", SpanKind::Service, service);
                        }
                        let served = served.unwrap_or_else(|_| {
                            obs.panics.inc();
                            Served::Asr(Err(SiriusError::StagePanicked { stage: "asr" }))
                        });
                        match served {
                            Served::Asr(result) => route(ctx, result),
                            Served::Complete { asr, payload } => {
                                let response = assemble(&mut ctx, asr, payload);
                                finish(&metrics, recorder.as_ref(), &ctx, Ok(response));
                            }
                        }
                    }
                    // The worker's `spec_tx` clone drops here; once every
                    // ASR worker exits the spec queue closes and the pool
                    // drains and joins cleanly.
                })
                .expect("spawn streaming asr worker"),
        );
    }
    workers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_not_streaming() {
        let policy = StreamPolicy::default();
        assert!(!policy.is_streaming());
        assert!(!policy.speculate);
        assert_eq!(policy.pacing, 0.0);
    }

    #[test]
    fn chunk_samples_converts_duration_to_samples() {
        let policy = StreamPolicy::new(Duration::from_millis(100));
        assert!(policy.is_streaming());
        assert_eq!(policy.chunk_samples(), SAMPLE_RATE / 10);
        // Sub-sample chunks clamp to one sample rather than zero.
        assert_eq!(
            StreamPolicy::new(Duration::from_nanos(1)).chunk_samples(),
            1
        );
    }

    #[test]
    fn policy_builders_compose() {
        let policy = StreamPolicy::new(Duration::from_millis(80))
            .with_pacing(0.25)
            .with_speculation();
        assert!(policy.is_streaming());
        assert!(policy.speculate);
        assert_eq!(policy.pacing, 0.25);
    }
}
