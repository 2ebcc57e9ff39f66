//! The `voice` and `vision` workloads: an open-loop Poisson generator
//! against the in-process staged server, one submit thread and one
//! collector.
//!
//! Each query is timed from when it was *due*, so a generator that falls
//! behind charges the stall to the queries it delays; how late the
//! generator sent is reported on its own.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use sirius::error::SiriusError;
use sirius_obs::Snapshot;
use sirius_server::{ServerConfig, SiriusServer};

use crate::json::Json;
use crate::ledger::{Reference, Tally};
use crate::replay::replay_layers;
use crate::stats::{median, poisson_schedule, sorted, Arrival, Rng};
use crate::telemetry::{server_layer, server_refusals};
use crate::trace::Trace;
use crate::{build, finish_end_to_end, p, repeated_setup, stream, Args, Metrics, Report};

/// Rounds of interleaved phase blocks in an open-loop run.
const ROUNDS: usize = 5;

/// The measurements of one phase.
pub struct Phase {
    pub tally: Tally,
    /// Due-to-completion latency of each answered query.
    pub lat_ms: Vec<f64>,
    /// How late the generator sent each query.
    pub late_ms: Vec<f64>,
    /// Time spent inside `submit_with_deadline`.
    pub admit_us: Vec<f64>,
    /// Server telemetry at the phase's start and end.
    pub before: Snapshot,
    pub after: Snapshot,
    /// Spans, when traced.
    pub trace: Option<Trace>,
}

/// Drives `schedule` against `server` with deadline-aware admission at
/// `slo`, waits for every admitted query, and checks each answer against
/// the reference.
fn run_phase(
    server: &SiriusServer,
    reference: &Reference,
    schedule: &[Arrival],
    slo: Duration,
    epoch: Option<Instant>,
    first_request: u64,
) -> Phase {
    let before = server.metrics_snapshot();
    let (tx, rx) = mpsc::channel::<(u64, usize, Instant, sirius_server::Ticket)>();
    let mut tally = Tally::default();
    let mut late_ms = Vec::with_capacity(schedule.len());
    let mut admit_us = Vec::with_capacity(schedule.len());
    let mut submit_trace = epoch.map(Trace::new);

    let (collected, lat_ms, collect_trace) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut tally = Tally::default();
            let mut lat_ms = Vec::new();
            let mut trace = epoch.map(Trace::new);
            for (request, query, due, ticket) in rx {
                let admitted = ticket.submitted_at();
                match ticket.wait() {
                    Ok(response) => {
                        // The response's total is its sojourn from
                        // admission, so completion is exact however late
                        // this thread picks the ticket up.
                        let done = admitted + response.timing.total;
                        let latency = done.saturating_duration_since(due);
                        lat_ms.push(latency.as_secs_f64() * 1e3);
                        tally.answered(&reference.queries[query], &response, latency <= slo);
                        if let Some(trace) = trace.as_mut() {
                            trace.record("server.sojourn", admitted, done, None, request);
                        }
                    }
                    Err(SiriusError::DeadlineUnmeetable { .. }) => tally.expired += 1,
                    Err(e) => {
                        eprintln!("query {request} failed: {e}");
                        tally.errored += 1;
                    }
                }
            }
            (tally, lat_ms, trace)
        });

        let start = Instant::now() + Duration::from_millis(2);
        for (i, arrival) in schedule.iter().enumerate() {
            let request = first_request + i as u64;
            let input = reference.input(arrival.query).clone();
            let due = start + arrival.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let admission = server.submit_with_deadline(input, slo);
            let admitted = Instant::now();
            tally.sent += 1;
            late_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
            admit_us.push((admitted - sent).as_secs_f64() * 1e6);
            if let Some(trace) = submit_trace.as_mut() {
                trace.record("server.submit", sent, admitted, None, request);
            }
            match admission {
                Ok(ticket) => tx
                    .send((request, arrival.query, due, ticket))
                    .expect("the collector outlives the generator"),
                Err(SiriusError::DeadlineUnmeetable { .. } | SiriusError::Overloaded { .. }) => {
                    tally.shed += 1;
                }
                Err(e) => {
                    eprintln!("query {request} refused: {e}");
                    tally.errored += 1;
                }
            }
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });

    tally.add(&collected);
    if let (Some(trace), Some(other)) = (submit_trace.as_mut(), collect_trace) {
        trace.absorb(other);
    }
    Phase {
        tally,
        lat_ms,
        late_ms,
        admit_us,
        before,
        after: server.metrics_snapshot(),
        trace: submit_trace,
    }
}

/// Every block of one kind of phase in a run (say, all `low` blocks).
struct Blocks {
    name: &'static str,
    rate: f64,
    block: Duration,
    traced: bool,
    runs: Vec<Phase>,
}

impl Blocks {
    fn tally(&self) -> Tally {
        let mut total = Tally::default();
        for run in &self.runs {
            total.add(&run.tally);
        }
        total
    }

    /// Each block's latency percentile.
    fn latencies(&self, pct: f64) -> Result<Vec<f64>, String> {
        self.runs
            .iter()
            .map(|run| p(&sorted(&run.lat_ms), pct, self.name))
            .collect()
    }

    /// A latency percentile over the answers of every block.
    fn latency(&self, pct: f64) -> Result<f64, String> {
        let all: Vec<f64> = self
            .runs
            .iter()
            .flat_map(|run| run.lat_ms.iter().copied())
            .collect();
        p(&sorted(&all), pct, self.name)
    }

    /// The median over blocks of answers per second of schedule, counting
    /// only answers within the latency limit when `within` is set.
    fn rate_per_s(&self, within: bool) -> Result<f64, String> {
        let per: Vec<f64> = self
            .runs
            .iter()
            .map(|run| {
                let n = if within {
                    run.tally.within_slo
                } else {
                    run.tally.completed
                };
                n as f64 / self.block.as_secs_f64()
            })
            .collect();
        median(&per).ok_or(format!("{} ran no block", self.name))
    }

    /// The server telemetry windows of every block.
    fn windows(&self) -> Vec<(&Snapshot, &Snapshot)> {
        self.runs
            .iter()
            .map(|run| (&run.before, &run.after))
            .collect()
    }

    fn to_json(&self) -> Result<Json, String> {
        let nums = |v: Vec<f64>| Json::Arr(v.into_iter().map(Json::Num).collect());
        let late: Vec<f64> = self
            .runs
            .iter()
            .flat_map(|run| run.late_ms.iter().copied())
            .collect();
        Ok(Json::obj([
            ("phase", Json::Str(self.name.into())),
            ("rate_qps", Json::Num(self.rate)),
            ("blocks", Json::Num(self.runs.len() as f64)),
            ("block_seconds", Json::Num(self.block.as_secs_f64())),
            ("ledger", self.tally().to_json()),
            ("lat_p50_ms_per_block", nums(self.latencies(50.0)?)),
            ("lat_p95_ms_per_block", nums(self.latencies(95.0)?)),
            (
                "late_p95_ms",
                Json::Num(p(&sorted(&late), 95.0, self.name)?),
            ),
        ]))
    }
}

/// Runs the `voice` or `vision` workload.
pub fn run(args: &Args, epoch: Instant) -> Result<Report, String> {
    let workload = args.workload;
    let acoustic = workload.acoustic();
    let &(low_rate, over_rate) = args
        .rates
        .get(workload.name())
        .ok_or(format!("--rates has no rates for {}", workload.name()))?;
    let (built, setup_s) = repeated_setup(
        || {
            let built = build(workload, args.seed);
            let server = SiriusServer::start(
                Arc::clone(&built.sirius),
                ServerConfig {
                    acoustic,
                    ..ServerConfig::default()
                },
            );
            // Warm-up: every query once, so the admission estimator's
            // service meters are live before the first measured query.
            for (spec, input) in &built.queries {
                server
                    .process_sync(input.clone())
                    .map_err(|e| format!("warm-up query {:?} failed: {e}", spec.text))?;
            }
            Ok((built, server))
        },
        |(_, server)| server.shutdown(),
    )?;
    let (built, server) = built;
    let reference = Reference::compute(&built.sirius, built.queries, acoustic);

    // The phases run interleaved in ROUNDS rounds of short blocks, so each
    // phase samples the whole run rather than one stretch of it. Latency
    // percentiles pool every block's answers; rates are the median block.
    let round = |share: f64| Duration::from_secs_f64(args.seconds * share / ROUNDS as f64);
    let kinds: Vec<(&'static str, f64, Duration, bool)> = if args.trace {
        // Untraced and traced low blocks of equal length give the tracing
        // overhead; the traced blocks give the server's per-layer view.
        vec![
            ("low", low_rate, round(0.25), false),
            ("low.traced", low_rate, round(0.25), true),
            ("over.traced", over_rate, round(0.5), true),
        ]
    } else {
        vec![
            ("low", low_rate, round(0.5), false),
            ("over", over_rate, round(0.5), false),
        ]
    };
    let mut blocks: Vec<Blocks> = kinds
        .iter()
        .map(|&(name, rate, block, traced)| Blocks {
            name,
            rate,
            block,
            traced,
            runs: Vec::new(),
        })
        .collect();
    for r in 0..ROUNDS {
        for (k, kind) in blocks.iter_mut().enumerate() {
            let stream = stream::BLOCKS + (k * ROUNDS + r) as u64;
            let schedule = poisson_schedule(
                &mut Rng::new(args.seed, stream),
                kind.rate,
                kind.block,
                reference.len(),
            );
            let epoch = kind.traced.then_some(epoch);
            kind.runs.push(run_phase(
                &server,
                &reference,
                &schedule,
                args.slo,
                epoch,
                stream << 32,
            ));
        }
    }
    server.shutdown();

    let mut metrics = Metrics::default();
    let mut total = Tally::default();
    let mut late_ms = Vec::new();
    let mut phases = Vec::new();
    for kind in &blocks {
        total.add(&kind.tally());
        late_ms.extend(kind.runs.iter().flat_map(|run| run.late_ms.iter().copied()));
        phases.push(kind.to_json()?);
    }
    let (mut correct, mut ledger, mut trace) = (true, None, None);
    if args.trace {
        let [plain, low, over] = &blocks[..] else {
            unreachable!("three kinds of block when traced")
        };
        let plain_p50 = plain.latency(50.0)?;
        metrics.set(
            "obs.trace_overhead_pct",
            100.0 * (low.latency(50.0)? - plain_p50) / plain_p50,
        );
        server_layer(&mut metrics, &low.windows(), &[String::new()])?;
        server_refusals(&mut metrics, &over.windows(), &[String::new()]);
        let admit: Vec<f64> = low
            .runs
            .iter()
            .chain(&over.runs)
            .flat_map(|run| run.admit_us.iter().copied())
            .collect();
        metrics.set(
            "server.admit_us",
            p(&sorted(&admit), 50.0, "admission time")?,
        );
        metrics.set(
            "harness.late_p95_ms",
            p(&sorted(&late_ms), 95.0, "generator lateness")?,
        );
        metrics.set("cluster.replica_share_max", 1.0);
        for name in ["net.connect_us", "net.overhead_ms", "net.vm_kb_per_conn"] {
            metrics.set(name, 0.0);
        }
        let mut spans = Trace::new(epoch);
        for run in blocks.iter_mut().flat_map(|kind| kind.runs.iter_mut()) {
            if let Some(trace) = run.trace.take() {
                spans.absorb(trace);
            }
        }
        let (replay_trace, checks, ok) = replay_layers(
            &built.sirius,
            &reference,
            acoustic,
            true,
            &mut metrics,
            epoch,
        )?;
        spans.absorb(replay_trace);
        correct &= ok;
        ledger = Some(checks);
        trace = Some(spans);
    } else {
        let [low, over] = &blocks[..] else {
            unreachable!("two kinds of block untraced")
        };
        metrics.set("lat_p50_ms", low.latency(50.0)?);
        metrics.set("lat_p95_ms", low.latency(95.0)?);
        metrics.set("goodput_qps", over.rate_per_s(true)?);
        metrics.set("throughput_qps", over.rate_per_s(false)?);
        finish_end_to_end(&mut metrics, &total, &setup_s)?;
    }

    let mut detail = vec![("phases", Json::Arr(phases))];
    detail.extend(ledger.map(|checks| ("ledger", checks)));
    detail.push((
        "setup_s",
        Json::Arr(setup_s.iter().map(|&s| Json::Num(s)).collect()),
    ));
    correct &= total.mismatched == 0 && total.errored == 0 && total.balanced();
    Ok(Report {
        correct,
        attempted: total.sent,
        failed: total.errored + total.mismatched,
        metrics,
        detail,
        trace,
    })
}
