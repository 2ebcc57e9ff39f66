//! The `remote` workload: closed-loop clients over loopback TCP against a
//! `NetServer` fronting a 2-replica `SiriusCluster`.
//!
//! Client A keeps one connection for the whole run; client B opens a fresh
//! connection for every query, which is what exposes per-connection
//! resource growth in the front-end. Each client speaks the frame protocol
//! through the program's public `Frame::encode` and `read_frame`, so the
//! encode and decode of every frame can be timed from here.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use sirius::error::{ClusterError, SiriusError};
use sirius_server::{
    read_frame, ClusterConfig, Frame, FrameRead, NetClient, NetConfig, NetServer, ServerConfig,
    SiriusCluster, SubmitFrame, TenantClass, WireFault,
};
use sirius_speech::asr::AcousticModelKind;

use crate::json::Json;
use crate::ledger::{Reference, Tally};
use crate::replay::replay_layers;
use crate::stats::{mean, sorted, Rng};
use crate::telemetry::{counter_delta, server_layer, server_refusals};
use crate::trace::Trace;
use crate::{
    build, finish_end_to_end, p, repeated_setup, stream, vm_kb, Args, Metrics, Report, Workload,
};

/// Loopback replicas behind the `remote` front-end.
const REMOTE_REPLICAS: u32 = 2;

/// The tenant classes queries rotate through, in order.
pub const CLASSES: [&str; 3] = ["premium", "standard", "best_effort"];

/// One client's measurements.
#[derive(Default)]
pub struct ClientRun {
    pub tally: Tally,
    /// Round-trip time of each answered query, connect included.
    pub rtt_ms: Vec<f64>,
    /// Round trip minus the server's own sojourn for the query.
    pub overhead_ms: Vec<f64>,
    pub connect_us: Vec<f64>,
    pub encode_us: Vec<f64>,
    pub decode_us: Vec<f64>,
    pub submit_bytes: Vec<f64>,
    pub answer_bytes: Vec<f64>,
    pub connections: u64,
    pub trace: Option<Trace>,
}

impl ClientRun {
    pub fn add(&mut self, other: ClientRun) {
        self.tally.add(&other.tally);
        self.rtt_ms.extend(other.rtt_ms);
        self.overhead_ms.extend(other.overhead_ms);
        self.connect_us.extend(other.connect_us);
        self.encode_us.extend(other.encode_us);
        self.decode_us.extend(other.decode_us);
        self.submit_bytes.extend(other.submit_bytes);
        self.answer_bytes.extend(other.answer_bytes);
        self.connections += other.connections;
        match (&mut self.trace, other.trace) {
            (Some(mine), Some(theirs)) => mine.absorb(theirs),
            (mine @ None, theirs) => *mine = theirs,
            _ => {}
        }
    }
}

/// Records when the first byte of a read arrives, so the decode of a frame
/// can be told apart from the wait for it.
struct FirstByte<'a> {
    inner: &'a mut TcpStream,
    first: Option<Instant>,
    bytes: usize,
}

impl Read for FirstByte<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n;
        if n > 0 && self.first.is_none() {
            self.first = Some(Instant::now());
        }
        Ok(n)
    }
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Runs one closed-loop client until `end`: draw a query from `rng`, send
/// it under the next tenant class, wait for the answer, repeat.
#[allow(clippy::too_many_arguments)]
fn run_client(
    addr: SocketAddr,
    persistent: bool,
    reference: &Reference,
    mut rng: Rng,
    end: Instant,
    slo: Duration,
    epoch: Option<Instant>,
    request_base: u64,
) -> ClientRun {
    let mut run = ClientRun {
        trace: epoch.map(Trace::new),
        ..ClientRun::default()
    };
    let mut kept: Option<TcpStream> = None;
    let mut i = 0u64;
    while Instant::now() < end {
        let request = request_base + i;
        let query = rng.below(reference.len());
        let input = reference.input(query);
        let frame = Frame::Submit(SubmitFrame {
            tenant_class: CLASSES[(i % 3) as usize].to_owned(),
            deadline_ns: 0,
            audio: input.audio.clone(),
            image: input.image.clone(),
        });
        i += 1;
        run.tally.sent += 1;

        let t0 = Instant::now();
        let rtt_span = run.trace.as_mut().map(|t| t.open("net.rtt", None, request));
        let mut fresh = None;
        let stream = match (persistent, &mut kept) {
            (true, Some(stream)) => stream,
            _ => {
                let c0 = Instant::now();
                let stream = match connect(addr) {
                    Ok(stream) => stream,
                    Err(e) => {
                        eprintln!("connect failed: {e}");
                        run.tally.errored += 1;
                        continue;
                    }
                };
                let c1 = Instant::now();
                run.connections += 1;
                run.connect_us.push((c1 - c0).as_secs_f64() * 1e6);
                if let Some(trace) = run.trace.as_mut() {
                    trace.record("net.connect", c0, c1, rtt_span, request);
                }
                if persistent {
                    kept.insert(stream)
                } else {
                    fresh.insert(stream)
                }
            }
        };

        let e0 = Instant::now();
        let bytes = frame.encode();
        let e1 = Instant::now();
        run.encode_us.push((e1 - e0).as_secs_f64() * 1e6);
        run.submit_bytes.push(bytes.len() as f64);
        if let Some(trace) = run.trace.as_mut() {
            trace.record("wire.encode", e0, e1, rtt_span, request);
        }
        if let Err(e) = stream.write_all(&bytes) {
            eprintln!("send failed: {e}");
            run.tally.errored += 1;
            kept = None;
            continue;
        }
        let mut reader = FirstByte {
            inner: stream,
            first: None,
            bytes: 0,
        };
        let read = read_frame(&mut reader);
        let t1 = Instant::now();
        let first = reader.first.unwrap_or(t1);
        let answer_bytes = reader.bytes;
        if let (Some(trace), Some(span)) = (run.trace.as_mut(), rtt_span) {
            trace.record("wire.decode", first, t1, Some(span), request);
            trace.close(span);
        }
        let rtt = t1 - t0;
        match read {
            FrameRead::Frame(Frame::Answer(response)) => {
                run.decode_us.push((t1 - first).as_secs_f64() * 1e6);
                run.answer_bytes.push(answer_bytes as f64);
                run.rtt_ms.push(rtt.as_secs_f64() * 1e3);
                run.overhead_ms
                    .push(rtt.saturating_sub(response.timing.total).as_secs_f64() * 1e3);
                run.tally
                    .answered(&reference.queries[query], &response, rtt <= slo);
            }
            // Over the wire an admission refusal and a deadline expiry both
            // arrive as `DeadlineUnmeetable`; both are the server's
            // overload response and are booked as shed.
            FrameRead::Frame(Frame::Error(WireFault::Cluster(ClusterError::Replica {
                source: SiriusError::DeadlineUnmeetable { .. } | SiriusError::Overloaded { .. },
                ..
            }))) => run.tally.shed += 1,
            other => {
                eprintln!("query {request}: unexpected reply {other:?}");
                run.tally.errored += 1;
                kept = None;
            }
        }
    }
    run
}

/// Both closed-loop clients against `addr` for `span`.
fn run_clients(
    addr: SocketAddr,
    reference: &Reference,
    args: &Args,
    span: Duration,
    epoch: Option<Instant>,
    base: u64,
) -> ClientRun {
    let end = Instant::now() + span;
    std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            run_client(
                addr,
                true,
                reference,
                Rng::new(args.seed, stream::CLIENT_A),
                end,
                args.slo,
                epoch,
                base,
            )
        });
        let b = scope.spawn(|| {
            run_client(
                addr,
                false,
                reference,
                Rng::new(args.seed, stream::CLIENT_B),
                end,
                args.slo,
                epoch,
                base + (1 << 30),
            )
        });
        let mut run = a.join().expect("client A panicked");
        run.add(b.join().expect("client B panicked"));
        run
    })
}

/// Runs the `remote` workload.
pub fn run(args: &Args, epoch: Instant) -> Result<Report, String> {
    let classes: Vec<TenantClass> = CLASSES
        .iter()
        .zip([(2, 3), (1, 2), (0, 1)])
        .map(|(name, (priority, weight))| TenantClass::new(name, priority, args.tenant_slo, weight))
        .collect();
    let ((built, net), setup_s) = repeated_setup(
        || {
            let built = build(Workload::Remote, args.seed);
            let cluster = SiriusCluster::start(
                &built.sirius,
                ClusterConfig::new(REMOTE_REPLICAS)
                    .with_server(ServerConfig::default().with_tenant_classes(classes.clone())),
            )
            .map_err(|e| format!("cluster start failed: {e}"))?;
            let net = NetServer::serve(cluster, "127.0.0.1:0", NetConfig::default())
                .map_err(|e| format!("listener start failed: {e}"))?;
            let mut client = NetClient::connect(net.local_addr())
                .map_err(|e| format!("warm-up connect failed: {e}"))?;
            for (i, (spec, input)) in built.queries.iter().enumerate() {
                client
                    .submit(input, CLASSES[i % 3], None)
                    .map_err(|e| format!("warm-up query {:?} failed: {e}", spec.text))?;
            }
            Ok((built, net))
        },
        |(_, net)| net.shutdown(),
    )?;
    let reference = Reference::compute(&built.sirius, built.queries, AcousticModelKind::Gmm);
    let addr = net.local_addr();
    let prefixes: Vec<String> = (0..REMOTE_REPLICAS)
        .map(|i| format!("replica{i}."))
        .collect();

    let mut metrics = Metrics::default();
    let vm_before = vm_kb("VmSize")?;
    let (run, traced) = if args.trace {
        let half = Duration::from_secs_f64(args.seconds / 2.0);
        let plain = run_clients(addr, &reference, args, half, None, 0);
        let before = net.cluster().metrics_snapshot();
        let mut traced = run_clients(addr, &reference, args, half, Some(epoch), 1 << 32);
        let after = net.cluster().metrics_snapshot();
        let plain_p50 = p(&sorted(&plain.rtt_ms), 50.0, "untraced round trips")?;
        let traced_p50 = p(&sorted(&traced.rtt_ms), 50.0, "traced round trips")?;
        metrics.set(
            "obs.trace_overhead_pct",
            100.0 * (traced_p50 - plain_p50) / plain_p50,
        );
        server_layer(&mut metrics, &[(&before, &after)], &prefixes)?;
        server_refusals(&mut metrics, &[(&before, &after)], &prefixes);
        let accepted: Vec<u64> = prefixes
            .iter()
            .map(|prefix| counter_delta(&before, &after, &format!("{prefix}admission.accepted")))
            .collect();
        let all: u64 = accepted.iter().sum();
        if all == 0 {
            return Err("no replica admitted a query in the traced window".into());
        }
        metrics.set(
            "cluster.replica_share_max",
            *accepted.iter().max().expect("replicas") as f64 / all as f64,
        );
        let spans = traced.trace.take();
        let mut both = plain;
        both.add(traced);
        (both, spans)
    } else {
        (
            run_clients(
                addr,
                &reference,
                args,
                Duration::from_secs_f64(args.seconds),
                None,
                0,
            ),
            None,
        )
    };
    let vm_after = vm_kb("VmSize")?;
    net.shutdown();

    let mut correct = run.tally.mismatched == 0 && run.tally.errored == 0 && run.tally.balanced();
    let mut detail = vec![(
        "phases",
        Json::Arr(vec![Json::obj([
            ("phase", Json::Str("closed_loop".into())),
            ("clients", Json::Num(2.0)),
            ("seconds", Json::Num(args.seconds)),
            ("connections", Json::Num(run.connections as f64)),
            ("vm_growth_mb", Json::Num((vm_after - vm_before) / 1024.0)),
            ("ledger", run.tally.to_json()),
        ])]),
    )];
    let mut trace = None;
    if args.trace {
        let (replay_trace, checks, ok) = replay_layers(
            &built.sirius,
            &reference,
            AcousticModelKind::Gmm,
            false,
            &mut metrics,
            epoch,
        )?;
        correct &= ok;
        detail.push(("ledger", checks));
        let mut spans = traced.expect("traced clients keep spans");
        spans.absorb(replay_trace);
        trace = Some(spans);
        metrics.set(
            "wire.encode_us",
            p(&sorted(&run.encode_us), 50.0, "encodes")?,
        );
        metrics.set(
            "wire.decode_us",
            p(&sorted(&run.decode_us), 50.0, "decodes")?,
        );
        metrics.set(
            "wire.submit_bytes",
            mean(&run.submit_bytes).ok_or("no submits")?,
        );
        metrics.set(
            "wire.answer_bytes",
            mean(&run.answer_bytes).ok_or("no answers")?,
        );
        metrics.set(
            "net.connect_us",
            p(&sorted(&run.connect_us), 50.0, "connects")?,
        );
        metrics.set(
            "net.overhead_ms",
            p(&sorted(&run.overhead_ms), 50.0, "round trips")?,
        );
        if run.connections == 0 {
            return Err("no connection was opened".into());
        }
        metrics.set(
            "net.vm_kb_per_conn",
            (vm_after - vm_before) / run.connections as f64,
        );
        // The closed loop has no schedule to fall behind, and admission
        // happens server-side where this harness cannot time it.
        metrics.set("harness.late_p95_ms", 0.0);
        metrics.set("server.admit_us", 0.0);
    } else {
        let rtt = sorted(&run.rtt_ms);
        metrics.set("lat_p50_ms", p(&rtt, 50.0, "round trips")?);
        metrics.set("lat_p95_ms", p(&rtt, 95.0, "round trips")?);
        metrics.set("goodput_qps", run.tally.within_slo as f64 / args.seconds);
        metrics.set("throughput_qps", run.tally.completed as f64 / args.seconds);
        finish_end_to_end(&mut metrics, &run.tally, &setup_s)?;
    }
    detail.push((
        "setup_s",
        Json::Arr(setup_s.iter().map(|&s| Json::Num(s)).collect()),
    ));
    Ok(Report {
        correct,
        attempted: run.tally.sent,
        failed: run.tally.errored + run.tally.mismatched,
        metrics,
        detail,
        trace,
    })
}
