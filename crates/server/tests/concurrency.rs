//! Concurrent-serving gates for the staged runtime.
//!
//! 1. The staged path must produce per-query outputs identical to the
//!    serial monolithic `Sirius::process` — for the full 42-query input
//!    set, and while N client threads hammer the runtime concurrently.
//! 2. Admission control must *reject* (typed `Overloaded`), never deadlock,
//!    when the bounded queues fill.
//! 3. Shutdown must drain every accepted query.

use std::sync::{Arc, OnceLock};

use sirius::error::SiriusError;
use sirius::pipeline::{Sirius, SiriusConfig, SiriusInput, SiriusOutcome, SiriusResponse};
use sirius::prepare_input_set;
use sirius_server::{ServerConfig, SiriusServer};

static SIRIUS: OnceLock<Arc<Sirius>> = OnceLock::new();

/// Building Sirius trains every model (seconds); share one instance across
/// the whole test binary.
fn shared_sirius() -> Arc<Sirius> {
    Arc::clone(SIRIUS.get_or_init(|| Arc::new(Sirius::build(SiriusConfig::default()))))
}

/// The fields that must match bit-for-bit (timing is wall-clock and always
/// differs between runs).
fn payload(r: &SiriusResponse) -> (String, SiriusOutcome, Option<String>) {
    (
        r.recognized.clone(),
        r.outcome.clone(),
        r.matched_venue.clone(),
    )
}

#[test]
fn staged_outputs_identical_for_full_input_set() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 4242);
    assert_eq!(prepared.len(), 42);
    let serial: Vec<_> = prepared
        .iter()
        .map(|p| sirius.process(&p.input()))
        .collect();

    let server = SiriusServer::start(Arc::clone(&sirius), ServerConfig::default());
    for (p, expect) in prepared.iter().zip(&serial) {
        let staged = server
            .process_sync(p.input())
            .unwrap_or_else(|e| panic!("{} failed: {e}", p.spec.text));
        assert_eq!(payload(&staged), payload(expect), "{}", p.spec.text);
    }
    server.shutdown();
}

#[test]
fn concurrent_asr_workers_match_serial_pipeline() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 4242);
    let serial: Vec<_> = prepared
        .iter()
        .map(|p| sirius.process(&p.input()))
        .collect();

    // The default per-core ASR pool, but never fewer than two workers, so
    // even a 1-core machine decodes concurrently. The whole set is
    // submitted as one burst, deep enough that nothing is shed.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut config = ServerConfig::default().with_queue_depth(64);
    config.asr.workers = cores.max(2);
    let server = SiriusServer::start(Arc::clone(&sirius), config);
    let tickets: Vec<_> = prepared
        .iter()
        .map(|p| server.submit(p.input()).expect("queue deep enough"))
        .collect();
    for ((p, ticket), expect) in prepared.iter().zip(tickets).zip(&serial) {
        let staged = ticket
            .wait()
            .unwrap_or_else(|e| panic!("{} failed: {e}", p.spec.text));
        assert_eq!(payload(&staged), payload(expect), "{}", p.spec.text);
    }
    let snap = server.metrics_snapshot();
    assert_eq!(
        snap.histogram("asr.service_ns").unwrap().count,
        prepared.len() as u64
    );
    server.shutdown();
}

#[test]
fn concurrent_clients_match_serial_pipeline() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 777);
    let serial: Vec<_> = prepared
        .iter()
        .map(|p| sirius.process(&p.input()))
        .collect();

    // 4 heavy-stage workers, queues deep enough that nothing is shed: this
    // test is about output equivalence under real interleaving.
    let server = SiriusServer::start(
        Arc::clone(&sirius),
        ServerConfig::with_workers(4).with_queue_depth(256),
    );
    const CLIENTS: usize = 4;
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let server = &server;
            let prepared = &prepared;
            let serial = &serial;
            scope.spawn(move || {
                // Each client walks the full set from a different offset so
                // all stages see mixed query kinds at once.
                for i in 0..prepared.len() {
                    let at = (i + client * 11) % prepared.len();
                    let p = &prepared[at];
                    let staged = server
                        .process_sync(p.input())
                        .unwrap_or_else(|e| panic!("client {client}: {} failed: {e}", p.spec.text));
                    assert_eq!(
                        payload(&staged),
                        payload(&serial[at]),
                        "client {client}: {}",
                        p.spec.text
                    );
                }
            });
        }
    });
    server.shutdown();
}

#[test]
fn admission_control_sheds_rather_than_deadlocks() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 31415);

    // One worker everywhere and depth-1 queues: a burst must overflow.
    let server = SiriusServer::start(
        Arc::clone(&sirius),
        ServerConfig::with_workers(1).with_queue_depth(1),
    );
    let mut accepted = Vec::new();
    let mut shed = 0usize;
    // Submit a burst far faster than one ASR worker can drain it.
    for _ in 0..3 {
        for p in prepared.iter() {
            match server.submit(p.input()) {
                Ok(ticket) => accepted.push(ticket),
                Err(SiriusError::Overloaded { stage }) => {
                    assert_eq!(stage, "asr", "shedding happens at admission");
                    shed += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
    }
    assert!(shed > 0, "depth-1 queues must shed under a 126-query burst");
    assert!(!accepted.is_empty(), "an idle server must accept work");
    // Every accepted query completes (no deadlock, no lost tickets).
    for ticket in accepted {
        ticket.wait().expect("accepted queries complete");
    }
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_queries() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 555);
    let server = SiriusServer::start(
        Arc::clone(&sirius),
        ServerConfig::default().with_queue_depth(64),
    );
    let tickets: Vec<_> = prepared
        .iter()
        .take(12)
        .map(|p| server.submit(p.input()).expect("queue deep enough"))
        .collect();
    // Shutdown begins while queries are still queued; all must complete.
    server.shutdown();
    for ticket in tickets {
        ticket.wait().expect("accepted queries survive shutdown");
    }
}

#[test]
fn degenerate_inputs_are_served_not_panicked_on() {
    let sirius = shared_sirius();
    let server = SiriusServer::start(Arc::clone(&sirius), ServerConfig::default());
    // Empty audio: the no-speech path must flow through every stage.
    let empty = SiriusInput {
        audio: Vec::new(),
        image: None,
    };
    let response = server.process_sync(empty).expect("empty audio is served");
    assert_eq!(response.recognized, "");
    // Non-finite samples: garbage in, a typed response (not a dead worker)
    // out. The next query must still be served by the same workers.
    let garbage = SiriusInput {
        audio: vec![f32::NAN; 1600],
        image: None,
    };
    let _ = server.process_sync(garbage).expect("NaN audio is served");
    let again = SiriusInput {
        audio: Vec::new(),
        image: None,
    };
    assert!(server.process_sync(again).is_ok(), "workers survived");
    server.shutdown();
}
