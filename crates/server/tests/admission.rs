//! Deadline-aware admission gates for the staged runtime.
//!
//! 1. A job that expires while queued is dropped at dequeue — its ticket
//!    completes with the typed [`SiriusError::DeadlineUnmeetable`] error and
//!    no stage spends service time on it.
//! 2. A deadline-aware shed at admission carries a sane `retry_after` hint
//!    derived from the backlog the estimator saw.
//! 3. With an effectively infinite SLO the deadline-aware policy degrades
//!    exactly to shed-on-full: only `Overloaded` rejections, no expiries
//!    (and the near-`Duration::MAX` deadline arithmetic does not panic).

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use sirius::error::SiriusError;
use sirius::pipeline::{Sirius, SiriusConfig};
use sirius::prepare_input_set;
use sirius_server::{ServerConfig, SiriusServer, STAGES};

static SIRIUS: OnceLock<Arc<Sirius>> = OnceLock::new();

fn shared_sirius() -> Arc<Sirius> {
    Arc::clone(SIRIUS.get_or_init(|| Arc::new(Sirius::build(SiriusConfig::default()))))
}

#[test]
fn expired_jobs_complete_with_the_typed_error_and_consume_no_service() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 4242);
    let server = SiriusServer::start(Arc::clone(&sirius), ServerConfig::default());

    // The fresh runtime's meters are cold, so the estimator reads zero and
    // a zero deadline is admitted — and has already passed by the time the
    // ASR worker dequeues the job.
    assert_eq!(server.expected_sojourn(), Duration::ZERO, "cold estimator");
    let ticket = server
        .submit_with_deadline(prepared.first().expect("inputs").input(), Duration::ZERO)
        .expect("cold estimator admits a zero deadline");
    match ticket.wait() {
        Err(SiriusError::DeadlineUnmeetable {
            expected,
            deadline,
            retry_after,
        }) => {
            assert_eq!(deadline, Duration::ZERO);
            assert!(expected > Duration::ZERO, "the job did spend time queued");
            assert_eq!(retry_after, expected, "lateness over a zero deadline");
        }
        other => panic!("expired job must complete with DeadlineUnmeetable, got {other:?}"),
    }

    let snap = server.metrics_snapshot();
    assert_eq!(snap.counter("asr.expired"), Some(1));
    assert_eq!(
        snap.histogram("asr.service_ns").unwrap().count,
        0,
        "no stage service time is ever spent on an expired job"
    );
    assert_eq!(snap.histogram("asr.queue_wait_ns").unwrap().count, 1);
    assert_eq!(snap.counter("admission.accepted"), Some(1));
    assert_eq!(snap.counter("completed"), Some(0));
    assert_eq!(snap.counter("failed"), Some(1));
    assert_eq!(snap.histogram("sojourn_failed_ns").unwrap().count, 1);
    server.shutdown();
}

#[test]
fn deadline_shed_at_admission_carries_a_sane_retry_hint() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 777);
    let server = SiriusServer::start(Arc::clone(&sirius), ServerConfig::default());

    // Warm the per-stage service meters with real traffic.
    let warmup = 6;
    for p in prepared.iter().take(warmup) {
        server.process_sync(p.input()).expect("query served");
    }
    let expected_now = server.expected_sojourn();
    assert!(
        expected_now > Duration::ZERO,
        "warm meters must make the estimator non-trivial"
    );

    let tiny = Duration::from_nanos(1);
    match server.submit_with_deadline(prepared.first().expect("inputs").input(), tiny) {
        Err(SiriusError::DeadlineUnmeetable {
            expected,
            deadline,
            retry_after,
        }) => {
            assert_eq!(deadline, tiny);
            assert!(expected > deadline);
            assert_eq!(retry_after, expected - deadline, "drain-rate hint");
            assert!(retry_after > Duration::ZERO && retry_after <= expected);
        }
        Err(other) => panic!("a 1ns deadline must be shed on a warm runtime, got {other}"),
        Ok(_) => panic!("a 1ns deadline must be shed on a warm runtime, got an admit"),
    }

    let snap = server.metrics_snapshot();
    assert_eq!(snap.counter("admission.shed_deadline"), Some(1));
    assert_eq!(snap.counter("admission.accepted"), Some(warmup as u64));
    assert_eq!(snap.counter("admission.shed"), Some(0));
    // The estimator's inputs are all exported: EWMA meters fed by the warm
    // traffic, and in-flight gauges back to zero on an idle runtime.
    assert!(snap.meter("asr.service_ewma_ns").unwrap().mean > 0.0);
    for stage in STAGES {
        assert_eq!(
            snap.gauge(&format!("{stage}.in_flight")),
            Some(0),
            "{stage}"
        );
    }
    server.shutdown();
}

#[test]
fn infinite_slo_degrades_to_shed_on_full() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 31415);

    // Same one-worker, depth-1 topology as the shed-on-full burst gate in
    // `concurrency.rs`; the only change is the submit entry point.
    let server = SiriusServer::start(
        Arc::clone(&sirius),
        ServerConfig::with_workers(1).with_queue_depth(1),
    );
    let mut accepted = Vec::new();
    let mut shed = 0u64;
    for _ in 0..3 {
        for p in prepared.iter() {
            match server.submit_with_deadline(p.input(), Duration::MAX) {
                Ok(ticket) => accepted.push(ticket),
                Err(SiriusError::Overloaded { stage }) => {
                    assert_eq!(stage, "asr", "shedding happens at admission");
                    shed += 1;
                }
                Err(other) => {
                    panic!("an infinite SLO must only ever shed on a full queue: {other}")
                }
            }
        }
    }
    assert!(shed > 0, "depth-1 queues must shed under a burst");
    assert!(!accepted.is_empty(), "an idle server must accept work");
    for ticket in accepted {
        ticket
            .wait()
            .expect("no admitted query expires under an infinite SLO");
    }
    let snap = server.metrics_snapshot();
    assert_eq!(snap.counter("admission.shed_deadline"), Some(0));
    assert_eq!(snap.counter("admission.shed"), Some(shed));
    for stage in STAGES {
        assert_eq!(
            snap.counter(&format!("{stage}.expired")),
            Some(0),
            "{stage}"
        );
    }
    server.shutdown();
}
