//! Multi-tenant QoS gates: weighted admission by tenant class.
//!
//! 1. Weighted admission sheds best-effort traffic while premium traffic
//!    with the same SLO is still admitted, the shed's `retry_after` hint
//!    reflects the class's *weighted* budget (regression for the per-class
//!    drain-rate fix), and the per-class counters export.
//! 2. Submitting under a class the server was not configured with is the
//!    typed `UnknownTenantClass` error, not a panic or a silent admit.
//! 3. A cluster routes classed traffic to its replicas and the merged
//!    per-replica tenant counters account for every query exactly once.
//! 4. Every classed submit lands in exactly one per-class admission
//!    counter, queue-full sheds included, so a class's offered load can be
//!    read back from its own counters.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use sirius::error::SiriusError;
use sirius::pipeline::{Sirius, SiriusConfig};
use sirius::prepare_input_set;
use sirius_server::{
    ClusterConfig, RoutePolicy, ServerConfig, SiriusCluster, SiriusServer, TenantClass,
};

static SIRIUS: OnceLock<Arc<Sirius>> = OnceLock::new();

fn shared_sirius() -> Arc<Sirius> {
    Arc::clone(SIRIUS.get_or_init(|| Arc::new(Sirius::build(SiriusConfig::default()))))
}

fn tenant_config() -> ServerConfig {
    ServerConfig::default().with_tenant_classes(vec![
        TenantClass::new("premium", 0, Duration::from_millis(400), 4),
        TenantClass::new("best_effort", 2, Duration::from_millis(400), 1),
    ])
}

#[test]
fn weighted_admission_sheds_best_effort_before_premium() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 424242);
    let server = SiriusServer::start(Arc::clone(&sirius), tenant_config());

    // Seed the estimator deterministically: a 300 ms ASR mean puts the
    // expected sojourn between best-effort's weighted budget
    // (400 ms × 1/4 = 100 ms) and premium's (400 ms × 4/4 = 400 ms).
    server
        .metrics()
        .asr
        .service_meter
        .record_duration(Duration::from_millis(300));
    let expected = server.expected_sojourn();
    assert!(
        expected > Duration::from_millis(100) && expected <= Duration::from_millis(400),
        "estimator seed must split the two budgets, got {expected:?}"
    );

    let premium = server
        .submit_classed(prepared[0].input(), "premium")
        .expect("premium is admitted at full weight");
    match server.submit_classed(prepared[1].input(), "best_effort") {
        Err(SiriusError::DeadlineUnmeetable {
            expected,
            deadline,
            retry_after,
        }) => {
            assert_eq!(deadline, Duration::from_millis(400), "the class SLO");
            // Regression: the hint drains to the *weighted* budget, not the
            // raw SLO. expected ≤ deadline here, so the old
            // `expected − deadline` hint would have been zero.
            assert_eq!(retry_after, expected - Duration::from_millis(100));
            assert!(retry_after > Duration::ZERO);
        }
        Err(other) => panic!("best-effort must be shed by weighted admission, got {other:?}"),
        Ok(_) => panic!("best-effort must be shed by weighted admission, got an admit"),
    }
    premium.wait().expect("premium query completes");

    let snap = server.metrics_snapshot();
    assert_eq!(snap.counter("tenant.premium.accepted"), Some(1));
    assert_eq!(snap.counter("tenant.premium.completed"), Some(1));
    assert_eq!(snap.counter("tenant.premium.shed_deadline"), Some(0));
    assert_eq!(snap.gauge("tenant.premium.in_flight"), Some(0));
    assert_eq!(
        snap.histogram("tenant.premium.sojourn_ns").unwrap().count,
        1
    );
    assert_eq!(snap.counter("tenant.best_effort.accepted"), Some(0));
    assert_eq!(snap.counter("tenant.best_effort.shed_deadline"), Some(1));
    assert_eq!(snap.counter("admission.shed_deadline"), Some(1));
    server.shutdown();
}

#[test]
fn unknown_tenant_class_is_a_typed_error() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 99);
    let server = SiriusServer::start(Arc::clone(&sirius), tenant_config());
    match server.submit_classed(prepared[0].input(), "platinum") {
        Err(SiriusError::UnknownTenantClass { class }) => assert_eq!(class, "platinum"),
        Err(other) => panic!("expected UnknownTenantClass, got {other:?}"),
        Ok(_) => panic!("expected UnknownTenantClass, got an admit"),
    }
    server.shutdown();
}

#[test]
fn cluster_routes_classed_traffic_with_per_replica_accounting() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 1234);
    let cluster = SiriusCluster::start(
        &sirius,
        ClusterConfig::new(2)
            .with_route(RoutePolicy::ConsistentHash)
            .with_server(tenant_config()),
    )
    .expect("cluster starts");

    for p in prepared.iter().take(8) {
        cluster
            .submit_classed(p.input(), "premium")
            .expect("premium admitted on idle cluster")
            .wait()
            .expect("query served");
    }
    let snap = cluster.metrics_snapshot();
    let accepted = cluster.merged_counter(&snap, "tenant.premium.accepted");
    let completed = cluster.merged_counter(&snap, "tenant.premium.completed");
    assert_eq!(accepted, 8);
    assert_eq!(completed, 8);
    cluster.shutdown();
}

#[test]
fn classed_queue_full_sheds_are_counted_per_tenant() {
    const CLASSES: [&str; 3] = ["premium", "standard", "best_effort"];
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 31337);
    // One ASR worker behind a one-deep queue: a back-to-back burst finds
    // the admission queue full for most submits.
    let config = ServerConfig::with_workers(1)
        .with_queue_depth(1)
        .with_tenant_classes(vec![
            TenantClass::new("premium", 0, Duration::from_secs(10), 4),
            TenantClass::new("standard", 1, Duration::from_secs(10), 2),
            TenantClass::new("best_effort", 2, Duration::from_secs(10), 1),
        ]);
    let server = SiriusServer::start(Arc::clone(&sirius), config);

    let mut offered = [0u64; 3];
    let mut tickets = Vec::new();
    for (i, p) in prepared.iter().enumerate() {
        let class = i % CLASSES.len();
        offered[class] += 1;
        match server.submit_classed(p.input(), CLASSES[class]) {
            Ok(ticket) => tickets.push(ticket),
            Err(SiriusError::Overloaded { .. } | SiriusError::DeadlineUnmeetable { .. }) => {}
            Err(other) => panic!("unexpected admission error {other:?}"),
        }
    }
    for ticket in tickets {
        ticket.wait().expect("admitted query served");
    }

    let snap = server.metrics_snapshot();
    let count = |name: &str| {
        snap.counter(name)
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    let mut tenant_shed = 0;
    for (class, offered) in CLASSES.iter().zip(offered) {
        let accepted = count(&format!("tenant.{class}.accepted"));
        let shed_deadline = count(&format!("tenant.{class}.shed_deadline"));
        let shed = count(&format!("tenant.{class}.shed"));
        assert_eq!(
            offered,
            accepted + shed_deadline + shed,
            "{class}: offered {offered}, accepted {accepted}, \
             shed_deadline {shed_deadline}, shed {shed}"
        );
        assert_eq!(count(&format!("tenant.{class}.completed")), accepted);
        tenant_shed += shed;
    }
    let shed = count("admission.shed");
    assert!(shed > 0, "the depth-1 burst never found the queue full");
    assert_eq!(
        tenant_shed, shed,
        "per-tenant sheds must sum to admission.shed"
    );
    server.shutdown();
}
