//! The multi-tenant QoS front-end: tenant traffic classes with
//! weighted-fair admission.
//!
//! A [`TenantClass`] names a traffic tier: a priority, an SLO, and an
//! admission weight. [`SiriusServer::submit_classed`] reuses the live
//! [`expected_sojourn`] estimator but admits class `c` only while the
//! estimate stays within the class's **effective budget**
//!
//! ```text
//! budget(c) = slo(c) × weight(c) / max_weight
//! ```
//!
//! so as backlog builds, low-weight (best-effort) classes start shedding
//! while high-weight (premium) classes still admit — best-effort absorbs
//! the deadline sheds before premium p99 is touched. The shed error's
//! `retry_after` is computed against the *class* budget (`expected −
//! budget(c)`), not the raw SLO: a best-effort client is told how long the
//! backlog must drain before *its class* admits again, which is strictly
//! longer than the global hint and keeps its retries from undershooting
//! under premium bursts.
//!
//! Per-class telemetry registers under `tenant.{class}.*` in the shared
//! registry (the class name passes through the registry's hardened
//! renderers, so hostile names cannot corrupt the export).
//!
//! [`SiriusServer::submit_classed`]: crate::SiriusServer::submit_classed
//! [`expected_sojourn`]: crate::SiriusServer::expected_sojourn

use std::sync::Arc;
use std::time::Duration;

use sirius_obs::{Counter, Gauge, Histogram, Registry};

use crate::metrics::ServerMetrics;

/// One tenant traffic tier: who gets admitted (and how urgently) when the
/// backlog grows. See the module docs for the admission rule.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantClass {
    /// Class name; addresses the class in `submit_classed` and labels its
    /// `tenant.{name}.*` metrics.
    pub name: String,
    /// Scheduling priority (higher = more important). Carried for
    /// dashboards and future preemption policies; admission itself is
    /// driven by `weight`.
    pub priority: u8,
    /// The class's end-to-end latency SLO. Admitted queries carry it as
    /// their deadline, so workers drop them unserved once it passes.
    pub slo: Duration,
    /// Admission weight. The class admits while the expected sojourn stays
    /// within `slo × weight / max_weight`, so relative weights decide who
    /// sheds first under load.
    pub weight: u32,
}

impl TenantClass {
    /// A tenant class with the given name, priority, SLO and weight.
    pub fn new(name: &str, priority: u8, slo: Duration, weight: u32) -> Self {
        Self {
            name: name.to_owned(),
            priority,
            slo,
            weight,
        }
    }
}

/// Per-class telemetry, registered under `tenant.{class}.*`.
#[derive(Debug)]
pub struct TenantObs {
    /// Queries of this class admitted.
    pub accepted: Counter,
    /// Queries shed because the expected sojourn exceeded the class budget.
    pub shed_deadline: Counter,
    /// Queries shed because the admission (ASR) queue was full; with
    /// `accepted` and `shed_deadline` this accounts for every classed
    /// submit.
    pub shed: Counter,
    /// Admitted queries that completed with a response.
    pub completed: Counter,
    /// Admitted queries that completed with an error (expired in a queue,
    /// stage panic, shutdown).
    pub failed: Counter,
    /// Admitted queries still in flight (`accepted = completed + failed +
    /// in_flight` balances per class).
    pub in_flight: Gauge,
    /// Admission → completion time of this class's successful queries.
    pub sojourn: Histogram,
}

impl TenantObs {
    /// Registers the class's metrics under `{prefix}.{leaf}` names (the
    /// caller passes the fully scoped `tenant.{class}` prefix).
    pub fn register(registry: &Registry, prefix: &str) -> Arc<Self> {
        let name = |leaf: &str| format!("{prefix}.{leaf}");
        Arc::new(Self {
            accepted: registry.counter(&name("accepted")),
            shed_deadline: registry.counter(&name("shed_deadline")),
            shed: registry.counter(&name("shed")),
            completed: registry.counter(&name("completed")),
            failed: registry.counter(&name("failed")),
            in_flight: registry.gauge(&name("in_flight")),
            sojourn: registry.histogram(&name("sojourn_ns")),
        })
    }
}

/// The configured tenant classes with their registered telemetry and the
/// precomputed max weight the admission rule normalizes by.
pub(crate) struct TenantTable {
    classes: Vec<(TenantClass, Arc<TenantObs>)>,
    max_weight: u32,
}

impl TenantTable {
    /// Registers every class's metrics under the server's scoped
    /// `tenant.{class}` prefix.
    pub(crate) fn build(tenants: &[TenantClass], metrics: &ServerMetrics) -> Self {
        let classes = tenants
            .iter()
            .map(|class| {
                let prefix = metrics.scoped(&format!("tenant.{}", class.name));
                let obs = TenantObs::register(metrics.registry(), &prefix);
                (class.clone(), obs)
            })
            .collect::<Vec<_>>();
        let max_weight = classes
            .iter()
            .map(|(c, _)| c.weight.max(1))
            .max()
            .unwrap_or(1);
        Self {
            classes,
            max_weight,
        }
    }

    pub(crate) fn lookup(&self, name: &str) -> Option<(&TenantClass, &Arc<TenantObs>)> {
        self.classes
            .iter()
            .find(|(c, _)| c.name == name)
            .map(|(c, obs)| (c, obs))
    }

    /// The class's effective admission budget: `slo × weight / max_weight`.
    pub(crate) fn budget(&self, class: &TenantClass) -> Duration {
        class
            .slo
            .mul_f64(f64::from(class.weight.max(1)) / f64::from(self.max_weight))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_scales_slo_by_relative_weight() {
        let metrics = ServerMetrics::new();
        let classes = vec![
            TenantClass::new("premium", 2, Duration::from_millis(100), 4),
            TenantClass::new("best_effort", 0, Duration::from_millis(100), 1),
        ];
        let table = TenantTable::build(&classes, &metrics);
        let (premium, _) = table.lookup("premium").unwrap();
        let (best_effort, _) = table.lookup("best_effort").unwrap();
        assert_eq!(table.budget(premium), Duration::from_millis(100));
        assert_eq!(table.budget(best_effort), Duration::from_millis(25));
        assert!(table.lookup("unknown").is_none());
    }

    #[test]
    fn tenant_metrics_register_scoped() {
        let metrics = ServerMetrics::new();
        let classes = vec![TenantClass::new("premium", 2, Duration::from_millis(50), 4)];
        let table = TenantTable::build(&classes, &metrics);
        let (_, obs) = table.lookup("premium").unwrap();
        obs.accepted.inc();
        obs.sojourn.record(1_000);
        let snap = metrics.registry().snapshot();
        assert_eq!(snap.counter("tenant.premium.accepted"), Some(1));
        assert_eq!(snap.counter("tenant.premium.shed_deadline"), Some(0));
        assert_eq!(
            snap.histogram("tenant.premium.sojourn_ns").unwrap().count,
            1
        );
    }
}
