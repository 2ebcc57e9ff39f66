//! The staged runtime's own telemetry, read between two snapshots: per-stage
//! queue wait and service, hand-off time, and the overload counters.

use sirius_obs::{HistogramSnapshot, Snapshot};
use sirius_server::STAGES;

use crate::Metrics;

/// What a histogram recorded between two snapshots: bucket counts, count
/// and sum are exact; min and max are the later snapshot's.
pub fn histogram_delta(before: &Snapshot, after: &Snapshot, name: &str) -> HistogramSnapshot {
    let empty = HistogramSnapshot::default();
    let a = before.histogram(name).unwrap_or(&empty);
    let b = after.histogram(name).unwrap_or(&empty);
    let buckets = b
        .buckets
        .iter()
        .map(|&(index, n)| {
            let earlier = a
                .buckets
                .iter()
                .find(|&&(i, _)| i == index)
                .map_or(0, |&(_, m)| m);
            (index, n - earlier)
        })
        .filter(|&(_, n)| n > 0)
        .collect();
    HistogramSnapshot {
        count: b.count - a.count,
        sum: b.sum - a.sum,
        min: b.min,
        max: b.max,
        buckets,
    }
}

/// A counter's increase between two snapshots.
pub fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> u64 {
    after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
}

/// Telemetry windows: `(before, after)` snapshot pairs.
pub type Windows<'a> = [(&'a Snapshot, &'a Snapshot)];

/// What one histogram recorded inside the windows, summed over the metric
/// name prefixes (one per replica).
fn merged_delta(windows: &Windows, prefixes: &[String], name: &str) -> HistogramSnapshot {
    let mut out = HistogramSnapshot::default();
    for (before, after) in windows {
        for prefix in prefixes {
            out = out.merge(&histogram_delta(before, after, &format!("{prefix}{name}")));
        }
    }
    out
}

fn merged_counter(windows: &Windows, prefixes: &[String], name: &str) -> u64 {
    let mut out = 0;
    for (before, after) in windows {
        for prefix in prefixes {
            out += counter_delta(before, after, &format!("{prefix}{name}"));
        }
    }
    out
}

/// The staged runtime's own view of a window: per-stage queue wait and
/// service (p50), and the hand-off time between stages that neither
/// accounts for.
pub fn server_layer(
    metrics: &mut Metrics,
    windows: &Windows,
    prefixes: &[String],
) -> Result<(), String> {
    let names: [[&'static str; 2]; 4] = [
        ["server.asr.wait_ms", "server.asr.service_ms"],
        ["server.classify.wait_ms", "server.classify.service_ms"],
        ["server.imm.wait_ms", "server.imm.service_ms"],
        ["server.qa.wait_ms", "server.qa.service_ms"],
    ];
    let mut staged_ns = 0u64;
    for (stage, [wait_name, service_name]) in STAGES.iter().zip(names) {
        let wait = merged_delta(windows, prefixes, &format!("{stage}.queue_wait_ns"));
        let service = merged_delta(windows, prefixes, &format!("{stage}.service_ns"));
        if service.count == 0 {
            return Err(format!("stage {stage} served nothing in the traced window"));
        }
        metrics.set(wait_name, wait.percentile_ms(50.0));
        metrics.set(service_name, service.percentile_ms(50.0));
        staged_ns += wait.sum + service.sum;
    }
    let sojourn = merged_delta(windows, prefixes, "sojourn_ns");
    if sojourn.count == 0 {
        return Err("no query completed in the traced window".into());
    }
    metrics.set(
        "server.handoff_ms",
        (sojourn.sum as f64 - staged_ns as f64) / sojourn.count as f64 / 1e6,
    );
    Ok(())
}

/// The load counters of an overload window: refused at admission, and
/// dropped expired in a queue.
pub fn server_refusals(metrics: &mut Metrics, windows: &Windows, prefixes: &[String]) {
    let shed = merged_counter(windows, prefixes, "admission.shed")
        + merged_counter(windows, prefixes, "admission.shed_deadline");
    let expired: u64 = STAGES
        .iter()
        .map(|stage| merged_counter(windows, prefixes, &format!("{stage}.expired")))
        .sum();
    metrics.set("server.shed", shed as f64);
    metrics.set("server.expired", expired as f64);
}
