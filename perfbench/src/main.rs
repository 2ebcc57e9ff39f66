//! The Sirius benchmark: fixed-rate `voice`, `vision` and `remote`
//! workloads, every answer checked against the serial pipeline, and a
//! traced run that decomposes the work layer by layer.
//!
//! ```text
//! sirius-perfbench --workload voice --seed 1 --seconds 32 --trace 0 \
//!     --rates voice=50:190,vision=45:170 --slo-ms 50 --tenant-slo-ms 200
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! See `perfbench/README.md` for what each workload and metric is for.

mod json;
mod ledger;
mod openloop;
mod remote;
mod replay;
mod stats;
mod telemetry;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sirius::pipeline::{Sirius, SiriusConfig, SiriusInput};
use sirius::prepare_input_set;
use sirius::taxonomy::{QueryKind, QuerySpec};
use sirius_speech::asr::AcousticModelKind;

use crate::json::Json;
use crate::ledger::Tally;
use crate::stats::{median, percentile, Rng};
use crate::trace::Trace;

/// End-to-end metrics, reported with `--trace 0`: `(name, unit)`.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("lat_p50_ms", "ms"),
    ("lat_p95_ms", "ms"),
    ("goodput_qps", "1/s"),
    ("throughput_qps", "1/s"),
    ("served_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("peak_vm_mb", "MB"),
    ("word_acc", "ratio"),
    ("answer_acc", "ratio"),
];

/// Per-layer metrics, reported with `--trace 1`: `(name, unit)`. Times of
/// the replay are per query of the workload's mix.
const PER_LAYER: [(&str, &str); 45] = [
    ("speech.fe_ms", "ms"),
    ("speech.decode_ms", "ms"),
    ("speech.score_ms", "ms"),
    ("speech.search_ms", "ms"),
    ("speech.frames", "count"),
    ("speech.tokens_expanded", "count"),
    ("vision.extract_ms", "ms"),
    ("vision.match_ms", "ms"),
    ("vision.keypoints", "count"),
    ("search.retrieve_ms", "ms"),
    ("nlp.qa_ms", "ms"),
    ("nlp.docs", "count"),
    ("nlp.filter_hits", "count"),
    ("nlp.regex_ops", "count"),
    ("core.asr_ms", "ms"),
    ("core.classify_ms", "ms"),
    ("core.imm_ms", "ms"),
    ("core.qa_ms", "ms"),
    ("core.process_ms", "ms"),
    ("core.process_ref_ms", "ms"),
    ("server.admit_us", "us"),
    ("server.asr.wait_ms", "ms"),
    ("server.asr.service_ms", "ms"),
    ("server.classify.wait_ms", "ms"),
    ("server.classify.service_ms", "ms"),
    ("server.imm.wait_ms", "ms"),
    ("server.imm.service_ms", "ms"),
    ("server.qa.wait_ms", "ms"),
    ("server.qa.service_ms", "ms"),
    ("server.handoff_ms", "ms"),
    ("server.shed", "count"),
    ("server.expired", "count"),
    ("cluster.replica_share_max", "ratio"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.submit_bytes", "bytes"),
    ("wire.answer_bytes", "bytes"),
    ("net.connect_us", "us"),
    ("net.overhead_ms", "ms"),
    ("net.vm_kb_per_conn", "KB"),
    ("obs.trace_overhead_pct", "%"),
    ("harness.late_p95_ms", "ms"),
    ("ledger.children_gap_pct", "%"),
    ("ledger.process_gap_pct", "%"),
    ("ledger.replays", "count"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Voice,
    Vision,
    Remote,
}

impl Workload {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "voice" => Ok(Self::Voice),
            "vision" => Ok(Self::Vision),
            "remote" => Ok(Self::Remote),
            other => Err(format!(
                "unknown workload {other:?} (voice, vision, remote)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Voice => "voice",
            Self::Vision => "vision",
            Self::Remote => "remote",
        }
    }

    /// The slice of the 42-query set this workload draws from.
    fn includes(self, kind: QueryKind) -> bool {
        match self {
            Self::Voice => kind != QueryKind::VoiceImageQuery,
            Self::Vision => kind == QueryKind::VoiceImageQuery,
            Self::Remote => true,
        }
    }

    fn acoustic(self) -> AcousticModelKind {
        match self {
            Self::Vision => AcousticModelKind::Dnn,
            Self::Voice | Self::Remote => AcousticModelKind::Gmm,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `(low, over)` arrival rates in queries per second, per open-loop
    /// workload.
    rates: BTreeMap<String, (f64, f64)>,
    slo: Duration,
    tenant_slo: Duration,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_owned(), value.clone());
    }
    let take = |key: &str| kv.get(key).cloned().ok_or(format!("missing --{key}"));
    let number = |key: &str| -> Result<f64, String> {
        let text = take(key)?;
        text.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x > 0.0)
            .ok_or(format!("--{key} must be a positive number, got {text:?}"))
    };
    let mut rates = BTreeMap::new();
    for item in take("rates")?.split(',') {
        let parsed = item.split_once('=').and_then(|(name, pair)| {
            let (low, over) = pair.split_once(':')?;
            let low: f64 = low.parse().ok()?;
            let over: f64 = over.parse().ok()?;
            (low > 0.0 && over > 0.0).then(|| (name.to_owned(), (low, over)))
        });
        let (name, pair) = parsed.ok_or(format!("--rates item {item:?} is not name=low:over"))?;
        rates.insert(name, pair);
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let seconds = number("seconds")?;
    if seconds < 2.0 {
        return Err("--seconds must be at least 2".into());
    }
    let seed = take("seed")?;
    Ok(Args {
        workload: Workload::parse(&take("workload")?)?,
        seed: seed
            .parse()
            .map_err(|_| format!("--seed must be an unsigned integer, got {seed:?}"))?,
        seconds,
        trace,
        rates,
        slo: Duration::from_secs_f64(number("slo-ms")? / 1e3),
        tenant_slo: Duration::from_secs_f64(number("tenant-slo-ms")? / 1e3),
        out: kv
            .get("out")
            .map_or_else(|| PathBuf::from("perfbench/out"), PathBuf::from),
    })
}

/// Generator streams of one seed, one per purpose.
mod stream {
    pub const INPUTS: u64 = 1;
    pub const CLIENT_A: u64 = 2;
    pub const CLIENT_B: u64 = 3;
    /// Open-loop blocks use `BLOCKS + index`.
    pub const BLOCKS: u64 = 100;
}

/// The metrics of one run, by name.
#[derive(Default)]
struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The metrics of `table` in its order, failing on a missing name or a
    /// non-finite value.
    fn to_json(&self, table: &[(&'static str, &'static str)]) -> Result<Json, String> {
        if let Some(extra) = self.0.keys().find(|k| !table.iter().any(|(n, _)| n == *k)) {
            return Err(format!("metric {extra} is not in the benchmark's table"));
        }
        let mut out = Vec::new();
        for &(name, unit) in table {
            let value = *self
                .0
                .get(name)
                .ok_or(format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            out.push((
                name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            ));
        }
        Ok(Json::obj(out))
    }
}

/// A built pipeline and the workload's inputs, generated from the seed.
struct Built {
    sirius: Arc<Sirius>,
    queries: Vec<(QuerySpec, SiriusInput)>,
}

fn build(workload: Workload, seed: u64) -> Built {
    let sirius = Arc::new(Sirius::build(SiriusConfig::default()));
    let input_seed = Rng::new(seed, stream::INPUTS).next_u64();
    let queries = prepare_input_set(&sirius, input_seed)
        .into_iter()
        .filter(|p| workload.includes(p.spec.kind))
        .map(|p| {
            let input = p.input();
            (p.spec, input)
        })
        .collect();
    Built { sirius, queries }
}

/// Runs `setup` [`SETUP_REPS`] times, dropping all but the last result
/// before the next starts, and returns it with every set-up time.
fn repeated_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    let mut kept = None;
    let mut times = Vec::new();
    for _ in 0..SETUP_REPS {
        if let Some(previous) = kept.take() {
            teardown(previous);
        }
        let t0 = Instant::now();
        kept = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), times))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn p(sorted_values: &[f64], pct: f64, what: &str) -> Result<f64, String> {
    percentile(sorted_values, pct).ok_or(format!("no samples for {what}"))
}

/// `VmHWM`, `VmPeak` or `VmSize` of this process, in kB.
fn vm_kb(key: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or(format!("no {key} in /proc/self/status"))
}

/// Everything a run found, before it is written out.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    detail: Vec<(&'static str, Json)>,
    trace: Option<Trace>,
}

/// The end-to-end metrics every workload shares.
fn finish_end_to_end(metrics: &mut Metrics, total: &Tally, setup_s: &[f64]) -> Result<(), String> {
    if total.completed == 0 {
        return Err("no query completed".into());
    }
    metrics.set("setup_s", median(setup_s).ok_or("no set-up was timed")?);
    metrics.set("served_frac", total.completed as f64 / total.sent as f64);
    metrics.set("word_acc", total.word_acc_sum / total.completed as f64);
    metrics.set(
        "answer_acc",
        total.answers_ok as f64 / total.completed as f64,
    );
    metrics.set("peak_rss_mb", vm_kb("VmHWM")? / 1024.0);
    metrics.set("peak_vm_mb", vm_kb("VmPeak")? / 1024.0);
    Ok(())
}

/// Writes the full result (and the spans, when traced) under `args.out`,
/// reads the result back, and returns the line to print.
fn publish(args: &Args, report: &Report) -> Result<String, String> {
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = report.metrics.to_json(table)?;
    if report.attempted == 0 {
        return Err("no query was attempted".into());
    }
    let line = Json::obj([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", metrics),
    ]);
    let mut full = match line.clone() {
        Json::Obj(pairs) => pairs,
        _ => unreachable!("built as an object"),
    };
    full.push(("workload".into(), Json::Str(args.workload.name().into())));
    full.push(("seed".into(), Json::Num(args.seed as f64)));
    full.push(("seconds".into(), Json::Num(args.seconds)));
    full.push(("slo_ms".into(), Json::Num(ms(args.slo))));
    full.push((
        "cores".into(),
        Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
    ));
    full.extend(
        report
            .detail
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone())),
    );
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let path = args.out.join(format!("{stem}.json"));
    json::write_atomic(&path, &Json::Obj(full).render()?)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    verify_written(&path, table)?;
    if let Some(trace) = &report.trace {
        let spans = Json::obj([("spans", trace.to_json())]).render()?;
        let path = args.out.join(format!("{stem}-spans.json"));
        json::write_atomic(&path, &spans)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    line.render()
}

/// Reads a written result back and checks it holds every metric.
fn verify_written(path: &Path, table: &[(&str, &str)]) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read back {}: {e}", path.display()))?;
    let parsed = Json::parse(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))?;
    let metrics = parsed
        .get("metrics")
        .ok_or("written result has no metrics")?;
    for (name, _) in table {
        metrics
            .get(name)
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .ok_or(format!("written result lacks {name}"))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload {
        Workload::Voice | Workload::Vision => openloop::run(&args, epoch),
        Workload::Remote => remote::run(&args, epoch),
    };
    let outcome = report.and_then(|report| {
        for (name, detail) in &report.detail {
            if *name == "phases" {
                println!("phases: {}", detail.render()?);
            }
        }
        for (name, value) in &report.metrics.0 {
            println!("{:<28} {value}", name);
        }
        publish(&args, &report).map(|line| (line, report.correct))
    });
    match outcome {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: outputs or ledger did not check out");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in `BENCHMARK.json` name the same metrics
    /// with the same units, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(Json::Arr(items)) = spec.get(key) else {
                panic!("BENCHMARK.json lacks {key}")
            };
            let listed: Vec<(String, String)> = items
                .iter()
                .map(|m| match (m.get("name"), m.get("unit")) {
                    (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                    other => panic!("malformed {key} entry {other:?}"),
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let ok = "--workload voice --seed 3 --seconds 10 --trace 0 \
                  --rates voice=70:200,vision=60:180 --slo-ms 50 --tenant-slo-ms 200";
        let args = parse_args(&argv(ok)).unwrap();
        assert_eq!(args.workload, Workload::Voice);
        assert_eq!(args.rates["vision"], (60.0, 180.0));
        assert_eq!(args.slo, Duration::from_millis(50));
        for bad in [
            ok.replace("voice --seed", "speech --seed"),
            ok.replace("--trace 0", "--trace 2"),
            ok.replace("--seed 3", "--seed -3"),
            ok.replace("--slo-ms 50", "--slo-ms nan"),
            ok.replace("vision=60:180", "vision=60"),
            ok.replace(" --tenant-slo-ms 200", ""),
        ] {
            assert!(parse_args(&argv(&bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_missing_or_nan_metric_fails_loudly() {
        let table = [("a_ms", "ms"), ("b", "count")];
        let mut m = Metrics::default();
        m.set("a_ms", 1.5);
        assert!(m
            .to_json(&table)
            .unwrap_err()
            .contains("b was not measured"));
        m.set("b", f64::NAN);
        assert!(m.to_json(&table).is_err());
        m.set("b", 2.0);
        assert!(m.to_json(&table).is_ok());
        m.set("c", 2.0);
        assert!(m.to_json(&table).is_err());
    }
}
