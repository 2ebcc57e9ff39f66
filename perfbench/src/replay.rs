//! The traced serial replay: each workload query run through the layers'
//! public functions in pipeline order, with a span around every call.
//!
//! The span tree of one query is
//!
//! ```text
//! core.process
//! ├── core.asr      ── speech.fe, speech.decode
//! ├── core.classify
//! ├── core.imm      ── vision.extract, vision.match
//! └── core.qa       ── nlp.qa ── search.retrieve
//! ```
//!
//! and the replayed answer must equal the serial `Sirius::process` answer,
//! which is what makes the per-layer times a decomposition of real work.

use std::ops::AddAssign;
use std::time::{Duration, Instant};

use sirius::pipeline::{Sirius, SiriusInput, SiriusOutcome, SiriusResponse, StageTiming};
use sirius::stage::ClassifyRequest;
use sirius_server::{read_frame, Frame, FrameRead, SubmitFrame};
use sirius_speech::asr::AcousticModelKind;

use crate::json::Json;
use crate::ledger::{same_answer, Reference};
use crate::remote::CLASSES;
use crate::trace::Trace;
use crate::Metrics;

/// Serial replays of each workload query in the traced run.
const REPLAY_REPS: usize = 5;
/// The most of a container span (`core.process`, `core.asr`, `core.imm`,
/// `core.qa`) its child spans may leave uncovered, in percent.
const CHILDREN_GAP_BOUND_PCT: f64 = 5.0;
/// The most the replayed `core.process` time may differ from a separately
/// timed `Sirius::process` of the same queries, in percent.
const PROCESS_GAP_BOUND_PCT: f64 = 15.0;

/// Work counts of one replayed query.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub frames: usize,
    pub tokens_expanded: usize,
    /// Acoustic-model time inside the decode, as the lazy scorer reports it.
    pub score: Duration,
    pub keypoints: usize,
    pub docs: usize,
    pub filter_hits: usize,
    pub regex_ops: usize,
}

impl AddAssign for Counts {
    fn add_assign(&mut self, c: Counts) {
        self.frames += c.frames;
        self.tokens_expanded += c.tokens_expanded;
        self.score += c.score;
        self.keypoints += c.keypoints;
        self.docs += c.docs;
        self.filter_hits += c.filter_hits;
        self.regex_ops += c.regex_ops;
    }
}

/// Replays one query under `request`, returning the answer it produced
/// (with empty timings) and its work counts.
pub fn replay(
    sirius: &Sirius,
    acoustic: AcousticModelKind,
    input: &SiriusInput,
    trace: &mut Trace,
    request: u64,
) -> (SiriusResponse, Counts) {
    let mut counts = Counts::default();
    let root = trace.open("core.process", None, request);

    let asr = sirius.asr();
    let span = trace.open("core.asr", Some(root), request);
    let fe = trace.open("speech.fe", Some(span), request);
    let frames = asr.frontend().extract(&input.audio);
    trace.close(fe);
    let decode = trace.open("speech.decode", Some(span), request);
    let (decoded, score) = match acoustic {
        AcousticModelKind::Gmm => {
            let mut scores = asr.gmm_scorer().lazy_scores(&frames);
            let decoded = asr
                .decoder()
                .decode_lazy(&mut scores, asr.lm(), asr.lexicon());
            (decoded, scores.compute_time())
        }
        AcousticModelKind::Dnn => {
            let mut scores = asr.dnn_scorer().lazy_scores(&frames);
            let decoded = asr
                .decoder()
                .decode_lazy(&mut scores, asr.lm(), asr.lexicon());
            (decoded, scores.compute_time())
        }
    };
    trace.close(decode);
    counts.frames = frames.len();
    counts.score = score;
    let recognized = match decoded {
        Some(result) => {
            counts.tokens_expanded = result.tokens_expanded;
            result.words.join(" ")
        }
        None => String::new(),
    };
    trace.close(span);

    let span = trace.open("core.classify", Some(root), request);
    let class = sirius
        .stage_classify(ClassifyRequest {
            recognized: recognized.clone(),
        })
        .expect("classification is infallible");
    trace.close(span);
    let respond = |outcome, matched_venue| SiriusResponse {
        recognized: recognized.clone(),
        outcome,
        matched_venue,
        timing: StageTiming::default(),
    };
    if let Some(action) = class.action {
        trace.close(root);
        return (respond(SiriusOutcome::Action(action), None), counts);
    }

    let span = trace.open("core.imm", Some(root), request);
    let mut question = recognized.clone();
    let mut venue = None;
    if let Some(image) = &input.image {
        let imm = sirius.imm();
        let extract = trace.open("vision.extract", Some(span), request);
        let features = imm.extract_query(image);
        trace.close(extract);
        counts.keypoints = features.len();
        let matched = trace.open("vision.match", Some(span), request);
        let partial = imm.match_partial(&features);
        let result = imm.merge_partials(&features, &[partial]);
        trace.close(matched);
        if let Some(id) = result.best {
            let name = sirius.venues()[id.0 as usize].clone();
            question = rewrite_deictic(&question, &name);
            venue = Some(name);
        }
    }
    trace.close(span);

    let span = trace.open("core.qa", Some(root), request);
    let qa = trace.open("nlp.qa", Some(span), request);
    let engine = sirius.qa();
    let result = engine.answer_with_retrieval(&question, |query, k| {
        let retrieve = trace.open("search.retrieve", Some(qa), request);
        let hits = engine.search_engine().search(query, k);
        trace.close(retrieve);
        hits
    });
    trace.close(qa);
    trace.close(span);
    trace.close(root);
    counts.docs = result.breakdown.docs_considered;
    counts.filter_hits = result.breakdown.filter_hits;
    counts.regex_ops = result.breakdown.regex_ops;
    (respond(SiriusOutcome::Answer(result.answer), venue), counts)
}

/// The pipeline's deictic rewrite ("this restaurant" → the matched venue),
/// which `Sirius` keeps private. The replay's equality with
/// `Sirius::process` checks that this copy still agrees with it.
fn rewrite_deictic(question: &str, venue: &str) -> String {
    let words: Vec<&str> = question.split_whitespace().collect();
    for phrase in [
        &["this", "restaurant"][..],
        &["this", "place"],
        &["this", "shop"],
        &["this", "cafe"],
        &["this", "store"],
        &["it"],
    ] {
        if let Some(at) = words
            .windows(phrase.len())
            .position(|w| w.iter().zip(phrase).all(|(a, b)| a.eq_ignore_ascii_case(b)))
        {
            let mut out: Vec<&str> = Vec::with_capacity(words.len());
            out.extend_from_slice(&words[..at]);
            out.push(venue);
            out.extend_from_slice(&words[at + phrase.len()..]);
            return out.join(" ");
        }
    }
    format!("{question} {venue}")
}

/// The wire cost of one query, from the frames it would travel in.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireCost {
    pub encode: Duration,
    pub decode: Duration,
    pub submit_bytes: usize,
    pub answer_bytes: usize,
}

impl AddAssign for WireCost {
    fn add_assign(&mut self, w: WireCost) {
        self.encode += w.encode;
        self.decode += w.decode;
        self.submit_bytes += w.submit_bytes;
        self.answer_bytes += w.answer_bytes;
    }
}

/// Times `Frame::encode` of the query's Submit frame and `read_frame` of
/// its Answer frame, under spans `wire.encode` and `wire.decode`, and
/// checks that the answer survives the codec unchanged.
pub fn wire_cost(
    input: &SiriusInput,
    tenant_class: &str,
    answer: &SiriusResponse,
    trace: &mut Trace,
    request: u64,
) -> Result<WireCost, String> {
    let submit = Frame::Submit(SubmitFrame {
        tenant_class: tenant_class.to_owned(),
        deadline_ns: 0,
        audio: input.audio.clone(),
        image: input.image.clone(),
    });
    let e0 = Instant::now();
    let submit_bytes = submit.encode();
    let e1 = Instant::now();
    trace.record("wire.encode", e0, e1, None, request);
    let answer_frame = Frame::Answer(Box::new(answer.clone())).encode();
    let d0 = Instant::now();
    let decoded = read_frame(&mut &answer_frame[..]);
    let d1 = Instant::now();
    trace.record("wire.decode", d0, d1, None, request);
    match decoded {
        FrameRead::Frame(Frame::Answer(back)) if *back == *answer => Ok(WireCost {
            encode: e1 - e0,
            decode: d1 - d0,
            submit_bytes: submit_bytes.len(),
            answer_bytes: answer_frame.len(),
        }),
        other => Err(format!("answer frame did not round-trip: {other:?}")),
    }
}

/// The traced serial replay: every workload query [`REPLAY_REPS`] times
/// through the layers' public functions, each followed by a separately
/// timed `Sirius::process` of the same input. Sets the speech, vision,
/// search, nlp, core and ledger metrics (and wire, from the workload's own
/// frames, when `wire` is set) and returns the reconciliation checks.
pub fn replay_layers(
    sirius: &Sirius,
    reference: &Reference,
    acoustic: AcousticModelKind,
    wire: bool,
    metrics: &mut Metrics,
    epoch: Instant,
) -> Result<(Trace, Json, bool), String> {
    let mut trace = Trace::new(epoch);
    let mut counts = Counts::default();
    let mut wire_total = WireCost::default();
    let mut process_ns = 0u128;
    let mut mismatches = 0u64;
    let mut n = 0u64;
    for rep in 0..REPLAY_REPS {
        for (i, query) in reference.queries.iter().enumerate() {
            let request = 1_000_000 + (rep * reference.len() + i) as u64;
            let (answer, c) = replay(sirius, acoustic, &query.input, &mut trace, request);
            let t0 = Instant::now();
            let processed = sirius.process_with(&query.input, acoustic);
            process_ns += t0.elapsed().as_nanos();
            if !same_answer(&answer, &query.expected) || !same_answer(&processed, &query.expected) {
                eprintln!(
                    "REPLAY MISMATCH {:?}: replay {:?}, process {:?}",
                    query.spec.text, answer, processed
                );
                mismatches += 1;
            }
            if wire {
                let w = wire_cost(
                    &query.input,
                    CLASSES[i % 3],
                    &query.expected,
                    &mut trace,
                    request,
                )?;
                wire_total += w;
            }
            counts += c;
            n += 1;
        }
    }
    let nf = n as f64;
    let by_name = trace.totals_by_name();
    let total_ms = |name: &str| by_name.get(name).map_or(0.0, |e| e.0 as f64 / 1e6 / nf);
    let self_ms = |name: &str| by_name.get(name).map_or(0.0, |e| e.1 as f64 / 1e6 / nf);
    let per = |x: usize| x as f64 / nf;
    let score_ms = counts.score.as_secs_f64() * 1e3 / nf;
    metrics.set("speech.fe_ms", total_ms("speech.fe"));
    metrics.set("speech.decode_ms", total_ms("speech.decode"));
    metrics.set("speech.score_ms", score_ms);
    metrics.set("speech.search_ms", total_ms("speech.decode") - score_ms);
    metrics.set("speech.frames", per(counts.frames));
    metrics.set("speech.tokens_expanded", per(counts.tokens_expanded));
    metrics.set("vision.extract_ms", total_ms("vision.extract"));
    metrics.set("vision.match_ms", total_ms("vision.match"));
    metrics.set("vision.keypoints", per(counts.keypoints));
    metrics.set("search.retrieve_ms", total_ms("search.retrieve"));
    metrics.set("nlp.qa_ms", self_ms("nlp.qa"));
    metrics.set("nlp.docs", per(counts.docs));
    metrics.set("nlp.filter_hits", per(counts.filter_hits));
    metrics.set("nlp.regex_ops", per(counts.regex_ops));
    for (metric, span) in [
        ("core.asr_ms", "core.asr"),
        ("core.classify_ms", "core.classify"),
        ("core.imm_ms", "core.imm"),
        ("core.qa_ms", "core.qa"),
        ("core.process_ms", "core.process"),
    ] {
        metrics.set(metric, total_ms(span));
    }
    let process_ref_ms = process_ns as f64 / 1e6 / nf;
    metrics.set("core.process_ref_ms", process_ref_ms);
    metrics.set("ledger.replays", nf);
    if wire {
        metrics.set("wire.encode_us", wire_total.encode.as_secs_f64() * 1e6 / nf);
        metrics.set("wire.decode_us", wire_total.decode.as_secs_f64() * 1e6 / nf);
        metrics.set("wire.submit_bytes", per(wire_total.submit_bytes));
        metrics.set("wire.answer_bytes", per(wire_total.answer_bytes));
    }

    // Reconciliation: a container span's children must cover it, and the
    // replayed pipeline must cost what the real one does.
    let own = trace.self_times_ns();
    let mut has_children = vec![false; trace.spans().len()];
    for span in trace.spans() {
        if let Some(parent) = span.parent {
            has_children[parent] = true;
        }
    }
    let mut gaps = Vec::new();
    let mut worst_gap = 0.0f64;
    for container in ["core.process", "core.asr", "core.imm", "core.qa"] {
        let (mut total, mut uncovered) = (0u64, 0u64);
        for (i, span) in trace.spans().iter().enumerate() {
            if span.name == container && has_children[i] {
                total += span.duration_ns();
                uncovered += own[i];
            }
        }
        if total == 0 {
            continue;
        }
        let gap = 100.0 * uncovered as f64 / total as f64;
        worst_gap = worst_gap.max(gap);
        gaps.push((container, Json::Num(gap)));
    }
    let process_gap = 100.0 * (total_ms("core.process") - process_ref_ms).abs() / process_ref_ms;
    metrics.set("ledger.children_gap_pct", worst_gap);
    metrics.set("ledger.process_gap_pct", process_gap);
    let children_ok = worst_gap <= CHILDREN_GAP_BOUND_PCT;
    let process_ok = process_gap <= PROCESS_GAP_BOUND_PCT;
    if !children_ok || !process_ok {
        eprintln!(
            "LEDGER DOES NOT RECONCILE: children gap {worst_gap:.2}% (bound {CHILDREN_GAP_BOUND_PCT}%), \
             replay vs process {process_gap:.2}% (bound {PROCESS_GAP_BOUND_PCT}%)"
        );
    }
    let checks = Json::obj([
        ("replays", Json::Num(nf)),
        ("replay_mismatches", Json::Num(mismatches as f64)),
        ("children_gap_pct", Json::obj(gaps)),
        ("children_gap_bound_pct", Json::Num(CHILDREN_GAP_BOUND_PCT)),
        ("process_gap_pct", Json::Num(process_gap)),
        ("process_gap_bound_pct", Json::Num(PROCESS_GAP_BOUND_PCT)),
        (
            "fe_share_of_asr",
            Json::Num(total_ms("speech.fe") / total_ms("core.asr")),
        ),
    ]);
    Ok((trace, checks, mismatches == 0 && children_ok && process_ok))
}

#[cfg(test)]
mod tests {
    use super::rewrite_deictic;

    #[test]
    fn rewrite_matches_the_pipeline_rule() {
        assert_eq!(
            rewrite_deictic("when does this place close", "Crown Books"),
            "when does Crown Books close"
        );
        assert_eq!(
            rewrite_deictic("when does the kitchen close", "Harbor Grill"),
            "when does the kitchen close Harbor Grill"
        );
    }
}
