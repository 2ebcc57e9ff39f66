//! The correctness reference and the per-phase outcome ledger.

use sirius::pipeline::{Sirius, SiriusInput, SiriusOutcome, SiriusResponse};
use sirius::taxonomy::QuerySpec;
use sirius_speech::asr::{word_accuracy, AcousticModelKind};

use crate::json::Json;

/// One workload query: its ground truth, its input and what the serial
/// pipeline answers for it.
pub struct Query {
    pub spec: QuerySpec,
    pub input: SiriusInput,
    pub expected: SiriusResponse,
}

/// The workload's queries with their serial `Sirius::process` answers.
pub struct Reference {
    pub queries: Vec<Query>,
}

impl Reference {
    /// Answers every query through the serial pipeline.
    pub fn compute(
        sirius: &Sirius,
        queries: Vec<(QuerySpec, SiriusInput)>,
        acoustic: AcousticModelKind,
    ) -> Self {
        let queries = queries
            .into_iter()
            .map(|(spec, input)| {
                let expected = sirius.process_with(&input, acoustic);
                Query {
                    spec,
                    input,
                    expected,
                }
            })
            .collect();
        Self { queries }
    }

    pub fn len(&self) -> usize {
        self.queries.len()
    }

    pub fn input(&self, query: usize) -> &SiriusInput {
        &self.queries[query].input
    }
}

/// Whether two responses say the same thing: transcript, outcome and
/// venue (timings differ by nature).
pub fn same_answer(a: &SiriusResponse, b: &SiriusResponse) -> bool {
    a.recognized == b.recognized && a.outcome == b.outcome && a.matched_venue == b.matched_venue
}

/// Whether a response's outcome is the query's ground-truth answer.
pub fn answer_ok(spec: &QuerySpec, response: &SiriusResponse) -> bool {
    match &response.outcome {
        SiriusOutcome::Action(action) => action.action == spec.expected,
        SiriusOutcome::Answer(Some(answer)) => answer.eq_ignore_ascii_case(spec.expected),
        SiriusOutcome::Answer(None) => false,
    }
}

/// What happened to the queries of one phase.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Queries the generator sent.
    pub sent: u64,
    /// Queries answered (whatever their latency).
    pub completed: u64,
    /// Answered within the latency limit.
    pub within_slo: u64,
    /// Refused at admission: the server's typed overload responses.
    pub shed: u64,
    /// Admitted, then dropped in a queue when their deadline passed.
    pub expired: u64,
    /// Any other error.
    pub errored: u64,
    /// Answered differently from the serial reference.
    pub mismatched: u64,
    pub word_acc_sum: f64,
    pub answers_ok: u64,
}

impl Tally {
    /// Books one answer against the reference.
    pub fn answered(&mut self, query: &Query, response: &SiriusResponse, within_slo: bool) {
        self.completed += 1;
        self.within_slo += u64::from(within_slo);
        if !same_answer(response, &query.expected) {
            self.mismatched += 1;
            eprintln!(
                "MISMATCH {:?}: got {:?} / {:?} / {:?}, serial reference {:?} / {:?} / {:?}",
                query.spec.text,
                response.recognized,
                response.outcome,
                response.matched_venue,
                query.expected.recognized,
                query.expected.outcome,
                query.expected.matched_venue
            );
        }
        self.word_acc_sum += word_accuracy(&query.spec.text.to_lowercase(), &response.recognized);
        self.answers_ok += u64::from(answer_ok(&query.spec, response));
    }

    pub fn add(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.completed += other.completed;
        self.within_slo += other.within_slo;
        self.shed += other.shed;
        self.expired += other.expired;
        self.errored += other.errored;
        self.mismatched += other.mismatched;
        self.word_acc_sum += other.word_acc_sum;
        self.answers_ok += other.answers_ok;
    }

    /// Every sent query is accounted for exactly once.
    pub fn balanced(&self) -> bool {
        self.sent == self.completed + self.shed + self.expired + self.errored
    }

    pub fn to_json(&self) -> Json {
        let n = |x: u64| Json::Num(x as f64);
        Json::obj([
            ("sent", n(self.sent)),
            ("succeeded", n(self.completed)),
            ("within_slo", n(self.within_slo)),
            ("shed", n(self.shed)),
            ("expired", n(self.expired)),
            ("failed", n(self.errored)),
            ("mismatched", n(self.mismatched)),
        ])
    }
}
