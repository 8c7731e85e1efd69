//! The serve path every profiled session takes: `SessionDiffMsg::to_line`
//! → `from_line` → `Aggregator::ingest`, one `render_metrics` scrape per
//! window round, and the checks that the fleet view stays exact.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use serve::{Aggregator, AggregatorConfig, Enqueue};
use tfdarshan::{RankSession, SessionDiffMsg, TfDarshanReport};

use crate::stats::{ms_since, timed, Spans};
use crate::Checks;

/// The u64 counters serve must reproduce exactly for each tenant.
fn totals(r: &TfDarshanReport) -> [u64; 7] {
    [
        r.io.opens,
        r.io.reads,
        r.io.writes,
        r.io.bytes_read,
        r.io.bytes_written,
        r.stdio.writes,
        r.stdio.bytes_written,
    ]
}

pub struct Publisher {
    agg: Aggregator,
    seq: HashMap<(String, u32), u64>,
    expected: BTreeMap<String, [u64; 7]>,
    offered: u64,
    /// Diffs decoded and ingested per host second, one entry per round.
    pub ingest_per_s: Vec<f64>,
    /// Host ms of each round's `render_metrics`.
    pub scrape_ms: Vec<f64>,
    /// Size of the last scrape.
    pub metrics_bytes: usize,
}

impl Publisher {
    pub fn new() -> Self {
        Publisher {
            agg: Aggregator::new(AggregatorConfig::default()),
            seq: HashMap::new(),
            expected: BTreeMap::new(),
            offered: 0,
            ingest_per_s: Vec::new(),
            scrape_ms: Vec::new(),
            metrics_bytes: 0,
        }
    }

    /// Wrap one rank's session as the next message of `(job, rank)`.
    pub fn message(&mut self, job: &str, session: &RankSession) -> SessionDiffMsg {
        let seq = self.seq.entry((job.to_string(), session.rank)).or_insert(0);
        let msg = SessionDiffMsg::from_session(job, *seq, session);
        *seq += 1;
        msg
    }

    /// Record a job-level report whose counters serve must match.
    pub fn expect(&mut self, job: &str, report: &TfDarshanReport) {
        let e = self.expected.entry(job.to_string()).or_default();
        for (a, b) in e.iter_mut().zip(totals(report)) {
            *a += b;
        }
    }

    /// Decode and ingest one round of wire lines, checking on the way
    /// that each decodes back to its source message (re-encoding the
    /// decoded message reproduces the line byte for byte). Only decode and
    /// ingest are timed; with `spans`, each call is timed on its own too.
    /// Returns the host ms of the timed calls.
    pub fn ingest_round(
        &mut self,
        lines: &[String],
        mut spans: Option<&mut Spans>,
        checks: &mut Checks,
    ) -> f64 {
        let mut ms = 0.0;
        let mut decoded = Vec::with_capacity(lines.len());
        for line in lines {
            let t = Instant::now();
            let msg = timed(spans.as_deref_mut(), "wire.decode", || {
                SessionDiffMsg::from_line(line)
            });
            ms += ms_since(t);
            let ok = matches!(&msg, Ok(m) if m.to_line() == *line);
            checks.check(ok, || "wire line does not round-trip".into());
            decoded.extend(msg.ok());
        }
        for msg in decoded {
            self.offered += 1;
            let t = Instant::now();
            let r = timed(spans.as_deref_mut(), "serve.ingest", || {
                self.agg.ingest(msg)
            });
            ms += ms_since(t);
            checks.check(r == Enqueue::Queued, || format!("ingest returned {r:?}"));
        }
        if !lines.is_empty() {
            self.ingest_per_s.push(lines.len() as f64 / (ms / 1e3));
        }
        ms
    }

    /// One `render_metrics` scrape.
    pub fn scrape(&mut self) {
        let t = Instant::now();
        let text = self.agg.render_metrics();
        self.scrape_ms.push(ms_since(t));
        self.metrics_bytes = text.len();
    }

    /// Each tenant's serve totals are u64-equal to the sum of its own
    /// job reports, and nothing was dropped.
    pub fn check_totals(&self, checks: &mut Checks) {
        for (job, want) in &self.expected {
            let got = self.agg.job(job).map(|a| {
                let r = a.report();
                totals(&r)
            });
            checks.check(got.as_ref() == Some(want), || {
                format!("tenant {job}: serve totals {got:?} != job reports {want:?}")
            });
        }
        let fleet = self.agg.fleet();
        checks.check(fleet.dropped == 0 && fleet.ingested == self.offered, || {
            format!(
                "serve ingested {} of {} offered",
                fleet.ingested, self.offered
            )
        });
    }

    pub fn ingested(&self) -> u64 {
        self.agg.fleet().ingested
    }

    pub fn dropped(&self) -> u64 {
        self.agg.fleet().dropped
    }

    pub fn offered(&self) -> u64 {
        self.offered
    }
}
