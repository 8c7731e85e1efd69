//! Structured sanitizer findings: what went wrong, where, who did it, and
//! the DXT-style byte segments and event ids that witness it.

use serde::{Deserialize, Serialize};

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Informational — surfaced but never fails a gate by itself.
    Info,
    /// Likely-latent problem (leak, predicted deadlock).
    Warning,
    /// Definite correctness violation observed in this run.
    Error,
}

/// What kind of violation a finding reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Category {
    /// Overlapping file ranges, different simulated threads, at least one
    /// write, no happens-before edge and no common lock.
    DataRace,
    /// A descriptor operation after the descriptor was closed.
    UseAfterClose,
    /// `close` on an already-closed descriptor.
    DoubleClose,
    /// A descriptor still open when its opening task finished (and never
    /// closed by anyone before the run ended).
    FdLeak,
    /// A cycle in the lock-order graph: a potential deadlock, even if this
    /// run's interleaving did not trigger it.
    LockOrderCycle,
    /// GOT symbols left patched after detach (the paper's reversibility
    /// guarantee, violated).
    SymtabImbalance,
    /// Non-application-origin bytes folded into App-only statistics.
    OriginLeak,
    /// A schedule reached a state with live tasks and nothing runnable.
    /// Never produced by a single sanitized run (the scheduler panics with
    /// the wait-for graph instead); the `explore` model checker converts
    /// that panic into a finding so a deadlocking interleaving is reported
    /// and replayable like any other verdict.
    Deadlock,
}

impl Category {
    /// Stable lowercase name, used in summaries.
    pub fn name(&self) -> &'static str {
        match self {
            Category::DataRace => "data-race",
            Category::UseAfterClose => "use-after-close",
            Category::DoubleClose => "double-close",
            Category::FdLeak => "fd-leak",
            Category::LockOrderCycle => "lock-order-cycle",
            Category::SymtabImbalance => "symtab-imbalance",
            Category::OriginLeak => "origin-leak",
            Category::Deadlock => "deadlock",
        }
    }
}

/// One offending access, in DXT segment form.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Segment {
    /// Simulated thread that performed the access.
    pub task: u64,
    /// Byte offset in the file.
    pub offset: u64,
    /// Length of the access.
    pub len: u64,
    /// True for a write.
    pub write: bool,
    /// Virtual start time (seconds).
    pub start: f64,
    /// Virtual end time (seconds).
    pub end: f64,
    /// Id of the witnessing event in the analyzed stream.
    pub event: u64,
}

/// One sanitizer finding.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Finding {
    /// How bad.
    pub severity: Severity,
    /// What kind.
    pub category: Category,
    /// Human-readable description.
    pub message: String,
    /// File the finding concerns (empty when not file-scoped).
    pub file: String,
    /// Simulated threads involved.
    pub tasks: Vec<u64>,
    /// Offending DXT segments (for races: both sides).
    pub segments: Vec<Segment>,
    /// Event ids in the analyzed stream that witness the finding.
    pub witnesses: Vec<u64>,
}

impl Finding {
    /// Schedule-independent identity of the finding: an FNV-1a hash over
    /// the category, file, involved tasks and segment shapes — but *not*
    /// over event ids, witnesses or timestamps, which depend on the
    /// interleaving that exposed the bug. Exploration harnesses use this
    /// to deduplicate the same underlying defect across many schedules
    /// and to check that replaying a shrunk trace reproduces the same
    /// finding.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        eat(self.category.name().as_bytes());
        eat(&[0xff]);
        eat(self.file.as_bytes());
        eat(&[0xff]);
        let mut tasks = self.tasks.clone();
        tasks.sort_unstable();
        for t in tasks {
            eat(&t.to_le_bytes());
        }
        eat(&[0xff]);
        let mut segs: Vec<(u64, u64, u64, bool)> = self
            .segments
            .iter()
            .map(|s| (s.task, s.offset, s.len, s.write))
            .collect();
        segs.sort_unstable();
        for (task, offset, len, write) in segs {
            eat(&task.to_le_bytes());
            eat(&offset.to_le_bytes());
            eat(&len.to_le_bytes());
            eat(&[write as u8]);
        }
        if self.tasks.is_empty() && self.segments.is_empty() {
            // Lock cycles / symtab findings have no file or segment shape;
            // the message (lock names, symbol list) is their identity.
            eat(&[0xff]);
            eat(self.message.as_bytes());
        }
        h
    }
}

/// Full output of one sanitized run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SanitizerReport {
    /// All findings, ordered by (descending severity, category, file).
    pub findings: Vec<Finding>,
    /// Events folded from the probe spine.
    pub events_analyzed: u64,
    /// Distinct simulated threads observed.
    pub tasks_seen: u64,
    /// Distinct files with tracked byte-range accesses.
    pub files_tracked: u64,
    /// Distinct locks observed in acquire events.
    pub locks_tracked: u64,
    /// App-origin descriptor read+write bytes (the origin-audit ledger).
    pub app_bytes: u64,
    /// Prefetch-daemon-origin descriptor bytes.
    pub prefetch_bytes: u64,
    /// Stdio-internal descriptor bytes (buffer refills and spills).
    pub stdio_internal_bytes: u64,
}

impl SanitizerReport {
    /// True when no findings were reported.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of findings at [`Severity::Error`].
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Number of findings at [`Severity::Warning`].
    pub fn warnings(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .count()
    }

    /// Findings of a given category.
    pub fn of_category(&self, c: Category) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.category == c).collect()
    }

    /// Compact summary for embedding in the tf-Darshan job report.
    pub fn summary(&self) -> SanitizerSummary {
        let mut categories: Vec<String> = self
            .findings
            .iter()
            .map(|f| f.category.name().to_string())
            .collect();
        categories.sort();
        categories.dedup();
        SanitizerSummary {
            findings: self.findings.len() as u64,
            errors: self.errors() as u64,
            warnings: self.warnings() as u64,
            events_analyzed: self.events_analyzed,
            categories,
        }
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Render as an ASCII panel (appended to the job summary).
    pub fn render_ascii(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "-- iosan: I/O sanitizer --");
        let _ = writeln!(
            out,
            "events analyzed: {} | tasks: {} | files: {} | locks: {}",
            self.events_analyzed, self.tasks_seen, self.files_tracked, self.locks_tracked
        );
        let _ = writeln!(
            out,
            "origin ledger: app {} B | prefetch {} B | stdio-internal {} B",
            self.app_bytes, self.prefetch_bytes, self.stdio_internal_bytes
        );
        if self.findings.is_empty() {
            let _ = writeln!(out, "no findings");
            return out;
        }
        let _ = writeln!(
            out,
            "{} finding(s): {} error(s), {} warning(s)",
            self.findings.len(),
            self.errors(),
            self.warnings()
        );
        for f in &self.findings {
            let sev = match f.severity {
                Severity::Error => "ERROR",
                Severity::Warning => "WARN ",
                Severity::Info => "INFO ",
            };
            let _ = writeln!(out, "[{sev}] {}: {}", f.category.name(), f.message);
            for s in &f.segments {
                let _ = writeln!(
                    out,
                    "        t{} {} [{}, {}) at {:.6}s..{:.6}s (event #{})",
                    s.task,
                    if s.write { "write" } else { "read" },
                    s.offset,
                    s.offset + s.len,
                    s.start,
                    s.end,
                    s.event
                );
            }
        }
        out
    }
}

/// Compact sanitizer summary embedded into `TfDarshanReport`-style job
/// summaries.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SanitizerSummary {
    /// Total findings.
    pub findings: u64,
    /// Findings at error severity.
    pub errors: u64,
    /// Findings at warning severity.
    pub warnings: u64,
    /// Events folded from the probe spine.
    pub events_analyzed: u64,
    /// Sorted, deduplicated category names present.
    pub categories: Vec<String>,
}
