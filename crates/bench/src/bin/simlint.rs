//! simlint: forbid host-time and host-sync primitives in simulation code.
//!
//! The whole point of the simrt stack is that workloads run in *virtual*
//! time under a deterministic scheduler. A stray `std::thread::sleep`, a
//! wall-clock `Instant`, an OS `std::sync::Mutex` (invisible to the sync
//! bridge, so it punches holes in happens-before analysis and can wedge
//! the virtual-time deadlock detector), or an unseeded `thread_rng` each
//! silently break determinism — exactly the property the `explore` model
//! checker and the replay-token machinery depend on.
//!
//! A bare `simrt::block` outside simrt is flagged too: waits go through
//! the `simrt::sync` primitives, whose poll forms emit the sync edges and
//! wait contexts that a hand-rolled wait list would skip.
//!
//! This binary scans the workspace's simulation sources (`crates/*/src`,
//! `src`, `examples`, `tests`) line by line for those patterns and exits
//! non-zero listing every hit. Wall-clock benchmarks (`crates/*/benches`)
//! are out of scope by construction: measuring host time is their job.
//!
//! Host-side code that legitimately needs a host primitive (a live daemon
//! ticking in real time, a test harness polling a real socket) opts out
//! per line with a marker comment on the offending line or the line above:
//!
//! ```text
//! // simlint: allow(host-sleep)
//! std::thread::sleep(interval);
//! ```
//!
//! ```text
//! cargo run --release -p bench --bin simlint
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

struct Rule {
    /// Name used in diagnostics and `simlint: allow(<name>)` escapes.
    name: &'static str,
    /// Substrings that trigger the rule. Built by concatenation below so
    /// this file never matches itself.
    needles: Vec<String>,
    why: &'static str,
}

fn rules() -> Vec<Rule> {
    // Concatenate every needle so simlint's own source stays clean under
    // simlint.
    let col = String::from("::");
    let rules = vec![
        Rule {
            name: "host-instant",
            needles: vec![
                format!("std{col}time{col}Instant"),
                format!("Instant{col}now("),
                format!("System{}", "Time"),
            ],
            why: "wall-clock time diverges across runs; use simrt::now()/SimTime",
        },
        Rule {
            name: "host-sleep",
            needles: vec![
                format!("std{col}thread{col}sleep"),
                format!("thread{col}sleep("),
            ],
            why: "host sleeps stall the carrier thread; use simrt::sleep()",
        },
        Rule {
            name: "std-sync",
            needles: vec![
                format!("std{col}sync{col}Mutex"),
                format!("std{col}sync{col}RwLock"),
                format!("std{col}sync{col}Condvar"),
            ],
            why: "OS sync primitives are invisible to the sync bridge (no HB edges, no deadlock detection); use simrt::sync or parking_lot for plain data",
        },
        Rule {
            name: "thread-rng",
            needles: vec![format!("rand{col}thread_rng"), format!("thread_rng{}", "()")],
            why: "unseeded RNG breaks schedule replay; use a seeded StdRng",
        },
        Rule {
            // simrt calls its own `block` unqualified, so only uses
            // outside the crate match.
            name: "raw-block",
            needles: vec![format!("simrt{col}block(")],
            why: "a hand-rolled wait list is invisible to the sync stream (no HB edges, no wait context); wait on a simrt::sync primitive",
        },
    ];
    rules
}

struct Hit {
    path: PathBuf,
    line: usize,
    rule: &'static str,
    why: &'static str,
    text: String,
}

fn collect_rs_files(root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(root) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name == "vendor" || name == ".git" {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

/// True when `line` (or the previous line) carries an escape for `rule`.
fn allowed(lines: &[&str], idx: usize, rule: &str) -> bool {
    let marker = format!("simlint: allow({rule})");
    if lines[idx].contains(&marker) {
        return true;
    }
    idx > 0 && lines[idx - 1].contains(&marker)
}

fn scan_file(path: &Path, rules: &[Rule], hits: &mut Vec<Hit>) {
    let Ok(content) = fs::read_to_string(path) else {
        return;
    };
    let lines: Vec<&str> = content.lines().collect();
    for (idx, line) in lines.iter().enumerate() {
        // Comment-only lines (docs discussing the forbidden pattern) are
        // not code.
        if line.trim_start().starts_with("//") {
            continue;
        }
        for rule in rules {
            if rule.needles.iter().any(|n| line.contains(n.as_str()))
                && !allowed(&lines, idx, rule.name)
            {
                hits.push(Hit {
                    path: path.to_path_buf(),
                    line: idx + 1,
                    rule: rule.name,
                    why: rule.why,
                    text: line.trim().to_string(),
                });
            }
        }
    }
}

fn main() {
    let manifest = env!("CARGO_MANIFEST_DIR"); // crates/bench
    let repo = Path::new(manifest)
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let rules = rules();

    let mut files = Vec::new();
    let Ok(crates) = fs::read_dir(repo.join("crates")) else {
        eprintln!("simlint: no crates/ directory under {}", repo.display());
        std::process::exit(2);
    };
    for entry in crates.flatten() {
        collect_rs_files(&entry.path().join("src"), &mut files);
    }
    collect_rs_files(&repo.join("src"), &mut files);
    collect_rs_files(&repo.join("examples"), &mut files);
    collect_rs_files(&repo.join("tests"), &mut files);
    files.sort();

    let mut hits = Vec::new();
    for f in &files {
        scan_file(f, &rules, &mut hits);
    }
    hits.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));

    let mut out = String::new();
    for h in &hits {
        let rel = h.path.strip_prefix(repo).unwrap_or(&h.path);
        let _ = writeln!(
            out,
            "{}:{}: [{}] {}\n    {}",
            rel.display(),
            h.line,
            h.rule,
            h.text,
            h.why
        );
    }
    print!("{out}");
    println!(
        "simlint: {} file(s) scanned, {} violation(s) -> {}",
        files.len(),
        hits.len(),
        if hits.is_empty() { "PASS" } else { "FAIL" }
    );
    if !hits.is_empty() {
        std::process::exit(1);
    }
}
