//! # tie-lint
//!
//! A workspace invariant checker for the TiMEr reproduction: statically
//! enforces the conventions every speedup claim rests on, so they are
//! machine-checked on every commit instead of guarded only by tests after
//! the fact.
//!
//! The load-bearing invariant is that `Timer::enhance` returns
//! byte-identical results on every re-run with the same seed
//! (docs/DETERMINISM.md). The rules:
//!
//! * **no-unordered-iteration** — no `HashMap`/`HashSet` iteration on
//!   non-test paths of result-affecting crates (lookups stay legal);
//! * **no-panic-paths** — no `unwrap`/`expect`/`panic!`/`todo!` on library
//!   paths, and `assert!` only inside `# Panics`-documented functions;
//! * **no-wallclock** — no `Instant::now`/`SystemTime` outside the
//!   deadline, trace-timestamp and bench modules;
//! * **registered-sites** — trace phase names and `TIE_FAULTS` site names
//!   used anywhere must come from the vocabularies exported by `tie-trace`
//!   and `tie-fault`.
//!
//! Audited exceptions are inline `// tie-lint: allow(rule) — reason`
//! comments on the finding's line or the line above it; each requires a
//! written justification and is reported when it stops suppressing
//! anything.
//!
//! Everything is hand-rolled (scanner included): the build environment has
//! no crates.io access, and the gate must not depend on anything the tree
//! itself cannot build.
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod rules;
pub mod scanner;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use rules::{check_file, FileClass, Finding, Vocab, RULE_ALLOWLIST};
use scanner::scan;

/// Result of scanning a workspace (or a fixture tree).
#[derive(Debug, Default)]
pub struct Report {
    /// Violations, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

impl Report {
    /// `file:line: rule: message` lines, one per finding.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}:{}: {}: {}", f.file, f.line, f.rule, f.message);
        }
        let _ = writeln!(
            out,
            "tie-lint: {} finding(s) in {} file(s)",
            self.findings.len(),
            self.files_scanned
        );
        out
    }

    /// Machine-readable report (archived by CI with the flight-recorder
    /// trace of its smoke run, so the finding count is part of the repo
    /// trajectory).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"tool\": \"tie-lint\",");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"finding_count\": {},", self.findings.len());
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
                json_string(&f.file),
                f.line,
                json_string(f.rule),
                json_string(&f.message)
            );
        }
        out.push_str(if self.findings.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push_str("}\n");
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Scans one file's source, applying its inline allow directives. Public
/// so the fixture suite can drive the exact production path with synthetic
/// paths and sources.
pub fn check_source(rel_path: &str, source: &str, vocab: &Vocab) -> Vec<Finding> {
    let class = FileClass::classify(rel_path);
    let scanned = scan(source);
    let raw = check_file(rel_path, &class, &scanned, vocab);
    let mut findings = Vec::new();
    for f in raw {
        // Inline directive on the finding's line, or standing alone on the
        // line directly above it.
        let inline = scanned.allows.iter().find(|a| {
            a.rule == f.rule
                && (a.line == f.line
                    || (a.line + 1 == f.line && scanned.comment_only_lines.contains(&a.line)))
        });
        if let Some(a) = inline {
            if a.reason.is_empty() {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: a.line,
                    rule: RULE_ALLOWLIST,
                    message: format!(
                        "inline allow({}) has no reason — write \
                         `// tie-lint: allow({}) — why` (directive ignored)",
                        a.rule, a.rule
                    ),
                });
                findings.push(f);
            } else {
                a.used.set(true);
            }
            continue;
        }
        findings.push(f);
    }
    // Inline directives that suppressed nothing are stale.
    for a in &scanned.allows {
        if !a.used.get() && !a.reason.is_empty() {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: a.line,
                rule: RULE_ALLOWLIST,
                message: format!(
                    "expired inline allow({}) no longer suppresses anything (delete it)",
                    a.rule
                ),
            });
        }
    }
    findings
}

/// Scans every workspace `.rs` file under `root`. IO problems become
/// findings, never a crash: the lint must be able to report on a tree it
/// cannot fully read.
pub fn scan_workspace(root: &Path) -> Report {
    let vocab = Vocab::workspace();
    let mut findings = Vec::new();
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files);
    files.sort();
    let files_scanned = files.len();
    for rel in &files {
        let abs = root.join(rel);
        match std::fs::read_to_string(&abs) {
            Ok(source) => findings.extend(check_source(rel, &source, &vocab)),
            Err(e) => findings.push(Finding {
                file: rel.clone(),
                line: 0,
                rule: RULE_ALLOWLIST,
                message: format!("unreadable file: {e}"),
            }),
        }
    }
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    Report {
        findings,
        files_scanned,
    }
}

/// Directories never scanned: third-party stand-ins, build output, VCS
/// internals, and the lint's own fixture corpus (which is violations on
/// purpose).
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures"];

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                collect_rs_files(root, &path, out);
            }
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                // `/`-separated workspace-relative path on every platform.
                let rel: Vec<String> = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect();
                out.push(rel.join("/"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab() -> Vocab {
        Vocab::workspace()
    }

    #[test]
    fn inline_allow_with_reason_suppresses() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    \
                   x.unwrap() // tie-lint: allow(no-panic-paths) — invariant: x is Some here\n}\n";
        let found = check_source("crates/graph/src/x.rs", src, &vocab());
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn inline_allow_on_previous_line_suppresses() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    \
                   // tie-lint: allow(no-panic-paths) — invariant: x is Some here\n    \
                   x.unwrap()\n}\n";
        let found = check_source("crates/graph/src/x.rs", src, &vocab());
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn inline_allow_without_reason_is_inert_and_flagged() {
        let src =
            "fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // tie-lint: allow(no-panic-paths)\n}\n";
        let found = check_source("crates/graph/src/x.rs", src, &vocab());
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found.iter().any(|f| f.rule == RULE_ALLOWLIST));
        assert!(found.iter().any(|f| f.rule == rules::RULE_PANIC));
    }

    #[test]
    fn expired_inline_allow_is_flagged() {
        let src = "// tie-lint: allow(no-wallclock) — was needed before refactor\nfn f() {}\n";
        let found = check_source("crates/graph/src/x.rs", src, &vocab());
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("expired inline allow"));
    }

    #[test]
    fn json_report_is_escaped_and_shaped() {
        let report = Report {
            findings: vec![Finding {
                file: "a\"b.rs".to_string(),
                line: 3,
                rule: rules::RULE_PANIC,
                message: "quote \" and newline \n".to_string(),
            }],
            files_scanned: 7,
        };
        let json = report.render_json();
        assert!(json.contains("\"finding_count\": 1"));
        assert!(json.contains("a\\\"b.rs"));
        assert!(json.contains("newline \\n"));
        assert!(!json.contains('\u{0}'));
    }

    #[test]
    fn text_report_format_is_file_line_rule_message() {
        let report = Report {
            findings: vec![Finding {
                file: "crates/x/src/a.rs".to_string(),
                line: 12,
                rule: rules::RULE_WALLCLOCK,
                message: "msg".to_string(),
            }],
            files_scanned: 1,
        };
        let text = report.render_text();
        assert!(text.starts_with("crates/x/src/a.rs:12: no-wallclock: msg\n"));
        assert!(text.contains("1 finding(s) in 1 file(s)"));
    }
}
