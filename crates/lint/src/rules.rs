//! The rule registry: every workspace invariant `tie-lint` enforces, run
//! over the token stream of one file at a time.
//!
//! | rule | guards | scope |
//! |------|--------|-------|
//! | `no-unordered-iteration` | `Timer::enhance` byte-identity | non-test `src/` of result-affecting crates |
//! | `no-panic-paths` | PR 7's no-panic library taxonomy | non-test `src/` of library crates |
//! | `no-wallclock` | results never depend on wall-clock | non-test `src/` outside bench/trace |
//! | `registered-sites` | trace/fault site vocabularies | everywhere, including tests |
//!
//! Scopes are derived from the file's workspace-relative path by
//! [`FileClass::classify`]; `cfg(test)` regions inside scanned files are
//! exempt from the first three rules via the scanner's span analysis.

use crate::scanner::{ScannedFile, Tok, Token};

/// Crates whose code can influence the bytes of a TIMER result. These are
/// the crates the byte-identity invariant (docs/DETERMINISM.md) is stated
/// over; `no-unordered-iteration` applies to their non-test sources.
pub const RESULT_AFFECTING_CRATES: &[&str] = &[
    "graph",
    "timer",
    "mapping",
    "topology",
    "partition",
    "metrics",
];

/// Library crates held to the no-panic taxonomy of PR 7: the result-affecting
/// set plus the observability/chaos substrate, the `mapd` service layer and
/// the lint itself.
pub const NO_PANIC_CRATES: &[&str] = &[
    "graph",
    "timer",
    "mapping",
    "topology",
    "partition",
    "metrics",
    "trace",
    "fault",
    "lint",
    "mapd",
];

/// Crates allowed to read the wall clock freely: the bench harness times
/// things by definition, `tie-trace` owns the trace-timestamp epoch and the
/// phase spans, and `mapd` anchors request deadlines on real time (its
/// wall-clock reads gate *when* work stops, never what is computed).
pub const WALLCLOCK_EXEMPT_CRATES: &[&str] = &["bench", "trace", "mapd"];

/// Rule identifiers as they appear in findings and allow directives.
pub const RULE_UNORDERED: &str = "no-unordered-iteration";
pub const RULE_PANIC: &str = "no-panic-paths";
pub const RULE_WALLCLOCK: &str = "no-wallclock";
pub const RULE_SITES: &str = "registered-sites";
/// Meta-rule for allow-directive hygiene (expired directives, missing
/// reasons) and for files the scan cannot read.
pub const RULE_ALLOWLIST: &str = "allowlist";

/// All rule names an allow directive may name.
pub const ALL_RULES: &[&str] = &[RULE_UNORDERED, RULE_PANIC, RULE_WALLCLOCK, RULE_SITES];

/// One violation, printed as `file:line: rule: message`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

/// Which rules apply to a file, derived from its workspace-relative path.
#[derive(Clone, Debug, Default)]
pub struct FileClass {
    pub crate_name: Option<String>,
    /// Whole-file test context: integration tests, benches, examples.
    pub test_context: bool,
    pub check_unordered: bool,
    pub check_panic: bool,
    pub check_wallclock: bool,
    pub check_sites: bool,
    /// Fault-site strings are not checked inside `tie-fault` itself (it
    /// defines the vocabulary and its tests parse arbitrary site specs) or
    /// inside `tie-lint` (whose tests use unregistered names as vectors).
    pub check_fault_sites: bool,
    /// Phase-name strings are likewise not checked inside `tie-trace`
    /// (vocabulary owner) or `tie-lint`.
    pub check_phase_names: bool,
}

impl FileClass {
    /// Classifies a workspace-relative path (`/`-separated).
    pub fn classify(rel_path: &str) -> FileClass {
        let crate_name = rel_path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .map(str::to_string);
        let test_context = rel_path.contains("/tests/")
            || rel_path.contains("/benches/")
            || rel_path.contains("/examples/")
            || rel_path.starts_with("tests/")
            || rel_path.starts_with("examples/")
            || rel_path.starts_with("benches/");
        let in_crate_src = |set: &[&str]| {
            crate_name
                .as_deref()
                .is_some_and(|c| set.contains(&c) && rel_path.contains("/src/"))
        };
        let wallclock = !test_context
            && match crate_name.as_deref() {
                Some(c) => !WALLCLOCK_EXEMPT_CRATES.contains(&c) && rel_path.contains("/src/"),
                // Root package sources (src/lib.rs) are library code too.
                None => rel_path.starts_with("src/"),
            };
        FileClass {
            check_unordered: !test_context && in_crate_src(RESULT_AFFECTING_CRATES),
            check_panic: !test_context && in_crate_src(NO_PANIC_CRATES),
            check_wallclock: wallclock,
            check_sites: true,
            check_fault_sites: !matches!(crate_name.as_deref(), Some("fault" | "lint")),
            check_phase_names: !matches!(crate_name.as_deref(), Some("trace" | "lint")),
            crate_name,
            test_context,
        }
    }
}

/// The fixed vocabularies the `registered-sites` rule checks against.
#[derive(Clone, Debug)]
pub struct Vocab {
    pub fault_sites: Vec<String>,
    pub phase_names: Vec<String>,
}

impl Vocab {
    /// The real workspace vocabularies, pulled from the crates that export
    /// them — the lint can never drift from the code it checks.
    pub fn workspace() -> Vocab {
        Vocab {
            fault_sites: tie_fault::SITES.iter().map(|s| s.to_string()).collect(),
            phase_names: tie_trace::Phase::ALL
                .iter()
                .map(|p| p.name().to_string())
                .collect(),
        }
    }
}

/// Methods whose call on a `HashMap`/`HashSet` visits entries in hash order.
const ITERATION_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Runs every applicable rule over one scanned file.
pub fn check_file(
    rel_path: &str,
    class: &FileClass,
    scanned: &ScannedFile,
    vocab: &Vocab,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let toks = &scanned.tokens;
    let finding = |line: u32, rule: &'static str, message: String| Finding {
        file: rel_path.to_string(),
        line,
        rule,
        message,
    };

    if class.check_unordered {
        let hash_names = collect_hash_names(toks, scanned);
        findings.extend(
            unordered_iteration_sites(toks, scanned, &hash_names)
                .into_iter()
                .map(|(line, msg)| finding(line, RULE_UNORDERED, msg)),
        );
    }

    for (k, t) in toks.iter().enumerate() {
        if scanned.in_test_code(t.line) {
            continue;
        }
        let Tok::Ident(id) = &t.tok else { continue };
        let prev_is_dot = k > 0 && toks[k - 1].tok == Tok::Punct('.');
        let next_is_bang = toks.get(k + 1).map(|n| &n.tok) == Some(&Tok::Punct('!'));
        if class.check_panic {
            match id.as_str() {
                "unwrap" | "expect" if prev_is_dot => {
                    findings.push(finding(
                        t.line,
                        RULE_PANIC,
                        format!(".{id}() on a library path (return a TieError instead)"),
                    ));
                }
                "panic" | "todo" | "unimplemented" if next_is_bang => {
                    findings.push(finding(
                        t.line,
                        RULE_PANIC,
                        format!("{id}! on a library path (return a TieError instead)"),
                    ));
                }
                "assert" | "assert_eq" | "assert_ne"
                    if next_is_bang && !scanned.in_panics_documented_fn(t.line) =>
                {
                    findings.push(finding(
                        t.line,
                        RULE_PANIC,
                        format!(
                            "{id}! outside a `# Panics`-documented function \
                             (document the contract or use debug_assert)"
                        ),
                    ));
                }
                _ => {}
            }
        }
        if class.check_wallclock {
            let wallclock = id == "SystemTime"
                || (id == "Instant"
                    && toks.get(k + 1).map(|n| &n.tok) == Some(&Tok::Punct(':'))
                    && toks.get(k + 2).map(|n| &n.tok) == Some(&Tok::Punct(':'))
                    && matches!(toks.get(k + 3).map(|n| &n.tok), Some(Tok::Ident(m)) if m == "now"));
            if wallclock {
                findings.push(finding(
                    t.line,
                    RULE_WALLCLOCK,
                    format!(
                        "{id} read outside the deadline/trace-timestamp/bench modules \
                         (results must not depend on wall-clock)"
                    ),
                ));
            }
        }
    }

    if class.check_sites {
        findings.extend(
            site_findings(toks, class, vocab)
                .into_iter()
                .map(|(line, msg)| finding(line, RULE_SITES, msg)),
        );
    }

    findings
}

/// Pass 1 of `no-unordered-iteration`: names whose declared type or
/// initializer marks them as `HashMap`/`HashSet` (let bindings, struct
/// fields, fn params — anything of the shape `name: HashMap<…>` or
/// `name = HashMap::…`).
fn collect_hash_names(toks: &[Token], scanned: &ScannedFile) -> Vec<String> {
    let mut names = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        let Tok::Ident(name) = &t.tok else { continue };
        if scanned.in_test_code(t.line) {
            continue;
        }
        let Some(next) = toks.get(k + 1) else {
            continue;
        };
        // Type-annotation head: the last path ident before the first
        // structural punct decides (`Vec<HashSet<…>>` is a Vec).
        let type_is_hash = |from: usize| -> bool {
            let mut last_ident: Option<&str> = None;
            for tok in toks.iter().skip(from).take(12) {
                match &tok.tok {
                    Tok::Ident(id) => last_ident = Some(id),
                    Tok::Punct(':') | Tok::Punct('&') => {}
                    _ => break,
                }
            }
            matches!(last_ident, Some("HashMap" | "HashSet"))
        };
        // Initializer head: `= HashMap::new()`, `= x.collect::<HashSet<_>>()`
        // — any hash-type ident before the first call/terminator counts, but
        // an argument position (`= foo(HashMap::new())`) does not.
        let init_is_hash = |from: usize| -> bool {
            for tok in toks.iter().skip(from).take(12) {
                match &tok.tok {
                    Tok::Ident(id) if id == "HashMap" || id == "HashSet" => return true,
                    Tok::Ident(_)
                    | Tok::Punct(':')
                    | Tok::Punct('.')
                    | Tok::Punct('<')
                    | Tok::Punct('&') => {}
                    _ => break,
                }
            }
            false
        };
        let tracked = match &next.tok {
            // `name: HashMap<…>` — but not `path::name`.
            Tok::Punct(':')
                if toks.get(k + 2).map(|n| &n.tok) != Some(&Tok::Punct(':'))
                    && (k == 0 || toks[k - 1].tok != Tok::Punct(':')) =>
            {
                type_is_hash(k + 2)
            }
            // `name = HashMap::new()` — but not `name == …`.
            Tok::Punct('=') => {
                toks.get(k + 2).is_some_and(|n| n.tok != Tok::Punct('=')) && init_is_hash(k + 2)
            }
            _ => false,
        };
        if tracked && !names.contains(name) {
            names.push(name.clone());
        }
    }
    names
}

/// Pass 2: iteration forms over tracked names — `name.iter()` and friends,
/// and `for … in [&[mut]] name` (with or without a `self.` prefix).
fn unordered_iteration_sites(
    toks: &[Token],
    scanned: &ScannedFile,
    hash_names: &[String],
) -> Vec<(u32, String)> {
    let mut sites = Vec::new();
    let is_tracked =
        |tok: &Tok| matches!(tok, Tok::Ident(id) if hash_names.iter().any(|n| n == id));
    for (k, t) in toks.iter().enumerate() {
        if scanned.in_test_code(t.line) {
            continue;
        }
        match &t.tok {
            // `name . method (` — `self . name . method (` reaches here too,
            // since the match is on the name token itself.
            Tok::Ident(_)
                if is_tracked(&t.tok)
                    && toks.get(k + 1).map(|n| &n.tok) == Some(&Tok::Punct('.')) =>
            {
                if let Some(Tok::Ident(m)) = toks.get(k + 2).map(|n| &n.tok) {
                    if ITERATION_METHODS.contains(&m.as_str())
                        && toks.get(k + 3).map(|n| &n.tok) == Some(&Tok::Punct('('))
                    {
                        let Tok::Ident(name) = &t.tok else { continue };
                        sites.push((
                            toks[k + 2].line,
                            format!(
                                "{name}.{m}() iterates a HashMap/HashSet in hash order \
                                 (use a BTreeMap/sorted Vec, or sort before use)"
                            ),
                        ));
                    }
                }
            }
            // `for PAT in [&[mut]] [self.] name {`
            Tok::Ident(id) if id == "for" => {
                let Some(in_at) = toks[k..]
                    .iter()
                    .take(24)
                    .position(|t| t.tok == Tok::Ident("in".to_string()))
                    .map(|off| k + off)
                else {
                    continue;
                };
                let mut e = in_at + 1;
                loop {
                    match toks.get(e).map(|t| &t.tok) {
                        Some(Tok::Punct('&')) => e += 1,
                        Some(Tok::Ident(m)) if m == "mut" => e += 1,
                        _ => break,
                    }
                }
                // Optional `self .` prefix.
                if matches!(toks.get(e).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "self")
                    && toks.get(e + 1).map(|t| &t.tok) == Some(&Tok::Punct('.'))
                {
                    e += 2;
                }
                let Some(name_tok) = toks.get(e) else {
                    continue;
                };
                if is_tracked(&name_tok.tok)
                    && toks.get(e + 1).map(|t| &t.tok) == Some(&Tok::Punct('{'))
                {
                    let Tok::Ident(name) = &name_tok.tok else {
                        continue;
                    };
                    sites.push((
                        name_tok.line,
                        format!(
                            "for-loop over {name} visits a HashMap/HashSet in hash order \
                             (use a BTreeMap/sorted Vec, or sort before use)"
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
    sites
}

/// `registered-sites`: string arguments of site/phase-keyed calls, and
/// `delay:SITE=` directives embedded in `TIE_FAULTS`-style string literals,
/// must come from the exported vocabularies.
fn site_findings(toks: &[Token], class: &FileClass, vocab: &Vocab) -> Vec<(u32, String)> {
    let mut sites = Vec::new();
    let known = |list: &[String], s: &str| list.iter().any(|v| v == s);
    for (k, t) in toks.iter().enumerate() {
        match &t.tok {
            Tok::Ident(id)
                if (id == "delay" || id == "with_delay")
                    && class.check_fault_sites
                    && toks.get(k + 1).map(|n| &n.tok) == Some(&Tok::Punct('(')) =>
            {
                if let Some(Tok::Str(site)) = toks.get(k + 2).map(|n| &n.tok) {
                    if !known(&vocab.fault_sites, site) {
                        sites.push((
                            toks[k + 2].line,
                            format!(
                                "fault site {site:?} is not in tie_fault::SITES \
                                 (register it or fix the name)"
                            ),
                        ));
                    }
                }
            }
            Tok::Ident(id)
                if id == "from_name"
                    && class.check_phase_names
                    && toks.get(k + 1).map(|n| &n.tok) == Some(&Tok::Punct('(')) =>
            {
                if let Some(Tok::Str(name)) = toks.get(k + 2).map(|n| &n.tok) {
                    if !known(&vocab.phase_names, name) {
                        sites.push((
                            toks[k + 2].line,
                            format!(
                                "phase name {name:?} is not in tie_trace::Phase::ALL \
                                 (register it or fix the name)"
                            ),
                        ));
                    }
                }
            }
            Tok::Str(s) if class.check_fault_sites && s.contains("delay:") => {
                for directive in s.split(',').map(str::trim) {
                    if let Some(rest) = directive.strip_prefix("delay:") {
                        if let Some((site, _)) = rest.split_once('=') {
                            if !known(&vocab.fault_sites, site) {
                                sites.push((
                                    t.line,
                                    format!(
                                        "TIE_FAULTS delay site {site:?} is not in \
                                         tie_fault::SITES (register it or fix the name)"
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn vocab() -> Vocab {
        Vocab::workspace()
    }

    fn class_for(path: &str) -> FileClass {
        FileClass::classify(path)
    }

    fn run(path: &str, src: &str) -> Vec<Finding> {
        check_file(path, &class_for(path), &scan(src), &vocab())
    }

    #[test]
    fn classify_scopes_rules_by_path() {
        let c = class_for("crates/timer/src/driver.rs");
        assert!(c.check_unordered && c.check_panic && c.check_wallclock);
        let c = class_for("crates/bench/src/harness.rs");
        assert!(!c.check_unordered && !c.check_panic && !c.check_wallclock);
        assert!(c.check_sites);
        let c = class_for("crates/timer/tests/chaos.rs");
        assert!(c.test_context && !c.check_panic && c.check_sites);
        let c = class_for("crates/fault/src/lib.rs");
        assert!(c.check_panic && !c.check_fault_sites);
        let c = class_for("crates/trace/src/lib.rs");
        assert!(!c.check_wallclock && c.check_panic);
        let c = class_for("crates/mapd/src/service.rs");
        assert!(!c.check_unordered && c.check_panic && !c.check_wallclock);
        assert!(c.check_sites && c.check_fault_sites && c.check_phase_names);
    }

    #[test]
    fn hashmap_iteration_fires_and_lookup_does_not() {
        let bad = "fn f() { let mut m: std::collections::HashMap<u32, u32> = \
                   std::collections::HashMap::new(); for (k, v) in &m { let _ = (k, v); } }";
        let found = run("crates/graph/src/x.rs", bad);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, RULE_UNORDERED);

        let good = "fn f(m: &std::collections::HashMap<u32, u32>) -> Option<&u32> { m.get(&1) }";
        assert!(run("crates/graph/src/x.rs", good).is_empty());
    }

    #[test]
    fn vec_of_hashset_is_not_tracked() {
        let src = "fn f() { let sets: Vec<HashSet<u64>> = Vec::new(); \
                   for s in sets.iter() { let _ = s; } }";
        assert!(run("crates/timer/src/x.rs", src).is_empty());
    }

    #[test]
    fn struct_field_iteration_fires() {
        let src = "struct B { edges: HashMap<(u32, u32), u64> }\n\
                   impl B { fn degree(&self) -> usize { self.edges.keys().count() } }";
        let found = run("crates/graph/src/x.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("edges.keys()"));
    }

    #[test]
    fn panic_paths_fire_outside_tests_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   #[cfg(test)]\nmod tests { fn g(x: Option<u32>) -> u32 { x.unwrap() } }";
        let found = run("crates/mapping/src/x.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, RULE_PANIC);
        assert_eq!(found[0].line, 1);
    }

    #[test]
    fn unwrap_or_variants_are_legal() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0).max(x.unwrap_or_default()) }";
        assert!(run("crates/mapping/src/x.rs", src).is_empty());
    }

    #[test]
    fn documented_assert_is_legal_undocumented_fires() {
        let src = "\
/// Contract check.
///
/// # Panics
/// Panics if `n` is zero.
pub fn f(n: u32) { assert!(n > 0); }
pub fn g(n: u32) { assert!(n > 0); }
";
        let found = run("crates/topology/src/x.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 6);
    }

    #[test]
    fn debug_assert_is_always_legal() {
        let src = "pub fn f(n: u32) { debug_assert!(n > 0); debug_assert_eq!(n, n); }";
        assert!(run("crates/topology/src/x.rs", src).is_empty());
    }

    #[test]
    fn wallclock_fires_in_scope_and_not_in_bench() {
        let src = "fn f() -> std::time::Instant { std::time::Instant::now() }";
        let found = run("crates/partition/src/x.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, RULE_WALLCLOCK);
        assert!(run("crates/bench/src/x.rs", src).is_empty());
        assert!(run("crates/trace/src/x.rs", src).is_empty());
    }

    #[test]
    fn unregistered_fault_site_fires_even_in_tests() {
        let src = "fn t() { let h = FaultHandle::off(); h.delay(\"warp_core\"); }";
        let found = run("crates/timer/tests/x.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, RULE_SITES);
        let good = "fn t() { let h = FaultHandle::off(); h.delay(\"assemble\"); }";
        assert!(run("crates/timer/tests/x.rs", good).is_empty());
    }

    #[test]
    fn tie_faults_grammar_strings_are_checked() {
        let src = "const SPEC: &str = \"panic@3, delay:warp_core=250\";";
        let found = run("crates/bench/src/x.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("warp_core"));
        let good = "const SPEC: &str = \"panic@3, delay:delta_scan=250\";";
        assert!(run("crates/bench/src/x.rs", good).is_empty());
    }

    #[test]
    fn phase_from_name_strings_are_checked() {
        let bad = "fn f() { let _ = Phase::from_name(\"warp_drive\"); }";
        let found = run("src/lib.rs", bad);
        assert_eq!(found.len(), 1);
        let good = "fn f() { let _ = Phase::from_name(\"contract\"); }";
        assert!(run("src/lib.rs", good).is_empty());
    }

    #[test]
    fn fault_crate_is_exempt_from_site_checks() {
        let src = "fn t() { h.delay(\"anything_goes\"); }";
        assert!(run("crates/fault/src/lib.rs", src).is_empty());
    }
}
