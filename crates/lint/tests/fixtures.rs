//! Fixture-corpus suite: drives the production `check_source` path over the
//! synthetic sources in `tests/fixtures/`, pinning down one positive and one
//! negative case per rule plus the boundary behaviours (cfg(test) nesting,
//! allow hygiene and expiry).

use tie_lint::check_source;
use tie_lint::rules::{Finding, Vocab, RULE_PANIC, RULE_SITES, RULE_UNORDERED, RULE_WALLCLOCK};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

fn check(rel_path: &str, name: &str) -> Vec<Finding> {
    check_source(rel_path, &fixture(name), &Vocab::workspace())
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn unordered_positive_fires_on_every_iteration_form() {
    let found = check("crates/graph/src/fixture.rs", "unordered_pos.rs");
    assert_eq!(rules_of(&found), vec![RULE_UNORDERED; 4], "{found:?}");
    // One per form: for-loop, .iter(), field .keys(), .drain().
    let msgs: Vec<&str> = found.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("for-loop over m")));
    assert!(msgs.iter().any(|m| m.contains("seen.iter()")));
    assert!(msgs.iter().any(|m| m.contains("by_key.keys()")));
    assert!(msgs.iter().any(|m| m.contains("s.drain()")));
}

#[test]
fn unordered_negative_is_clean() {
    let found = check("crates/graph/src/fixture.rs", "unordered_neg.rs");
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn panic_positive_fires_on_every_costume() {
    let found = check("crates/timer/src/fixture.rs", "panic_pos.rs");
    assert_eq!(rules_of(&found), vec![RULE_PANIC; 6], "{found:?}");
}

#[test]
fn panic_negative_is_clean() {
    let found = check("crates/timer/src/fixture.rs", "panic_neg.rs");
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn wallclock_positive_fires_including_the_import() {
    // Four mentions: the import, Instant::now, the SystemTime return type,
    // and SystemTime::now — a bare `SystemTime` fires wherever it appears,
    // because the type has no business in result-affecting code at all.
    let found = check("crates/partition/src/fixture.rs", "wallclock_pos.rs");
    assert_eq!(rules_of(&found), vec![RULE_WALLCLOCK; 4], "{found:?}");
}

#[test]
fn wallclock_negative_in_bench_and_test_context() {
    let found = check("crates/bench/src/fixture.rs", "wallclock_neg.rs");
    assert!(found.is_empty(), "{found:?}");
    let found = check("crates/timer/tests/fixture.rs", "wallclock_neg.rs");
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn sites_positive_fires_even_in_test_files() {
    let found = check("crates/timer/tests/fixture.rs", "sites_pos.rs");
    assert_eq!(rules_of(&found), vec![RULE_SITES; 4], "{found:?}");
    assert!(found.iter().any(|f| f.message.contains("warp_core")));
    assert!(found.iter().any(|f| f.message.contains("warp_drive")));
}

#[test]
fn sites_negative_is_clean() {
    let found = check("crates/timer/tests/fixture.rs", "sites_neg.rs");
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn cfg_test_nesting_exempts_only_the_module() {
    let found = check("crates/graph/src/fixture.rs", "cfg_test_nesting.rs");
    assert_eq!(rules_of(&found), vec![RULE_PANIC; 2], "{found:?}");
    // The surviving findings bracket the test module.
    let src = fixture("cfg_test_nesting.rs");
    let before = src
        .lines()
        .position(|l| l.contains("fn before_the_module"))
        .unwrap() as u32;
    let after = src
        .lines()
        .position(|l| l.contains("fn after_the_module"))
        .unwrap() as u32;
    assert!(found[0].line > before && found[0].line < after + 1);
    assert!(found[1].line > after);
}

#[test]
fn allow_hygiene_suppresses_flags_and_expires() {
    let found = check("crates/timer/src/fixture.rs", "allow_cases.rs");
    // Reasoned allows (same line + previous line) suppress silently; the
    // reasonless one yields its finding plus a hygiene finding; the unused
    // reasoned one is expired.
    assert_eq!(found.len(), 3, "{found:?}");
    assert!(found.iter().any(|f| f.rule == RULE_PANIC));
    assert!(found.iter().any(|f| f.message.contains("has no reason")));
    assert!(found
        .iter()
        .any(|f| f.message.contains("expired inline allow")));
}
