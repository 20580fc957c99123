//! Small flag-parsing helpers shared by `mapd`, the `map_file` CLI and the
//! experiment binaries.
//!
//! Nothing here panics: malformed flags surface as `Err(String)` so binaries
//! can print the message plus their usage line and exit with code 2.

use std::str::FromStr;
use std::sync::Arc;

use tie_trace::{JsonlSink, StderrSink, TraceHandle, TraceLevel};

/// Refuses every argument that is neither one of `switches` nor one of
/// `value_flags` followed by its value, so a misspelled flag or a stray
/// `--help` stops a binary before it does any work.
///
/// # Errors
/// A one-line message naming the first unknown argument, or the value flag
/// given last with no value.
pub fn check_args(args: &[String], switches: &[&str], value_flags: &[&str]) -> Result<(), String> {
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if value_flags.contains(&arg.as_str()) {
            if it.next().is_none() {
                return Err(format!("{arg} needs a value"));
            }
        } else if !switches.contains(&arg.as_str()) {
            return Err(format!("unknown argument {arg:?}"));
        }
    }
    Ok(())
}

/// The value following `flag`: `Ok(None)` when the flag is absent.
///
/// # Errors
/// A one-line message when `flag` is the last argument, with no value.
pub fn try_flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v)),
            None => Err(format!("{flag} needs a value")),
        },
    }
}

/// The value following `flag`, if present; the lenient form of
/// [`try_flag_value`], reading a flag without a value as absent.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    try_flag_value(args, flag).ok().flatten()
}

/// Whether `flag` appears at all (valueless switches like `--json`).
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Parses the value of `flag`, falling back to `default` when absent.
///
/// # Errors
/// A one-line message naming the flag and the missing or unparsable value.
pub fn parsed_flag<T: FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match try_flag_value(args, flag)? {
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag} needs a valid value, got {v:?}")),
        None => Ok(default),
    }
}

/// Resolves `--trace-out PATH|-` and `--trace-level off|gate|phase|debug`
/// into a handle: off when no `--trace-out` is given, level `phase` by
/// default when it is. `-` streams human-readable events to stderr, any
/// other path receives JSONL.
///
/// # Errors
/// Missing values, unknown levels and unwritable paths.
pub fn trace_from_flags(args: &[String]) -> Result<TraceHandle, String> {
    let level = match try_flag_value(args, "--trace-level")? {
        Some(v) => TraceLevel::parse(v)
            .ok_or_else(|| format!("--trace-level needs off|gate|phase|debug, got {v:?}"))?,
        None => TraceLevel::Phase,
    };
    match try_flag_value(args, "--trace-out")? {
        Some("-") => Ok(TraceHandle::new(Arc::new(StderrSink), level)),
        Some(path) => {
            let sink = JsonlSink::create(path)
                .map_err(|e| format!("cannot open trace output {path:?}: {e}"))?;
            Ok(TraceHandle::new(Arc::new(sink), level))
        }
        None => Ok(TraceHandle::off()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_helpers_parse_and_default() {
        let a = args(&["--nh", "12", "--json"]);
        assert_eq!(flag_value(&a, "--nh"), Some("12"));
        assert_eq!(flag_value(&a, "--seed"), None);
        assert!(has_flag(&a, "--json"));
        assert!(!has_flag(&a, "--client"));
        assert_eq!(parsed_flag(&a, "--nh", 50usize).unwrap(), 12);
        assert_eq!(parsed_flag(&a, "--seed", 7u64).unwrap(), 7);
        assert!(parsed_flag::<usize>(&args(&["--nh", "x"]), "--nh", 1).is_err());
        // A flag given last, with no value, is an error, not its default.
        let dangling = args(&["--seed", "3", "--nh"]);
        assert!(try_flag_value(&dangling, "--nh").is_err());
        assert!(parsed_flag(&dangling, "--nh", 50usize).is_err());
        assert_eq!(try_flag_value(&dangling, "--seed").unwrap(), Some("3"));
    }

    #[test]
    fn check_args_refuses_unknown_and_dangling_arguments() {
        let (switches, values) = (&["--json"][..], &["--out", "--eps"][..]);
        let check = |v: &[&str]| check_args(&args(v), switches, values);
        assert!(check(&[]).is_ok());
        assert!(check(&["--json", "--out", "x", "--eps", "-1"]).is_ok());
        // A value is consumed with its flag, even when it looks like a flag.
        assert!(check(&["--out", "--json"]).is_ok());
        let err = check(&["--out", "x", "--help"]).unwrap_err();
        assert!(err.contains("\"--help\""), "{err}");
        assert!(check(&["--topolgy", "grid4x4"])
            .unwrap_err()
            .contains("--topolgy"));
        // A stray value, or a switch given a value, is an unknown argument.
        assert!(check(&["x"]).is_err());
        assert!(check(&["--json", "1"]).is_err());
        assert_eq!(
            check(&["--json", "--out"]).unwrap_err(),
            "--out needs a value"
        );
    }

    #[test]
    fn trace_flags_resolve() {
        assert!(!trace_from_flags(&args(&[]))
            .unwrap()
            .enabled(TraceLevel::Gate));
        let h = trace_from_flags(&args(&["--trace-out", "-"])).unwrap();
        assert!(h.enabled(TraceLevel::Phase));
        assert!(!h.enabled(TraceLevel::Debug));
        assert!(trace_from_flags(&args(&["--trace-out", "-", "--trace-level", "bogus"])).is_err());
        assert!(trace_from_flags(&args(&["--trace-out"])).is_err());
    }
}
