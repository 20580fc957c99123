//! `mapd` — the persistent mapping daemon.
//!
//! Listens on a Unix-domain socket and serves framed newline-JSON mapping
//! requests through the same [`tie_mapd::Service`] pipeline the one-shot
//! `map_file` CLI uses, keeping a per-topology context cache warm across
//! requests. See the README's "mapd" section for the protocol.
//!
//! Usage:
//!   mapd [--socket PATH] [--cache-capacity N] [--max-inflight N]
//!        [--trace-out PATH|-] [--trace-level off|gate|phase|debug]
//!
//! Fault injection: the `TIE_FAULTS` environment variable (same grammar as
//! everywhere else; `io@N` counts socket frames alongside reader I/O, and
//! `delay:socket_io=`/`delay:cache_build=` stretch the respective windows).

use std::process::ExitCode;

const USAGE: &str = "usage: mapd [--socket PATH] [--cache-capacity N] \
     [--max-inflight N] [--trace-out PATH|-] \
     [--trace-level off|gate|phase|debug]";

#[cfg(unix)]
fn run(args: &[String]) -> Result<(), String> {
    use std::path::PathBuf;
    use std::sync::Arc;

    use tie_fault::FaultHandle;
    use tie_mapd::cli::{check_args, parsed_flag, trace_from_flags, try_flag_value};
    use tie_mapd::{server, Service, ServiceOptions};

    check_args(
        args,
        &[],
        &[
            "--socket",
            "--cache-capacity",
            "--max-inflight",
            "--trace-out",
            "--trace-level",
        ],
    )?;
    let socket = PathBuf::from(try_flag_value(args, "--socket")?.unwrap_or("mapd.sock"));
    let cache_capacity: usize = parsed_flag(args, "--cache-capacity", 8)?;
    let max_inflight: usize = parsed_flag(args, "--max-inflight", 0)?;
    let trace = trace_from_flags(args)?;
    let faults = FaultHandle::from_env().map_err(|e| format!("invalid TIE_FAULTS: {e}"))?;

    let service = Arc::new(Service::new(ServiceOptions {
        cache_capacity,
        max_inflight,
        trace,
        faults,
    }));
    eprintln!(
        "mapd: listening on {} (cache capacity {}, admission cap {})",
        socket.display(),
        cache_capacity,
        service.admission_capacity()
    );
    server::serve(&socket, service).map_err(|e| format!("serve failed: {e}"))?;
    eprintln!("mapd: drained, exiting");
    Ok(())
}

#[cfg(not(unix))]
fn run(_args: &[String]) -> Result<(), String> {
    Err("mapd requires Unix-domain sockets and is unavailable on this platform".to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mapd: {e}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
