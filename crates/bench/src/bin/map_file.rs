//! Command-line mapper: read an application graph from a METIS or edge-list
//! file, map it onto a chosen partial-cube topology, enhance the mapping
//! with TIMER and (optionally) write the resulting vertex-to-PE assignment
//! to a file — the workflow a user of the original tool chain (KaHIP +
//! TIMER) would run.
//!
//! Every request goes through [`tie_mapd::Service`] — the same pipeline the
//! `mapd` daemon serves — either in-process (the default) or over a daemon
//! socket (`--client SOCKET`). One code path means the one-shot and served
//! results are byte-identical by construction.
//!
//! Usage:
//!   cargo run -p tie-bench --bin map_file --release -- \
//!       --graph app.metis --topology grid16x16 [--case c2|c3|c4|c1] \
//!       [--nh 50] [--eps 0.03] [--seed 1] \
//!       [--deadline-ms N] [--out mapping.txt] [--json] \
//!       [--client SOCKET [--ping | --shutdown [--shutdown-mode drain|cancel]]] \
//!       [--trace-out trace.jsonl] [--trace-level gate|phase|debug]
//!
//! Supported topology names: gridAxB, gridAxBxC, torusAxB, torusAxBxC,
//! hypercubeD, treeN, pathN.
//!
//! Every unknown or malformed flag and every unreadable input is reported
//! as a one-line error plus this usage summary (exit code 2) — the binary
//! never panics on bad input.

use std::fmt::Write as _;
use std::process::ExitCode;

use tie_fault::FaultHandle;
use tie_mapd::cli::{check_args, has_flag, parsed_flag, trace_from_flags, try_flag_value};
use tie_mapd::protocol::{GraphSource, MapRequest, MapResponse, Response, ShutdownMode};
use tie_mapd::{Service, ServiceOptions};

const USAGE: &str = "usage: map_file --graph FILE --topology NAME \
     [--case c1|c2|c3|c4] [--nh N] [--eps F] [--seed N] \
     [--deadline-ms N] [--out PATH] [--json] \
     [--client SOCKET [--ping | --shutdown [--shutdown-mode drain|cancel]]] \
     [--trace-out PATH|-] [--trace-level off|gate|phase|debug]";

/// The valueless switches; any argument that is neither one of these nor
/// one of [`VALUE_FLAGS`] with its value is refused before anything runs.
const SWITCHES: &[&str] = &["--json", "--ping", "--shutdown"];
/// The flags that take a value.
const VALUE_FLAGS: &[&str] = &[
    "--graph",
    "--topology",
    "--case",
    "--nh",
    "--eps",
    "--seed",
    "--deadline-ms",
    "--out",
    "--client",
    "--shutdown-mode",
    "--trace-out",
    "--trace-level",
];

fn build_request(args: &[String]) -> Result<MapRequest, String> {
    let seed: u64 = parsed_flag(args, "--seed", 1)?;
    // Without --graph a demo network is generated so the binary is runnable
    // out of the box. It travels inline even in client mode, so local and
    // served runs rebuild the identical graph.
    let graph = match try_flag_value(args, "--graph")? {
        Some(path) => GraphSource::Path(path.to_string()),
        None => {
            eprintln!("no --graph given; using a demo Barabási–Albert network with 4096 vertices");
            let g = tie_graph::generators::barabasi_albert(4096, 4, seed);
            GraphSource::Inline {
                num_vertices: g.num_vertices(),
                edges: g.edges().collect(),
            }
        }
    };
    Ok(MapRequest {
        graph,
        topology: try_flag_value(args, "--topology")?
            .unwrap_or("grid8x8")
            .to_string(),
        case: try_flag_value(args, "--case")?.unwrap_or("c2").to_string(),
        nh: parsed_flag(args, "--nh", 50)?,
        eps: parsed_flag(args, "--eps", 0.03)?,
        seed,
        // Wire fields without effect (see `MapRequest::threads`).
        threads: 1,
        batch: 0,
        deadline_ms: parsed_flag(args, "--deadline-ms", 0)?,
    })
}

/// Renders a successful map response: `--json` emits the wire form on
/// stdout, the default prints the human-readable metric table.
fn render(resp: &MapResponse, args: &[String]) -> Result<(), String> {
    if has_flag(args, "--json") {
        println!("{}", Response::Map(Box::new(resp.clone())).to_json());
    } else {
        eprintln!(
            "case {}: cache {}, {} accepted hierarchies, {} swaps, stop: {}",
            try_flag_value(args, "--case")?.unwrap_or("c2"),
            resp.cache,
            resp.hierarchies_accepted,
            resp.total_swaps,
            resp.stop_reason
        );
        let (b, a) = (&resp.initial, &resp.enhanced);
        println!("{:<18} {:>14} {:>14}", "metric", "initial", "after TIMER");
        println!("{:<18} {:>14} {:>14}", "Coco", b.coco, a.coco);
        println!("{:<18} {:>14} {:>14}", "edge cut", b.edge_cut, a.edge_cut);
        println!(
            "{:<18} {:>14} {:>14}",
            "congestion", b.congestion, a.congestion
        );
        println!(
            "{:<18} {:>14.4} {:>14.4}",
            "imbalance", b.imbalance, a.imbalance
        );
    }
    if let Some(path) = try_flag_value(args, "--out")? {
        let mut content = String::new();
        for &pe in &resp.mapping {
            let _ = writeln!(content, "{pe}");
        }
        std::fs::write(path, content).map_err(|e| format!("cannot write {path:?}: {e}"))?;
        eprintln!("wrote vertex-to-PE assignment to {path}");
    }
    Ok(())
}

#[cfg(unix)]
fn run_client(socket: &str, args: &[String], faults: FaultHandle) -> Result<(), String> {
    use tie_mapd::check_eps;
    use tie_mapd::client::Client;
    use tie_mapd::protocol::Request;

    let request = if has_flag(args, "--ping") {
        Request::Ping
    } else if has_flag(args, "--shutdown") {
        let mode = match try_flag_value(args, "--shutdown-mode")? {
            Some(m) => ShutdownMode::parse(m)
                .ok_or_else(|| format!("--shutdown-mode needs drain|cancel, got {m:?}"))?,
            None => ShutdownMode::Drain,
        };
        Request::Shutdown { mode }
    } else {
        let req = build_request(args)?;
        // The wire form has no spelling for a NaN or infinite eps, so it is
        // refused here, as the service would, before anything is sent.
        check_eps(req.eps).map_err(|e| e.to_string())?;
        Request::Map(Box::new(req))
    };
    let mut client =
        Client::connect(std::path::Path::new(socket), faults).map_err(|e| e.to_string())?;
    match client.request(&request).map_err(|e| e.to_string())? {
        Response::Map(resp) => render(&resp, args),
        Response::Pong { in_flight, cache } => {
            println!(
                "{{\"status\": \"ok\", \"kind\": \"pong\", \"in_flight\": {}, \"cache\": \
                 {{\"entries\": {}, \"hits\": {}, \"misses\": {}, \"evictions\": {}}}}}",
                in_flight, cache.entries, cache.hits, cache.misses, cache.evictions
            );
            Ok(())
        }
        Response::ShuttingDown { mode } => {
            eprintln!("daemon shutting down ({mode})");
            Ok(())
        }
        Response::Error { message } => Err(message),
    }
}

#[cfg(not(unix))]
fn run_client(_socket: &str, _args: &[String], _faults: FaultHandle) -> Result<(), String> {
    Err("--client requires Unix-domain sockets, unavailable on this platform".to_string())
}

fn run(args: &[String]) -> Result<(), String> {
    // `render` reads `--out` only after the mapping ran: a misspelled flag
    // or a missing path is refused before doing the work.
    check_args(args, SWITCHES, VALUE_FLAGS)?;
    let faults = FaultHandle::from_env().map_err(|e| format!("invalid TIE_FAULTS: {e}"))?;
    if let Some(socket) = try_flag_value(args, "--client")? {
        return run_client(socket, args, faults);
    }
    let service = Service::new(ServiceOptions {
        cache_capacity: 1,
        max_inflight: 0,
        trace: trace_from_flags(args)?,
        faults,
    });
    let resp = service
        .execute(&build_request(args)?)
        .map_err(|e| e.to_string())?;
    render(&resp, args)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("map_file: {e}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
