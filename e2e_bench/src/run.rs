//! One benchmark run: set-up, the timed closed loop (or the traced replay),
//! output checks and the metrics they yield.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tie_mapd::json::Json;
use tie_mapd::protocol::{MapRequest, MapResponse, Request, Response};
use tie_mapd::{Service, ServiceOptions};
use tie_trace::Phase;

use crate::host;
use crate::replay::{check_response, result_key, Replay, Replayer};
use crate::served::{build_mapd, Daemon};
use crate::stats::{median, tail, TAIL_BEYOND};
use crate::workload::{generate, Inputs, Workload};

/// Set-ups per hardware thread and run for in-process workloads. An
/// in-process set-up takes well under a millisecond, so many are needed for a
/// steady median.
const SETUP_REPS_IN_PROCESS: usize = 51;
/// Daemon spawns per run for served workloads.
const SETUP_REPS_SERVED: usize = 5;
/// Failure messages kept for the report.
const MAX_PROBLEMS: usize = 5;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced per-layer replay instead of the untraced closed loop.
    pub trace: bool,
    /// Tiny inputs (every workload's shape, a fraction of its cost).
    pub smoke: bool,
    /// Where generated files, the socket and the daemon trace go.
    pub work_dir: PathBuf,
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count and anything else a reader needs (e.g. the percentile).
    pub note: String,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests attempted.
    pub attempted: usize,
    /// Requests that failed, were refused, or failed a check.
    pub failed: usize,
    /// Failed checks that are not tied to one request, plus the first few
    /// per-request failures.
    pub problems: Vec<String>,
    /// Metrics in reporting order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Whether every request and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn push(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        let value = if value.is_finite() {
            value
        } else {
            self.problems.push(format!("metric {name} is not finite"));
            0.0
        };
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note: note.into(),
        });
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(message);
        }
    }

    /// The one-line JSON result.
    pub fn result_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// Human-readable metric table.
    pub fn report(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "  {:<28} {:>14.4} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            s,
            "  {:<28} {:>14.4} {:<6} ({} of {} attempted)",
            "error_rate", rate, "ratio", self.failed, self.attempted
        );
        for p in &self.problems {
            let _ = writeln!(s, "  problem: {p}");
        }
        s
    }
}

/// One completed call of the closed loop.
struct Done {
    idx: usize,
    ms: f64,
    result: Result<MapResponse, String>,
}

/// Runs `callers` (one per thread) in a closed loop over `n` requests until
/// `seconds` have passed: each sends its next request only after the
/// previous reply. Returns every completion and the window length in s.
fn closed_loop<C>(callers: Vec<C>, seconds: f64, n: usize) -> (Vec<Done>, f64)
where
    C: FnMut(usize) -> Result<MapResponse, String> + Send,
{
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_caller: Vec<(Vec<Done>, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = callers
            .into_iter()
            .map(|mut call| {
                let next = &next;
                s.spawn(move || {
                    let mut done = Vec::new();
                    let mut last = Instant::now();
                    while Instant::now() < deadline {
                        // Relaxed: a ticket counter that publishes no data.
                        let idx = next.fetch_add(1, Ordering::Relaxed) % n;
                        let t = Instant::now();
                        let result = call(idx);
                        last = Instant::now();
                        done.push(Done {
                            idx,
                            ms: (last - t).as_secs_f64() * 1e3,
                            result,
                        });
                    }
                    (done, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop caller panicked"))
            .collect()
    });
    let end = per_caller
        .iter()
        .map(|(_, last)| *last)
        .max()
        .unwrap_or(start);
    let done = per_caller.into_iter().flat_map(|(d, _)| d).collect();
    (done, (end - start).as_secs_f64())
}

/// Checks every completion: errors fail, and each response must equal the
/// reference for its request (the one-shot result when `refs` is seeded,
/// otherwise the first completion), which must itself pass
/// [`check_response`]. Returns the coco ratio over the distinct requests
/// completed.
fn judge(
    out: &mut Outcome,
    reqs: &[MapRequest],
    refs: &mut BTreeMap<usize, MapResponse>,
    done: &[Done],
) -> f64 {
    let mut seen = BTreeMap::new();
    for d in done {
        out.attempted += 1;
        match &d.result {
            Err(e) => out.fail(format!("request {}: {e}", d.idx)),
            Ok(resp) => {
                let reference = refs.entry(d.idx).or_insert_with(|| resp.clone());
                if result_key(reference) != result_key(resp) {
                    out.fail(format!(
                        "request {}: result differs from its reference",
                        d.idx
                    ));
                } else {
                    *seen.entry(d.idx).or_insert(0usize) += 1;
                }
            }
        }
    }
    let (mut before, mut after) = (0u64, 0u64);
    for (&idx, &count) in &seen {
        let reference = &refs[&idx];
        match check_response(&reqs[idx], reference) {
            Ok(()) => {
                before += reference.initial.coco;
                after += reference.enhanced.coco;
            }
            Err(e) => {
                for _ in 0..count {
                    out.fail(format!("request {idx}: {e}"));
                }
            }
        }
    }
    after as f64 / before as f64
}

/// The outcome of a run's repeated set-ups.
struct SetUp<S> {
    /// The `setup_s` figure.
    seconds: f64,
    /// How `seconds` was formed, for the report.
    how: String,
    /// Cold recognition of every topology, ms (formed like `seconds`).
    recognize_ms: f64,
    /// The system under test, as the last set-up left it.
    system: S,
}

/// Repeats a timed set-up `reps` times: `build` starts the system under test
/// and returns it with its recognition time (ms); `release` winds down every
/// system but the last, before the next one starts. Reports medians.
fn repeat_setup<S>(
    reps: usize,
    mut build: impl FnMut() -> Result<(S, f64), String>,
    mut release: impl FnMut(S) -> Result<(), String>,
) -> Result<SetUp<S>, String> {
    let (mut setup, mut recognize) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..reps {
        if let Some(previous) = last.take() {
            release(previous)?;
        }
        let t = Instant::now();
        let (system, rec_ms) = build()?;
        setup.push(t.elapsed().as_secs_f64());
        recognize.push(rec_ms);
        last = Some(system);
    }
    Ok(SetUp {
        seconds: median(&setup),
        how: format!("(median of {reps})"),
        recognize_ms: median(&recognize),
        system: last.expect("at least one set-up"),
    })
}

/// In-process set-up: `Service::new` plus one cold recognition per topology.
/// The hardware threads of a small host can run at visibly different speeds
/// (a busy neighbour on one core), and a single-threaded set-up lands on
/// either; so every hardware thread repeats the set-up at once and the
/// figures average the per-thread medians.
fn setup_in_process(inputs: &Inputs) -> Result<SetUp<(Service, Replayer)>, String> {
    let threads = host::hardware_threads();
    let per_thread: Vec<Result<SetUp<(Service, Replayer)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    repeat_setup(
                        SETUP_REPS_IN_PROCESS,
                        || {
                            let service = Service::new(ServiceOptions::default());
                            let (replayer, rec_ms) = Replayer::new(&inputs.topologies)?;
                            Ok(((service, replayer), rec_ms))
                        },
                        |_| Ok(()),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("set-up thread panicked"))
            .collect()
    });
    let per_thread = per_thread.into_iter().collect::<Result<Vec<_>, _>>()?;
    let n = per_thread.len() as f64;
    let seconds = per_thread.iter().map(|s| s.seconds).sum::<f64>() / n;
    let recognize_ms = per_thread.iter().map(|s| s.recognize_ms).sum::<f64>() / n;
    Ok(SetUp {
        seconds,
        how: format!("(mean over {threads} threads of the median of {SETUP_REPS_IN_PROCESS})"),
        recognize_ms,
        system: per_thread
            .into_iter()
            .next()
            .expect("at least one thread")
            .system,
    })
}

/// Served set-up: spawning `mapd` until it answers a ping, plus one cold
/// recognition per topology. Every daemon but the last is shut down again.
fn setup_served(
    bin: &Path,
    socket: &Path,
    trace_out: Option<&Path>,
    inputs: &Inputs,
) -> Result<SetUp<(Daemon, Replayer)>, String> {
    repeat_setup(
        SETUP_REPS_SERVED,
        || {
            let daemon = Daemon::spawn(bin, socket, trace_out)?;
            let (replayer, rec_ms) = Replayer::new(&inputs.topologies)?;
            Ok(((daemon, replayer), rec_ms))
        },
        |(daemon, _)| daemon.shutdown(),
    )
}

fn served_call(
    client: &mut tie_mapd::client::Client,
    req: &Request,
) -> Result<MapResponse, String> {
    match client.request(req).map_err(|e| e.to_string())? {
        Response::Map(m) => Ok(*m),
        Response::Error { message } => Err(message),
        other => Err(format!("unexpected reply {other:?}")),
    }
}

fn in_process_callers<'a>(
    service: &'a Service,
    reqs: &'a [MapRequest],
    callers: usize,
) -> Vec<impl FnMut(usize) -> Result<MapResponse, String> + Send + 'a> {
    (0..callers)
        .map(|_| move |i: usize| service.execute(&reqs[i]).map_err(|e| e.to_string()))
        .collect()
}

fn served_callers<'a>(
    daemon: &Daemon,
    frames: &'a [Request],
    callers: usize,
) -> Result<Vec<impl FnMut(usize) -> Result<MapResponse, String> + Send + 'a>, String> {
    (0..callers)
        .map(|_| {
            let mut client = daemon.connect()?;
            Ok(move |i: usize| served_call(&mut client, &frames[i]))
        })
        .collect()
}

fn ms_note(n: usize) -> String {
    format!("(n={n})")
}

/// The end-to-end metrics of a closed-loop window.
fn push_end_to_end(
    out: &mut Outcome,
    done: &[Done],
    window_s: f64,
    cpu_s: f64,
    rss_mb: f64,
    setup: (f64, &str),
    coco_ratio: f64,
) {
    let lat: Vec<f64> = done
        .iter()
        .filter(|d| d.result.is_ok())
        .map(|d| d.ms)
        .collect();
    let n = lat.len();
    out.push("latency_p50_ms", median(&lat), "ms", ms_note(n));
    match tail(&lat) {
        Some(t) => out.push(
            "latency_tail_ms",
            t.value,
            "ms",
            format!("(p{:.1}, n={n}, {TAIL_BEYOND} beyond)", t.percentile),
        ),
        // With fewer samples no percentile above the median has enough
        // samples beyond it; the median is where the rule's answer tends as
        // n falls to 20, so a slow run does not jump to its maximum.
        None => out.push(
            "latency_tail_ms",
            median(&lat),
            "ms",
            format!("(p50: n={n} leaves no higher percentile with {TAIL_BEYOND} beyond)"),
        ),
    }
    out.push(
        "throughput_rps",
        n as f64 / window_s,
        "1/s",
        format!("({n} in {window_s:.2} s)"),
    );
    out.push(
        "cpu_ms_per_request",
        cpu_s * 1e3 / n as f64,
        "ms",
        ms_note(n),
    );
    out.push(
        "peak_rss_mb",
        rss_mb,
        "MB",
        "(VmHWM of the serving process)",
    );
    out.push("setup_s", setup.0, "s", setup.1);
    out.push(
        "coco_ratio",
        coco_ratio,
        "ratio",
        "(distinct requests completed)",
    );
}

/// Runs one workload as `opts` says.
///
/// # Errors
/// A configuration the host cannot run, or a failure outside the checked
/// requests (input generation, daemon lifecycle).
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let w = &opts.workload;
    w.check_fits(host::hardware_threads())?;
    std::fs::create_dir_all(&opts.work_dir).map_err(|e| format!("cannot create work dir: {e}"))?;
    let mapd = if w.served { Some(build_mapd()?) } else { None };
    let inputs = generate(w, opts.seed, opts.smoke, &opts.work_dir)?;
    let socket = opts
        .work_dir
        .join(format!("mapd-{}.sock", std::process::id()));
    let outcome = match (&mapd, opts.trace) {
        (None, false) => untraced_in_process(opts, &inputs),
        (Some(bin), false) => untraced_served(opts, &inputs, bin, &socket),
        (_, true) => traced(opts, &inputs, mapd.as_deref(), &socket),
    };
    for r in &inputs.requests {
        if let tie_mapd::protocol::GraphSource::Path(p) = &r.graph {
            let _ = std::fs::remove_file(p);
        }
    }
    let _ = std::fs::remove_dir(&opts.work_dir);
    outcome
}

fn untraced_in_process(opts: &Options, inputs: &Inputs) -> Result<Outcome, String> {
    let setup = setup_in_process(inputs)?;
    let (service, _) = &setup.system;
    let reqs = &inputs.requests;
    let cpu0 = host::cpu_seconds(None)?;
    let (done, window_s) = closed_loop(
        in_process_callers(service, reqs, opts.workload.callers),
        opts.seconds,
        reqs.len(),
    );
    let cpu_s = host::cpu_seconds(None)? - cpu0;
    let rss_mb = host::peak_rss_mb(None)?;
    let mut out = Outcome::default();
    let coco_ratio = judge(&mut out, reqs, &mut BTreeMap::new(), &done);
    let setup_s = (setup.seconds, setup.how.as_str());
    push_end_to_end(
        &mut out, &done, window_s, cpu_s, rss_mb, setup_s, coco_ratio,
    );
    Ok(out)
}

/// One-shot references for every request, and a check that the daemon
/// serves each byte-identically (which also warms its topology cache). The
/// one-shot and served halves run side by side.
fn validate_served(
    out: &mut Outcome,
    inputs: &Inputs,
    frames: &[Request],
    daemon: &Daemon,
) -> Result<BTreeMap<usize, MapResponse>, String> {
    let mut client = daemon.connect()?;
    let (oneshot, served) = std::thread::scope(|s| {
        let served = s.spawn(move || {
            frames
                .iter()
                .map(|f| served_call(&mut client, f))
                .collect::<Vec<_>>()
        });
        let service = Service::new(ServiceOptions::default());
        let oneshot: Vec<_> = inputs.requests.iter().map(|r| service.execute(r)).collect();
        (oneshot, served.join().expect("validation client panicked"))
    });
    let mut refs = BTreeMap::new();
    for (i, (reference, served)) in oneshot.into_iter().zip(served).enumerate() {
        let reference = reference.map_err(|e| format!("one-shot request {i} failed: {e}"))?;
        match served {
            Ok(served) if result_key(&served) == result_key(&reference) => {}
            Ok(_) => out
                .problems
                .push(format!("request {i}: served result differs from one-shot")),
            Err(e) => out
                .problems
                .push(format!("request {i}: served validation failed: {e}")),
        }
        refs.insert(i, reference);
    }
    Ok(refs)
}

fn untraced_served(
    opts: &Options,
    inputs: &Inputs,
    bin: &Path,
    socket: &Path,
) -> Result<Outcome, String> {
    let SetUp {
        seconds,
        how,
        system: (daemon, _),
        ..
    } = setup_served(bin, socket, None, inputs)?;
    let frames: Vec<Request> = inputs
        .requests
        .iter()
        .map(|r| Request::Map(Box::new(r.clone())))
        .collect();
    let mut out = Outcome::default();
    let mut refs = validate_served(&mut out, inputs, &frames, &daemon)?;
    let pid = Some(daemon.pid());
    let callers = served_callers(&daemon, &frames, opts.workload.callers)?;
    let cpu0 = host::cpu_seconds(pid)?;
    let (done, window_s) = closed_loop(callers, opts.seconds, frames.len());
    let cpu_s = host::cpu_seconds(pid)? - cpu0;
    let rss_mb = host::peak_rss_mb(pid)?;
    daemon.shutdown()?;
    let coco_ratio = judge(&mut out, &inputs.requests, &mut refs, &done);
    let setup_s = (seconds, how.as_str());
    push_end_to_end(
        &mut out, &done, window_s, cpu_s, rss_mb, setup_s, coco_ratio,
    );
    Ok(out)
}

/// Mean `serve` span of a `mapd` phase trace, in ms.
fn mean_serve_ms(trace_file: &Path) -> Result<f64, String> {
    let text =
        std::fs::read_to_string(trace_file).map_err(|e| format!("cannot read mapd trace: {e}"))?;
    let spans: Vec<f64> = text
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter(|v| v.get("event").and_then(Json::as_str) == Some("phase"))
        .filter(|v| v.get("phase").and_then(Json::as_str) == Some(Phase::Serve.name()))
        .filter_map(|v| v.get("elapsed_us").and_then(Json::as_f64))
        .collect();
    if spans.is_empty() {
        return Err("mapd trace holds no serve spans".to_string());
    }
    Ok(spans.iter().sum::<f64>() / spans.len() as f64 / 1e3)
}

/// The traced run. Served workloads first spend half the window on the
/// real closed loop against a phase-tracing daemon (server overhead and
/// cache counters), then every workload replays its requests step by step
/// in-process, each next to an untraced `Service::execute` of the same
/// request that it must reproduce.
fn traced(
    opts: &Options,
    inputs: &Inputs,
    mapd: Option<&Path>,
    socket: &Path,
) -> Result<Outcome, String> {
    let reqs = &inputs.requests;
    let mut out = Outcome::default();
    let mut replay_seconds = opts.seconds;
    let mut served = None;
    let (recognize_ms, service, replayer) = match mapd {
        Some(bin) => {
            let trace_file = opts
                .work_dir
                .join(format!("mapd-{}.trace.jsonl", std::process::id()));
            let SetUp {
                recognize_ms,
                system: (daemon, replayer),
                ..
            } = setup_served(bin, socket, Some(&trace_file), inputs)?;
            let frames: Vec<Request> = reqs
                .iter()
                .map(|r| Request::Map(Box::new(r.clone())))
                .collect();
            replay_seconds = opts.seconds / 2.0;
            let callers = served_callers(&daemon, &frames, opts.workload.callers)?;
            let (done, _) = closed_loop(callers, opts.seconds - replay_seconds, frames.len());
            let stats = daemon.ping()?;
            daemon.shutdown()?;
            let serve_ms = mean_serve_ms(&trace_file);
            let _ = std::fs::remove_file(&trace_file);
            judge(&mut out, reqs, &mut BTreeMap::new(), &done);
            let rtt: Vec<f64> = done
                .iter()
                .filter(|d| d.result.is_ok())
                .map(|d| d.ms)
                .collect();
            let rtt_mean = rtt.iter().sum::<f64>() / rtt.len() as f64;
            let lookups = (stats.hits + stats.misses).max(1) as f64;
            served = Some((rtt_mean - serve_ms?, stats.hits as f64 / lookups, rtt.len()));
            (
                recognize_ms,
                Service::new(ServiceOptions::default()),
                replayer,
            )
        }
        None => {
            let SetUp {
                recognize_ms,
                system: (service, replayer),
                ..
            } = setup_in_process(inputs)?;
            (recognize_ms, service, replayer)
        }
    };

    let mut samples: Vec<(f64, Replay)> = Vec::new();
    let mut checked = BTreeSet::new();
    let deadline = Instant::now() + Duration::from_secs_f64(replay_seconds);
    let mut i = 0;
    while Instant::now() < deadline {
        let idx = i % reqs.len();
        // Alternate which of the pair runs first, so neither is always the
        // one that finds caches warm.
        let replay_first = i % 2 == 1;
        i += 1;
        out.attempted += 1;
        let early = replay_first.then(|| replayer.replay(&reqs[idx]));
        let t = Instant::now();
        let executed = service.execute(&reqs[idx]);
        let exec_ms = t.elapsed().as_secs_f64() * 1e3;
        let executed = match executed {
            Ok(resp) => resp,
            Err(e) => {
                out.fail(format!("request {idx}: {e}"));
                continue;
            }
        };
        let (replay, replayed) = match early.unwrap_or_else(|| replayer.replay(&reqs[idx])) {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("request {idx}: replay failed: {e}"));
                continue;
            }
        };
        if result_key(&replayed) != result_key(&executed) {
            out.fail(format!(
                "request {idx}: replay differs from Service::execute"
            ));
            continue;
        }
        if !checked.contains(&idx) {
            if let Err(e) = check_response(&reqs[idx], &executed) {
                out.fail(format!("request {idx}: {e}"));
                continue;
            }
            checked.insert(idx);
        }
        samples.push((exec_ms, replay));
    }
    let stats = service.cache_stats();
    let (server_overhead_ms, cache_hit_ratio, served_n) = served.unwrap_or((
        0.0,
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
        0,
    ));
    push_per_layer(
        &mut out,
        &samples,
        recognize_ms,
        server_overhead_ms,
        cache_hit_ratio,
        served_n,
    );
    Ok(out)
}

fn push_per_layer(
    out: &mut Outcome,
    samples: &[(f64, Replay)],
    recognize_ms: f64,
    server_overhead_ms: f64,
    cache_hit_ratio: f64,
    served_n: usize,
) {
    let n = samples.len();
    let note = ms_note(n);
    let med =
        |f: &dyn Fn(&Replay) -> f64| median(&samples.iter().map(|(_, r)| f(r)).collect::<Vec<_>>());
    let sum = |f: &dyn Fn(&Replay) -> f64| samples.iter().map(|(_, r)| f(r)).sum::<f64>();
    let wall = sum(&|r| r.wall_ms);
    let share = |f: &dyn Fn(&Replay) -> f64| sum(f) / wall;
    let phase = |p: Phase| move |r: &Replay| r.phases.get(p) as f64 / 1e3;
    let rounds = sum(&|r| r.nh as f64);

    out.push("graph.load_ms", med(&|r| r.load_ms), "ms", note.clone());
    out.push(
        "graph.load_share",
        share(&|r| r.load_ms),
        "ratio",
        note.clone(),
    );
    out.push(
        "topology.recognize_ms",
        recognize_ms,
        "ms",
        "(cold, all topologies, median of set-ups)",
    );
    out.push(
        "partition.partition_ms",
        med(&|r| r.partition_ms),
        "ms",
        note.clone(),
    );
    out.push(
        "partition.partition_share",
        share(&|r| r.partition_ms),
        "ratio",
        note.clone(),
    );
    out.push(
        "mapping.initial_ms",
        med(&|r| r.initial_ms),
        "ms",
        note.clone(),
    );
    out.push(
        "mapping.initial_share",
        share(&|r| r.initial_ms),
        "ratio",
        note.clone(),
    );
    out.push(
        "timer.enhance_ms",
        med(&|r| r.enhance_ms),
        "ms",
        note.clone(),
    );
    out.push(
        "timer.enhance_share",
        share(&|r| r.enhance_ms),
        "ratio",
        note.clone(),
    );
    for (name, p) in [
        ("timer.hierarchy_build_ms", Phase::HierarchyBuild),
        ("timer.sweep_ms", Phase::Sweep),
        ("timer.contract_ms", Phase::Contract),
        ("timer.assemble_ms", Phase::Assemble),
        ("timer.delta_scan_ms", Phase::DeltaScan),
        ("timer.commit_ms", Phase::Commit),
    ] {
        out.push(name, med(&phase(p)), "ms", note.clone());
    }
    out.push(
        "timer.hierarchy_build_share",
        share(&phase(Phase::HierarchyBuild)),
        "ratio",
        note.clone(),
    );
    out.push(
        "timer.assemble_share",
        share(&phase(Phase::Assemble)),
        "ratio",
        note.clone(),
    );
    out.push(
        "timer.accept_ratio",
        sum(&|r| r.accepted as f64) / rounds,
        "ratio",
        note.clone(),
    );
    out.push(
        "timer.repaired_per_round",
        sum(&|r| r.repaired as f64) / rounds,
        "count",
        note.clone(),
    );
    out.push(
        "timer.swaps",
        med(&|r| r.swaps as f64),
        "count",
        note.clone(),
    );
    let executed = sum(&|r| r.spec_executed as f64);
    out.push(
        "timer.spec_executed_rounds",
        med(&|r| r.spec_executed as f64),
        "count",
        note.clone(),
    );
    out.push(
        "timer.spec_useful_ratio",
        if executed > 0.0 {
            sum(&|r| r.spec_committed as f64) / executed
        } else {
            1.0
        },
        "ratio",
        "(committed / executed speculative rounds; 1 when none ran)",
    );
    out.push(
        "metrics.evaluate_ms",
        med(&|r| r.evaluate_ms),
        "ms",
        note.clone(),
    );
    out.push(
        "metrics.evaluate_share",
        share(&|r| r.evaluate_ms),
        "ratio",
        note.clone(),
    );
    out.push(
        "mapd.request_decode_ms",
        med(&|r| r.decode_ms),
        "ms",
        note.clone(),
    );
    out.push(
        "mapd.response_encode_ms",
        med(&|r| r.encode_ms),
        "ms",
        note.clone(),
    );
    out.push(
        "mapd.frame_bytes",
        med(&|r| r.frame_bytes as f64),
        "bytes",
        note.clone(),
    );
    out.push(
        "mapd.server_overhead_ms",
        server_overhead_ms,
        "ms",
        if served_n > 0 {
            format!("(mean round trip minus mean serve span, n={served_n})")
        } else {
            "(in-process workload: no server)".to_string()
        },
    );
    let self_ms: Vec<f64> = samples
        .iter()
        .map(|(exec, r)| exec - r.execute_children_ms())
        .collect();
    out.push("mapd.service_self_ms", median(&self_ms), "ms", note.clone());
    out.push(
        "mapd.cache_hit_ratio",
        cache_hit_ratio,
        "ratio",
        "(topology cache hits / lookups)",
    );
    out.push(
        "unattributed_share",
        1.0 - sum(&|r| r.timed_ms()) / wall,
        "ratio",
        note.clone(),
    );
    let traced_p50 = med(&|r| r.wall_ms);
    let untraced_p50 = median(&samples.iter().map(|(e, _)| *e).collect::<Vec<_>>());
    out.push("trace.latency_p50_ms", traced_p50, "ms", note.clone());
    out.push(
        "trace.overhead_ratio",
        traced_p50 / untraced_p50,
        "ratio",
        format!("(traced / untraced p50, n={n})"),
    );
}
