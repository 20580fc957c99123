//! The daemon's accept loop: a Unix-domain socket, one thread per
//! connection, and a drain-and-exit shutdown contract.
//!
//! Resilience posture (see `docs/RESILIENCE.md`): a malformed frame or an
//! I/O error tears down *that connection only* — the daemon survives and
//! keeps accepting. Shutdown is cooperative: a `shutdown` request flips the
//! draining flag, the accept loop stops taking new connections, and the
//! daemon exits only once every open connection has finished (`drain` mode)
//! — or, in `cancel` mode, after additionally firing the service-wide
//! cancellation token so in-flight enhancements stop at their next round
//! boundary and return their best-so-far labeling.

use std::io::{self, BufReader, BufWriter};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tie_trace::Phase;

use crate::protocol::{read_frame, write_frame, Request, Response, ShutdownMode};
use crate::service::Service;

/// State shared between the accept loop and every connection thread.
#[derive(Debug)]
struct Shared {
    service: Arc<Service>,
    /// Set by a `shutdown` request; the accept loop exits when it sees this.
    draining: AtomicBool,
    /// Open connections; the accept loop waits for this to hit zero.
    open: AtomicUsize,
}

/// RAII connection counter: incremented before the handler thread spawns,
/// decremented when the handler finishes — including by panic unwind, so a
/// crashed handler can never wedge the drain.
#[derive(Debug)]
struct OpenGuard {
    shared: Arc<Shared>,
}

impl OpenGuard {
    fn new(shared: Arc<Shared>) -> Self {
        shared.open.fetch_add(1, Ordering::SeqCst);
        OpenGuard { shared }
    }
}

impl Drop for OpenGuard {
    fn drop(&mut self) {
        self.shared.open.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs the daemon on `socket_path` until a `shutdown` request drains it.
/// A stale socket file from a previous run is removed first — the cache is
/// purely in-memory, so a fresh daemon serves byte-identical results to the
/// one it replaces (misses instead of hits, same mappings).
///
/// # Errors
/// Socket setup failures (bind, stale-file removal, nonblocking mode).
pub fn serve(socket_path: &Path, service: Arc<Service>) -> io::Result<()> {
    match std::fs::remove_file(socket_path) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let listener = UnixListener::bind(socket_path)?;
    // Nonblocking so the accept loop can notice the draining flag promptly
    // instead of sitting in accept() forever after the last client leaves.
    listener.set_nonblocking(true)?;

    let shared = Arc::new(Shared {
        service,
        draining: AtomicBool::new(false),
        open: AtomicUsize::new(0),
    });

    loop {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                let guard = OpenGuard::new(Arc::clone(&shared));
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    // The guard moves into the thread; its Drop runs when the
                    // handler returns or unwinds.
                    let _guard = guard;
                    if let Err(e) = handle_connection(&stream, &shared) {
                        eprintln!("mapd: connection error: {e}");
                    }
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                eprintln!("mapd: accept error: {e}");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }

    // Drain: every connection opened before the flag flipped gets to finish.
    while shared.open.load(Ordering::SeqCst) > 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = std::fs::remove_file(socket_path);
    Ok(())
}

/// Serves one connection: a loop of frames, each a request, until the peer
/// closes, a frame is unreadable, or a shutdown request arrives.
fn handle_connection(stream: &UnixStream, shared: &Arc<Shared>) -> io::Result<()> {
    let service = &shared.service;
    let faults = service.faults().clone();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream.try_clone()?);

    while let Some(payload) = read_frame(&mut reader, &faults)? {
        let (response, shutdown) = match Request::from_json(&payload) {
            Err(msg) => (Response::Error { message: msg }, false),
            Ok(Request::Ping) => (
                Response::Pong {
                    in_flight: service.in_flight(),
                    cache: service.cache_stats().into(),
                },
                false,
            ),
            Ok(Request::Shutdown { mode }) => {
                shared.draining.store(true, Ordering::SeqCst);
                if mode == ShutdownMode::Cancel {
                    service.cancel_token().cancel();
                }
                (
                    Response::ShuttingDown {
                        mode: mode.name().to_string(),
                    },
                    true,
                )
            }
            Ok(Request::Map(req)) => {
                let serve = service.trace().span(Phase::Serve, None, None);
                let response = match service.execute(&req) {
                    Ok(resp) => Response::Map(Box::new(resp)),
                    Err(e) => Response::Error {
                        message: e.to_string(),
                    },
                };
                serve.emit();
                (response, false)
            }
        };
        write_frame(&mut writer, &response.to_json(), &faults)?;
        if shutdown {
            break;
        }
    }
    Ok(())
}
