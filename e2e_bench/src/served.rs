//! The `mapd` daemon as a child process: build, spawn, ping, shut down.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use tie_fault::FaultHandle;
use tie_mapd::client::Client;
use tie_mapd::protocol::{CacheStatsWire, Request, Response, ShutdownMode};

/// How long a daemon may take to answer its first ping or to exit.
const PATIENCE: Duration = Duration::from_secs(30);

/// Builds the workspace's `mapd` binary (release) with the same cargo and
/// target directory as the benchmark itself, and returns its path.
///
/// # Errors
/// Cargo failing or the binary missing afterwards.
pub fn build_mapd() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "tie-mapd",
            "--bin",
            "mapd",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building mapd failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("mapd");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("mapd binary missing at {}", bin.display()))
    }
}

/// A running `mapd`. Dropping it kills and reaps the process; call
/// [`Daemon::shutdown`] for an orderly drain.
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns `bin` on `socket` (optionally tracing phase events to
    /// `trace_out`) and returns once it answers a ping.
    ///
    /// # Errors
    /// Spawn failure, early exit, or no answer within the patience window.
    pub fn spawn(bin: &Path, socket: &Path, trace_out: Option<&Path>) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.arg("--socket")
            .arg(socket)
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(out) = trace_out {
            cmd.arg("--trace-out")
                .arg(out)
                .args(["--trace-level", "phase"]);
        }
        let child = cmd.spawn().map_err(|e| format!("cannot spawn mapd: {e}"))?;
        let mut daemon = Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
        };
        let start = Instant::now();
        loop {
            if daemon.ping().is_ok() {
                return Ok(daemon);
            }
            if let Some(status) = daemon
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                return Err(format!("mapd exited before answering: {status}"));
            }
            if start.elapsed() > PATIENCE {
                return Err("mapd did not answer a ping in time".to_string());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Opens a client connection.
    ///
    /// # Errors
    /// Connection failure.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.socket, FaultHandle::off()).map_err(|e| e.to_string())
    }

    /// One ping on a fresh connection; returns the cache counters.
    ///
    /// # Errors
    /// Connection failure or an unexpected reply.
    pub fn ping(&self) -> Result<CacheStatsWire, String> {
        match self
            .connect()?
            .request(&Request::Ping)
            .map_err(|e| e.to_string())?
        {
            Response::Pong { cache, .. } => Ok(cache),
            other => Err(format!("unexpected ping reply {other:?}")),
        }
    }

    /// Asks the daemon to drain and waits for it to exit.
    ///
    /// # Errors
    /// The shutdown exchange failing, a non-zero exit, or no exit in time
    /// (the process is then killed).
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = self.connect().and_then(|mut c| {
            c.request(&Request::Shutdown {
                mode: ShutdownMode::Drain,
            })
            .map_err(|e| e.to_string())
        });
        let mut child = self.child.take().ok_or("daemon already reaped")?;
        let start = Instant::now();
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if start.elapsed() <= PATIENCE => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("mapd did not exit after shutdown".to_string());
                }
            }
        };
        asked?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("mapd exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}
