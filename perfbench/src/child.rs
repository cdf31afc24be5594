//! The daemon under test, run as a child process of the benchmark.
//!
//! The child is this same executable re-entered with `daemon ...`
//! arguments, which go straight to the `seer daemon` command. Running it
//! in its own process means its peak RSS is the daemon's alone and a
//! crash is a real SIGKILL.

use seer_daemon::DaemonClient;
use seer_trace::wire::{QueryRequest, QueryResponse};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon may take to answer its first `Health`.
const START_DEADLINE: Duration = Duration::from_secs(60);

/// A running daemon child.
pub struct DaemonChild {
    child: Option<Child>,
    socket: PathBuf,
}

/// WAL segment size the daemon runs with (see [`daemon_args`]).
pub const WAL_SEGMENT_BYTES: u64 = 1 << 20;

/// The `seer daemon` arguments for a data directory: socket, snapshot
/// and write-ahead log all live under `dir`; everything else is the
/// daemon's default, spelled out where the workloads rely on it, except
/// the segment size. Recovery decodes the whole active segment, so with
/// the default 8 MiB segments its time follows where in the segment the
/// crash falls; 1 MiB segments bound that part (see README.md).
pub fn daemon_args(dir: &Path) -> Vec<String> {
    let p = |name: &str| dir.join(name).display().to_string();
    vec![
        "daemon".into(),
        "--socket".into(),
        p("seer.sock"),
        "--snapshot".into(),
        p("db.json"),
        "--wal-dir".into(),
        p("wal"),
        "--fsync".into(),
        "interval:50".into(),
        "--wal-segment-bytes".into(),
        WAL_SEGMENT_BYTES.to_string(),
        "--snapshot-every".into(),
        "20000".into(),
        "--recluster-every".into(),
        "50000".into(),
        "--file-size".into(),
        crate::offline::FILE_SIZE.to_string(),
        "--shards".into(),
        "2".into(),
    ]
}

impl DaemonChild {
    /// Starts a daemon on `dir` (created if missing) and waits until it
    /// answers `Health` for `tenant`; returns the child and the time from
    /// spawn to that answer.
    pub fn start(dir: &Path, tenant: &str) -> Result<(DaemonChild, Duration), String> {
        let started = Instant::now();
        let mut d = DaemonChild::spawn(dir)?;
        let mut client = d.connect(tenant, started)?;
        health(&mut client)?;
        Ok((d, started.elapsed()))
    }

    /// Starts a daemon on `dir` (created if missing) without waiting.
    pub fn spawn(dir: &Path) -> Result<DaemonChild, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        let log = File::create(dir.join("daemon.log")).map_err(|e| format!("daemon log: {e}"))?;
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let child = Command::new(exe)
            .args(daemon_args(dir))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        Ok(DaemonChild {
            child: Some(child),
            socket: dir.join("seer.sock"),
        })
    }

    /// The daemon's Unix socket.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Polls until the daemon accepts a connection for `tenant`.
    pub fn connect(&mut self, tenant: &str, started: Instant) -> Result<DaemonClient, String> {
        loop {
            if let Ok(c) = DaemonClient::connect_tenant(&self.socket, "perfbench", tenant) {
                return Ok(c);
            }
            if let Some(status) = self
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if started.elapsed() > START_DEADLINE {
                return Err("daemon did not answer within the start deadline".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The child's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().map(Child::id).ok_or("daemon gone")?;
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("read daemon status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM in daemon status")?;
        Ok(kb / 1024.0)
    }

    /// Sends SIGKILL and reaps the child.
    pub fn kill(mut self) -> Result<(), String> {
        let mut child = self.child.take().ok_or("daemon gone")?;
        child.kill().map_err(|e| format!("kill daemon: {e}"))?;
        child.wait().map_err(|e| format!("reap daemon: {e}"))?;
        Ok(())
    }

    /// Asks the daemon to shut down and waits for it to exit cleanly.
    pub fn shutdown(mut self) -> Result<(), String> {
        let client = DaemonClient::connect(&self.socket, "perfbench")
            .map_err(|e| format!("connect for shutdown: {e}"))?;
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        let mut child = self.child.take().ok_or("daemon gone")?;
        let status = child.wait().map_err(|e| format!("reap daemon: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for DaemonChild {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The tenant's applied-event count from a `Health` answer; asking
/// restores a tenant the daemon has not touched since it started.
pub fn health(client: &mut DaemonClient) -> Result<u64, String> {
    match client.query(QueryRequest::Health) {
        Ok(QueryResponse::Health {
            healthy: true,
            events_applied,
            ..
        }) => Ok(events_applied),
        Ok(other) => Err(format!("unhealthy daemon: {other:?}")),
        Err(e) => Err(format!("health query: {e}")),
    }
}
