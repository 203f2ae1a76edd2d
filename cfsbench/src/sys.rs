//! Process plumbing: building the `cfs` binary from source, the scratch
//! directory, child processes, and their peak memory.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use cfs::svc::{Client, Endpoint, SCHEMA};
use serde_json::Value;

/// The repository root: the parent of this package.
pub fn repo_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().unwrap_or(manifest).to_path_buf()
}

/// Builds the `cfs` CLI from the repository sources (a no-op when it is
/// up to date) and returns the executable cargo reports for it. Runs in
/// the current directory, which must be the repository root, and honours
/// `CARGO_TARGET_DIR`.
pub fn build_cfs() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let out = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "--bin", "cfs"])
        .args(["--message-format", "json"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building cfs failed ({})", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| serde_json::from_str::<Value>(l).ok())
        .filter(|m| m["reason"] == "compiler-artifact" && m["target"]["name"] == "cfs")
        .find_map(|m| m["executable"].as_str().map(PathBuf::from))
        .ok_or_else(|| "cargo reported no cfs executable".to_string())
}

/// A per-process scratch directory under `cfsbench/work/`, removed on
/// drop. Paths are relative to the repository root so Unix socket paths
/// stay short however deep the checkout lives.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `cfsbench/work/<pid>`.
    pub fn create() -> Result<Self, String> {
        let path = PathBuf::from(format!("cfsbench/work/{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("cannot create {path:?}: {e}"))?;
        Ok(Self { path })
    }

    /// A file inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Peak resident set (`VmHWM`) of a live process, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One finished batch process: wall time from spawn to exit, and the
/// highest `VmHWM` seen while polling it every 2 ms.
pub struct Finished {
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub ok: bool,
}

/// Runs `cmd` to completion (stdout discarded, stderr inherited).
pub fn run_polled(cmd: &mut Command) -> Result<Finished, String> {
    let start = Instant::now();
    let mut child = cmd
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn {cmd:?}: {e}"))?;
    let mut peak: f64 = 0.0;
    loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            return Ok(Finished {
                wall_s: start.elapsed().as_secs_f64(),
                peak_rss_mb: peak,
                ok: status.success(),
            });
        }
        if let Some(mb) = peak_rss_mb(child.id()) {
            peak = peak.max(mb);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A running `cfs serve` daemon on a Unix socket. Dropping it kills and
/// reaps the process; [`Daemon::shutdown`] stops it through the API.
pub struct Daemon {
    child: Child,
    endpoint: Endpoint,
}

/// How long a daemon may take to answer its first `status`.
const BOOT_DEADLINE: Duration = Duration::from_secs(120);

impl Daemon {
    /// Spawns `cfs serve --socket <socket> <args>` and waits for its
    /// first `ok` status reply. Returns the daemon and its set-up time:
    /// spawn to that reply, which covers provisioning, the bootstrap
    /// campaign and convergence.
    pub fn boot(cfs: &Path, socket: &Path, args: &[String]) -> Result<(Self, f64), String> {
        let _ = std::fs::remove_file(socket);
        let start = Instant::now();
        let child = Command::new(cfs)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn cfs serve: {e}"))?;
        let mut daemon = Self {
            child,
            endpoint: Endpoint::Unix(socket.to_path_buf()),
        };
        // The daemon binds before it provisions, so the first connection
        // succeeds early and its status request waits until serving.
        let mut client = loop {
            match Client::connect(&daemon.endpoint) {
                Ok(c) => break c,
                Err(_) if start.elapsed() < BOOT_DEADLINE => {
                    if let Ok(Some(status)) = daemon.child.try_wait() {
                        return Err(format!("cfs serve exited during boot ({status})"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(format!("cfs serve never accepted: {e}")),
            }
        };
        let reply = client
            .roundtrip(&request("status", ""))
            .map_err(|e| format!("status during boot: {e}"))?;
        let setup_s = start.elapsed().as_secs_f64();
        if !is_ok(&reply) {
            return Err(format!("boot status not ok: {reply}"));
        }
        Ok((daemon, setup_s))
    }

    /// Where the daemon listens.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// One request on a fresh connection.
    pub fn call(&self, line: &str) -> Result<String, String> {
        call(&self.endpoint, line).map(|(reply, _)| reply)
    }

    /// The daemon's peak resident set so far, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(self.child.id()).ok_or_else(|| "daemon VmHWM unreadable".to_string())
    }

    /// Sends `shutdown` and reaps the process.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = self.call(&request("shutdown", ""))?;
        if !is_ok(&reply) {
            return Err(format!("shutdown refused: {reply}"));
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("cfs serve exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One request on a fresh connection, as every stream client sends
/// them (the daemon serves one connection at a time). Returns the reply
/// and the connect time in µs.
pub fn call(endpoint: &Endpoint, line: &str) -> Result<(String, f64), String> {
    let t = Instant::now();
    let mut client = Client::connect(endpoint).map_err(|e| format!("connect: {e}"))?;
    let connect_us = t.elapsed().as_secs_f64() * 1e6;
    let reply = client
        .roundtrip(line)
        .map_err(|e| format!("roundtrip: {e}"))?;
    Ok((reply, connect_us))
}

/// A `cfs-api/1` request line for `op`; `members` (already JSON, each
/// prefixed by a comma) follow the op.
pub fn request(op: &str, members: &str) -> String {
    format!("{{\"schema\":\"{SCHEMA}\",\"op\":\"{op}\"{members}}}")
}

/// Whether a reply line is `ok:true`.
pub fn is_ok(reply: &str) -> bool {
    serde_json::from_str::<Value>(reply)
        .map(|v| v["ok"].as_bool() == Some(true))
        .unwrap_or(false)
}
