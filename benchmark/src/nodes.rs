//! `hsqp-node` child processes for the socket workload and the remote
//! probe: spawned on OS-assigned loopback ports, and always killed and
//! reaped — on success, on error, and while unwinding from a panic.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a node may take to print its listening banner.
const BANNER_TIMEOUT: Duration = Duration::from_secs(10);
const BANNER: &str = "hsqp-node listening on ";

/// A set of running `hsqp-node` processes.
pub struct NodeProcs {
    children: Vec<Child>,
    /// Threads draining each child's stdout; they end when the child does.
    drains: Vec<JoinHandle<()>>,
    addrs: Vec<String>,
}

impl NodeProcs {
    /// Spawn `n` nodes with `--listen 127.0.0.1:0` and wait for each to
    /// report its bound address.
    pub fn spawn(bin: &Path, n: usize) -> Result<Self, String> {
        if !bin.is_file() {
            return Err(format!(
                "hsqp-node binary not found at {} (build it with \
                 `cargo build --release --bin hsqp-node`)",
                bin.display()
            ));
        }
        // Dropped on any early return below, which reaps what was spawned.
        let mut procs = NodeProcs {
            children: Vec::with_capacity(n),
            drains: Vec::with_capacity(n),
            addrs: Vec::with_capacity(n),
        };
        for i in 0..n {
            let mut child = Command::new(bin)
                .args(["--listen", "127.0.0.1:0"])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
            let stdout = child.stdout.take().expect("stdout is piped");
            procs.children.push(child);
            let (tx, rx) = mpsc::channel();
            procs
                .drains
                .push(std::thread::spawn(move || drain(stdout, tx)));
            let addr = rx
                .recv_timeout(BANNER_TIMEOUT)
                .map_err(|_| format!("hsqp-node {i} did not report a listening address"))?;
            procs.addrs.push(addr);
        }
        Ok(procs)
    }

    /// The nodes' `host:port` addresses, in node order.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// Sum of the nodes' peak resident set sizes, in bytes.
    pub fn peak_rss_bytes(&self) -> Result<u64, String> {
        self.children
            .iter()
            .map(|c| peak_rss_bytes(&format!("/proc/{}/status", c.id())))
            .sum()
    }

    /// Wait briefly for the nodes to exit on their own (after the
    /// coordinator's shutdown), then kill and reap any that remain.
    pub fn stop(mut self) {
        self.reap(Duration::from_secs(2));
    }

    fn reap(&mut self, grace: Duration) {
        let deadline = Instant::now() + grace;
        for child in &mut self.children {
            while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            // Either call fails only when the child has already exited and
            // been reaped, which is the state wanted here.
            let _ = child.kill();
            let _ = child.wait();
        }
        self.children.clear();
        for drain in self.drains.drain(..) {
            let _ = drain.join();
        }
    }
}

impl Drop for NodeProcs {
    fn drop(&mut self) {
        self.reap(Duration::ZERO);
    }
}

/// Forward the banner's address, then read the pipe to its end so the
/// node never blocks or fails on a write to stdout.
fn drain(stdout: ChildStdout, tx: mpsc::Sender<String>) {
    for line in BufReader::new(stdout).lines() {
        let Ok(line) = line else { break };
        if let Some(addr) = line.strip_prefix(BANNER) {
            let _ = tx.send(addr.trim().to_string());
        }
    }
}

/// Peak resident set size (`VmHWM`) from a `/proc/<pid>/status` file.
pub fn peak_rss_bytes(status_path: &str) -> Result<u64, String> {
    let status =
        std::fs::read_to_string(status_path).map_err(|e| format!("reading {status_path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| format!("no VmHWM line in {status_path}"))
}
