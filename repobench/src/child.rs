//! The served binary as a child process: spawn `astore-serve` on an
//! OS-chosen port, read the announced address from its stderr, sample its
//! memory from `/proc`, and kill it from a drop guard so no server outlives
//! a run — whether the run ends normally, by error, or by panic.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use astore_server::Client;

/// Path of the `astore-serve` binary: the sibling of this executable.
pub fn server_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let bin = exe.with_file_name("astore-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} not found: build it first (`cargo build --release --bin astore-serve` into the \
             same target directory; repobench/run.sh does both)",
            bin.display()
        ))
    }
}

/// A running `astore-serve` child. Dropping it sends SIGKILL and reaps it.
pub struct Server {
    child: Child,
    addr: SocketAddr,
    /// Stderr lines printed before the listening announcement (the boot
    /// report: rows loaded, WAL records replayed).
    boot_lines: Vec<String>,
    /// Drains the rest of stderr so the child never blocks on a full pipe.
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns the server with `--addr 127.0.0.1:0` plus `args` and waits
    /// for its `listening on <addr>` line.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr was piped"));
        let mut boot_lines = Vec::new();
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(n) if n > 0 => {
                    addr = parse_listen_addr(&line);
                    boot_lines.push(line.trim_end().to_owned());
                }
                _ => break,
            }
        }
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server exited before listening:\n{}", boot_lines.join("\n")));
        };
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(stderr.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok(Server { child, addr, boot_lines, drain: Some(drain) })
    }

    /// Spawns the server and times spawn → first `stats` reply, the
    /// benchmark's definition of set-up (and of restart) time.
    pub fn spawn_timed(bin: &Path, args: &[String]) -> Result<(Server, Duration), String> {
        let t = Instant::now();
        let server = Server::spawn(bin, args)?;
        server.connect()?.stats().map_err(|e| format!("first stats request failed: {e}"))?;
        Ok((server, t.elapsed()))
    }

    /// Opens a client connection.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr).map_err(|e| format!("connect to {} failed: {e}", self.addr))
    }

    /// WAL records the boot report says were replayed (0 on a cold boot).
    pub fn replayed_records(&self) -> u64 {
        self.boot_lines.iter().find_map(|l| parse_replayed(l)).unwrap_or(0)
    }

    /// Resident set size now, in MiB (`VmRSS`).
    pub fn rss_mb(&self) -> f64 {
        self.status_kb("VmRSS:") / 1024.0
    }

    /// Peak resident set size so far, in MiB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> f64 {
        self.status_kb("VmHWM:") / 1024.0
    }

    fn status_kb(&self, key: &str) -> f64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .ok()
            .and_then(|s| parse_status_kb(&s, key))
            .unwrap_or(0.0)
    }

    /// SIGKILL, then reap. The OS keeps its page cache, so this is a
    /// process crash, not a power loss.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Extracts the address from `astore-serve listening on 127.0.0.1:4545 (…`.
fn parse_listen_addr(line: &str) -> Option<SocketAddr> {
    let rest = line.split("listening on ").nth(1)?;
    rest.split_whitespace().next()?.parse().ok()
}

/// Extracts `N` from `recovered from <dir> (N WAL records replayed…`.
fn parse_replayed(line: &str) -> Option<u64> {
    let head = line.split(" WAL records replayed").next().filter(|h| h.len() < line.len())?;
    head.rsplit('(').next()?.trim().parse().ok()
}

/// Reads one `Key:   123 kB` line of `/proc/<pid>/status`.
fn parse_status_kb(status: &str, key: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_announced_port() {
        let line = "astore-serve listening on 127.0.0.1:46373 (io model reactor, 2 workers)\n";
        assert_eq!(parse_listen_addr(line), Some("127.0.0.1:46373".parse().unwrap()));
        assert_eq!(parse_listen_addr("loaded ssb sf=0.2 (1248957 rows) in 812.5ms"), None);
    }

    #[test]
    fn parses_boot_report_and_proc_status() {
        let line = "recovered from /tmp/d1 (412 WAL records replayed, torn tail truncated)";
        assert_eq!(parse_replayed(line), Some(412));
        assert_eq!(parse_replayed("initialized data dir /tmp/d1"), None);
        let status = "Name:\tastore-serve\nVmHWM:\t  303548 kB\nVmRSS:\t  271660 kB\n";
        assert_eq!(parse_status_kb(status, "VmRSS:"), Some(271660.0));
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(303548.0));
        assert_eq!(parse_status_kb(status, "VmSwap:"), None);
    }
}
