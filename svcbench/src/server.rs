//! The server under test: `sustain-hpc serve` with its default settings,
//! run as a child process so that its CPU time and memory are its own.

use std::collections::BTreeMap;
use std::fs::File;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::http::exchange;

const START_TIMEOUT: Duration = Duration::from_secs(20);
const STOP_TIMEOUT: Duration = Duration::from_secs(20);

pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns the server on an ephemeral loopback port and waits for a
    /// 200 on `/healthz`. Returns the time from spawn to that 200.
    pub fn spawn(bin: &Path, log: &Path) -> Result<(Server, Duration), String> {
        let started = Instant::now();
        // The server prints its bound address on stderr; a file (rather
        // than a pipe) needs no reader thread and never fills up.
        let err = File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        // Owned from here on: dropping it kills and reaps the child.
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(addr) = text
                .split_whitespace()
                .find_map(|w| w.strip_prefix("http://"))
                .and_then(|a| a.parse().ok())
            {
                server.addr = addr;
                break;
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited at start-up ({status}): {text}"));
            }
            if started.elapsed() > START_TIMEOUT {
                return Err("server did not report its address".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        loop {
            match exchange(server.addr, "GET", "/healthz", "", None, false) {
                Ok(r) if r.status == 200 => return Ok((server, started.elapsed())),
                _ if started.elapsed() > START_TIMEOUT => {
                    return Err("server never answered /healthz with 200".into())
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Counters of `GET /stats`, flattened to `section.counter` names.
    pub fn stats(&self) -> Result<Counters, String> {
        let r = exchange(self.addr, "GET", "/stats", "", None, true)?;
        if r.status != 200 {
            return Err(format!("/stats answered {}", r.status));
        }
        let body = r.body.unwrap_or_default();
        let v: serde_json::Value =
            serde_json::from_slice(&body).map_err(|e| format!("/stats body is not JSON: {e}"))?;
        let mut c = Counters::new();
        for section in ["outcome_cache", "trace_cache", "workload_cache", "hot_path"] {
            let fields = v
                .get(section)
                .and_then(|s| s.as_object())
                .ok_or_else(|| format!("/stats has no {section}"))?;
            for (name, value) in fields {
                if let Some(n) = value.as_u64() {
                    c.insert(format!("{section}.{name}"), n);
                }
            }
        }
        Ok(c)
    }

    /// User plus system CPU time of the whole server process, seconds.
    pub fn cpu_s(&self, ticks_per_s: f64) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or("malformed stat")?;
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            f.get(i)
                .and_then(|s| s.parse::<f64>().ok())
                .ok_or_else(|| format!("malformed {path}"))
        };
        Ok((ticks(11)? + ticks(12)?) / ticks_per_s)
    }

    /// Peak resident set size (`VmHWM`), MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// `POST /shutdown`, then waits for the process to exit 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        let r = exchange(self.addr, "POST", "/shutdown", "", None, false)?;
        if r.status != 200 {
            return Err(format!("/shutdown answered {}", r.status));
        }
        let deadline = Instant::now() + STOP_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() > deadline => {
                    return Err("server did not exit after /shutdown".into())
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

pub type Counters = BTreeMap<String, u64>;

/// `after − before` for every counter.
pub fn delta(before: &Counters, after: &Counters) -> Counters {
    after
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.saturating_sub(before.get(k).copied().unwrap_or(0)),
            )
        })
        .collect()
}

/// Clock ticks per second of `/proc/<pid>/stat`.
pub fn clock_ticks_per_s() -> f64 {
    Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(100.0)
}
