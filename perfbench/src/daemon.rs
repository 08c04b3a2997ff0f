//! The serving processes: real `fpm serve` and `fpm router` children on
//! ephemeral loopback ports. Every child is stopped (shutdown verb, then a
//! kill after a grace period) and waited for, also on early exits.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt as _;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fpm_serve::client::Client;

use crate::inputs::Topology;

/// Per-request deadline of the daemons, in ms: `fpm serve`'s default,
/// which the benchmark does not override, so a request that waits longer
/// is answered with a `deadline` error and counts in `error_frac`.
pub fn deadline_ms() -> u64 {
    fpm_cli::serve_cmd::ServeOptions::default().deadline_ms
}

extern "C" {
    fn prctl(option: i32, arg2: u64, ...) -> i32;
}

/// `PR_SET_PDEATHSIG` from `<linux/prctl.h>`.
const PR_SET_PDEATHSIG: i32 = 1;
/// `SIGKILL`.
const SIGKILL: u64 = 9;

pub struct Daemon {
    child: Option<Child>,
    pub addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    fn spawn(fpm: &Path, args: &[String]) -> Result<Self, String> {
        let mut command = Command::new(fpm);
        // SAFETY: prctl(PR_SET_PDEATHSIG) only sets a flag on the calling
        // (freshly forked) process; it allocates nothing and touches no
        // memory, so it is safe between fork and exec. It makes the
        // kernel kill the daemon if the benchmark dies without stopping it.
        unsafe {
            command.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL);
                Ok(())
            });
        }
        let mut child = command
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", fpm.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut first = String::new();
        let read = stdout.read_line(&mut first);
        let addr = first
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let Some(addr) = addr.filter(|_| read.is_ok()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "{} {args:?} did not report its address: {first:?}",
                fpm.display()
            ));
        };
        // The final metrics snapshot arrives on stdout at shutdown; keep
        // the pipe drained so the child never blocks on it.
        let drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut stdout, &mut std::io::sink());
        });
        Ok(Self {
            child: Some(child),
            addr,
            drain: Some(drain),
        })
    }

    pub fn serve(fpm: &Path) -> Result<Self, String> {
        let args = ["serve", "--addr", "127.0.0.1:0"].map(str::to_owned);
        Self::spawn(fpm, &args)
    }

    pub fn router(fpm: &Path, shards: &[SocketAddr], replicas: usize) -> Result<Self, String> {
        let list: Vec<String> = shards.iter().map(SocketAddr::to_string).collect();
        let args = [
            "router",
            "--addr",
            "127.0.0.1:0",
            "--shards",
            &list.join(","),
            "--replicas",
            &replicas.to_string(),
        ]
        .map(str::to_owned);
        Self::spawn(fpm, &args)
    }

    /// Peak resident set (VmHWM) in KiB, 0 when unreadable.
    pub fn peak_rss_kib(&self) -> u64 {
        let Some(child) = &self.child else { return 0 };
        std::fs::read_to_string(format!("/proc/{}/status", child.id()))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            })
            .unwrap_or(0)
    }

    /// Asks the process to drain and exit, then waits for it; kills it if
    /// it has not exited within five seconds.
    pub fn stop(mut self) {
        if let Ok(mut client) = Client::connect_timeout(
            self.addr,
            Some(Duration::from_secs(2)),
            Duration::from_secs(5),
        ) {
            let _ = client.shutdown();
        }
        self.reap(Duration::from_secs(5));
    }

    fn reap(&mut self, grace: Duration) {
        if let Some(mut child) = self.child.take() {
            let deadline = Instant::now() + grace;
            while Instant::now() < deadline {
                if let Ok(Some(_)) = child.try_wait() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            if !matches!(child.try_wait(), Ok(Some(_))) {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap(Duration::ZERO);
    }
}

/// The serving processes of one workload: a single daemon, or a router
/// with its shards.
pub struct Deployment {
    pub shards: Vec<Daemon>,
    pub router: Option<Daemon>,
}

impl Deployment {
    pub fn start(fpm: &Path, topology: Topology) -> Result<Self, String> {
        match topology {
            Topology::Single => Ok(Self {
                shards: vec![Daemon::serve(fpm)?],
                router: None,
            }),
            Topology::Routed { shards, replicas } => {
                let shards = (0..shards)
                    .map(|_| Daemon::serve(fpm))
                    .collect::<Result<Vec<_>, _>>()?;
                let addrs: Vec<SocketAddr> = shards.iter().map(|d| d.addr).collect();
                let router = Daemon::router(fpm, &addrs, replicas)?;
                Ok(Self {
                    shards,
                    router: Some(router),
                })
            }
        }
    }

    /// Where clients connect: the router if there is one.
    pub fn front(&self) -> SocketAddr {
        self.router.as_ref().map_or(self.shards[0].addr, |r| r.addr)
    }

    /// Sum of the serving processes' peak resident sets, in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        let kib: u64 = self
            .shards
            .iter()
            .chain(&self.router)
            .map(Daemon::peak_rss_kib)
            .sum();
        kib as f64 / 1024.0
    }

    /// Process layout, for the regime record.
    pub fn layout(&self) -> String {
        match &self.router {
            None => "1 x fpm serve".to_owned(),
            Some(_) => format!("fpm router -> {} x fpm serve", self.shards.len()),
        }
    }

    pub fn stop(self) {
        if let Some(router) = self.router {
            router.stop();
        }
        for shard in self.shards {
            shard.stop();
        }
    }
}
