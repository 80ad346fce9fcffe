//! Workload generators — the `wrk`, `DBT2`, and `dkftpbench` analogues.
//!
//! Each generator is a blocking driver over the stepped client of
//! [`crate::traffic`]: it alternates one client pump with one scheduler
//! slice until the workload completes, measuring *virtual* time
//! (deterministic) for the Figure 3 / Table 3 metrics.

use crate::traffic::{FtpTraffic, HttpTraffic, TpccTraffic, Traffic};
use bastion_kernel::{RunStatus, World};

pub use crate::traffic::{KEEPALIVE_REQUESTS, REQUEST_CYCLES_SKETCH};

/// Scheduler slice between client pumps.
const SLICE: u64 = 400_000;

/// Progress guard: pump iterations without progress before giving up.
const STALL_LIMIT: u32 = 10_000;

/// wrk-style HTTP load results.
#[derive(Debug, Clone, Copy, Default)]
pub struct HttpStats {
    /// Completed requests.
    pub requests: u64,
    /// Response bytes received (headers + body).
    pub bytes: u64,
    /// Virtual cycles elapsed during the measurement.
    pub cycles: u64,
}

impl HttpStats {
    /// Throughput in MB/s of virtual time (Table 3's NGINX metric).
    pub fn throughput_mb_s(&self, cpu_hz: u64) -> f64 {
        let secs = self.cycles as f64 / cpu_hz as f64;
        if secs == 0.0 {
            0.0
        } else {
            self.bytes as f64 / 1_000_000.0 / secs
        }
    }
}

/// Drives `total` HTTP requests against `port` with `concurrency`
/// keep-alive connections of [`KEEPALIVE_REQUESTS`] requests each.
///
/// # Panics
/// Panics if the server stops making progress (deadlock guard).
pub fn http_load(world: &mut World, port: u16, concurrency: usize, total: u64) -> HttpStats {
    let http = HttpTraffic::new(port, concurrency, total);
    let (t, cycles) = drive(world, "http_load", Traffic::Http(http));
    HttpStats {
        requests: t.served(),
        bytes: t.bytes(),
        cycles,
    }
}

/// DBT2-style transaction results.
#[derive(Debug, Clone, Copy, Default)]
pub struct TpccStats {
    /// Committed new-order transactions.
    pub transactions: u64,
    /// Virtual cycles elapsed.
    pub cycles: u64,
}

impl TpccStats {
    /// New-order transactions per virtual minute (Table 3's SQLite metric).
    pub fn notpm(&self, cpu_hz: u64) -> f64 {
        let mins = self.cycles as f64 / cpu_hz as f64 / 60.0;
        if mins == 0.0 {
            0.0
        } else {
            self.transactions as f64 / mins
        }
    }
}

/// Runs `total` NEWORDER transactions over `sessions` concurrent client
/// sessions against the dbkv server.
///
/// # Panics
/// Panics on a server stall.
pub fn tpcc_load(world: &mut World, port: u16, sessions: usize, total: u64) -> TpccStats {
    let tpcc = TpccTraffic::new(port, sessions, total);
    let (t, cycles) = drive(world, "tpcc_load", Traffic::Tpcc(tpcc));
    TpccStats {
        transactions: t.served(),
        cycles,
    }
}

/// dkftpbench-style download results.
#[derive(Debug, Clone, Copy, Default)]
pub struct FtpStats {
    /// Files downloaded.
    pub files: u64,
    /// Payload bytes received on data connections.
    pub bytes: u64,
    /// Virtual cycles elapsed.
    pub cycles: u64,
}

impl FtpStats {
    /// Virtual seconds to download `target_bytes` at the measured rate —
    /// the Table 3 vsftpd metric ("seconds to download a 100 MB file"),
    /// scaled from the simulator's smaller payload.
    pub fn seconds_for(&self, target_bytes: u64, cpu_hz: u64) -> f64 {
        if self.bytes == 0 {
            return f64::INFINITY;
        }
        let secs = self.cycles as f64 / cpu_hz as f64;
        secs * target_bytes as f64 / self.bytes as f64
    }
}

/// Runs `downloads` sequential RETR sessions (one file each) against the
/// ftpd server, like dkftpbench "launching clients one after another".
///
/// # Panics
/// Panics on a server stall.
pub fn ftp_load(world: &mut World, port: u16, downloads: u64, path: &str) -> FtpStats {
    let ftp = FtpTraffic::new(port, downloads, path);
    let (t, cycles) = drive(world, "ftp_load", Traffic::Ftp(ftp));
    FtpStats {
        files: t.served(),
        bytes: t.bytes(),
        cycles,
    }
}

/// Runs `traffic` to completion — `loop { pump; if done { break } run(SLICE) }`
/// — and returns it with the virtual cycles its measurement window took.
///
/// Where the window ends differs by protocol. HTTP and FTP then run the
/// world until it parks (`Idle`/`AllExited`), so each measurement covers
/// the identical logical workload including every connection's close and
/// re-accept, and per-context overhead deltas are not masked by
/// window-boundary jitter. TPC-C ends at the last commit: DBT2's NOTPM
/// counts committed transactions over the time they took, and terminal
/// teardown is no transaction. Its terminals are closed, so the dbkv
/// workers return to `accept` on the world's next run (a later batch needs
/// them), but that run is not timed; timing it would shift every recorded
/// dbkv Figure 3 / Table 3 cell.
///
/// # Panics
/// Panics, naming the driver state, after [`STALL_LIMIT`] consecutive
/// pumps without progress while the world sits parked.
fn drive(world: &mut World, name: &str, mut traffic: Traffic) -> (Traffic, u64) {
    let start = world.now();
    let mut stall = 0u32;
    loop {
        let progressed = traffic.pump(world);
        if traffic.done() {
            break;
        }
        let status = world.run(SLICE);
        if progressed || status == RunStatus::Budget {
            stall = 0;
        } else {
            stall += 1;
            assert!(
                stall < STALL_LIMIT,
                "{name} stalled: {}/{} done, status {status:?}\n{traffic:?}\n{}",
                traffic.served(),
                traffic.target(),
                world.summary()
            );
        }
    }
    if !matches!(traffic, Traffic::Tpcc(_)) {
        for _ in 0..STALL_LIMIT {
            if world.run(SLICE) != RunStatus::Budget {
                break;
            }
        }
    }
    (traffic, world.now() - start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_convert_units() {
        let h = HttpStats {
            requests: 10,
            bytes: 2_000_000,
            cycles: 2_000_000_000,
        };
        assert!((h.throughput_mb_s(2_000_000_000) - 2.0).abs() < 1e-9);
        let t = TpccStats {
            transactions: 600,
            cycles: 2_000_000_000 * 60,
        };
        assert!((t.notpm(2_000_000_000) - 600.0).abs() < 1e-9);
        let f = FtpStats {
            files: 1,
            bytes: 1_000_000,
            cycles: 2_000_000_000,
        };
        // 100x the bytes at the same rate = 100x the time.
        assert!((f.seconds_for(100_000_000, 2_000_000_000) - 100.0).abs() < 1e-9);
        let empty = FtpStats::default();
        assert!(empty.seconds_for(1, 1).is_infinite());
    }
}
