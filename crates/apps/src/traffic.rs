//! Stepped (non-blocking) client drivers for the three workloads — the
//! one implementation of the `wrk`, `DBT2` and `dkftpbench` client
//! protocols.
//!
//! [`Traffic::pump`] plays one slice of the client side — receive what
//! arrived, close finished connections, open new ones, send what can be
//! sent — and returns without running the scheduler. The `bastion serve`
//! supervisor interleaves pumps with `world.run(quantum)` across hundreds
//! of tenant worlds; the blocking [`loadgen`](crate::loadgen) generators
//! are the single-world driver over these same clients, alternating a
//! pump with a fixed scheduler slice until the workload completes.
//!
//! Both drivers share the framing, keep-alive quotas and latency sketch
//! lane ([`REQUEST_CYCLES_SKETCH`]), so per-request latency distributions
//! are comparable between `bastion bench` and `bastion serve`.

use crate::App;
use bastion_kernel::{ExtConnId, World};
use bastion_obs as obs;

/// Quantile-sketch lane for end-to-end request latency in virtual cycles:
/// HTTP per request, TPC-C per transaction, FTP per session. Observed only
/// when thread-local telemetry is enabled — the drivers stay zero-overhead
/// on plain benchmark runs.
pub const REQUEST_CYCLES_SKETCH: &str = "loadgen.request_cycles";

/// Requests served per keep-alive connection before the client reconnects
/// (wrk reuses connections, which is why Table 4's accept4 count is far
/// below the request count).
pub const KEEPALIVE_REQUESTS: u64 = 29;

/// A resumable client-side workload for one tenant world.
#[derive(Debug)]
pub enum Traffic {
    /// wrk-style keep-alive HTTP load (webserve).
    Http(HttpTraffic),
    /// DBT2-style transaction sessions (dbkv).
    Tpcc(TpccTraffic),
    /// dkftpbench-style sequential download sessions (ftpd).
    Ftp(FtpTraffic),
}

impl Traffic {
    /// The standard driver for `app`: `requests` total requests /
    /// transactions / downloads over `concurrency` client connections
    /// (FTP sessions are sequential by construction, like dkftpbench).
    pub fn for_app(app: App, requests: u64, concurrency: usize) -> Traffic {
        match app {
            App::Webserve => Traffic::Http(HttpTraffic::new(app.port(), concurrency, requests)),
            App::Dbkv => Traffic::Tpcc(TpccTraffic::new(app.port(), concurrency, requests)),
            App::Ftpd => Traffic::Ftp(FtpTraffic::new(
                app.port(),
                requests,
                crate::ftpd::FILE_PATH,
            )),
        }
    }

    /// Plays one client slice against `world` without running the
    /// scheduler. Returns whether any externally visible progress happened
    /// (a connection opened, bytes moved, a request completed) — the
    /// supervisor's stall detector keys off this.
    pub fn pump(&mut self, world: &mut World) -> bool {
        match self {
            Traffic::Http(t) => t.pump(world),
            Traffic::Tpcc(t) => t.pump(world),
            Traffic::Ftp(t) => t.pump(world),
        }
    }

    /// Whether the workload has fully completed (all requests served and
    /// every client connection closed).
    pub fn done(&self) -> bool {
        match self {
            Traffic::Http(t) => t.requests >= t.total && t.conns.is_empty(),
            Traffic::Tpcc(t) => t.transactions >= t.total && t.issued > 0 && t.conns.is_empty(),
            Traffic::Ftp(t) => t.files >= t.downloads && t.state == FtpState::Between,
        }
    }

    /// Requests / transactions / downloads completed so far.
    pub fn served(&self) -> u64 {
        match self {
            Traffic::Http(t) => t.requests,
            Traffic::Tpcc(t) => t.transactions,
            Traffic::Ftp(t) => t.files,
        }
    }

    /// Total requests this driver will issue.
    pub fn target(&self) -> u64 {
        match self {
            Traffic::Http(t) => t.total,
            Traffic::Tpcc(t) => t.total,
            Traffic::Ftp(t) => t.downloads,
        }
    }

    /// Payload bytes received so far (HTTP responses, FTP data).
    pub fn bytes(&self) -> u64 {
        match self {
            Traffic::Http(t) => t.bytes,
            Traffic::Tpcc(_) => 0,
            Traffic::Ftp(t) => t.bytes,
        }
    }
}

struct HttpConn {
    id: ExtConnId,
    buf: Vec<u8>,
    remaining: u64,
    outstanding: bool,
    sent_at: u64,
}

impl std::fmt::Debug for HttpConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpConn")
            .field("id", &self.id)
            .field("remaining", &self.remaining)
            .finish()
    }
}

/// wrk-style client: at most `concurrency` open keep-alive connections,
/// one outstanding request each. The connection plan is deterministic —
/// every connection carries [`KEEPALIVE_REQUESTS`] requests but the last,
/// which carries the rest — so protected and baseline runs see identical
/// workloads (connection-count jitter would otherwise mask sub-0.1%
/// per-context overhead deltas). Responses are framed by their
/// `Content-Length` header.
#[derive(Debug)]
pub struct HttpTraffic {
    port: u16,
    concurrency: usize,
    total: u64,
    /// Requests not yet assigned to a connection.
    unopened: u64,
    conns: Vec<HttpConn>,
    /// Completed requests.
    pub requests: u64,
    /// Response bytes received.
    pub bytes: u64,
}

impl HttpTraffic {
    /// A driver for `total` requests over `concurrency` connections.
    pub fn new(port: u16, concurrency: usize, total: u64) -> Self {
        HttpTraffic {
            port,
            concurrency: concurrency.max(1),
            total,
            unopened: total,
            conns: Vec::new(),
            requests: 0,
            bytes: 0,
        }
    }

    /// Receives and closes before it connects, so a slot freed in this
    /// pump is refilled in the same pump (before the next scheduler run).
    fn pump(&mut self, world: &mut World) -> bool {
        const REQUEST: &[u8] = b"GET /index.html HTTP/1.1\r\nHost: bench\r\n\r\n";
        let mut progressed = false;
        let mut i = 0;
        while i < self.conns.len() {
            let chunk = world.net_recv(self.conns[i].id);
            if !chunk.is_empty() {
                self.conns[i].buf.extend_from_slice(&chunk);
                progressed = true;
            }
            while let Some(len) = complete_response(&self.conns[i].buf) {
                self.conns[i].buf.drain(..len);
                self.conns[i].outstanding = false;
                obs::sketch_observe(
                    REQUEST_CYCLES_SKETCH,
                    world.now().saturating_sub(self.conns[i].sent_at),
                );
                self.requests += 1;
                self.bytes += len as u64;
                progressed = true;
                if self.conns[i].remaining > 0 {
                    world.net_send(self.conns[i].id, REQUEST);
                    self.conns[i].remaining -= 1;
                    self.conns[i].outstanding = true;
                    self.conns[i].sent_at = world.now();
                }
            }
            let c = &self.conns[i];
            if (!c.outstanding && c.remaining == 0) || world.net_server_closed(c.id) {
                world.net_close(c.id);
                self.conns.swap_remove(i);
                progressed = true;
            } else {
                i += 1;
            }
        }
        while self.conns.len() < self.concurrency && self.unopened > 0 {
            let Some(id) = world.net_connect(self.port) else {
                break; // backlog full; let the server drain first
            };
            let quota = KEEPALIVE_REQUESTS.min(self.unopened);
            self.unopened -= quota;
            world.net_send(id, REQUEST);
            progressed = true;
            self.conns.push(HttpConn {
                id,
                buf: Vec::new(),
                remaining: quota - 1,
                outstanding: true,
                sent_at: world.now(),
            });
        }
        progressed
    }
}

/// If `buf` starts with a complete HTTP response (headers + body per
/// `Content-Length`), returns its total length.
fn complete_response(buf: &[u8]) -> Option<usize> {
    let hdr_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let text = std::str::from_utf8(&buf[..hdr_end]).ok()?;
    let mut body_len = 0usize;
    for line in text.split("\r\n") {
        if let Some(v) = line.strip_prefix("Content-Length: ") {
            body_len = v.trim().parse().ok()?;
        }
    }
    (buf.len() >= hdr_end + body_len).then_some(hdr_end + body_len)
}

/// DBT2-style client: long-lived terminal sessions opened up front, one
/// outstanding NEWORDER per session, every terminal closed after the last
/// commit.
#[derive(Debug)]
pub struct TpccTraffic {
    port: u16,
    sessions: usize,
    total: u64,
    /// `(conn, buffered_replies, sent_at)` per open session; empty before
    /// the first successful pump and after the last commit.
    conns: Vec<(ExtConnId, u64, u64)>,
    /// Transactions sent; nonzero once the terminals are open.
    issued: u64,
    /// Committed transactions.
    pub transactions: u64,
}

impl TpccTraffic {
    /// A driver for `total` transactions over `sessions` terminals.
    pub fn new(port: u16, sessions: usize, total: u64) -> Self {
        TpccTraffic {
            port,
            sessions: sessions.max(1),
            total,
            conns: Vec::new(),
            issued: 0,
            transactions: 0,
        }
    }

    fn pump(&mut self, world: &mut World) -> bool {
        if self.issued == 0 {
            // Terminals connect up front and each seeds one transaction;
            // retried while the server is not yet parked in accept.
            for _ in 0..self.sessions {
                let Some(c) = world.net_connect(self.port) else {
                    break;
                };
                world.net_send(c, order_cmd(self.issued).as_bytes());
                self.conns.push((c, 0, world.now()));
                self.issued += 1;
            }
            return self.issued > 0;
        }
        let mut progressed = false;
        let now = world.now();
        for (c, buffered, sent_at) in &mut self.conns {
            let chunk = world.net_recv(*c);
            if chunk.is_empty() {
                continue;
            }
            progressed = true;
            *buffered += chunk.iter().filter(|&&b| b == b'\n').count() as u64;
            while *buffered > 0 && self.transactions < self.total {
                *buffered -= 1;
                obs::sketch_observe(REQUEST_CYCLES_SKETCH, now.saturating_sub(*sent_at));
                self.transactions += 1;
                if self.issued < self.total {
                    world.net_send(*c, order_cmd(self.issued).as_bytes());
                    *sent_at = now;
                    self.issued += 1;
                }
            }
        }
        if self.transactions >= self.total && !self.conns.is_empty() {
            for (c, _, _) in self.conns.drain(..) {
                world.net_close(c);
            }
            progressed = true;
        }
        progressed
    }
}

/// The `seq`-th NEWORDER command of the deterministic transaction mix.
fn order_cmd(seq: u64) -> String {
    format!(
        "NEWORDER {} {} {}\n",
        1 + seq % 4,
        seq * 7 % 251,
        1 + seq % 9
    )
}

/// Where the FTP session state machine stands (one transition per pump).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FtpState {
    /// No session in flight (next pump opens one if downloads remain).
    Between,
    /// Awaiting the `220` greeting.
    Greeting,
    /// Sent `USER`, awaiting `331`.
    User,
    /// Sent `PASS`, awaiting `230`.
    Pass,
    /// Sent `RETR`, awaiting the `227 <port>` passive announcement; once
    /// `port` is known, connecting the data channel.
    Pasv { port: Option<u16> },
    /// Data channel open; draining until the control channel says `226`.
    Transfer { data: ExtConnId },
    /// Sent `QUIT`; next pump tears the session down.
    Quit { data: ExtConnId },
}

impl FtpState {
    /// The control-channel reply code this state waits for, if any.
    fn awaiting(self) -> Option<&'static str> {
        match self {
            FtpState::Greeting => Some("220"),
            FtpState::User => Some("331"),
            FtpState::Pass => Some("230"),
            FtpState::Pasv { port: None } => Some("227"),
            FtpState::Transfer { .. } => Some("226"),
            FtpState::Between | FtpState::Pasv { .. } | FtpState::Quit { .. } => None,
        }
    }
}

/// dkftpbench-style client: sequential RETR sessions ("launching clients
/// one after another"), advanced one protocol transition per pump.
pub struct FtpTraffic {
    port: u16,
    downloads: u64,
    path: String,
    state: FtpState,
    ctrl: Option<ExtConnId>,
    ctrl_buf: Vec<u8>,
    session_start: u64,
    /// Files fully downloaded.
    pub files: u64,
    /// Data-channel payload bytes received.
    pub bytes: u64,
}

/// Names the reply a stalled session waits for and what the control
/// channel holds instead.
impl std::fmt::Debug for FtpTraffic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FtpTraffic")
            .field("state", &self.state)
            .field("awaiting", &self.state.awaiting())
            .field("ctrl_buf", &String::from_utf8_lossy(&self.ctrl_buf))
            .field("files", &self.files)
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl FtpTraffic {
    /// A driver for `downloads` sequential sessions fetching `path`.
    pub fn new(port: u16, downloads: u64, path: &str) -> Self {
        FtpTraffic {
            port,
            downloads,
            path: path.to_string(),
            state: FtpState::Between,
            ctrl: None,
            ctrl_buf: Vec::new(),
            session_start: 0,
            files: 0,
            bytes: 0,
        }
    }

    /// Scans buffered control-channel lines for the reply the current
    /// state awaits; on a match consumes the buffer through that line and
    /// returns the line.
    fn take_reply(&mut self) -> Option<Vec<u8>> {
        let code = self.state.awaiting()?.as_bytes();
        let mut consumed = 0usize;
        for line in self.ctrl_buf.split_inclusive(|&b| b == b'\n') {
            consumed += line.len();
            if line.starts_with(code) {
                let reply = line.to_vec();
                self.ctrl_buf.drain(..consumed);
                return Some(reply);
            }
        }
        None
    }

    fn pump(&mut self, world: &mut World) -> bool {
        if let Some(c) = self.ctrl {
            let chunk = world.net_recv(c);
            self.ctrl_buf.extend_from_slice(&chunk);
        }
        match self.state {
            FtpState::Between => {
                if self.files >= self.downloads {
                    return false;
                }
                let Some(ctrl) = world.net_connect(self.port) else {
                    return false; // server still booting or backlog full
                };
                self.ctrl = Some(ctrl);
                self.ctrl_buf.clear();
                self.session_start = world.now();
                self.state = FtpState::Greeting;
                true
            }
            FtpState::Greeting | FtpState::User | FtpState::Pass => {
                if self.take_reply().is_none() {
                    return false;
                }
                let (cmd, next) = match self.state {
                    FtpState::Greeting => ("USER bench\n".to_string(), FtpState::User),
                    FtpState::User => ("PASS bench\n".to_string(), FtpState::Pass),
                    _ => (
                        format!("RETR {}\n", self.path),
                        FtpState::Pasv { port: None },
                    ),
                };
                let ctrl = self.ctrl.expect("login runs on an open control connection");
                world.net_send(ctrl, cmd.as_bytes());
                self.state = next;
                true
            }
            FtpState::Pasv { port } => {
                let port = match (port, self.take_reply()) {
                    (Some(port), _) => port,
                    (None, Some(reply)) => String::from_utf8_lossy(&reply[4..])
                        .trim()
                        .parse()
                        .expect("pasv port"),
                    (None, None) => return false,
                };
                // The passive connect can race the server's listen; keep
                // retrying on subsequent pumps.
                let Some(data) = world.net_connect(port) else {
                    self.state = FtpState::Pasv { port: Some(port) };
                    return false;
                };
                self.state = FtpState::Transfer { data };
                true
            }
            FtpState::Transfer { data } => {
                // dkftpbench never inspects the payload: count, don't copy.
                let n = world.net_discard(data);
                let mut progressed = n > 0;
                self.bytes += n as u64;
                // The data channel was drained above, after the scheduler
                // slice that produced the `226`: no payload byte can trail it.
                if self.take_reply().is_some() {
                    self.files += 1;
                    obs::sketch_observe(
                        REQUEST_CYCLES_SKETCH,
                        world.now().saturating_sub(self.session_start),
                    );
                    world.net_send(self.ctrl.unwrap(), b"QUIT\n");
                    self.state = FtpState::Quit { data };
                    progressed = true;
                }
                progressed
            }
            FtpState::Quit { data } => {
                self.ctrl_buf.clear();
                world.net_close(data);
                world.net_close(self.ctrl.take().unwrap());
                self.state = FtpState::Between;
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `t` against a booted webserve, asserting after every pump that
    /// no slot is left empty while requests remain unopened — a slot freed
    /// in a pump is refilled in that same pump. Returns each connection's
    /// request quota in opening order.
    fn run_http(mut t: HttpTraffic) -> Vec<u64> {
        let app = App::Webserve;
        let cost = bastion_vm::CostModel::default();
        let image = std::sync::Arc::new(bastion_vm::Image::load(app.module().unwrap()).unwrap());
        let mut world = World::new(cost);
        app.setup_vfs(&mut world);
        world.spawn(bastion_vm::Machine::new(image, cost));
        world.run(200_000_000);
        let (mut seen, mut quotas) = (Vec::new(), Vec::new());
        for _ in 0..10_000 {
            if t.requests >= t.total && t.conns.is_empty() {
                break;
            }
            t.pump(&mut world);
            for c in &t.conns {
                if !seen.contains(&c.id) {
                    seen.push(c.id);
                    quotas.push(c.remaining + 1);
                }
            }
            if t.unopened > 0 {
                assert_eq!(t.conns.len(), t.concurrency, "slot left empty");
            }
            world.run(400_000);
        }
        assert_eq!(t.requests, t.total);
        quotas
    }

    #[test]
    fn http_plan_splits_into_keepalive_quotas() {
        // 100 requests = 3 full keep-alive connections of 29 + one of 13.
        let port = App::Webserve.port();
        assert_eq!(
            run_http(HttpTraffic::new(port, 4, 100)),
            vec![29, 29, 29, 13]
        );
        assert!(Traffic::Http(HttpTraffic::new(port, 4, 0)).done());
    }

    #[test]
    fn http_freed_slot_is_refilled_in_the_same_pump() {
        // One slot, three connections: both refills happen in the pump
        // that closes the previous connection.
        let t = HttpTraffic::new(App::Webserve.port(), 1, 60);
        assert_eq!(run_http(t), vec![29, 29, 2]);
    }

    #[test]
    fn http_response_framing() {
        let resp = b"HTTP/1.0 200 OK\r\nContent-Length: 5\r\n\r\nhello";
        assert_eq!(complete_response(resp), Some(resp.len()));
        // Incomplete body.
        assert_eq!(complete_response(&resp[..resp.len() - 1]), None);
        // Incomplete headers.
        assert_eq!(complete_response(b"HTTP/1.0 200 OK\r\nContent-"), None);
        // Zero-length body (404s).
        let err = b"HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n";
        assert_eq!(complete_response(err), Some(err.len()));
        // Pipelined responses: only the first is consumed.
        let mut two = resp.to_vec();
        two.extend_from_slice(err);
        assert_eq!(complete_response(&two), Some(resp.len()));
    }

    #[test]
    fn order_commands_are_well_formed() {
        for i in 0..50 {
            let c = order_cmd(i);
            assert!(c.starts_with("NEWORDER "));
            assert!(c.ends_with('\n'));
            assert_eq!(c.split_whitespace().count(), 4);
        }
    }

    #[test]
    fn ftp_reply_scan_consumes_through_match() {
        let mut t = FtpTraffic::new(2100, 1, "/f");
        t.ctrl_buf = b"220 hello\n331 pw\nxx".to_vec();
        t.state = FtpState::Greeting;
        assert_eq!(t.take_reply().unwrap(), b"220 hello\n");
        t.state = FtpState::Transfer { data: 0 };
        assert!(t.take_reply().is_none(), "no 226 buffered yet");
        t.state = FtpState::User;
        assert_eq!(t.take_reply().unwrap(), b"331 pw\n");
        assert_eq!(t.ctrl_buf, b"xx");
    }

    #[test]
    fn traffic_reports_targets() {
        for app in crate::ALL_APPS {
            let t = Traffic::for_app(app, 12, 2);
            assert_eq!(t.target(), 12, "{}", app.id());
            assert_eq!(t.served(), 0);
            assert!(!t.done() || t.target() == 0);
        }
    }
}
