//! Loopback socket simulation.
//!
//! Listeners hold backlogs of pending connections; a connection is a pair of
//! byte queues. The *server* side is driven by application syscalls
//! (`accept`, `read`, `write`, `sendfile`); the *client* side is driven by
//! the Rust workload generators (the `wrk`/`DBT2`/`dkftpbench` analogues)
//! through [`Net::external_connect`] / [`Net::client_send`] /
//! [`Net::client_recv`] (or the count-only [`Net::client_discard`]).
//!
//! Queues are `VecDeque<u8>` rings moved in bulk: appends copy whole
//! slices and reads copy the ring's two halves (`as_slices`), never one
//! byte at a time.

use std::collections::{BTreeMap, VecDeque};

/// Identifies a connection.
pub type ConnId = usize;
/// Identifies a listening socket.
pub type ListenerId = usize;

/// One established (or pending) connection.
#[derive(Debug, Clone, Default)]
pub struct Conn {
    to_server: VecDeque<u8>,
    to_client: VecDeque<u8>,
    client_closed: bool,
    server_closed: bool,
    /// Synthetic peer port, reported by `accept`.
    pub peer_port: u16,
}

/// A listening socket.
#[derive(Debug, Clone)]
pub struct Listener {
    /// Bound port.
    pub port: u16,
    backlog: VecDeque<ConnId>,
    backlog_cap: usize,
}

/// Result of a read on one side of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// `n` bytes were copied out.
    Data(usize),
    /// No data yet and the peer is still open.
    WouldBlock,
    /// Peer closed and the queue is drained.
    Eof,
}

/// Binding a port that already has a listener.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortInUse(pub u16);

impl std::fmt::Display for PortInUse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "port {} already in use", self.0)
    }
}

impl std::error::Error for PortInUse {}

/// The network namespace.
#[derive(Debug, Clone, Default)]
pub struct Net {
    listeners: Vec<Listener>,
    conns: Vec<Conn>,
    ports: BTreeMap<u16, ListenerId>,
    next_peer_port: u16,
}

impl Net {
    /// An empty namespace.
    pub fn new() -> Self {
        Net {
            next_peer_port: 40000,
            ..Net::default()
        }
    }

    /// Binds and listens on `port`.
    ///
    /// # Errors
    /// Fails if another listener already owns the port.
    pub fn listen(&mut self, port: u16, backlog: usize) -> Result<ListenerId, PortInUse> {
        if self.ports.contains_key(&port) {
            return Err(PortInUse(port));
        }
        let id = self.listeners.len();
        self.listeners.push(Listener {
            port,
            backlog: VecDeque::new(),
            backlog_cap: backlog.max(1),
        });
        self.ports.insert(port, id);
        Ok(id)
    }

    /// An external client connects to `port`; queued on the backlog.
    /// Returns `None` if no listener is bound or the backlog is full.
    pub fn external_connect(&mut self, port: u16) -> Option<ConnId> {
        let &lid = self.ports.get(&port)?;
        let l = &mut self.listeners[lid];
        if l.backlog.len() >= l.backlog_cap {
            return None;
        }
        let cid = self.conns.len();
        // Ephemeral ports roll over to the bottom of the range and keep
        // incrementing (`.max(40000)` here would pin every post-wrap
        // connection to port 40000, aliasing their peer identities).
        self.next_peer_port = if self.next_peer_port == u16::MAX {
            40000
        } else {
            self.next_peer_port + 1
        };
        self.conns.push(Conn {
            peer_port: self.next_peer_port,
            ..Conn::default()
        });
        self.listeners[lid].backlog.push_back(cid);
        Some(cid)
    }

    /// Whether `accept` on this listener would succeed now.
    pub fn has_pending(&self, lid: ListenerId) -> bool {
        self.listeners
            .get(lid)
            .is_some_and(|l| !l.backlog.is_empty())
    }

    /// Dequeues a pending connection.
    pub fn accept(&mut self, lid: ListenerId) -> Option<ConnId> {
        self.listeners.get_mut(lid)?.backlog.pop_front()
    }

    /// Server-side read into `buf`.
    pub fn server_read(&mut self, cid: ConnId, buf: &mut [u8]) -> ReadOutcome {
        let Ok(out) = self.server_read_with(cid, buf.len(), |head, tail| {
            let (h, t) = buf.split_at_mut(head.len());
            h.copy_from_slice(head);
            t[..tail.len()].copy_from_slice(tail);
            Ok::<(), std::convert::Infallible>(())
        });
        out
    }

    /// Server-side read straight from the queue: hands up to `max` queued
    /// bytes to `sink` as the ring's two slices, in stream order, and
    /// dequeues them only if `sink` accepts them. A sink that validates a
    /// destination (a guest buffer mapping) first and fails leaves the
    /// stream untouched, so a faulting read drops no bytes.
    ///
    /// # Errors
    /// Returns `sink`'s error, consuming nothing.
    pub fn server_read_with<E>(
        &mut self,
        cid: ConnId,
        max: usize,
        sink: impl FnOnce(&[u8], &[u8]) -> Result<(), E>,
    ) -> Result<ReadOutcome, E> {
        let c = &mut self.conns[cid];
        if c.to_server.is_empty() {
            return Ok(if c.client_closed {
                ReadOutcome::Eof
            } else {
                ReadOutcome::WouldBlock
            });
        }
        let q = &mut c.to_server;
        let n = max.min(q.len());
        let (head, tail) = q.as_slices();
        let h = n.min(head.len());
        sink(&head[..h], &tail[..n - h])?;
        q.drain(..n);
        Ok(ReadOutcome::Data(n))
    }

    /// Server-side write (always succeeds; queues are unbounded).
    pub fn server_write(&mut self, cid: ConnId, bytes: &[u8]) -> usize {
        let c = &mut self.conns[cid];
        if c.client_closed {
            return bytes.len(); // RST-free simplification: bytes vanish.
        }
        c.to_client.extend(bytes);
        bytes.len()
    }

    /// Whether the server side has readable data (or EOF) available.
    pub fn server_readable(&self, cid: ConnId) -> bool {
        let c = &self.conns[cid];
        !c.to_server.is_empty() || c.client_closed
    }

    /// Server closes its side.
    pub fn server_close(&mut self, cid: ConnId) {
        self.conns[cid].server_closed = true;
    }

    /// Client-side send.
    pub fn client_send(&mut self, cid: ConnId, bytes: &[u8]) {
        let c = &mut self.conns[cid];
        if !c.server_closed {
            c.to_server.extend(bytes);
        }
    }

    /// Client-side receive: drains everything available.
    pub fn client_recv(&mut self, cid: ConnId) -> Vec<u8> {
        let q = &mut self.conns[cid].to_client;
        let (head, tail) = q.as_slices();
        let out = [head, tail].concat();
        q.clear();
        out
    }

    /// Client-side receive that only counts: drains everything available
    /// and returns how many bytes that was, for clients that never inspect
    /// the payload (the dkftpbench data channel).
    pub fn client_discard(&mut self, cid: ConnId) -> usize {
        let q = &mut self.conns[cid].to_client;
        let n = q.len();
        q.clear();
        n
    }

    /// Client closes its side (server reads then see EOF).
    pub fn client_close(&mut self, cid: ConnId) {
        self.conns[cid].client_closed = true;
    }

    /// Whether the server has closed this connection.
    pub fn server_closed(&self, cid: ConnId) -> bool {
        self.conns[cid].server_closed
    }

    /// Peer port of a connection (reported via accept's sockaddr).
    pub fn peer_port(&self, cid: ConnId) -> u16 {
        self.conns[cid].peer_port
    }

    /// Number of connections ever created.
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// An outbound connection from the application to an unmodelled local
    /// service (used by the app-side `connect` syscall): writes are
    /// swallowed, reads see immediate EOF.
    pub fn blackhole(&mut self) -> ConnId {
        let cid = self.conns.len();
        self.conns.push(Conn {
            client_closed: true,
            peer_port: 0,
            ..Conn::default()
        });
        cid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_accept_roundtrip() {
        let mut n = Net::new();
        let l = n.listen(8080, 16).unwrap();
        assert!(!n.has_pending(l));
        let c = n.external_connect(8080).unwrap();
        assert!(n.has_pending(l));
        assert_eq!(n.accept(l), Some(c));
        assert!(!n.has_pending(l));
    }

    #[test]
    fn duplicate_bind_fails() {
        let mut n = Net::new();
        n.listen(80, 4).unwrap();
        assert!(n.listen(80, 4).is_err());
    }

    #[test]
    fn backlog_capacity_limits_pending() {
        let mut n = Net::new();
        let _ = n.listen(80, 2).unwrap();
        assert!(n.external_connect(80).is_some());
        assert!(n.external_connect(80).is_some());
        assert!(n.external_connect(80).is_none());
    }

    #[test]
    fn bytes_flow_both_ways() {
        let mut n = Net::new();
        let l = n.listen(80, 4).unwrap();
        let c = n.external_connect(80).unwrap();
        let c2 = n.accept(l).unwrap();
        assert_eq!(c, c2);
        n.client_send(c, b"GET /");
        let mut buf = [0u8; 3];
        assert_eq!(n.server_read(c, &mut buf), ReadOutcome::Data(3));
        assert_eq!(&buf, b"GET");
        n.server_write(c, b"200 OK");
        assert_eq!(n.client_recv(c), b"200 OK");
    }

    #[test]
    fn failed_sink_leaves_bytes_queued() {
        let mut n = Net::new();
        let l = n.listen(80, 4).unwrap();
        let c = n.external_connect(80).unwrap();
        n.accept(l).unwrap();
        n.client_send(c, b"GET /index");
        // A sink that rejects the bytes consumes nothing, however often.
        for _ in 0..2 {
            let out = n.server_read_with(c, 5, |head, tail| {
                assert_eq!([head, tail].concat(), b"GET /");
                Err(())
            });
            assert_eq!(out, Err(()));
        }
        // An accepting sink commits exactly the prefix it was handed.
        let out = n.server_read_with(c, 5, |_, _| Ok::<(), ()>(()));
        assert_eq!(out, Ok(ReadOutcome::Data(5)));
        let mut rest = [0u8; 8];
        assert_eq!(n.server_read(c, &mut rest), ReadOutcome::Data(5));
        assert_eq!(&rest[..5], b"index");
        // The sink never runs on an empty queue: WouldBlock, then EOF.
        let never = |_: &[u8], _: &[u8]| -> Result<(), ()> { panic!("sink ran") };
        assert_eq!(n.server_read_with(c, 8, never), Ok(ReadOutcome::WouldBlock));
        n.client_close(c);
        assert_eq!(n.server_read_with(c, 8, never), Ok(ReadOutcome::Eof));
    }

    #[test]
    fn client_discard_counts_and_drains() {
        let mut n = Net::new();
        let l = n.listen(21, 4).unwrap();
        let c = n.external_connect(21).unwrap();
        n.accept(l).unwrap();
        n.server_write(c, b"payload");
        n.server_write(c, b"!");
        assert_eq!(n.client_discard(c), 8);
        assert_eq!(n.client_discard(c), 0);
        assert!(n.client_recv(c).is_empty());
    }

    /// A plain-`Vec` reference model of one connection.
    #[derive(Default)]
    struct Model {
        to_server: Vec<u8>,
        to_client: Vec<u8>,
        client_closed: bool,
        server_closed: bool,
    }

    impl Model {
        fn outcome(&self, n: usize) -> ReadOutcome {
            match (self.to_server.is_empty(), self.client_closed) {
                (false, _) => ReadOutcome::Data(n.min(self.to_server.len())),
                (true, true) => ReadOutcome::Eof,
                (true, false) => ReadOutcome::WouldBlock,
            }
        }
    }

    proptest::proptest! {
        /// Random interleavings of every client and server queue operation
        /// against the `Vec` model: identical outcomes and bytes in order,
        /// with every accepted byte read, discarded or still queued. Each
        /// case first wraps the server queue's ring so reads really see
        /// both `as_slices` halves.
        #[test]
        fn queues_match_a_vec_model(
            ops in proptest::collection::vec((0u8..20, 0usize..300), 1..120)
        ) {
            let mut n = Net::new();
            let l = n.listen(80, 4).unwrap();
            let c = n.external_connect(80).unwrap();
            n.accept(l).unwrap();
            let mut m = Model::default();
            let mut seq = 0u8;
            let mut fill = |len: usize| -> Vec<u8> {
                (0..len).map(|_| { seq = seq.wrapping_add(1); seq }).collect()
            };
            // Wrap: leave one byte at the ring's end, then refill to
            // exactly the capacity so the tail runs past it.
            let head = fill(100);
            n.client_send(c, &head);
            let mut buf = vec![0u8; 99];
            assert_eq!(n.server_read(c, &mut buf), ReadOutcome::Data(99));
            let cap = n.conns[c].to_server.capacity();
            let tail = fill(cap - 1);
            n.client_send(c, &tail);
            assert!(!n.conns[c].to_server.as_slices().1.is_empty(), "ring did not wrap");
            assert_eq!(n.conns[c].to_server.capacity(), cap);
            m.to_server.extend_from_slice(&head[99..]);
            m.to_server.extend_from_slice(&tail);
            let (mut sent, mut read) = (tail.len() + 1, 0usize);
            let (mut written, mut received) = (0usize, 0usize);

            for (op, len) in ops {
                match op {
                    0..=4 => {
                        let bytes = fill(len);
                        n.client_send(c, &bytes);
                        if !m.server_closed {
                            m.to_server.extend_from_slice(&bytes);
                            sent += len;
                        }
                    }
                    5..=7 => {
                        let mut buf = vec![0u8; len];
                        let want = m.outcome(len);
                        assert_eq!(n.server_read(c, &mut buf), want);
                        if let ReadOutcome::Data(k) = want {
                            assert_eq!(buf[..k], m.to_server[..k]);
                            m.to_server.drain(..k);
                            read += k;
                        }
                    }
                    8..=10 => {
                        // Reject the bytes at times: nothing may be consumed.
                        let accept = len % 3 != 0;
                        let want = m.outcome(len);
                        let mut seen = None;
                        let out = n.server_read_with(c, len, |head, tail| {
                            seen = Some([head, tail].concat());
                            if accept { Ok(()) } else { Err(()) }
                        });
                        if let ReadOutcome::Data(k) = want {
                            assert_eq!(seen.as_deref(), Some(&m.to_server[..k]));
                            if accept {
                                assert_eq!(out, Ok(want));
                                m.to_server.drain(..k);
                                read += k;
                            } else {
                                assert_eq!(out, Err(()));
                            }
                        } else {
                            assert_eq!((out, seen), (Ok(want), None));
                        }
                    }
                    11..=13 => {
                        let bytes = fill(len);
                        assert_eq!(n.server_write(c, &bytes), len);
                        if !m.client_closed {
                            m.to_client.extend_from_slice(&bytes);
                            written += len;
                        }
                    }
                    14..=15 => {
                        assert_eq!(n.client_recv(c), m.to_client);
                        received += m.to_client.len();
                        m.to_client.clear();
                    }
                    16..=17 => {
                        assert_eq!(n.client_discard(c), m.to_client.len());
                        received += m.to_client.len();
                        m.to_client.clear();
                    }
                    18 => {
                        n.client_close(c);
                        m.client_closed = true;
                    }
                    _ => {
                        n.server_close(c);
                        m.server_closed = true;
                    }
                }
                assert_eq!(n.conns[c].to_server.len(), m.to_server.len());
                assert_eq!(n.server_readable(c), !m.to_server.is_empty() || m.client_closed);
                assert_eq!(n.server_closed(c), m.server_closed);
            }
            // Conservation: everything accepted was read, or is still queued.
            assert_eq!(sent, read + m.to_server.len());
            let mut rest = vec![0u8; m.to_server.len()];
            if !rest.is_empty() {
                assert_eq!(n.server_read(c, &mut rest), ReadOutcome::Data(rest.len()));
                assert_eq!(rest, m.to_server);
            }
            assert_eq!(written, received + n.client_discard(c));
        }
    }

    #[test]
    fn eof_after_client_close() {
        let mut n = Net::new();
        let l = n.listen(80, 4).unwrap();
        let c = n.external_connect(80).unwrap();
        n.accept(l).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(n.server_read(c, &mut buf), ReadOutcome::WouldBlock);
        n.client_close(c);
        assert_eq!(n.server_read(c, &mut buf), ReadOutcome::Eof);
        assert!(n.server_readable(c));
    }

    #[test]
    fn connect_to_unbound_port_fails() {
        let mut n = Net::new();
        assert!(n.external_connect(9999).is_none());
    }

    #[test]
    fn peer_ports_keep_advancing_across_wraparound() {
        let mut n = Net::new();
        let l = n.listen(80, 1).unwrap();
        let mut prev = 0u16;
        let mut wrapped = false;
        // Enough connections to cross 65535 from the 40000 starting point.
        for i in 0..30_000 {
            let c = n.external_connect(80).unwrap();
            n.accept(l).unwrap();
            let p = n.peer_port(c);
            assert!(p >= 40000, "conn {i}: port {p} left the ephemeral range");
            if i > 0 {
                if p < prev {
                    assert_eq!(p, 40000, "wrap must land at the range bottom");
                    wrapped = true;
                } else {
                    assert_eq!(p, prev + 1, "ports must keep incrementing");
                }
            }
            prev = p;
        }
        assert!(wrapped, "test must cross 65535 to exercise the wrap");
    }
}
