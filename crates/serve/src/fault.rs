//! Deterministic fault injection for the network layer.
//!
//! [`FaultStream`] wraps a [`TcpStream`] and runs every socket read and
//! write past a [`StreamFaultHandle`] — the discipline
//! `boxagg-pagestore`'s `FaultPager` applies to page I/O, on the same
//! k-th-operation trigger ([`boxagg_common::fault`]), lifted to the
//! byte stream: "reset the 2nd read", "kill the connection on the 3rd
//! write". A chaos sweep over k replays the same mid-protocol failure at every op
//! index of a scripted conversation, and a failing k reproduces in
//! isolation.
//!
//! Injected failures surface as [`std::io::Error`]s that
//! `boxagg_common::fault::is_injected` recognizes once wrapped in the
//! workspace error. [`StreamFaultMode::Kill`] additionally shuts the
//! socket down in both directions, so the *peer* observes a real
//! mid-frame connection death — that is how a sweep makes a server's
//! reply write fail at a chosen instant without patching the server.
//!
//! The [`NetStream`] trait is the small socket surface both sides of
//! the protocol need; `TcpStream` and `FaultStream` implement it, so a
//! client can interpose faults without the server knowing.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use boxagg_common::fault::{injected_error, Schedule, Trigger};

/// The socket operations a fault can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamOp {
    /// A `read` from the socket.
    Read,
    /// A `write` to the socket.
    Write,
}

/// Which operations a [`StreamFaultSpec`] counts and can fire on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamOpFilter {
    /// Only reads.
    Reads,
    /// Only writes.
    Writes,
    /// Every socket operation.
    Any,
}

/// What happens when a stream fault fires.
#[derive(Debug, Clone, Copy)]
pub enum StreamFaultMode {
    /// The operation does nothing and reports a connection-reset error.
    Error,
    /// Shut the socket down in both directions and report failure.
    /// The peer sees EOF/reset mid-protocol.
    Kill,
}

/// One entry of a stream fault schedule.
#[derive(Debug, Clone, Copy)]
pub struct StreamFaultSpec {
    /// Operations this spec counts.
    pub ops: StreamOpFilter,
    /// 1-based index, among matching operations since arming, at which
    /// the fault fires.
    pub at: u64,
    /// `true`: fire on every matching operation from `at` onward.
    /// `false`: fire exactly once, on the `at`-th.
    pub sticky: bool,
    /// Failure behavior when firing.
    pub mode: StreamFaultMode,
}

impl StreamFaultSpec {
    /// Reset the `at`-th matching operation, once.
    pub fn error_at(ops: StreamOpFilter, at: u64) -> Self {
        Self {
            ops,
            at,
            sticky: false,
            mode: StreamFaultMode::Error,
        }
    }

    /// Kill the connection on the `at`-th matching operation; every
    /// later operation fails too (the socket is gone).
    pub fn kill_at(ops: StreamOpFilter, at: u64) -> Self {
        Self {
            sticky: true,
            mode: StreamFaultMode::Kill,
            ..Self::error_at(ops, at)
        }
    }
}

impl Trigger for StreamFaultSpec {
    type Op = StreamOp;
    type Counts = StreamOpCounts;

    fn count(counts: &mut StreamOpCounts, op: StreamOp) {
        match op {
            StreamOp::Read => counts.reads += 1,
            StreamOp::Write => counts.writes += 1,
        }
    }

    fn matches(&self, op: StreamOp) -> bool {
        match self.ops {
            StreamOpFilter::Reads => op == StreamOp::Read,
            StreamOpFilter::Writes => op == StreamOp::Write,
            StreamOpFilter::Any => true,
        }
    }

    fn at(&self) -> u64 {
        self.at
    }

    fn sticky(&self) -> bool {
        self.sticky
    }
}

/// Matching-operation counts observed since the last reset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamOpCounts {
    /// Socket reads.
    pub reads: u64,
    /// Socket writes.
    pub writes: u64,
}

impl StreamOpCounts {
    /// Total counted operations.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

/// A clonable handle onto a [`FaultStream`]'s schedule: arm faults,
/// read op counts, count injections. Clones share one schedule.
pub type StreamFaultHandle = Schedule<StreamFaultSpec>;

/// The error an injected stream fault reports.
fn injected(op: StreamOp) -> std::io::Error {
    injected_error(
        std::io::ErrorKind::ConnectionReset,
        format!("{op:?} refused by schedule"),
    )
}

/// The socket surface the protocol needs from a connection: blocking
/// reads/writes plus the timeout, shutdown and latency knobs. Both
/// [`TcpStream`] and [`FaultStream`] implement it, so either side of
/// the protocol can run over an interposed connection.
pub trait NetStream: Read + Write + Send + std::fmt::Debug {
    /// Sets the blocking-read timeout (`None` = wait forever).
    fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()>;
    /// Sets the blocking-write timeout (`None` = wait forever).
    fn set_write_timeout(&self, d: Option<Duration>) -> std::io::Result<()>;
    /// Shuts down one or both directions.
    fn shutdown(&self, how: Shutdown) -> std::io::Result<()>;
    /// Disables (or re-enables) Nagle batching.
    fn set_nodelay(&self, on: bool) -> std::io::Result<()>;
    /// This end's address.
    fn local_addr(&self) -> std::io::Result<SocketAddr>;
}

impl NetStream for TcpStream {
    fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_read_timeout(self, d)
    }

    fn set_write_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_write_timeout(self, d)
    }

    fn shutdown(&self, how: Shutdown) -> std::io::Result<()> {
        TcpStream::shutdown(self, how)
    }

    fn set_nodelay(&self, on: bool) -> std::io::Result<()> {
        TcpStream::set_nodelay(self, on)
    }

    fn local_addr(&self) -> std::io::Result<SocketAddr> {
        TcpStream::local_addr(self)
    }
}

/// A [`TcpStream`] with a fault schedule interposed on every read and
/// write. Metadata calls (timeouts, nodelay, shutdown) pass through
/// uncounted — only bytes moving across the wire advance the op
/// stream, mirroring how `FaultPager` leaves metadata peeks uncounted.
#[derive(Debug)]
pub struct FaultStream {
    inner: TcpStream,
    handle: StreamFaultHandle,
}

impl FaultStream {
    /// Wraps `inner`, counting ops and injecting faults per `handle`'s
    /// schedule.
    pub fn new(inner: TcpStream, handle: StreamFaultHandle) -> Self {
        Self { inner, handle }
    }

    fn fired(&self, op: StreamOp) -> Option<StreamFaultMode> {
        self.handle.decide(op).map(|spec| spec.mode)
    }

    fn kill(&self) {
        // Best-effort: the socket may already be gone.
        // lint: allow(discarded-result) -- double-shutdown of a dead socket is the expected case
        let _ = self.inner.shutdown(Shutdown::Both);
    }
}

impl Read for FaultStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.fired(StreamOp::Read) {
            None => self.inner.read(buf),
            Some(StreamFaultMode::Error) => Err(injected(StreamOp::Read)),
            Some(StreamFaultMode::Kill) => {
                self.kill();
                Err(injected(StreamOp::Read))
            }
        }
    }
}

impl Write for FaultStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self.fired(StreamOp::Write) {
            None => self.inner.write(buf),
            Some(StreamFaultMode::Error) => Err(injected(StreamOp::Write)),
            Some(StreamFaultMode::Kill) => {
                self.kill();
                Err(injected(StreamOp::Write))
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl NetStream for FaultStream {
    fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        self.inner.set_read_timeout(d)
    }

    fn set_write_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        self.inner.set_write_timeout(d)
    }

    fn shutdown(&self, how: Shutdown) -> std::io::Result<()> {
        self.inner.shutdown(how)
    }

    fn set_nodelay(&self, on: bool) -> std::io::Result<()> {
        self.inner.set_nodelay(on)
    }

    fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.inner.local_addr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boxagg_common::error::Error;
    use boxagg_common::fault::is_injected;
    use std::net::TcpListener;

    /// A loopback pair: the returned streams are two ends of one
    /// connection.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        (a, b)
    }

    #[test]
    fn ops_are_counted_exactly_and_faults_fire_at_their_index() {
        let (a, mut b) = pair();
        let handle = StreamFaultHandle::new();
        handle.arm(StreamFaultSpec::error_at(StreamOpFilter::Writes, 3));
        let mut faulted = FaultStream::new(a, handle.clone());

        faulted.write_all(b"one").expect("write 1");
        faulted.write_all(b"two").expect("write 2");
        let err = Error::from(faulted.write_all(b"xxx").expect_err("write 3 injected"));
        assert!(is_injected(&err), "got: {err}");
        // One-shot: the 4th write goes through again.
        faulted.write_all(b"four").expect("write 4");
        assert_eq!(handle.counts().writes, 4);
        assert_eq!(handle.injected(), 1);

        let mut got = vec![0u8; 10];
        b.read_exact(&mut got).expect("peer reads survivors");
        assert_eq!(&got, b"onetwofour");
    }

    #[test]
    fn kill_is_sticky_and_reaches_the_peer() {
        let (a, mut b) = pair();
        let handle = StreamFaultHandle::new();
        handle.arm(StreamFaultSpec::kill_at(StreamOpFilter::Any, 2));
        let mut faulted = FaultStream::new(a, handle.clone());

        faulted.write_all(b"hi").expect("first op clean");
        let err = Error::from(faulted.write_all(b"yy").expect_err("second op killed"));
        assert!(is_injected(&err), "got: {err}");
        let err = Error::from(faulted.write_all(b"zz").expect_err("sticky: still dead"));
        assert!(is_injected(&err), "got: {err}");

        // The peer drains the surviving bytes, then sees EOF: the
        // socket really died, it was not just an error return.
        let mut got = Vec::new();
        b.read_to_end(&mut got).expect("peer read to EOF");
        assert_eq!(&got, b"hi");
    }

    #[test]
    fn unarmed_stream_is_transparent_and_counts() {
        let (a, b) = pair();
        let handle = StreamFaultHandle::new();
        let mut client = FaultStream::new(a, handle.clone());
        let mut server = b;

        client.write_all(b"ping").expect("write");
        let mut got = [0u8; 4];
        server.read_exact(&mut got).expect("read");
        server.write_all(b"pong").expect("reply");
        client.read_exact(&mut got).expect("read reply");
        assert_eq!(&got, b"pong");

        let counts = handle.counts();
        assert_eq!(counts.writes, 1);
        assert!(counts.reads >= 1);
        assert_eq!(handle.injected(), 0);
        handle.reset_counts();
        assert_eq!(handle.counts().total(), 0);
    }
}
