//! How a generated request reaches the store: over the wire (the measured
//! path) or straight into `Arc<ShardedStore>` (the same op stream without
//! the network, for the per-layer split).

use rewind_net::protocol::{encode_request, read_response, Request, Response};
use rewind_shard::ShardedStore;
use std::collections::VecDeque;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// A response and the instant it became available to the generator.
pub struct Arrival {
    pub id: u64,
    pub resp: Response,
    pub at: Instant,
}

pub trait Transport {
    /// Hands one request over; it may be buffered until the next `recv`.
    fn send(&mut self, id: u64, req: Request) -> io::Result<()>;
    /// Pushes out anything buffered, then waits for the next response — at
    /// most until `until` (`None` = as long as it takes). `Ok(None)` means
    /// `until` passed first.
    fn recv(&mut self, until: Option<Instant>) -> io::Result<Option<Arrival>>;
}

struct CountingStream {
    inner: TcpStream,
    bytes: u64,
}

impl Read for CountingStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

/// One TCP connection driven from one thread, speaking
/// `rewind_net::protocol` directly.
pub struct Wire {
    stream: TcpStream,
    reader: BufReader<CountingStream>,
    out: Vec<u8>,
    sent_bytes: u64,
}

impl Wire {
    pub fn connect(addr: SocketAddr) -> io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::with_capacity(
            64 << 10,
            CountingStream {
                inner: stream.try_clone()?,
                bytes: 0,
            },
        );
        Ok(Wire {
            stream,
            reader,
            out: Vec::with_capacity(8 << 10),
            sent_bytes: 0,
        })
    }

    /// Request bytes written and response bytes read so far. Exact once the
    /// connection is drained.
    pub fn bytes(&self) -> (u64, u64) {
        (self.sent_bytes, self.reader.get_ref().bytes)
    }
}

impl Transport for Wire {
    fn send(&mut self, id: u64, req: Request) -> io::Result<()> {
        self.out.extend_from_slice(&encode_request(id, &req));
        Ok(())
    }

    fn recv(&mut self, until: Option<Instant>) -> io::Result<Option<Arrival>> {
        if self.reader.buffer().is_empty() {
            // About to wait on the socket: everything generated while the
            // buffered responses were handled goes out in one write.
            if !self.out.is_empty() {
                self.stream.write_all(&self.out)?;
                self.sent_bytes += self.out.len() as u64;
                self.out.clear();
            }
            if let Some(until) = until {
                if !wait_readable(&self.stream, until)? {
                    return Ok(None);
                }
            }
        }
        match read_response(&mut self.reader) {
            Ok(Some((id, resp))) => Ok(Some(Arrival {
                id,
                resp,
                at: Instant::now(),
            })),
            Ok(None) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Err(e) => Err(io::Error::other(e.to_string())),
        }
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

// `struct timespec` is two 64-bit words only on 64-bit Linux.
const _: () = assert!(cfg!(all(target_os = "linux", target_pointer_width = "64")));

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Blocks until `stream` has bytes to read or `until` passes; `true` means
/// readable. Paced requests are due at sub-millisecond spacing, and the
/// socket read timeout std offers is rounded to scheduler ticks; `ppoll`
/// takes nanoseconds and sleeps on a high-resolution timer.
fn wait_readable(stream: &TcpStream, until: Instant) -> io::Result<bool> {
    const POLLIN: i16 = 0x001;
    loop {
        let left = until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Ok(false);
        }
        let mut fd = PollFd {
            fd: stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let timeout = Timespec {
            tv_sec: left.as_secs() as i64,
            tv_nsec: left.subsec_nanos() as i64,
        };
        // SAFETY: `fd` and `timeout` are live, correctly laid out locals for
        // the duration of the call (layouts match <poll.h>/<time.h> on 64-bit
        // Linux, asserted above), `nfds` is 1, and a null sigmask leaves the
        // signal mask alone. The descriptor is borrowed from `stream`, which
        // outlives the call.
        let n = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
        match n {
            0 => return Ok(false),
            n if n > 0 => return Ok(true),
            _ => {
                let e = io::Error::last_os_error();
                if e.kind() != io::ErrorKind::Interrupted {
                    return Err(e);
                }
            }
        }
    }
}

/// The store called directly. Reads execute inside `send` and are timed
/// there; writes go through the same completion front-end the server uses
/// and arrive from the committer or transaction-worker thread.
pub struct InProc {
    store: Arc<ShardedStore>,
    ready: VecDeque<Arrival>,
    tx: mpsc::Sender<Arrival>,
    rx: mpsc::Receiver<Arrival>,
}

impl InProc {
    pub fn new(store: Arc<ShardedStore>) -> InProc {
        let (tx, rx) = mpsc::channel();
        InProc {
            store,
            ready: VecDeque::new(),
            tx,
            rx,
        }
    }
}

impl Transport for InProc {
    fn send(&mut self, id: u64, req: Request) -> io::Result<()> {
        let settled = move |resp: Response| Arrival {
            id,
            resp,
            at: Instant::now(),
        };
        let err = |e: rewind_shard::RewindError| Response::Error(e.to_string());
        match req {
            Request::Get { key } => {
                let resp = self.store.get(key).map_or_else(err, Response::Value);
                self.ready.push_back(settled(resp));
            }
            Request::Scan { low, high, limit } => {
                let resp = self
                    .store
                    .scan(low, high, limit as usize)
                    .map_or_else(err, Response::Entries);
                self.ready.push_back(settled(resp));
            }
            Request::Put { key, value } => {
                let tx = self.tx.clone();
                self.store.submit_put(key, value).on_settle(move |r| {
                    let _ = tx.send(settled(r.map_or_else(err, |_| Response::Done)));
                });
            }
            Request::Delete { key } => {
                let tx = self.tx.clone();
                self.store.submit_delete(key).on_settle(move |r| {
                    let _ = tx.send(settled(r.map_or_else(err, Response::Deleted)));
                });
            }
            Request::Transact { ops } => {
                let tx = self.tx.clone();
                self.store.submit_apply(ops).on_settle(move |r| {
                    let _ = tx.send(settled(r.map_or_else(err, |n| Response::Applied(n as u32))));
                });
            }
        }
        Ok(())
    }

    fn recv(&mut self, until: Option<Instant>) -> io::Result<Option<Arrival>> {
        if let Some(a) = self.ready.pop_front() {
            return Ok(Some(a));
        }
        let gone = || io::Error::other("completion channel closed");
        match until {
            None => self.rx.recv().map(Some).map_err(|_| gone()),
            Some(t) => match self
                .rx
                .recv_timeout(t.saturating_duration_since(Instant::now()))
            {
                Ok(a) => Ok(Some(a)),
                Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
                Err(mpsc::RecvTimeoutError::Disconnected) => Err(gone()),
            },
        }
    }
}

/// Sleeps until `t` (no-op if it has passed).
pub fn sleep_until(t: Instant) {
    let left = t.saturating_duration_since(Instant::now());
    if !left.is_zero() {
        std::thread::sleep(left);
    }
}
