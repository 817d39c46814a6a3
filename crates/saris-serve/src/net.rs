//! TCP transport for a [`Server`]: the worker half of sharded serving.
//!
//! A [`NetServer`] puts a full serving stack behind a loopback (or any
//! TCP) listener: each accepted connection gets its own handler thread
//! that reads length-prefixed request frames (see
//! [`saris_codegen::wire`]), dispatches them against the wrapped
//! [`Server`], and writes one reply frame per request. A [`NetClient`]
//! is the matching connection wrapper the `saris-shard` coordinator
//! holds per worker.
//!
//! # Protocol
//!
//! Every frame is a `u32`-LE length prefix followed by one UTF-8 JSON
//! document. A request is `{"op": ..., "data": ...}`; a reply is
//! `{"ok": ...}` or `{"err": <serve error>}`. Specs, outcomes and
//! calibration stores nest as JSON values in their
//! [`saris_codegen::json`] forms, so each frame is escaped and parsed
//! exactly once:
//!
//! | `op` | request `data` | `ok` reply |
//! |---|---|---|
//! | `"submit"` | spec | outcome (or an `err` serve error) |
//! | `"export_calibration"` | `null` | calibration store, or `null` |
//! | `"import_calibration"` | calibration store | entries merged |
//! | `"ping"` | `null` | `true` |
//!
//! A serve error is `[kind, detail]`. A request the worker
//! cannot decode (malformed frame, unknown op, a spec the builder
//! rejects) comes back as an `err` of kind `"wire"`, which decodes to a
//! **non-transient** [`ServeError::Execution`] — the coordinator must
//! not treat a bad request as worker death. Transport-level failures
//! (connection reset, truncated frame) surface as [`std::io::Error`]
//! and *are* the worker-death signal the coordinator rehashes on.
//!
//! # Delivery semantics
//!
//! One request frame is answered by exactly one reply frame, in order,
//! per connection. If the connection dies between dispatch and reply,
//! the caller cannot know whether the work executed — retrying on a
//! different shard gives *at-least-once* execution, which is safe here
//! because workload execution is deterministic and idempotent.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use saris_codegen::json::{self, Json, JsonError, Tag, Value, Writer};
use saris_codegen::wire::{read_frame, write_frame, MAX_FRAME_LEN};
use saris_codegen::{json_tags, CalibrationStore, CodegenError, WorkloadSpec};

use crate::{ServeError, ServeResult, Server, TIER_NAMES};

// ---------------------------------------------------------------------------
// Protocol types
// ---------------------------------------------------------------------------

json_tags! {
    /// What a request asks the worker to do.
    enum Op, "op" {
        Submit => "submit",
        ExportCalibration => "export_calibration",
        ImportCalibration => "import_calibration",
        Ping => "ping",
    }
}

json_tags! {
    /// What kind of [`ServeError`] a reply carries.
    enum ErrorKind, "serve error kind" {
        Execution => "execution",
        Transient => "transient",
        Wire => "wire",
        Panicked => "panicked",
        Deadline => "deadline",
        Circuit => "circuit",
        Quarantined => "quarantined",
        Spawn => "spawn",
        ShutDown => "shutdown",
    }
}

/// `[kind, detail]`, the detail empty for kinds that carry none. The
/// structured [`CodegenError`] does not survive serialization: an
/// execution error crosses as its message, and what the coordinator's
/// retry policy needs — whether it was transient — as its kind.
impl Json for ServeError {
    fn write(&self, w: &mut Writer) {
        let (kind, detail) = match self {
            ServeError::Execution(err) => match &**err {
                CodegenError::Transient { reason } => (ErrorKind::Transient, reason.clone()),
                CodegenError::Wire { reason } => (ErrorKind::Wire, reason.clone()),
                other => (ErrorKind::Execution, other.to_string()),
            },
            ServeError::BackendPanicked { message } => (ErrorKind::Panicked, message.clone()),
            ServeError::DeadlineExceeded => (ErrorKind::Deadline, String::new()),
            ServeError::CircuitOpen { tier } => (ErrorKind::Circuit, tier.to_string()),
            ServeError::Quarantined => (ErrorKind::Quarantined, String::new()),
            ServeError::Spawn { reason } => (ErrorKind::Spawn, reason.clone()),
            ServeError::ShutDown => (ErrorKind::ShutDown, String::new()),
        };
        (kind, detail).write(w);
    }

    fn read(v: &Value) -> Result<ServeError, JsonError> {
        let (kind, detail): (ErrorKind, String) = Json::read(v)?;
        let execution = |err| ServeError::Execution(Arc::new(err));
        Ok(match kind {
            ErrorKind::Execution => execution(CodegenError::Remote { detail }),
            ErrorKind::Transient => execution(CodegenError::Transient { reason: detail }),
            ErrorKind::Wire => execution(CodegenError::Wire { reason: detail }),
            ErrorKind::Panicked => ServeError::BackendPanicked { message: detail },
            ErrorKind::Deadline => ServeError::DeadlineExceeded,
            ErrorKind::Circuit => ServeError::CircuitOpen {
                tier: TIER_NAMES
                    .into_iter()
                    .find(|t| *t == detail)
                    .ok_or_else(|| json::error(&format!("unknown breaker tier `{detail}`")))?,
            },
            ErrorKind::Quarantined => ServeError::Quarantined,
            ErrorKind::Spawn => ServeError::Spawn { reason: detail },
            ErrorKind::ShutDown => ServeError::ShutDown,
        })
    }
}

// ---------------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------------

struct NetShared {
    server: Server,
    stop: AtomicBool,
    /// One `try_clone` per live connection, kept so [`NetServer::kill`]
    /// can sever every conversation abruptly (worker-death simulation)
    /// and a clean shutdown can unblock handler threads.
    conns: Mutex<Vec<TcpStream>>,
}

impl NetShared {
    fn sever_connections(&self) {
        let mut conns = self.conns.lock().expect("net connection registry lock");
        for conn in conns.drain(..) {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// A [`Server`] listening on a TCP socket — one sharded-serving worker.
///
/// Spawning binds the listener and starts an accept thread; each
/// accepted connection is served by its own handler thread for the
/// connection's lifetime. Dropping the `NetServer` stops accepting,
/// severs open connections, and shuts the wrapped [`Server`] down
/// (waiting on in-flight work per
/// [`ServeConfig::shutdown_timeout`](crate::ServeConfig::shutdown_timeout)).
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<NetShared>,
    accept: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Wraps `server` in a listener bound to `addr` (use
    /// `"127.0.0.1:0"` for an OS-assigned loopback port; the bound
    /// address is available via [`NetServer::addr`]).
    pub fn spawn(server: Server, addr: impl ToSocketAddrs) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(NetShared {
            server,
            stop: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("saris-net-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(NetServer {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The address the listener is bound to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The wrapped serving stack (for stats, session access, tests).
    pub fn server(&self) -> &Server {
        &self.shared.server
    }

    /// Kills the worker abruptly: stops accepting and severs every open
    /// connection mid-conversation, exactly what a crashed worker
    /// process looks like to its clients. The wrapped [`Server`] keeps
    /// its state (it is simply unreachable), so tests can still inspect
    /// it after the "crash".
    pub fn kill(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the accept thread so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        self.shared.sever_connections();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.kill();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("stopped", &self.shared.stop.load(Ordering::Relaxed))
            .finish()
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<NetShared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        // Replies are small request/response frames: without NODELAY,
        // Nagle holds each one until the client's delayed ACK (~40 ms).
        let _ = stream.set_nodelay(true);
        if let Ok(clone) = stream.try_clone() {
            shared
                .conns
                .lock()
                .expect("net connection registry lock")
                .push(clone);
        }
        let handler_shared = Arc::clone(shared);
        // Handler threads exit when their connection closes (or is
        // severed by kill/drop), so detaching them cannot leak past
        // shutdown.
        let _ = std::thread::Builder::new()
            .name("saris-net-conn".to_string())
            .spawn(move || handle_connection(stream, &handler_shared));
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<NetShared>) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let frame = match read_frame(&mut stream, MAX_FRAME_LEN) {
            Ok(frame) => frame,
            Err(_) => return,
        };
        let reply = respond(shared, &frame).unwrap_or_else(|e| {
            // A request the worker cannot decode is the requester's
            // error, answered in-band — not a transport fault.
            let err = ServeError::Execution(Arc::new(CodegenError::Wire { reason: e.reason }));
            json::to_string(&Err::<(), _>(err))
        });
        if write_frame(&mut stream, reply.as_bytes()).is_err() {
            return;
        }
    }
}

fn respond(shared: &NetShared, frame: &[u8]) -> Result<String, JsonError> {
    let text = std::str::from_utf8(frame).map_err(|_| json::error("request frame is not UTF-8"))?;
    let doc = json::parse(text)?;
    let request = doc.as_object("request")?;
    let session = shared.server.session();
    Ok(match json::field(request, "op")? {
        Op::Submit => {
            let spec: WorkloadSpec = json::field(request, "data")?;
            json::to_string(&shared.server.submit(&spec))
        }
        Op::ExportCalibration => ok(session.calibration().cloned()),
        Op::ImportCalibration => {
            let incoming: CalibrationStore = json::field(request, "data")?;
            ok(session.calibration().map_or(0, |s| s.merge(&incoming)))
        }
        Op::Ping => ok(true),
    })
}

/// The `ok` reply carrying `value`.
fn ok<T: Json>(value: T) -> String {
    json::to_string(&Ok::<T, ServeError>(value))
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

fn invalid(reason: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason)
}

/// One framed connection to a [`NetServer`] — the per-worker handle the
/// `saris-shard` coordinator routes requests through.
///
/// Every method is a blocking request/reply round trip. An `Err` from
/// any of them means the *transport* failed (the worker is dead or the
/// reply was garbage); a served-but-failed submission comes back as
/// `Ok(Err(ServeError))` instead, so callers can distinguish "rehash
/// onto another shard" from "this workload failed".
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
}

impl NetClient {
    /// Connects to a worker.
    pub fn connect(addr: SocketAddr) -> io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(NetClient { stream })
    }

    /// Connects with a timeout, for probing possibly-dead workers
    /// without blocking a coordinator thread on the OS connect timeout.
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<NetClient> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        Ok(NetClient { stream })
    }

    /// One round trip: sends `op` with its `data` and reads the reply.
    fn call<T: Json>(&mut self, op: Op, data: &impl Json) -> io::Result<Result<T, ServeError>> {
        let mut w = Writer::default();
        w.object(|w| {
            w.field("op", &op);
            w.field("data", data);
        });
        write_frame(&mut self.stream, w.finish().as_bytes())?;
        let reply = read_frame(&mut self.stream, MAX_FRAME_LEN)?;
        let text = std::str::from_utf8(&reply)
            .map_err(|_| invalid("reply frame is not UTF-8".to_string()))?;
        json::from_str(text).map_err(|e| invalid(format!("bad {} reply: {e}", op.tag())))
    }

    /// [`NetClient::call`] for the ops a live worker always answers: an
    /// `err` reply to them is a protocol violation.
    fn call_ok<T: Json>(&mut self, op: Op, data: &impl Json) -> io::Result<T> {
        self.call(op, data)?
            .map_err(|e| invalid(format!("worker refused {}: {e}", op.tag())))
    }

    /// Submits a spec for remote execution.
    ///
    /// The outer `Result` is transport health; the inner one is the
    /// remote [`ServeResult`]. The decoded outcome carries
    /// `kernel: None` (compiled kernels never cross the wire).
    pub fn submit(&mut self, spec: &WorkloadSpec) -> io::Result<ServeResult> {
        self.call(Op::Submit, spec)
    }

    /// Fetches the worker's calibration store (`None` when its session
    /// runs without one).
    pub fn export_calibration(&mut self) -> io::Result<Option<CalibrationStore>> {
        self.call_ok(Op::ExportCalibration, &())
    }

    /// Merges a calibration store into the worker's live store
    /// (newest-confidence-wins; see [`CalibrationStore::merge`]).
    /// Returns how many entries the worker adopted.
    pub fn import_calibration(&mut self, store: &CalibrationStore) -> io::Result<usize> {
        self.call_ok(Op::ImportCalibration, store)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<bool> {
        self.call_ok(Op::Ping, &())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;
    use saris_codegen::{Fidelity, Workload};
    use saris_core::{gallery, Extent};

    fn worker() -> NetServer {
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let server = Server::with_config(config).expect("server");
        NetServer::spawn(server, "127.0.0.1:0").expect("net server")
    }

    #[test]
    fn submit_round_trips_over_loopback() {
        let net = worker();
        let mut client = NetClient::connect(net.addr()).expect("connect");
        assert!(client.ping().expect("ping"));

        let spec = Workload::new(gallery::jacobi_2d())
            .extent(Extent::new_2d(16, 16))
            .input_seed(7)
            .fidelity(Fidelity::Golden)
            .freeze()
            .expect("freeze");
        let remote = client.submit(&spec).expect("transport").expect("execution");
        // Bit-identical to answering the same spec locally.
        let local = net.server().submit(&spec).expect("local execution");
        assert_eq!(remote.grids.len(), local.grids.len());
        for (a, b) in remote.grids[0]
            .as_slice()
            .iter()
            .zip(local.grids[0].as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(remote.kernel.is_none());
    }

    #[test]
    fn bad_requests_answer_in_band_and_do_not_kill_the_connection() {
        let net = worker();
        let mut client = NetClient::connect(net.addr()).expect("connect");

        // A garbage frame gets a wire error reply, not a hangup.
        write_frame(&mut client.stream, b"not json").expect("write");
        let reply = read_frame(&mut client.stream, MAX_FRAME_LEN).expect("read");
        let doc = json::parse(std::str::from_utf8(&reply).expect("utf8")).expect("parse");
        let err = ServeError::read(doc.as_object("reply").unwrap().get("err").expect("err"))
            .expect("decode");
        match &err {
            ServeError::Execution(e) => assert!(!e.is_transient()),
            other => panic!("expected an execution error, got {other}"),
        }

        // The connection still works afterwards.
        assert!(client.ping().expect("ping"));
    }

    /// Each reply must leave the worker at once: a frame held back by
    /// Nagle's algorithm waits ~40 ms for the client's delayed ACK, which
    /// 20 sequential round trips would turn into most of a second.
    #[test]
    fn ping_round_trips_do_not_wait_for_delayed_acks() {
        let net = worker();
        let mut client = NetClient::connect(net.addr()).expect("connect");
        assert!(client.ping().expect("warm-up ping"));
        let start = std::time::Instant::now();
        for _ in 0..20 {
            assert!(client.ping().expect("ping"));
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(200),
            "20 loopback pings took {elapsed:?}"
        );
    }

    #[test]
    fn kill_severs_clients_mid_conversation() {
        let net = worker();
        let mut client = NetClient::connect(net.addr()).expect("connect");
        assert!(client.ping().expect("ping"));
        net.kill();
        let spec = Workload::new(gallery::j2d5pt())
            .extent(Extent::new_2d(16, 16))
            .input_seed(1)
            .fidelity(Fidelity::Golden)
            .freeze()
            .expect("freeze");
        assert!(
            client.submit(&spec).is_err(),
            "dead worker must surface as a transport error"
        );
        assert!(NetClient::connect(net.addr()).map_or(true, |mut c| c.ping().is_err()));
    }

    #[test]
    fn serve_errors_round_trip() {
        let cases = [
            ServeError::DeadlineExceeded,
            ServeError::Quarantined,
            ServeError::ShutDown,
            ServeError::CircuitOpen { tier: "cycles" },
            ServeError::BackendPanicked {
                message: "boom \"quoted\"".to_string(),
            },
            ServeError::Spawn {
                reason: "no threads".to_string(),
            },
            ServeError::Execution(Arc::new(CodegenError::Transient {
                reason: "wedged cluster".to_string(),
            })),
            ServeError::Execution(Arc::new(CodegenError::NoCandidates)),
        ];
        for case in &cases {
            let doc = json::parse(&json::to_string(case)).expect("parse");
            let decoded = ServeError::read(&doc).expect("decode");
            match (case, &decoded) {
                (ServeError::Execution(a), ServeError::Execution(b)) => {
                    assert_eq!(a.is_transient(), b.is_transient());
                    if a.is_transient() {
                        assert_eq!(a.to_string(), b.to_string());
                    }
                }
                _ => assert_eq!(case.to_string(), decoded.to_string()),
            }
        }
    }
}
