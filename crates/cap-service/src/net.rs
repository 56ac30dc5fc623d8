//! Blocking TCP front end over [`crate::wire`].
//!
//! One thread per connection, frames dispatched straight into a
//! [`ServiceHandle`]: the connection thread itself serves each request
//! under its shard's lock, so one connection's requests run in order
//! and N connections run up to N shards at once. Each shard admits at
//! most `queue_capacity` waiting connection threads, so a flood of
//! connections cannot queue unbounded work on a shard; the excess gets
//! structured `Shed` errors like everyone else. The server never
//! trusts the peer: oversized frames, unknown opcodes, and torn reads
//! all produce structured protocol errors or clean disconnects.
//!
//! Stats rendering is a pluggable callback so the serving binary can
//! supply the workspace's shared JSON emitter without this crate
//! depending on it.

use crate::error::ServiceError;
use crate::service::{ServiceHandle, ServiceStats};
use crate::wire::{
    write_frame_with_cap, FrameReader, WireRequest, WireResponse, MAX_FRAME_LEN,
    MAX_REPLY_FRAME_LEN,
};
use std::collections::BTreeMap;
use std::io;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Renders a stats document for the wire (the serving binary passes
/// the workspace JSON emitter here).
pub type StatsRenderer = Arc<dyn Fn(&ServiceStats) -> String + Send + Sync>;

/// Produces the encoded [`cap_obs::StatsSnapshot`] frame answering an
/// obs-stats request (typically `move || registry.snapshot().encode()`).
pub type ObsExporter = Arc<dyn Fn() -> Vec<u8> + Send + Sync>;

/// How often connection threads and the accept loop re-check the
/// shutdown flag while blocked on I/O.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Most peer-shard replicas one node will hold. Fleets are small (a
/// handful of shards); the bound exists so a hostile peer cannot grow
/// the store without limit.
const REPLICA_STORE_MAX_SHARDS: usize = 64;

/// Replicas of peer shards held by a fleet node, keyed by ring
/// identity. Only the newest ship generation per shard is kept.
type ReplicaStore = Arc<Mutex<BTreeMap<u64, (u64, Vec<u8>)>>>;

/// A bound TCP server ready to serve one [`ServiceHandle`].
pub struct TcpServer {
    listener: TcpListener,
    handle: ServiceHandle,
    render_stats: StatsRenderer,
    obs_export: Option<ObsExporter>,
    request_cap: usize,
    // Routing-epoch fence, stored as epoch+1 so 0 means "never fenced"
    // (a fresh node accepts any epoch until its router fences it).
    fence: Arc<AtomicU64>,
    replicas: ReplicaStore,
}

impl std::fmt::Debug for TcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServer")
            .field("local_addr", &self.listener.local_addr().ok())
            .finish()
    }
}

impl TcpServer {
    /// Binds to `addr` (use port `0` to let the OS pick).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(
        addr: impl ToSocketAddrs,
        handle: ServiceHandle,
        render_stats: StatsRenderer,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(Self {
            listener,
            handle,
            render_stats,
            obs_export: None,
            request_cap: MAX_FRAME_LEN,
            fence: Arc::new(AtomicU64::new(0)),
            replicas: Arc::new(Mutex::new(BTreeMap::new())),
        })
    }

    /// Answers obs-stats requests with `export`'s frame. Without an
    /// exporter the server replies with an empty snapshot rather than
    /// an error, so clients can always probe.
    #[must_use]
    pub fn with_obs_exporter(mut self, export: ObsExporter) -> Self {
        self.obs_export = Some(export);
        self
    }

    /// Raises the per-request frame cap. Fleet nodes need this: a
    /// replica push carries a whole warm-restart archive, which
    /// outgrows the hostile-tight default of [`MAX_FRAME_LEN`]. Servers
    /// facing untrusted peers keep the default.
    #[must_use]
    pub fn with_request_cap(mut self, cap: usize) -> Self {
        self.request_cap = cap;
        self
    }

    /// The address actually bound (resolves port `0`).
    ///
    /// # Errors
    ///
    /// Propagates the OS lookup failure.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections until a client sends a shutdown frame, then
    /// joins every connection thread and returns the requested drain
    /// budget. The caller owns the [`crate::service::Service`] and
    /// performs the actual drain + snapshot.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop setup failures (per-connection I/O errors
    /// only end that connection).
    pub fn run(self) -> io::Result<Duration> {
        self.listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let drain = Arc::new(Mutex::new(Duration::from_millis(500)));
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();

        while !stop.load(Ordering::Acquire) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let handle = self.handle.clone();
                    let render = Arc::clone(&self.render_stats);
                    let obs_export = self.obs_export.clone();
                    let stop = Arc::clone(&stop);
                    let drain = Arc::clone(&drain);
                    let request_cap = self.request_cap;
                    let fence = Arc::clone(&self.fence);
                    let replicas = Arc::clone(&self.replicas);
                    conns.push(std::thread::spawn(move || {
                        let shared = ConnShared { fence, replicas };
                        serve_frames(stream, request_cap, &stop, |request| {
                            serve_request(
                                request,
                                &handle,
                                &render,
                                obs_export.as_ref(),
                                &shared,
                                &stop,
                                &drain,
                            )
                        });
                    }));
                    // Reap finished connection threads so a long-lived
                    // server does not accumulate handles.
                    conns.retain(|j| !j.is_finished());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        for join in conns {
            let _ = join.join();
        }
        let budget = *drain.lock().expect("drain lock");
        Ok(budget)
    }
}

/// Per-server state shared by every connection thread.
struct ConnShared {
    fence: Arc<AtomicU64>,
    replicas: ReplicaStore,
}

impl ConnShared {
    /// The fence check run on every routed serve frame, *before* the
    /// request touches the backend. Direct traffic (`epoch: None`)
    /// always passes; routed traffic must match the fence exactly once
    /// one is set.
    fn check_fence(&self, epoch: Option<u64>) -> Result<(), ServiceError> {
        let fence = self.fence.load(Ordering::Acquire);
        match (fence, epoch) {
            (0, _) | (_, None) => Ok(()),
            (f, Some(sent)) if sent + 1 == f => Ok(()),
            (f, Some(sent)) => Err(ServiceError::Fenced { fence: f - 1, sent }),
        }
    }

    fn store_replica(&self, shard: u64, generation: u64, bytes: Vec<u8>) -> bool {
        let mut store = self.replicas.lock().expect("replica store lock");
        match store.get(&shard) {
            Some((held, _)) if *held >= generation => false,
            Some(_) => {
                store.insert(shard, (generation, bytes));
                true
            }
            None if store.len() >= REPLICA_STORE_MAX_SHARDS => false,
            None => {
                store.insert(shard, (generation, bytes));
                true
            }
        }
    }
}

/// Serves one connection's frames until the peer hangs up, the stream
/// breaks, `stop` is raised, or a [`WireResponse::ShutdownAck`] has
/// been sent. Every TCP front door (a node's [`TcpServer`] and the
/// cluster router's) runs this loop; `answer` turns each decoded
/// request into its reply, and a payload that does not decode is
/// answered with its structured protocol error.
///
/// Requests are read under `request_cap`, replies written under
/// [`MAX_REPLY_FRAME_LEN`] (a snapshot archive outgrows the request
/// cap at real table sizes).
pub fn serve_frames(
    mut stream: TcpStream,
    request_cap: usize,
    stop: &AtomicBool,
    mut answer: impl FnMut(WireRequest) -> WireResponse,
) {
    // Request/response framing with small frames: Nagle + delayed ACK
    // would add ~40ms to every roundtrip.
    let _ = stream.set_nodelay(true);
    if stream.set_nonblocking(false).is_err()
        || stream.set_read_timeout(Some(POLL_INTERVAL)).is_err()
    {
        return;
    }
    // The resumable reader keeps partial progress across the read
    // timeout used to poll the stop flag, so a frame trickling in
    // slower than one poll interval (a slow or slow-loris peer) still
    // assembles instead of desyncing the stream.
    let mut reader = FrameReader::new(request_cap);
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let payload = match reader.read_from(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean disconnect
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return, // torn frame or dead socket
        };
        let response = match WireRequest::decode(&payload) {
            Ok(request) => answer(request),
            Err(err) => WireResponse::from_error(&err),
        };
        let is_ack = matches!(response, WireResponse::ShutdownAck);
        if write_frame_with_cap(&mut stream, &response.encode(), MAX_REPLY_FRAME_LEN).is_err()
            || is_ack
        {
            return;
        }
    }
}

/// A node's answer to one request.
fn serve_request(
    request: WireRequest,
    handle: &ServiceHandle,
    render_stats: &StatsRenderer,
    obs_export: Option<&ObsExporter>,
    shared: &ConnShared,
    stop: &AtomicBool,
    drain: &Mutex<Duration>,
) -> WireResponse {
    match request {
        WireRequest::Serve {
            request,
            budget,
            epoch,
        } => match shared
            .check_fence(epoch)
            .and_then(|()| handle.call(request, budget))
        {
            Ok(resp) => WireResponse::Response(resp),
            Err(err) => WireResponse::from_error(&err),
        },
        WireRequest::Stats => match handle.stats() {
            Ok(stats) => WireResponse::Stats(render_stats(&stats)),
            Err(err) => WireResponse::from_error(&err),
        },
        WireRequest::ObsStats => WireResponse::ObsStats(match obs_export {
            Some(export) => export(),
            None => cap_obs::StatsSnapshot::default().encode(),
        }),
        WireRequest::SnapshotPull => match handle.snapshot_live() {
            Ok(archive) => WireResponse::Snapshot(archive),
            Err(err) => WireResponse::from_error(&err),
        },
        WireRequest::Fence { epoch } => {
            shared.fence.store(epoch + 1, Ordering::Release);
            WireResponse::FenceAck
        }
        WireRequest::ReplicaPush {
            shard,
            generation,
            bytes,
        } => WireResponse::ReplicaAck {
            stored: shared.store_replica(shard, generation, bytes),
        },
        WireRequest::ReplicaFetch { shard } => WireResponse::Replica(
            shared
                .replicas
                .lock()
                .expect("replica store lock")
                .get(&shard)
                .cloned(),
        ),
        WireRequest::Shutdown { drain: budget } => {
            *drain.lock().expect("drain lock") = budget;
            stop.store(true, Ordering::Release);
            WireResponse::ShutdownAck
        }
    }
}

/// A blocking client for the TCP front end.
#[derive(Debug)]
pub struct TcpClient {
    stream: TcpStream,
    // Replies are read under the wide cap: snapshot-pull answers carry
    // whole archives. We chose this server; the asymmetric trust is
    // deliberate.
    reader: FrameReader,
    read_timeout: Option<Duration>,
}

impl TcpClient {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            reader: FrameReader::new(MAX_REPLY_FRAME_LEN),
            read_timeout: None,
        })
    }

    /// Bounds how long a reply read may sit idle before the call fails
    /// with [`ServiceError::ReplyTimeout`]. This is an *inactivity*
    /// timeout: a reply trickling in keeps resetting it. After a
    /// timeout the stream may still carry the late reply, so the caller
    /// must drop this client rather than reuse a desynced connection.
    ///
    /// # Errors
    ///
    /// Propagates the socket option failure.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.read_timeout = timeout;
        Ok(())
    }

    fn roundtrip(&mut self, request: &WireRequest) -> Result<WireResponse, ServiceError> {
        let io_err = |e: io::Error| ServiceError::Protocol(format!("transport: {e}"));
        // Replica pushes carry whole archives, so they get the wide
        // write cap; every other request stays small.
        let write_cap = if matches!(request, WireRequest::ReplicaPush { .. }) {
            MAX_REPLY_FRAME_LEN
        } else {
            MAX_FRAME_LEN
        };
        write_frame_with_cap(&mut self.stream, &request.encode(), write_cap).map_err(io_err)?;
        let reply = self.reader.read_from(&mut self.stream).map_err(|e| {
            if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut {
                ServiceError::ReplyTimeout {
                    waited: self.read_timeout.unwrap_or(Duration::ZERO),
                }
            } else {
                io_err(e)
            }
        })?;
        match reply {
            Some(payload) => WireResponse::decode(&payload),
            None => Err(ServiceError::Protocol(
                "server closed the connection mid-request".into(),
            )),
        }
    }

    /// Sends one prediction request as direct (unrouted, never fenced
    /// out) client traffic.
    ///
    /// # Errors
    ///
    /// Service-side errors come back with their original
    /// [`ServiceError::code`] inside [`WireResponse::Error`]; transport
    /// failures surface as [`ServiceError::Protocol`]; an idle reply
    /// read over the configured timeout as
    /// [`ServiceError::ReplyTimeout`].
    pub fn serve(
        &mut self,
        request: crate::service::Request,
        budget: Option<Duration>,
    ) -> Result<WireResponse, ServiceError> {
        self.roundtrip(&WireRequest::Serve {
            request,
            budget,
            epoch: None,
        })
    }

    /// Sends one prediction request stamped with the routing epoch the
    /// sender's routing table carried. A fenced server refuses stale
    /// epochs with [`ServiceError::Fenced`] before any training.
    ///
    /// # Errors
    ///
    /// As for [`TcpClient::serve`].
    pub fn serve_routed(
        &mut self,
        request: crate::service::Request,
        budget: Option<Duration>,
        epoch: u64,
    ) -> Result<WireResponse, ServiceError> {
        self.roundtrip(&WireRequest::Serve {
            request,
            budget,
            epoch: Some(epoch),
        })
    }

    /// Pins the routing epoch the server accepts routed traffic under.
    ///
    /// # Errors
    ///
    /// As for [`TcpClient::serve`].
    pub fn fence(&mut self, epoch: u64) -> Result<(), ServiceError> {
        match self.roundtrip(&WireRequest::Fence { epoch })? {
            WireResponse::FenceAck => Ok(()),
            WireResponse::Error { code, message } => Err(ServiceError::Protocol(format!(
                "server error {code}: {message}"
            ))),
            other => Err(ServiceError::Protocol(format!(
                "unexpected response to fence: {other:?}"
            ))),
        }
    }

    /// Stores a warm replica of shard `shard` on the server. Returns
    /// whether the push won (a push loses only to a generation at least
    /// as new already held).
    ///
    /// # Errors
    ///
    /// As for [`TcpClient::serve`].
    pub fn replica_push(
        &mut self,
        shard: u64,
        generation: u64,
        bytes: Vec<u8>,
    ) -> Result<bool, ServiceError> {
        match self.roundtrip(&WireRequest::ReplicaPush {
            shard,
            generation,
            bytes,
        })? {
            WireResponse::ReplicaAck { stored } => Ok(stored),
            WireResponse::Error { code, message } => Err(ServiceError::Protocol(format!(
                "server error {code}: {message}"
            ))),
            other => Err(ServiceError::Protocol(format!(
                "unexpected response to replica-push: {other:?}"
            ))),
        }
    }

    /// Fetches the newest stored replica for shard `shard`, if any.
    ///
    /// # Errors
    ///
    /// As for [`TcpClient::serve`].
    pub fn replica_fetch(&mut self, shard: u64) -> Result<Option<(u64, Vec<u8>)>, ServiceError> {
        match self.roundtrip(&WireRequest::ReplicaFetch { shard })? {
            WireResponse::Replica(held) => Ok(held),
            WireResponse::Error { code, message } => Err(ServiceError::Protocol(format!(
                "server error {code}: {message}"
            ))),
            other => Err(ServiceError::Protocol(format!(
                "unexpected response to replica-fetch: {other:?}"
            ))),
        }
    }

    /// Fetches the server-rendered stats JSON.
    ///
    /// # Errors
    ///
    /// As for [`TcpClient::serve`].
    pub fn stats(&mut self) -> Result<WireResponse, ServiceError> {
        self.roundtrip(&WireRequest::Stats)
    }

    /// Fetches and decodes the server's telemetry registry snapshot.
    ///
    /// # Errors
    ///
    /// As for [`TcpClient::serve`]; a frame that does not decode as a
    /// [`cap_obs::StatsSnapshot`] is a [`ServiceError::Protocol`].
    pub fn obs_stats(&mut self) -> Result<cap_obs::StatsSnapshot, ServiceError> {
        match self.roundtrip(&WireRequest::ObsStats)? {
            WireResponse::ObsStats(bytes) => cap_obs::StatsSnapshot::decode(&bytes)
                .map_err(|e| ServiceError::Protocol(format!("obs stats frame: {e}"))),
            WireResponse::Error { code, message } => Err(ServiceError::Protocol(format!(
                "server error {code}: {message}"
            ))),
            other => Err(ServiceError::Protocol(format!(
                "unexpected response to obs-stats: {other:?}"
            ))),
        }
    }

    /// Pulls a live warm-restart snapshot archive from the server (the
    /// cluster layer's replica-shipping primitive). The server keeps
    /// serving; see [`ServiceHandle::snapshot_live`] for consistency.
    ///
    /// # Errors
    ///
    /// As for [`TcpClient::serve`].
    pub fn pull_snapshot(&mut self) -> Result<Vec<u8>, ServiceError> {
        match self.roundtrip(&WireRequest::SnapshotPull)? {
            WireResponse::Snapshot(bytes) => Ok(bytes),
            WireResponse::Error { code, message } => Err(ServiceError::Protocol(format!(
                "server error {code}: {message}"
            ))),
            other => Err(ServiceError::Protocol(format!(
                "unexpected response to snapshot-pull: {other:?}"
            ))),
        }
    }

    /// Asks the server to drain under `drain`, snapshot, and exit.
    ///
    /// # Errors
    ///
    /// As for [`TcpClient::serve`].
    pub fn shutdown(&mut self, drain: Duration) -> Result<WireResponse, ServiceError> {
        self.roundtrip(&WireRequest::Shutdown { drain })
    }
}

/// A plain debug renderer for stats (tests and servers that don't care
/// about the JSON shape).
#[must_use]
pub fn debug_stats_renderer() -> StatsRenderer {
    Arc::new(|stats: &ServiceStats| format!("{stats:?}"))
}
