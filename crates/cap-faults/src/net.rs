//! Network chaos: a seeded, deterministic fault-injecting TCP proxy.
//!
//! [`crate::plan::FaultPlan`] corrupts predictor state and
//! [`crate::service::ServiceFaultPlan`] breaks the service from within;
//! this module attacks the only layer left — the **wire**. A
//! [`ChaosProxy`] sits between a client (usually a `cap-cluster`
//! router's [`NodeLink`]) and one upstream node, speaking the same
//! 4-byte length-prefixed framing, and executes a [`NetFaultPlan`]:
//! partitions, latency, connection resets mid-frame, frame truncation,
//! byte garbling, and slow-loris trickle. Every draw is a pure function
//! of a `u64` seed and the connection's **accept order**, so a chaos
//! soak that fails is replayable from its seed alone — the same
//! discipline as every other random stream in this workspace.
//!
//! [`NodeLink`]: ../../cap_cluster/node/struct.NodeLink.html
//!
//! # The partition model
//!
//! Two partition modes, because the two failure signatures a router
//! must distinguish are different on the wire:
//!
//! * [`PartitionMode::RefuseConnect`] — existing connections are torn
//!   down and new ones are reset immediately after accept. To the
//!   client this reads as **node death** (transport errors, never
//!   timeouts).
//! * [`PartitionMode::BlackHole`] — connections stay open but every
//!   *request frame* is swallowed **before** it is forwarded. The
//!   client's read times out: the partition signature. Replies to
//!   requests forwarded before the partition began still drain back —
//!   so a request that fails under a black hole **provably never
//!   reached the node**. That drop-before-forward guarantee is what
//!   lets the partition soak mirror successful requests onto a control
//!   fleet and demand byte-identical final state.
//!
//! # Fault placement
//!
//! All injected faults hit the request direction (client → upstream).
//! The reply direction is a clean pipe: corrupting replies would only
//! test the client's decoder (cap-service's hostile-peer tests already
//! do), while corrupting requests tests the full trust boundary — a
//! garbled opcode must come back as a *structured* protocol error,
//! never silent mistraining.

use cap_rand::{RngCore, SeedableRng, SplitMix64};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Upper bound on a frame the proxy will buffer (matches the service's
/// reply cap; anything larger is a protocol violation upstream would
/// refuse anyway).
const PROXY_MAX_FRAME: usize = 64 * 1024 * 1024;

/// How reachable the upstream is through the proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PartitionMode {
    /// Healthy: frames flow (subject to the fault plan).
    None = 0,
    /// Hard partition that reads as node death: live connections are
    /// reset and new accepts are reset immediately.
    RefuseConnect = 1,
    /// Silent partition: connections stay up, request frames are
    /// swallowed before forwarding, replies in flight still drain.
    BlackHole = 2,
}

/// One wire fault drawn for a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Delay each request frame this long before forwarding.
    Latency(Duration),
    /// Reset the connection after forwarding half of frame `n`.
    ResetMidFrame {
        /// Zero-based index of the victim request frame.
        frame: u64,
    },
    /// Forward only a prefix of frame `n`, then reset.
    Truncate {
        /// Zero-based index of the victim request frame.
        frame: u64,
    },
    /// Flip the opcode's top bit in frame `n` — upstream must answer
    /// with a structured protocol error, never train on it.
    Garble {
        /// Zero-based index of the victim request frame.
        frame: u64,
    },
    /// Trickle every request frame one byte per pause (also serves as
    /// the bandwidth cap: throughput ≤ 1 byte per `pause`).
    SlowLoris {
        /// Pause between bytes.
        pause: Duration,
    },
}

impl NetFault {
    /// Short lowercase name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            NetFault::Latency(_) => "latency",
            NetFault::ResetMidFrame { .. } => "reset-mid-frame",
            NetFault::Truncate { .. } => "truncate",
            NetFault::Garble { .. } => "garble",
            NetFault::SlowLoris { .. } => "slow-loris",
        }
    }
}

/// Per-connection fault probabilities and magnitudes.
///
/// Each accepted connection draws **at most one** fault profile,
/// evaluated in the order reset → truncate → garble → slow-loris →
/// latency, so faults never stack and the sum of probabilities should
/// stay under 1.
#[derive(Debug, Clone, Copy)]
pub struct NetFaultConfig {
    /// Probability a connection is reset mid-frame.
    pub p_reset: f64,
    /// Probability a connection gets one truncated frame.
    pub p_truncate: f64,
    /// Probability a connection gets one garbled frame.
    pub p_garble: f64,
    /// Probability a connection trickles (slow-loris / bandwidth cap).
    pub p_slow_loris: f64,
    /// Probability a connection carries added latency.
    pub p_latency: f64,
    /// Injected per-frame latency range (uniform, milliseconds).
    pub latency_ms: (u64, u64),
    /// Which of a connection's first N frames a one-shot fault (reset,
    /// truncate, garble) can land on.
    pub fault_frame_horizon: u64,
    /// Slow-loris pause between bytes.
    pub loris_pause: Duration,
}

impl Default for NetFaultConfig {
    fn default() -> Self {
        Self {
            p_reset: 0.05,
            p_truncate: 0.05,
            p_garble: 0.05,
            p_slow_loris: 0.02,
            p_latency: 0.10,
            latency_ms: (1, 5),
            fault_frame_horizon: 8,
            loris_pause: Duration::from_millis(1),
        }
    }
}

impl NetFaultConfig {
    /// A plan that injects nothing — the proxy becomes a pure pipe
    /// whose only chaos is the partition switch. The partition soak's
    /// reconciliation phase uses this: with faults off, every failure
    /// is attributable to the partition alone.
    #[must_use]
    pub fn quiet() -> Self {
        Self {
            p_reset: 0.0,
            p_truncate: 0.0,
            p_garble: 0.0,
            p_slow_loris: 0.0,
            p_latency: 0.0,
            ..Self::default()
        }
    }
}

/// A seeded, deterministic assignment of wire faults to connections.
///
/// The profile for connection `n` is a pure function of `(seed, n)` —
/// independent of accept timing, thread scheduling, or the fate of any
/// other connection — so a failing soak replays exactly from its seed.
#[derive(Debug, Clone)]
pub struct NetFaultPlan {
    seed: u64,
    config: NetFaultConfig,
}

impl NetFaultPlan {
    /// A plan drawing from `config` with the given seed.
    #[must_use]
    pub fn new(seed: u64, config: NetFaultConfig) -> Self {
        Self { seed, config }
    }

    /// The fault profile (if any) for the `conn`-th accepted
    /// connection.
    #[must_use]
    pub fn draw(&self, conn: u64) -> Option<NetFault> {
        let mut rng =
            SplitMix64::seed_from_u64(self.seed ^ conn.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let c = self.config;
        let unit = |r: &mut SplitMix64| (r.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let in_range = |r: &mut SplitMix64, lo: u64, hi: u64| {
            let hi = hi.max(lo);
            lo + r.next_u64() % (hi - lo + 1)
        };
        let frame = |r: &mut SplitMix64| r.next_u64() % c.fault_frame_horizon.max(1);
        let roll = unit(&mut rng);
        let mut threshold = c.p_reset;
        if roll < threshold {
            return Some(NetFault::ResetMidFrame {
                frame: frame(&mut rng),
            });
        }
        threshold += c.p_truncate;
        if roll < threshold {
            return Some(NetFault::Truncate {
                frame: frame(&mut rng),
            });
        }
        threshold += c.p_garble;
        if roll < threshold {
            return Some(NetFault::Garble {
                frame: frame(&mut rng),
            });
        }
        threshold += c.p_slow_loris;
        if roll < threshold {
            return Some(NetFault::SlowLoris {
                pause: c.loris_pause,
            });
        }
        threshold += c.p_latency;
        if roll < threshold {
            let (lo, hi) = c.latency_ms;
            return Some(NetFault::Latency(Duration::from_millis(in_range(
                &mut rng, lo, hi,
            ))));
        }
        None
    }
}

/// Counters for everything the proxy did, all monotone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetFaultStats {
    /// Connections accepted (including ones refused by a partition).
    pub connections: u64,
    /// Request frames forwarded upstream intact.
    pub frames_forwarded: u64,
    /// Request frames swallowed by a black-hole partition **before**
    /// forwarding — each one provably never reached the node.
    pub frames_dropped_partition: u64,
    /// Connections reset mid-frame by the fault plan.
    pub resets: u64,
    /// Frames truncated by the fault plan.
    pub truncations: u64,
    /// Frames garbled by the fault plan.
    pub garbles: u64,
    /// Frames delayed (latency fault).
    pub delayed: u64,
    /// Frames trickled byte-by-byte (slow-loris fault).
    pub trickled: u64,
    /// Connections reset at accept by a refuse-connect partition.
    pub refused: u64,
}

#[derive(Debug, Default)]
struct StatCells {
    connections: AtomicU64,
    frames_forwarded: AtomicU64,
    frames_dropped_partition: AtomicU64,
    resets: AtomicU64,
    truncations: AtomicU64,
    garbles: AtomicU64,
    delayed: AtomicU64,
    trickled: AtomicU64,
    refused: AtomicU64,
}

#[derive(Debug)]
struct ProxyShared {
    upstream: SocketAddr,
    plan: NetFaultPlan,
    partition: AtomicU8,
    stop: AtomicBool,
    stats: StatCells,
    /// Client-side halves of live pipes, so a partition or stop can
    /// tear them down from outside.
    conns: Mutex<Vec<TcpStream>>,
}

impl ProxyShared {
    fn partition(&self) -> PartitionMode {
        match self.partition.load(Ordering::Acquire) {
            1 => PartitionMode::RefuseConnect,
            2 => PartitionMode::BlackHole,
            _ => PartitionMode::None,
        }
    }

    /// Shuts down every tracked pipe (partition onset / proxy stop).
    fn tear_down_conns(&self) {
        let mut conns = self.conns.lock().expect("conns lock");
        for c in conns.drain(..) {
            let _ = c.shutdown(Shutdown::Both);
        }
    }
}

/// A fault-injecting TCP proxy in front of one upstream node.
///
/// Point a router's node address at [`ChaosProxy::addr`] instead of the
/// node itself; flip partitions at runtime with
/// [`ChaosProxy::set_partition`] / [`ChaosProxy::heal`]. Dropping the
/// proxy (or calling [`ChaosProxy::stop`]) tears everything down.
#[derive(Debug)]
pub struct ChaosProxy {
    addr: SocketAddr,
    shared: Arc<ProxyShared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Starts a proxy on a fresh loopback port in front of `upstream`,
    /// executing `plan`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(upstream: SocketAddr, plan: NetFaultPlan) -> io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            upstream,
            plan,
            partition: AtomicU8::new(PartitionMode::None as u8),
            stop: AtomicBool::new(false),
            stats: StatCells::default(),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name(format!("chaos-proxy-{}", addr.port()))
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawn chaos-proxy accept thread");
        Ok(Self {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients should dial instead of the upstream.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Switches the partition mode. Entering [`PartitionMode::RefuseConnect`]
    /// also tears down live connections (a hard partition kills
    /// established flows too); entering [`PartitionMode::BlackHole`]
    /// leaves them up and silent.
    pub fn set_partition(&self, mode: PartitionMode) {
        self.shared.partition.store(mode as u8, Ordering::Release);
        if mode == PartitionMode::RefuseConnect {
            self.shared.tear_down_conns();
        }
    }

    /// Heals any partition; the fault plan stays active.
    pub fn heal(&self) {
        self.set_partition(PartitionMode::None);
    }

    /// Current partition mode.
    #[must_use]
    pub fn partition(&self) -> PartitionMode {
        self.shared.partition()
    }

    /// A point-in-time copy of the proxy's counters.
    #[must_use]
    pub fn stats(&self) -> NetFaultStats {
        let s = &self.shared.stats;
        NetFaultStats {
            connections: s.connections.load(Ordering::Relaxed),
            frames_forwarded: s.frames_forwarded.load(Ordering::Relaxed),
            frames_dropped_partition: s.frames_dropped_partition.load(Ordering::Relaxed),
            resets: s.resets.load(Ordering::Relaxed),
            truncations: s.truncations.load(Ordering::Relaxed),
            garbles: s.garbles.load(Ordering::Relaxed),
            delayed: s.delayed.load(Ordering::Relaxed),
            trickled: s.trickled.load(Ordering::Relaxed),
            refused: s.refused.load(Ordering::Relaxed),
        }
    }

    /// Stops the proxy: closes the listener, tears down live pipes,
    /// joins the accept thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.tear_down_conns();
        // Unblock the accept loop with a throwaway connect.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.shutdown();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ProxyShared>) {
    let mut conn_index: u64 = 0;
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let Ok(client) = stream else { continue };
        let index = conn_index;
        conn_index += 1;
        shared.stats.connections.fetch_add(1, Ordering::Relaxed);
        if shared.partition() == PartitionMode::RefuseConnect {
            shared.stats.refused.fetch_add(1, Ordering::Relaxed);
            reset_now(&client);
            continue;
        }
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name(format!("chaos-pipe-{index}"))
            .spawn(move || pipe_connection(client, index, &shared));
    }
}

/// Kills a socket abruptly in both directions. A peer blocked mid-call
/// sees the stream die (EOF mid-frame or a reset on the next write) —
/// transport death, never a clean protocol exchange.
fn reset_now(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Both);
}

fn pipe_connection(client: TcpStream, index: u64, shared: &Arc<ProxyShared>) {
    let Ok(upstream) = TcpStream::connect(shared.upstream) else {
        reset_now(&client);
        return;
    };
    let _ = client.set_nodelay(true);
    let _ = upstream.set_nodelay(true);
    {
        let mut conns = shared.conns.lock().expect("conns lock");
        if let (Ok(c), Ok(u)) = (client.try_clone(), upstream.try_clone()) {
            conns.push(c);
            conns.push(u);
        }
    }
    let fault = shared.plan.draw(index);
    // Reply pump: a clean pipe, upstream → client. Runs until either
    // side closes.
    let reply_thread = {
        let (Ok(mut up), Ok(mut down)) = (upstream.try_clone(), client.try_clone()) else {
            reset_now(&client);
            return;
        };
        std::thread::Builder::new()
            .name(format!("chaos-reply-{index}"))
            .spawn(move || {
                let mut buf = [0u8; 16 * 1024];
                loop {
                    match up.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if down.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
                let _ = down.shutdown(Shutdown::Write);
            })
    };
    forward_requests(&client, &upstream, fault, shared);
    let _ = upstream.shutdown(Shutdown::Both);
    let _ = client.shutdown(Shutdown::Both);
    if let Ok(t) = reply_thread {
        let _ = t.join();
    }
}

/// The faulted direction: reads complete request frames from the
/// client and forwards them upstream, applying the connection's fault
/// profile and the live partition switch.
fn forward_requests(
    client: &TcpStream,
    upstream: &TcpStream,
    fault: Option<NetFault>,
    shared: &Arc<ProxyShared>,
) {
    let mut from_client = match client.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut to_upstream = match upstream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut frame_index: u64 = 0;
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let Some(mut frame) = read_whole_frame(&mut from_client) else {
            return;
        };
        // The partition check happens AFTER the frame is fully read but
        // BEFORE any byte of it is forwarded: a swallowed frame
        // provably never reached the node. (RefuseConnect entered
        // mid-flow behaves the same — the teardown races the check, and
        // either way nothing more is forwarded.)
        match shared.partition() {
            PartitionMode::None => {}
            PartitionMode::BlackHole | PartitionMode::RefuseConnect => {
                shared
                    .stats
                    .frames_dropped_partition
                    .fetch_add(1, Ordering::Relaxed);
                frame_index += 1;
                continue;
            }
        }
        let stats = &shared.stats;
        match fault {
            Some(NetFault::ResetMidFrame { frame: victim }) if victim == frame_index => {
                // Half the frame, then RST: upstream sees a torn frame,
                // the client sees connection death mid-call.
                let _ = to_upstream.write_all(&frame[..frame.len() / 2]);
                stats.resets.fetch_add(1, Ordering::Relaxed);
                reset_now(upstream);
                reset_now(client);
                return;
            }
            Some(NetFault::Truncate { frame: victim }) if victim == frame_index => {
                let keep = (frame.len() * 3 / 4).max(1);
                let _ = to_upstream.write_all(&frame[..keep]);
                stats.truncations.fetch_add(1, Ordering::Relaxed);
                reset_now(upstream);
                reset_now(client);
                return;
            }
            Some(NetFault::Garble { frame: victim }) if victim == frame_index => {
                // Flip the opcode's top bit (payload byte 1, after the
                // 4-byte length prefix and the version byte): a
                // structured "unknown opcode" refusal upstream, never
                // silent mistraining.
                if frame.len() > 5 {
                    frame[5] ^= 0x80;
                }
                stats.garbles.fetch_add(1, Ordering::Relaxed);
                if to_upstream.write_all(&frame).is_err() {
                    return;
                }
            }
            Some(NetFault::SlowLoris { pause }) => {
                stats.trickled.fetch_add(1, Ordering::Relaxed);
                for byte in &frame {
                    if shared.stop.load(Ordering::Acquire) {
                        return;
                    }
                    if to_upstream.write_all(std::slice::from_ref(byte)).is_err() {
                        return;
                    }
                    std::thread::sleep(pause);
                }
            }
            Some(NetFault::Latency(delay)) => {
                stats.delayed.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(delay);
                if to_upstream.write_all(&frame).is_err() {
                    return;
                }
            }
            _ => {
                if to_upstream.write_all(&frame).is_err() {
                    return;
                }
            }
        }
        stats.frames_forwarded.fetch_add(1, Ordering::Relaxed);
        frame_index += 1;
    }
}

/// Reads one complete length-prefixed frame (prefix included) from the
/// client, or `None` on EOF/error/oversize.
fn read_whole_frame(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match stream.read(&mut prefix[filled..]) {
            Ok(0) | Err(_) => return None,
            Ok(n) => filled += n,
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > PROXY_MAX_FRAME {
        return None;
    }
    let mut frame = vec![0u8; 4 + len];
    frame[..4].copy_from_slice(&prefix);
    let mut at = 4;
    while at < frame.len() {
        match stream.read(&mut frame[at..]) {
            Ok(0) | Err(_) => return None,
            Ok(n) => at += n,
        }
    }
    Some(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_seed_sensitive() {
        let plan = NetFaultPlan::new(0xC4A05, NetFaultConfig::default());
        let again = NetFaultPlan::new(0xC4A05, NetFaultConfig::default());
        let other = NetFaultPlan::new(0xC4A06, NetFaultConfig::default());
        let a: Vec<_> = (0..512).map(|c| plan.draw(c)).collect();
        let b: Vec<_> = (0..512).map(|c| again.draw(c)).collect();
        assert_eq!(a, b, "same seed, same plan");
        let c: Vec<_> = (0..512).map(|i| other.draw(i)).collect();
        assert_ne!(a, c, "different seed, different plan");
        // Every configured fault kind actually occurs at default rates.
        let names: std::collections::BTreeSet<&str> =
            a.iter().flatten().map(|f| f.name()).collect();
        for expect in [
            "reset-mid-frame",
            "truncate",
            "garble",
            "slow-loris",
            "latency",
        ] {
            assert!(names.contains(expect), "no {expect} in 512 draws");
        }
    }

    #[test]
    fn quiet_plans_draw_nothing() {
        let plan = NetFaultPlan::new(7, NetFaultConfig::quiet());
        assert!((0..4096).all(|c| plan.draw(c).is_none()));
    }

    #[test]
    fn draws_are_independent_of_call_order() {
        let plan = NetFaultPlan::new(99, NetFaultConfig::default());
        let forward: Vec<_> = (0..64).map(|c| plan.draw(c)).collect();
        let backward: Vec<_> = (0..64).rev().map(|c| plan.draw(c)).collect();
        let backward: Vec<_> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
    }
}
