//! Length-prefixed wire protocol for the TCP front end.
//!
//! Every message is one frame: a little-endian `u32` payload length
//! followed by that many payload bytes. Payloads are encoded with the
//! same [`SectionWriter`]/[`SectionReader`] discipline as snapshots, so
//! truncation and bad values surface as structured errors, never as
//! panics on attacker-controlled bytes. Frames are capped at
//! [`MAX_FRAME_LEN`]; a peer announcing a larger payload is cut off
//! before any allocation happens.
//!
//! A frame leaves in one write ([`write_frame_with_cap`]): every socket
//! here sets `TCP_NODELAY`, under which each write is its own TCP
//! segment, so a prefix written apart from its payload would double
//! the segments of every message. Frames are read only through the
//! resumable [`FrameReader`], and the node and the router front door
//! share one per-connection frame loop, [`crate::net::serve_frames`].
//!
//! Every payload opens with a protocol **version byte**
//! ([`WIRE_VERSION`]); a peer speaking a different protocol revision is
//! refused with a structured error naming both versions instead of
//! being misparsed. Request opcodes: `1` observe, `2` predict, `3`
//! stats, `4` shutdown, `5` obs-stats (the binary
//! [`cap_obs::StatsSnapshot`] frame), `6` snapshot-pull (a live
//! warm-restart archive of the whole service — the cluster layer's
//! replica-shipping primitive), `7` fence (pin the routing epoch this
//! node will accept serve traffic under), `8` replica-push (store a
//! peer shard's warm replica), `9` replica-fetch (hand a stored replica
//! back). Response status: `0` ok (payload follows), otherwise a
//! [`ServiceError::code`] with a human-readable message.
//!
//! Serve frames additionally carry an optional **routing epoch**. A
//! router stamps every forwarded request with the epoch of the routing
//! table it used; a fenced node refuses epochs other than its fence
//! with [`ServiceError::Fenced`] *before* any training happens, so a
//! node that was partitioned across a promotion can never be mutated by
//! stale traffic once the partition heals. Direct clients send no epoch
//! and are never fenced out.

use crate::error::ServiceError;
use crate::ladder::Rung;
use crate::service::{Request, Response};
use cap_snapshot::{SectionReader, SectionWriter};
use std::io::{IoSlice, Read, Write};
use std::time::Duration;

/// Protocol revision spoken by this build. Bump on any frame-layout
/// change; decoders refuse other versions with a structured error.
/// Version 2 added the routing epoch on serve frames and the
/// fence/replica opcodes.
pub const WIRE_VERSION: u8 = 2;

/// Hard ceiling on one *request* frame's payload (1 MiB — every
/// request is a few dozen bytes; the cap exists purely to bound what a
/// hostile peer can make the server allocate).
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Ceiling on one *response* frame as read by a client. Larger than
/// the request cap because a snapshot-pull reply carries a whole
/// warm-restart archive (hundreds of KiB per worker at the paper's
/// table sizes). Servers never read frames this large — only clients,
/// from servers they chose to connect to.
pub const MAX_REPLY_FRAME_LEN: usize = 64 << 20;

const SECTION: &str = "wire";

const OP_OBSERVE: u8 = 1;
const OP_PREDICT: u8 = 2;
const OP_STATS: u8 = 3;
const OP_SHUTDOWN: u8 = 4;
const OP_OBS: u8 = 5;
const OP_SNAPSHOT_PULL: u8 = 6;
const OP_FENCE: u8 = 7;
const OP_REPLICA_PUSH: u8 = 8;
const OP_REPLICA_FETCH: u8 = 9;

const STATUS_OK: u8 = 0;

/// One decoded client→server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireRequest {
    /// Serve a prediction request; `budget` is the deadline the server
    /// starts counting on receipt.
    Serve {
        /// The prediction request.
        request: Request,
        /// Deadline budget (`None` = no deadline).
        budget: Option<Duration>,
        /// Routing epoch stamped by a router (`None` = direct client
        /// traffic, never fenced out). A fenced server refuses other
        /// epochs with [`ServiceError::Fenced`] before training.
        epoch: Option<u64>,
    },
    /// Fetch the stats document (rendered server-side as JSON).
    Stats,
    /// Fetch the telemetry registry as an encoded
    /// [`cap_obs::StatsSnapshot`] frame.
    ObsStats,
    /// Fetch a live warm-restart snapshot of the whole service without
    /// stopping it (the cluster layer ships these to warm replicas).
    SnapshotPull,
    /// Pin the routing epoch this server accepts serve traffic under.
    /// Routers fence every node they promote or re-route around so
    /// stale traffic from before an epoch flip bounces off.
    Fence {
        /// The routing epoch to accept from now on.
        epoch: u64,
    },
    /// Store a warm replica of a peer shard on this node (the R>1
    /// replication primitive — each shard ships to its ring
    /// successors).
    ReplicaPush {
        /// Ring identity of the shard this replica belongs to.
        shard: u64,
        /// Monotonic ship generation; stores keep only the newest.
        generation: u64,
        /// The warm-restart archive, opaque at this layer.
        bytes: Vec<u8>,
    },
    /// Fetch the stored replica (if any) for a peer shard.
    ReplicaFetch {
        /// Ring identity of the shard to look up.
        shard: u64,
    },
    /// Drain under this budget, snapshot, and exit.
    Shutdown {
        /// Drain budget granted to in-flight requests.
        drain: Duration,
    },
}

/// One decoded server→client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireResponse {
    /// Successful prediction reply.
    Response(Response),
    /// Stats document (JSON text rendered by the server).
    Stats(String),
    /// Telemetry registry snapshot, encoded with
    /// [`cap_obs::StatsSnapshot::encode`]. Kept as bytes at this layer
    /// so the wire codec never partially re-interprets the inner frame.
    ObsStats(Vec<u8>),
    /// A live warm-restart archive answering
    /// [`WireRequest::SnapshotPull`]. Opaque bytes at this layer for
    /// the same reason as `ObsStats`.
    Snapshot(Vec<u8>),
    /// Acknowledges a [`WireRequest::Fence`]; the server now refuses
    /// serve traffic under any other epoch.
    FenceAck,
    /// Acknowledges a [`WireRequest::ReplicaPush`]. `stored` is false
    /// when the push lost to a newer generation already held.
    ReplicaAck {
        /// Whether the pushed replica is now the one held.
        stored: bool,
    },
    /// Answers a [`WireRequest::ReplicaFetch`]: the newest stored
    /// generation and archive, or `None` when this node holds no
    /// replica for that shard.
    Replica(Option<(u64, Vec<u8>)>),
    /// Acknowledges a shutdown request; the connection closes after.
    ShutdownAck,
    /// Structured failure: a [`ServiceError::code`] plus its message.
    Error {
        /// Stable wire code of the error.
        code: u8,
        /// Display rendering of the error.
        message: String,
    },
}

fn check_version(found: u8) -> Result<(), ServiceError> {
    if found == WIRE_VERSION {
        Ok(())
    } else {
        Err(ServiceError::Protocol(format!(
            "peer speaks wire version {found}, this build speaks {WIRE_VERSION}"
        )))
    }
}

fn budget_ms(budget: Option<Duration>) -> u32 {
    budget.map_or(0, |b| u32::try_from(b.as_millis()).unwrap_or(u32::MAX))
}

fn parse_budget(ms: u32) -> Option<Duration> {
    (ms != 0).then(|| Duration::from_millis(u64::from(ms)))
}

impl WireRequest {
    /// Encodes this request into one frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SectionWriter::new();
        w.put_u8(WIRE_VERSION);
        match self {
            WireRequest::Serve {
                request:
                    Request::Observe {
                        ip,
                        offset,
                        ghr,
                        actual,
                    },
                budget,
                epoch,
            } => {
                w.put_u8(OP_OBSERVE);
                w.put_u32(budget_ms(*budget));
                w.put_opt_u64(*epoch);
                w.put_u64(*ip);
                w.put_i32(*offset);
                w.put_u64(*ghr);
                w.put_u64(*actual);
            }
            WireRequest::Serve {
                request: Request::Predict { ip, offset, ghr },
                budget,
                epoch,
            } => {
                w.put_u8(OP_PREDICT);
                w.put_u32(budget_ms(*budget));
                w.put_opt_u64(*epoch);
                w.put_u64(*ip);
                w.put_i32(*offset);
                w.put_u64(*ghr);
            }
            WireRequest::Stats => w.put_u8(OP_STATS),
            WireRequest::ObsStats => w.put_u8(OP_OBS),
            WireRequest::SnapshotPull => w.put_u8(OP_SNAPSHOT_PULL),
            WireRequest::Fence { epoch } => {
                w.put_u8(OP_FENCE);
                w.put_u64(*epoch);
            }
            WireRequest::ReplicaPush {
                shard,
                generation,
                bytes,
            } => {
                w.put_u8(OP_REPLICA_PUSH);
                w.put_u64(*shard);
                w.put_u64(*generation);
                w.put_len(bytes.len());
                w.put_raw(bytes);
            }
            WireRequest::ReplicaFetch { shard } => {
                w.put_u8(OP_REPLICA_FETCH);
                w.put_u64(*shard);
            }
            WireRequest::Shutdown { drain } => {
                w.put_u8(OP_SHUTDOWN);
                w.put_u32(u32::try_from(drain.as_millis()).unwrap_or(u32::MAX));
            }
        }
        w.into_bytes()
    }

    /// Decodes one frame payload.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] on unknown opcodes, truncation, or
    /// trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, ServiceError> {
        let proto = |e: &dyn std::fmt::Display| ServiceError::Protocol(e.to_string());
        let mut r = SectionReader::new(payload, SECTION);
        check_version(r.take_u8("wire version").map_err(|e| proto(&e))?)?;
        let op = r.take_u8("opcode").map_err(|e| proto(&e))?;
        let decoded = match op {
            OP_OBSERVE => {
                let budget = parse_budget(r.take_u32("budget").map_err(|e| proto(&e))?);
                let epoch = r.take_opt_u64("epoch").map_err(|e| proto(&e))?;
                WireRequest::Serve {
                    request: Request::Observe {
                        ip: r.take_u64("ip").map_err(|e| proto(&e))?,
                        offset: r.take_i32("offset").map_err(|e| proto(&e))?,
                        ghr: r.take_u64("ghr").map_err(|e| proto(&e))?,
                        actual: r.take_u64("actual").map_err(|e| proto(&e))?,
                    },
                    budget,
                    epoch,
                }
            }
            OP_PREDICT => {
                let budget = parse_budget(r.take_u32("budget").map_err(|e| proto(&e))?);
                let epoch = r.take_opt_u64("epoch").map_err(|e| proto(&e))?;
                WireRequest::Serve {
                    request: Request::Predict {
                        ip: r.take_u64("ip").map_err(|e| proto(&e))?,
                        offset: r.take_i32("offset").map_err(|e| proto(&e))?,
                        ghr: r.take_u64("ghr").map_err(|e| proto(&e))?,
                    },
                    budget,
                    epoch,
                }
            }
            OP_STATS => WireRequest::Stats,
            OP_OBS => WireRequest::ObsStats,
            OP_SNAPSHOT_PULL => WireRequest::SnapshotPull,
            OP_FENCE => WireRequest::Fence {
                epoch: r.take_u64("fence epoch").map_err(|e| proto(&e))?,
            },
            OP_REPLICA_PUSH => {
                let shard = r.take_u64("replica shard").map_err(|e| proto(&e))?;
                let generation = r.take_u64("replica generation").map_err(|e| proto(&e))?;
                let len = r.take_len(1, "replica archive").map_err(|e| proto(&e))?;
                let bytes = r.take_raw(len, "replica archive").map_err(|e| proto(&e))?;
                WireRequest::ReplicaPush {
                    shard,
                    generation,
                    bytes: bytes.to_vec(),
                }
            }
            OP_REPLICA_FETCH => WireRequest::ReplicaFetch {
                shard: r.take_u64("replica shard").map_err(|e| proto(&e))?,
            },
            OP_SHUTDOWN => WireRequest::Shutdown {
                drain: Duration::from_millis(u64::from(
                    r.take_u32("drain").map_err(|e| proto(&e))?,
                )),
            },
            other => {
                return Err(ServiceError::Protocol(format!(
                    "unknown request opcode {other}"
                )))
            }
        };
        r.finish().map_err(|e| proto(&e))?;
        Ok(decoded)
    }
}

fn put_string(w: &mut SectionWriter, s: &str) {
    w.put_len(s.len());
    w.put_raw(s.as_bytes());
}

fn take_string(r: &mut SectionReader<'_>, what: &'static str) -> Result<String, ServiceError> {
    let proto = |e: &dyn std::fmt::Display| ServiceError::Protocol(e.to_string());
    let len = r.take_len(1, what).map_err(|e| proto(&e))?;
    let bytes = r.take_raw(len, what).map_err(|e| proto(&e))?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| ServiceError::Protocol(format!("{what}: invalid UTF-8")))
}

fn rung_from_u8(v: u8) -> Result<Rung, ServiceError> {
    Rung::ALL
        .into_iter()
        .find(|r| r.index() == usize::from(v))
        .ok_or_else(|| ServiceError::Protocol(format!("bad rung byte {v}")))
}

impl WireResponse {
    /// Encodes this response into one frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SectionWriter::new();
        w.put_u8(WIRE_VERSION);
        match self {
            WireResponse::Response(Response::Observed {
                addr,
                speculate,
                correct,
                rung,
            }) => {
                w.put_u8(STATUS_OK);
                w.put_u8(OP_OBSERVE);
                w.put_opt_u64(*addr);
                w.put_bool(*speculate);
                w.put_bool(*correct);
                w.put_u8(rung.index() as u8);
            }
            WireResponse::Response(Response::Predicted {
                addr,
                speculate,
                rung,
            }) => {
                w.put_u8(STATUS_OK);
                w.put_u8(OP_PREDICT);
                w.put_opt_u64(*addr);
                w.put_bool(*speculate);
                w.put_u8(rung.index() as u8);
            }
            WireResponse::Stats(json) => {
                w.put_u8(STATUS_OK);
                w.put_u8(OP_STATS);
                put_string(&mut w, json);
            }
            WireResponse::ObsStats(bytes) => {
                w.put_u8(STATUS_OK);
                w.put_u8(OP_OBS);
                w.put_len(bytes.len());
                w.put_raw(bytes);
            }
            WireResponse::Snapshot(bytes) => {
                w.put_u8(STATUS_OK);
                w.put_u8(OP_SNAPSHOT_PULL);
                w.put_len(bytes.len());
                w.put_raw(bytes);
            }
            WireResponse::FenceAck => {
                w.put_u8(STATUS_OK);
                w.put_u8(OP_FENCE);
            }
            WireResponse::ReplicaAck { stored } => {
                w.put_u8(STATUS_OK);
                w.put_u8(OP_REPLICA_PUSH);
                w.put_bool(*stored);
            }
            WireResponse::Replica(held) => {
                w.put_u8(STATUS_OK);
                w.put_u8(OP_REPLICA_FETCH);
                match held {
                    Some((generation, bytes)) => {
                        w.put_bool(true);
                        w.put_u64(*generation);
                        w.put_len(bytes.len());
                        w.put_raw(bytes);
                    }
                    None => w.put_bool(false),
                }
            }
            WireResponse::ShutdownAck => {
                w.put_u8(STATUS_OK);
                w.put_u8(OP_SHUTDOWN);
            }
            WireResponse::Error { code, message } => {
                w.put_u8(*code);
                put_string(&mut w, message);
            }
        }
        w.into_bytes()
    }

    /// Decodes one frame payload.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] on malformed payloads.
    pub fn decode(payload: &[u8]) -> Result<Self, ServiceError> {
        let proto = |e: &dyn std::fmt::Display| ServiceError::Protocol(e.to_string());
        let mut r = SectionReader::new(payload, SECTION);
        check_version(r.take_u8("wire version").map_err(|e| proto(&e))?)?;
        let status = r.take_u8("status").map_err(|e| proto(&e))?;
        let decoded = if status == STATUS_OK {
            match r.take_u8("ok kind").map_err(|e| proto(&e))? {
                OP_OBSERVE => WireResponse::Response(Response::Observed {
                    addr: r.take_opt_u64("addr").map_err(|e| proto(&e))?,
                    speculate: r.take_bool("speculate").map_err(|e| proto(&e))?,
                    correct: r.take_bool("correct").map_err(|e| proto(&e))?,
                    rung: rung_from_u8(r.take_u8("rung").map_err(|e| proto(&e))?)?,
                }),
                OP_PREDICT => WireResponse::Response(Response::Predicted {
                    addr: r.take_opt_u64("addr").map_err(|e| proto(&e))?,
                    speculate: r.take_bool("speculate").map_err(|e| proto(&e))?,
                    rung: rung_from_u8(r.take_u8("rung").map_err(|e| proto(&e))?)?,
                }),
                OP_STATS => WireResponse::Stats(take_string(&mut r, "stats json")?),
                OP_OBS => {
                    let len = r.take_len(1, "obs frame").map_err(|e| proto(&e))?;
                    let bytes = r.take_raw(len, "obs frame").map_err(|e| proto(&e))?;
                    WireResponse::ObsStats(bytes.to_vec())
                }
                OP_SNAPSHOT_PULL => {
                    let len = r.take_len(1, "snapshot archive").map_err(|e| proto(&e))?;
                    let bytes = r.take_raw(len, "snapshot archive").map_err(|e| proto(&e))?;
                    WireResponse::Snapshot(bytes.to_vec())
                }
                OP_FENCE => WireResponse::FenceAck,
                OP_REPLICA_PUSH => WireResponse::ReplicaAck {
                    stored: r.take_bool("replica stored").map_err(|e| proto(&e))?,
                },
                OP_REPLICA_FETCH => {
                    if r.take_bool("replica present").map_err(|e| proto(&e))? {
                        let generation = r.take_u64("replica generation").map_err(|e| proto(&e))?;
                        let len = r.take_len(1, "replica archive").map_err(|e| proto(&e))?;
                        let bytes = r.take_raw(len, "replica archive").map_err(|e| proto(&e))?;
                        WireResponse::Replica(Some((generation, bytes.to_vec())))
                    } else {
                        WireResponse::Replica(None)
                    }
                }
                OP_SHUTDOWN => WireResponse::ShutdownAck,
                other => {
                    return Err(ServiceError::Protocol(format!(
                        "unknown ok-response kind {other}"
                    )))
                }
            }
        } else {
            WireResponse::Error {
                code: status,
                message: take_string(&mut r, "error message")?,
            }
        };
        r.finish().map_err(|e| proto(&e))?;
        Ok(decoded)
    }

    /// The structured-error rendering of a [`ServiceError`].
    #[must_use]
    pub fn from_error(err: &ServiceError) -> Self {
        WireResponse::Error {
            code: err.code(),
            message: err.to_string(),
        }
    }
}

/// Writes one frame (length prefix + payload) to `w`.
///
/// # Errors
///
/// Propagates I/O errors; refuses payloads over [`MAX_FRAME_LEN`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    write_frame_with_cap(w, payload, MAX_FRAME_LEN)
}

/// [`write_frame`] with an explicit payload cap. Servers answering a
/// snapshot-pull use [`MAX_REPLY_FRAME_LEN`] here; everything else
/// stays under the request cap.
///
/// Prefix and payload leave in one vectored write, so a small frame on
/// a `TCP_NODELAY` socket is one segment rather than two. The payload
/// is never copied (a snapshot reply can be [`MAX_REPLY_FRAME_LEN`]).
///
/// # Errors
///
/// Propagates I/O errors; refuses payloads over `cap`; a writer that
/// accepts no bytes ends in `WriteZero`.
pub fn write_frame_with_cap(w: &mut impl Write, payload: &[u8], cap: usize) -> std::io::Result<()> {
    let prefix = match u32::try_from(payload.len()) {
        Ok(len) if payload.len() <= cap => len.to_le_bytes(),
        _ => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("frame payload {} exceeds cap {cap}", payload.len()),
            ))
        }
    };
    let mut slices = [IoSlice::new(&prefix), IoSlice::new(payload)];
    let mut unsent = &mut slices[..];
    while !unsent.is_empty() {
        match w.write_vectored(unsent) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut unsent, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// A resumable frame reader, the only way frames are read.
///
/// It keeps the partially filled length prefix and payload across
/// `WouldBlock`/`TimedOut` errors, so a server polling its shutdown
/// flag on a 50ms read timeout resumes a frame that trickles in over
/// many poll intervals instead of desyncing the stream against a slow
/// (or deliberately slow-loris) peer.
#[derive(Debug)]
pub struct FrameReader {
    cap: usize,
    len_bytes: [u8; 4],
    len_filled: usize,
    payload: Vec<u8>,
    payload_filled: usize,
}

impl FrameReader {
    /// A reader refusing announced lengths over `cap`.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            len_bytes: [0; 4],
            len_filled: 0,
            payload: Vec::new(),
            payload_filled: 0,
        }
    }

    /// True when no bytes of the next frame have arrived yet (a clean
    /// EOF here is a peer hanging up between messages, not a torn
    /// frame).
    #[must_use]
    pub fn at_boundary(&self) -> bool {
        self.len_filled == 0
    }

    /// Reads as much of the next frame as `r` will give. Returns
    /// `Ok(Some(payload))` when a frame completes, `Ok(None)` on a
    /// clean EOF at a frame boundary.
    ///
    /// # Errors
    ///
    /// `WouldBlock`/`TimedOut` errors are safe to retry — partial
    /// progress is kept. `Interrupted` reads are retried here. Any other
    /// error (including `UnexpectedEof` mid-frame and an announced
    /// length over the cap) is fatal to the stream.
    pub fn read_from(&mut self, r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
        while self.len_filled < 4 {
            let n = match r.read(&mut self.len_bytes[self.len_filled..]) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                read => read?,
            };
            if n == 0 {
                if self.len_filled == 0 {
                    return Ok(None); // clean EOF between frames
                }
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.len_filled += n;
            if self.len_filled == 4 {
                let len = u32::from_le_bytes(self.len_bytes) as usize;
                if len > self.cap {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("peer announced frame of {len} bytes, cap {}", self.cap),
                    ));
                }
                self.payload = vec![0u8; len];
                self.payload_filled = 0;
            }
        }
        while self.payload_filled < self.payload.len() {
            let n = match r.read(&mut self.payload[self.payload_filled..]) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                read => read?,
            };
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.payload_filled += n;
        }
        self.len_filled = 0;
        Ok(Some(std::mem::take(&mut self.payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: &WireRequest) {
        let bytes = req.encode();
        assert_eq!(&WireRequest::decode(&bytes).unwrap(), req);
    }

    fn roundtrip_response(resp: &WireResponse) {
        let bytes = resp.encode();
        assert_eq!(&WireResponse::decode(&bytes).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(&WireRequest::Serve {
            request: Request::Observe {
                ip: 0x400,
                offset: -16,
                ghr: 0b1011,
                actual: 0xDEAD_BEEF,
            },
            budget: Some(Duration::from_millis(250)),
            epoch: Some(3),
        });
        roundtrip_request(&WireRequest::Serve {
            request: Request::Predict {
                ip: u64::MAX,
                offset: i32::MIN,
                ghr: 0,
            },
            budget: None,
            epoch: None,
        });
        roundtrip_request(&WireRequest::Stats);
        roundtrip_request(&WireRequest::ObsStats);
        roundtrip_request(&WireRequest::SnapshotPull);
        roundtrip_request(&WireRequest::Fence { epoch: u64::MAX });
        roundtrip_request(&WireRequest::ReplicaPush {
            shard: 2,
            generation: 17,
            bytes: vec![0xCA, 0x9A, 0x00],
        });
        roundtrip_request(&WireRequest::ReplicaFetch { shard: 0 });
        roundtrip_request(&WireRequest::Shutdown {
            drain: Duration::from_millis(500),
        });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(&WireResponse::Response(Response::Observed {
            addr: Some(0x1000),
            speculate: true,
            correct: false,
            rung: Rung::Hybrid,
        }));
        roundtrip_response(&WireResponse::Response(Response::Predicted {
            addr: None,
            speculate: false,
            rung: Rung::Bypass,
        }));
        roundtrip_response(&WireResponse::Stats("{\"accepted\":3}".to_owned()));
        roundtrip_response(&WireResponse::ObsStats(
            cap_obs::StatsSnapshot::default().encode(),
        ));
        roundtrip_response(&WireResponse::Snapshot(vec![0xCA, 0x9A, 0x00, 0x01]));
        roundtrip_response(&WireResponse::FenceAck);
        roundtrip_response(&WireResponse::ReplicaAck { stored: true });
        roundtrip_response(&WireResponse::ReplicaAck { stored: false });
        roundtrip_response(&WireResponse::Replica(Some((9, vec![1, 2, 3]))));
        roundtrip_response(&WireResponse::Replica(None));
        roundtrip_response(&WireResponse::ShutdownAck);
        roundtrip_response(&WireResponse::from_error(&ServiceError::Shed {
            capacity: 64,
        }));
    }

    #[test]
    fn zero_budget_means_no_deadline_on_the_wire() {
        // ms = 0 is the wire encoding of "no budget", so a Some(0)
        // budget decodes as None — documented flattening, not drift.
        let req = WireRequest::Serve {
            request: Request::Predict {
                ip: 1,
                offset: 0,
                ghr: 0,
            },
            budget: Some(Duration::ZERO),
            epoch: None,
        };
        match WireRequest::decode(&req.encode()).unwrap() {
            WireRequest::Serve { budget, .. } => assert_eq!(budget, None),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn garbage_and_truncation_are_protocol_errors() {
        assert!(matches!(
            WireRequest::decode(&[99]),
            Err(ServiceError::Protocol(_))
        ));
        let good = WireRequest::Serve {
            request: Request::Predict {
                ip: 5,
                offset: 0,
                ghr: 0,
            },
            budget: None,
            epoch: None,
        }
        .encode();
        assert!(matches!(
            WireRequest::decode(&good[..good.len() - 1]),
            Err(ServiceError::Protocol(_))
        ));
        let mut trailing = good;
        trailing.push(0);
        assert!(matches!(
            WireRequest::decode(&trailing),
            Err(ServiceError::Protocol(_))
        ));
        assert!(matches!(
            WireResponse::decode(&[]),
            Err(ServiceError::Protocol(_))
        ));
    }

    #[test]
    fn wrong_wire_version_is_refused_by_name() {
        let mut req = WireRequest::SnapshotPull.encode();
        assert_eq!(req[0], WIRE_VERSION);
        req[0] = WIRE_VERSION + 1;
        match WireRequest::decode(&req) {
            Err(ServiceError::Protocol(msg)) => {
                assert!(msg.contains("wire version"), "got: {msg}");
            }
            other => panic!("unexpected {other:?}"),
        }
        let mut resp = WireResponse::ShutdownAck.encode();
        resp[0] = 0;
        assert!(matches!(
            WireResponse::decode(&resp),
            Err(ServiceError::Protocol(_))
        ));
    }

    #[test]
    fn truncated_snapshot_reply_is_a_protocol_error() {
        // A snapshot ship torn mid-archive must decode to a structured
        // error, never a panic or a short read silently accepted.
        let good = WireResponse::Snapshot(vec![7u8; 64]).encode();
        for cut in [good.len() - 1, good.len() - 32, 3] {
            assert!(matches!(
                WireResponse::decode(&good[..cut]),
                Err(ServiceError::Protocol(_))
            ));
        }
    }

    #[test]
    fn reply_cap_admits_large_snapshots_but_not_monsters() {
        let mut buf = Vec::new();
        let big = vec![0u8; MAX_FRAME_LEN + 1];
        // Over the request cap: refused by the default writer...
        assert!(write_frame(&mut buf, &big).is_err());
        // ...but fine under the reply cap, and readable back.
        write_frame_with_cap(&mut buf, &big, MAX_REPLY_FRAME_LEN).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(
            FrameReader::new(MAX_REPLY_FRAME_LEN)
                .read_from(&mut cursor)
                .unwrap()
                .unwrap()
                .len(),
            big.len()
        );
        // An announced length over even the reply cap is still refused
        // before any allocation happens.
        let mut evil =
            std::io::Cursor::new(((MAX_REPLY_FRAME_LEN + 1) as u32).to_le_bytes().to_vec());
        assert_eq!(
            FrameReader::new(MAX_REPLY_FRAME_LEN)
                .read_from(&mut evil)
                .unwrap_err()
                .kind(),
            std::io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn frames_roundtrip_and_enforce_the_cap() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let mut reader = FrameReader::new(MAX_FRAME_LEN);
        assert_eq!(reader.read_from(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(reader.read_from(&mut cursor).unwrap().unwrap(), b"");
        assert!(
            reader.read_from(&mut cursor).unwrap().is_none(),
            "clean EOF"
        );

        // An announced length over the cap is refused without allocating.
        let mut evil = std::io::Cursor::new(((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec());
        assert_eq!(
            FrameReader::new(MAX_FRAME_LEN)
                .read_from(&mut evil)
                .unwrap_err()
                .kind(),
            std::io::ErrorKind::InvalidData
        );

        // A torn length prefix is an UnexpectedEof, not a hang or panic.
        let mut torn = std::io::Cursor::new(vec![1u8, 0]);
        assert_eq!(
            FrameReader::new(MAX_FRAME_LEN)
                .read_from(&mut torn)
                .unwrap_err()
                .kind(),
            std::io::ErrorKind::UnexpectedEof
        );
    }

    /// A writer that records each call it receives and, like a socket's
    /// `writev`, takes up to `per_call` bytes across all the slices it is
    /// handed. With `interrupt` set, its first call fails `Interrupted`.
    struct Recorder {
        calls: Vec<Vec<u8>>,
        per_call: usize,
        interrupt: bool,
    }

    impl Recorder {
        fn new(per_call: usize) -> Self {
            Self {
                calls: Vec::new(),
                per_call,
                interrupt: false,
            }
        }

        fn bytes(&self) -> Vec<u8> {
            self.calls.concat()
        }
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            if std::mem::take(&mut self.interrupt) {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let mut took = Vec::new();
            for buf in bufs {
                let n = buf.len().min(self.per_call - took.len());
                took.extend_from_slice(&buf[..n]);
            }
            let n = took.len();
            self.calls.push(took);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_small_frame_leaves_in_one_write() {
        let mut w = Recorder::new(usize::MAX);
        write_frame(&mut w, b"observe").unwrap();
        let mut expected = 7u32.to_le_bytes().to_vec();
        expected.extend_from_slice(b"observe");
        assert_eq!(
            w.calls,
            vec![expected],
            "one call carrying prefix ‖ payload"
        );
    }

    #[test]
    fn short_writes_resume_across_the_prefix_payload_boundary() {
        // Three bytes per call splits the prefix, then straddles it and
        // the payload, then walks a reply-sized payload to its end.
        let payload: Vec<u8> = (0..MAX_FRAME_LEN + 4099).map(|i| (i % 251) as u8).collect();
        let mut w = Recorder::new(3);
        write_frame_with_cap(&mut w, &payload, MAX_REPLY_FRAME_LEN).unwrap();
        assert_eq!(w.calls[..2], [vec![0x03, 0x10, 0x10], vec![0x00, 0, 1]]);
        let mut cursor = std::io::Cursor::new(w.bytes());
        let read = FrameReader::new(MAX_REPLY_FRAME_LEN)
            .read_from(&mut cursor)
            .unwrap()
            .unwrap();
        assert!(read == payload, "payload arrives byte-exact");
    }

    #[test]
    fn an_interrupted_write_is_retried() {
        let mut w = Recorder::new(usize::MAX);
        w.interrupt = true;
        write_frame(&mut w, b"again").unwrap();
        let mut expected = 5u32.to_le_bytes().to_vec();
        expected.extend_from_slice(b"again");
        assert_eq!(w.bytes(), expected);
    }

    #[test]
    fn a_writer_taking_nothing_ends_in_write_zero() {
        let mut w = Recorder::new(0);
        assert_eq!(
            write_frame(&mut w, b"stuck").unwrap_err().kind(),
            std::io::ErrorKind::WriteZero
        );
        assert_eq!(w.calls.len(), 1, "no retry spin on Ok(0)");
    }

    /// A reader that yields `chunk` bytes then a `stall` error,
    /// repeating — with `WouldBlock`, a socket read timeout splitting a
    /// frame.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
        ready: bool,
        stall: std::io::ErrorKind,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(self.stall.into());
            }
            self.ready = false;
            let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_retries_interrupted_reads() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"signal").unwrap();
        let mut src = Trickle {
            data: wire,
            pos: 0,
            chunk: 2,
            ready: false,
            stall: std::io::ErrorKind::Interrupted,
        };
        let frame = FrameReader::new(MAX_FRAME_LEN).read_from(&mut src).unwrap();
        assert_eq!(frame.as_deref(), Some(&b"signal"[..]));
    }

    #[test]
    fn frame_reader_survives_timeouts_mid_frame() {
        // A frame trickling in one byte per read timeout must still
        // assemble, keeping its partial progress across each
        // WouldBlock.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"slow-loris").unwrap();
        write_frame(&mut wire, b"second").unwrap();
        let mut src = Trickle {
            data: wire,
            pos: 0,
            chunk: 1,
            ready: false,
            stall: std::io::ErrorKind::WouldBlock,
        };
        let mut reader = FrameReader::new(MAX_FRAME_LEN);
        let mut frames = Vec::new();
        while frames.len() < 2 {
            match reader.read_from(&mut src) {
                Ok(Some(p)) => frames.push(p),
                Ok(None) => panic!("unexpected EOF"),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(frames, vec![b"slow-loris".to_vec(), b"second".to_vec()]);
        assert!(reader.at_boundary());
    }

    #[test]
    fn frame_reader_flags_torn_frames_and_oversize() {
        // EOF mid-payload is torn, not clean.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abcdef").unwrap();
        wire.truncate(wire.len() - 2);
        let mut reader = FrameReader::new(MAX_FRAME_LEN);
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(
            reader.read_from(&mut cursor).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
        // An announced length over the cap is refused before allocating.
        let mut reader = FrameReader::new(16);
        let mut evil = std::io::Cursor::new(1024u32.to_le_bytes().to_vec());
        assert_eq!(
            reader.read_from(&mut evil).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
        // Clean EOF at a boundary is still Ok(None).
        let mut reader = FrameReader::new(16);
        let mut empty = std::io::Cursor::new(Vec::new());
        assert!(reader.read_from(&mut empty).unwrap().is_none());
        assert!(reader.at_boundary());
    }
}
