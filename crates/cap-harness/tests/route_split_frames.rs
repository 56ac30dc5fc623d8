//! The router front door resumes frames split across its read timeout.
//!
//! `simulate route` polls its stop flag on a 50 ms socket read timeout.
//! A request whose payload arrives later than that after its length
//! prefix must still be answered, and the frame after it must still
//! parse: the front door runs the same resumable frame loop as a node.
//! Real `simulate serve` and `simulate route` processes, as in
//! `cluster_soak.rs`.

use cap_service::prelude::{Request, Response, WireRequest, WireResponse};
use cap_service::wire::{FrameReader, MAX_REPLY_FRAME_LEN};
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Longer than the front door's 50 ms read timeout, so the payload
/// lands in a later poll than its prefix.
const SPLIT_PAUSE: Duration = Duration::from_millis(120);

/// Child processes killed, and their directory removed, on drop, so a
/// failing assertion leaks nothing.
struct Procs {
    dir: PathBuf,
    children: Vec<Child>,
}

impl Drop for Procs {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Procs {
    /// Starts `simulate <args> --port-file <dir>/<name>` and returns the
    /// port it publishes.
    fn spawn(&mut self, name: &str, args: &[&str]) -> u16 {
        let port_file = self.dir.join(name);
        let child = Command::new(env!("CARGO_BIN_EXE_simulate"))
            .args(args)
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn simulate");
        self.children.push(child);
        wait_port(&port_file)
    }
}

fn wait_port(port_file: &Path) -> u16 {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Some(port) = std::fs::read_to_string(port_file)
            .ok()
            .and_then(|text| text.trim().parse::<u16>().ok())
        {
            return port;
        }
        assert!(
            Instant::now() < deadline,
            "{} never published a port",
            port_file.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Sends `request` as its length prefix, a pause, then its payload, and
/// reads the reply.
fn split_roundtrip(stream: &mut TcpStream, request: &WireRequest) -> WireResponse {
    let payload = request.encode();
    let prefix = u32::try_from(payload.len())
        .expect("small request")
        .to_le_bytes();
    stream.write_all(&prefix).expect("send prefix");
    std::thread::sleep(SPLIT_PAUSE);
    stream.write_all(&payload).expect("send payload");
    let reply = FrameReader::new(MAX_REPLY_FRAME_LEN)
        .read_from(stream)
        .unwrap_or_else(|e| panic!("no reply to a split {request:?}: {e}"))
        .expect("a reply, not a hangup");
    WireResponse::decode(&reply).expect("decodable reply")
}

#[test]
fn router_front_door_answers_frames_split_across_its_read_timeout() {
    let dir = std::env::temp_dir().join(format!("cap-route-split-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    let mut procs = Procs {
        dir,
        children: Vec::new(),
    };
    let node = procs.spawn("node-port", &["serve", "--addr", "127.0.0.1:0"]);
    let nodes = format!("127.0.0.1:{node}");
    let router = procs.spawn("route-port", &["route", "--nodes", &nodes]);

    let mut stream = TcpStream::connect(("127.0.0.1", router)).expect("connect to router");
    stream.set_nodelay(true).expect("nodelay");
    // A reply that never comes fails the test instead of hanging it.
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("read timeout");

    match split_roundtrip(&mut stream, &WireRequest::Stats) {
        WireResponse::Stats(json) => assert!(json.contains("\"accepted\""), "got {json}"),
        other => panic!("unexpected reply to Stats: {other:?}"),
    }
    let observe = WireRequest::Serve {
        request: Request::Observe {
            ip: 0x400,
            offset: 0,
            ghr: 0,
            actual: 0x8000,
        },
        budget: None,
        epoch: None,
    };
    match split_roundtrip(&mut stream, &observe) {
        WireResponse::Response(Response::Observed { .. }) => {}
        other => panic!("unexpected reply to Observe: {other:?}"),
    }
}
