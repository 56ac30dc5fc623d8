//! Bench: snapshot encode/decode throughput and checkpoint overhead.
//!
//! Checkpointing only earns its keep if publishing a snapshot is cheap
//! next to the simulation it protects. Three measurements keep that
//! honest: (1) encoding a warmed paper-default hybrid (full LB + LT
//! tables) to archive bytes, (2) decoding it back — the CRC-verified,
//! invariant-checked path every resume takes, and (3) a supervised run
//! with checkpoints every 2 000 events against the same run with
//! checkpointing off, which prices the end-to-end overhead including the
//! atomic write + fsync + rotate.

use cap_bench::bench_kit::Criterion;
use cap_harness::supervisor::{run, SupervisorConfig};
use cap_predictor::drive::Session;
use cap_predictor::hybrid::{HybridConfig, HybridPredictor};
use cap_predictor::metrics::PredictorStats;
use cap_service::backend::BackendKind;
use cap_snapshot::{
    encode_journal_header, encode_journal_record, JournalReplay, SectionReader, SectionWriter,
    SnapshotArchive, SnapshotBuilder,
};
use cap_trace::io::{event_line, parse_event_line, write_trace};
use cap_trace::suites::catalog;
use cap_trace::TraceEvent;
use std::hint::black_box;

fn archive_of(p: &HybridPredictor, stats: &PredictorStats) -> Vec<u8> {
    let mut b = SnapshotBuilder::new();
    b.add("predictor", p);
    b.add("stats", stats);
    b.finish()
}

/// Mirrors the supervisor's journal record: cursor position + the
/// canonical event line, CRC-framed.
fn journal_record(events: u64, event: &TraceEvent) -> Vec<u8> {
    let mut w = SectionWriter::new();
    w.put_u64(events * 40); // representative byte offset
    w.put_u64(events);
    w.put_u64(events);
    let line = event_line(event);
    w.put_len(line.len());
    w.put_raw(line.as_bytes());
    encode_journal_record(&w.into_bytes())
}

/// Builds a whole journal (header + one record per event) in memory.
fn journal_of(events: &[TraceEvent]) -> Vec<u8> {
    let mut bytes = encode_journal_header(0);
    for (i, event) in events.iter().enumerate() {
        bytes.extend_from_slice(&journal_record(i as u64 + 1, event));
    }
    bytes
}

fn bench(c: &mut Criterion) {
    let trace = catalog()[0].generate(20_000);
    let mut warmed = HybridPredictor::new(HybridConfig::paper_default());
    let stats = Session::new(&mut warmed).run(&trace);
    let bytes = archive_of(&warmed, &stats);
    println!("warmed hybrid archive: {} bytes", bytes.len());

    let mut group = c.benchmark_group("snapshot");
    group.sample_size(10);

    group.bench_function("encode_warmed_hybrid", |b| {
        b.iter(|| archive_of(&warmed, &stats));
    });

    group.bench_function("decode_warmed_hybrid", |b| {
        b.iter(|| {
            let archive = SnapshotArchive::parse(&bytes).expect("pristine bytes parse");
            archive
                .restore::<HybridPredictor>("predictor")
                .expect("pristine bytes restore")
        });
    });

    // The delta journal's codec, disk-free: appending (render + frame +
    // CRC) and replaying (frame walk + CRC check + parse back to an
    // event) per record. These are the per-event costs a tighter
    // journal flush interval buys its loss bound with.
    let events: Vec<TraceEvent> = trace.iter().take(4_096).copied().collect();
    let journal = journal_of(&events);
    println!(
        "journal: {} records, {} bytes",
        events.len(),
        journal.len()
    );

    group.bench_function("journal_append_4k_records", |b| {
        b.iter(|| black_box(journal_of(&events).len()));
    });

    group.bench_function("journal_replay_4k_records", |b| {
        b.iter(|| {
            let replay = JournalReplay::parse(&journal).expect("pristine journal parses");
            assert!(replay.torn.is_none());
            let mut replayed = 0u64;
            for payload in &replay.records {
                let mut r = SectionReader::new(payload, "journal");
                let _ = r.take_u64("byte offset").expect("offset");
                let line = r.take_u64("line").expect("line");
                let _ = r.take_u64("events").expect("events");
                let n = r.take_len(1, "line length").expect("len");
                let raw = r.take_raw(n, "line").expect("raw");
                let text = std::str::from_utf8(raw).expect("utf8");
                black_box(parse_event_line(text, line as usize).expect("parses"));
                replayed += 1;
            }
            replayed
        });
    });

    // End-to-end checkpoint overhead: same supervised run, with and
    // without checkpoint publication (atomic write + fsync + rotation).
    let dir = std::env::temp_dir().join(format!("cap-bench-snapshot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace_path = dir.join("trace.txt");
    {
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).expect("serialize");
        std::fs::write(&trace_path, buf).expect("write trace file");
    }

    group.bench_function("supervised_run_no_checkpoints", |b| {
        b.iter(|| run(&SupervisorConfig::new(&trace_path, BackendKind::Hybrid)).expect("runs"));
    });

    group.bench_function("supervised_run_checkpoint_every_2k", |b| {
        let ckpt_dir = dir.join("ckpts");
        let mut cfg = SupervisorConfig::new(&trace_path, BackendKind::Hybrid);
        cfg.checkpoint_dir = Some(ckpt_dir);
        cfg.checkpoint_every = 2_000;
        b.iter(|| run(&cfg).expect("runs"));
    });

    // The same run with the delta journal on: what bounding the loss to
    // 256 events (instead of the 2k checkpoint interval) costs, append
    // + fsync included.
    group.bench_function("supervised_run_ckpt_2k_journal_256", |b| {
        let ckpt_dir = dir.join("ckpts-journal");
        let mut cfg = SupervisorConfig::new(&trace_path, BackendKind::Hybrid);
        cfg.checkpoint_dir = Some(ckpt_dir);
        cfg.checkpoint_every = 2_000;
        cfg.journal_flush_every = 256;
        b.iter(|| run(&cfg).expect("runs"));
    });

    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

cap_bench::bench_main!(bench);
