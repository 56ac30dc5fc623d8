//! Seeded fuzz tests for the trace parser: serialize every event variant,
//! mutate bytes, and require the parser to either succeed or return a
//! structured [`ParseTraceError`] attributed to the right line — never
//! panic, never blame a different line.

use cap_rand::check;
use cap_rand::Rng;
use cap_trace::builder::TraceBuilder;
use cap_trace::io::{read_trace, read_trace_lenient, write_trace, ParseTraceError};
use cap_trace::{OpLatency, RegId, Trace, TraceEvent};

/// A trace exercising every `TraceEvent` variant and every optional-field
/// shape the writer can emit.
fn full_coverage_trace(rng: &mut cap_rand::rngs::StdRng) -> Trace {
    let mut b = TraceBuilder::new();
    for i in 0..rng.gen_range(4..20u64) {
        let ip = 0x400 + i * 4;
        match rng.gen_range(0..7u32) {
            0 => b.load(ip, 0x1000 + i * 8, rng.gen_range(-128..128i32)),
            1 => {
                b.load_val(
                    ip,
                    rng.gen::<u32>() as u64,
                    8,
                    rng.gen::<u32>() as u64,
                    Some(RegId::new(rng.gen_range(0..64u32) as u8)),
                    None,
                );
            }
            2 => b.store_dep(ip, 0x3000 + i * 4, Some(RegId::new(5)), None),
            3 => b.cond_branch(ip, rng.gen_bool(0.5)),
            4 => b.call(ip, 0x800 + i * 16),
            5 => b.ret(ip, ip + 4),
            _ => b.op(
                ip,
                [
                    OpLatency::Alu,
                    OpLatency::Mul,
                    OpLatency::Div,
                    OpLatency::FpAdd,
                    OpLatency::FpMul,
                ][rng.gen_range(0..5usize)],
                Some(RegId::new(6)),
                [Some(RegId::new(7)), None],
            ),
        }
    }
    b.finish()
}

fn assert_variant_coverage(trace: &Trace) -> [bool; 4] {
    let mut seen = [false; 4];
    for e in trace.iter() {
        match e {
            TraceEvent::Load(_) => seen[0] = true,
            TraceEvent::Store(_) => seen[1] = true,
            TraceEvent::Branch(_) => seen[2] = true,
            TraceEvent::Op(_) => seen[3] = true,
        }
    }
    seen
}

/// 1-based line number containing byte `pos` of `bytes`.
fn line_of_byte(bytes: &[u8], pos: usize) -> usize {
    1 + bytes[..pos].iter().filter(|&&b| b == b'\n').count()
}

#[test]
fn every_event_variant_appears_across_cases() {
    // The per-case generator is random; across the check cases all four
    // variants must show up, or the fuzz below would under-cover.
    let mut coverage = [false; 4];
    check::run("fuzz_variant_coverage", |rng| {
        let seen = assert_variant_coverage(&full_coverage_trace(rng));
        for (c, s) in coverage.iter_mut().zip(seen) {
            *c |= s;
        }
    });
    assert_eq!(coverage, [true; 4], "all TraceEvent variants exercised");
}

#[test]
fn single_byte_mutation_never_panics_and_blames_the_right_line() {
    check::run("fuzz_single_byte_mutation", |rng| {
        let trace = full_coverage_trace(rng);
        let mut bytes = Vec::new();
        write_trace(&mut bytes, &trace).expect("write to Vec cannot fail");
        assert!(!bytes.is_empty());

        let pos = rng.gen_range(0..bytes.len());
        let old = bytes[pos];
        let flip = 1u8 << rng.gen_range(0..8u32);
        let new = old ^ flip;
        bytes[pos] = new;

        // Attribution is only well-defined when the mutation cannot move
        // line boundaries. Invalid UTF-8 is a malformed line like any
        // other, so it must name its line too.
        let structure_preserved = old != b'\n' && new != b'\n';
        let expected_line = line_of_byte(&bytes, pos);

        match read_trace(bytes.as_slice()) {
            Ok(_) => {}
            Err(ParseTraceError::Malformed { line, .. }) => {
                if structure_preserved {
                    assert_eq!(
                        line, expected_line,
                        "error attributed to line {line}, mutated byte {pos} is on line {expected_line}"
                    );
                }
            }
            Err(ParseTraceError::Io(e)) => {
                panic!("in-memory input cannot fail with an I/O error: {e}")
            }
        }
    });
}

#[test]
fn multi_byte_mutation_never_panics_and_lenient_recovers() {
    check::run("fuzz_multi_byte_mutation", |rng| {
        let trace = full_coverage_trace(rng);
        let mut bytes = Vec::new();
        write_trace(&mut bytes, &trace).expect("write to Vec cannot fail");
        let total_lines = 1 + bytes.iter().filter(|&&b| b == b'\n').count();

        for _ in 0..rng.gen_range(1..16usize) {
            let pos = rng.gen_range(0..bytes.len());
            bytes[pos] ^= 1u8 << rng.gen_range(0..8u32);
        }

        // Strict parse: success or a structured error with an in-range
        // line. Reaching this point at all proves no panic.
        match read_trace(bytes.as_slice()) {
            Ok(_) => {}
            Err(ParseTraceError::Io(e)) => {
                panic!("in-memory input cannot fail with an I/O error: {e}")
            }
            Err(ParseTraceError::Malformed { line, .. }) => {
                assert!(
                    (1..=total_lines).contains(&line),
                    "line {line} out of range 1..={total_lines}"
                );
            }
        }

        // Lenient parse on an in-memory buffer can never fail, and cannot
        // invent events beyond one per original line.
        let parsed = read_trace_lenient(bytes.as_slice()).expect("in-memory read");
        assert!(parsed.trace.len() <= trace.len() + total_lines);
        assert!(parsed.skipped <= total_lines);
        assert_eq!(parsed.is_clean(), parsed.first_error.is_none());
    });
}

#[test]
fn kinds_of_corruption_generator_all_yield_structured_errors() {
    use cap_trace::corrupt::{corrupt_as, CorruptionKind};
    check::run("fuzz_corruption_kinds", |rng| {
        let trace = full_coverage_trace(rng);
        let mut bytes = Vec::new();
        write_trace(&mut bytes, &trace).expect("write to Vec cannot fail");
        for kind in CorruptionKind::ALL {
            let mutated = corrupt_as(&bytes, kind, rng);
            // Must not panic; errors must be structured.
            let _ = read_trace(mutated.as_slice());
            let parsed = read_trace_lenient(mutated.as_slice()).expect("in-memory read");
            if kind == CorruptionKind::JunkLines {
                // Junk never destroys existing events.
                assert_eq!(parsed.trace.len(), trace.len());
            }
        }
    });
}
