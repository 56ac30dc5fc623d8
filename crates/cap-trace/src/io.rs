//! Trace serialization — a compact, line-oriented text format.
//!
//! One event per line, whitespace-separated, hex-encoded:
//!
//! ```text
//! L <ip> <addr> <offset> <size> <value> <dst|-> <addr_src|->
//! S <ip> <addr> <size> <data_src|-> <addr_src|->
//! B <ip> <taken:0|1> <target> <kind:C|A|R|J>
//! O <ip> <lat:A|M|D|F|P> <dst|-> <src0|-> <src1|->
//! ```
//!
//! Lines starting with `#` are comments. The format exists so traces can
//! be inspected with standard text tools, diffed, or produced by external
//! generators and fed to the predictors.

use crate::cursor::TraceCursor;
use crate::record::{
    BranchKind, BranchRecord, LoadRecord, OpLatency, OpRecord, RegId, StoreRecord, Trace,
    TraceEvent,
};
use std::io::{self, BufRead, Write};

/// Errors produced while parsing a trace.
#[derive(Debug)]
pub enum ParseTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line, with its 1-based line number and a description.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseTraceError::Io(e) => write!(f, "i/o error reading trace: {e}"),
            ParseTraceError::Malformed { line, reason } => {
                write!(f, "malformed trace line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for ParseTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseTraceError::Io(e) => Some(e),
            ParseTraceError::Malformed { .. } => None,
        }
    }
}

impl From<io::Error> for ParseTraceError {
    fn from(e: io::Error) -> Self {
        ParseTraceError::Io(e)
    }
}

fn reg_str(r: Option<RegId>) -> String {
    match r {
        Some(r) => r.index().to_string(),
        None => "-".to_owned(),
    }
}

fn lat_char(l: OpLatency) -> char {
    match l {
        OpLatency::Alu => 'A',
        OpLatency::Mul => 'M',
        OpLatency::Div => 'D',
        OpLatency::FpAdd => 'F',
        OpLatency::FpMul => 'P',
    }
}

fn kind_char(k: BranchKind) -> char {
    match k {
        BranchKind::Conditional => 'C',
        BranchKind::Call => 'A',
        BranchKind::Return => 'R',
        BranchKind::Jump => 'J',
    }
}

/// Writes a trace in the text format.
///
/// # Errors
///
/// Propagates any I/O error from `w`.
///
/// # Examples
///
/// ```
/// use cap_trace::builder::TraceBuilder;
/// use cap_trace::io::{read_trace, write_trace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = TraceBuilder::new();
/// b.load(0x400, 0x1008, 8);
/// b.cond_branch(0x404, true);
/// let trace = b.finish();
///
/// let mut buf = Vec::new();
/// write_trace(&mut buf, &trace)?;
/// let back = read_trace(buf.as_slice())?;
/// assert_eq!(trace, back);
/// # Ok(())
/// # }
/// ```
pub fn write_trace<W: Write>(mut w: W, trace: &Trace) -> io::Result<()> {
    writeln!(w, "# cap-trace v1: {} events", trace.len())?;
    for event in trace.iter() {
        writeln!(w, "{}", event_line(event))?;
    }
    Ok(())
}

/// Renders one event as its canonical trace line (no trailing newline).
///
/// This is the inverse of [`parse_event_line`] and round-trips exactly:
/// `parse_event_line(&event_line(e)) == e` for every event. The delta
/// journal in `cap-harness` leans on that — journaled events are stored
/// as these lines and re-parsed at replay.
#[must_use]
pub fn event_line(event: &TraceEvent) -> String {
    match event {
        TraceEvent::Load(l) => format!(
            "L {:x} {:x} {} {} {:x} {} {}",
            l.ip,
            l.addr,
            l.offset,
            l.size,
            l.value,
            reg_str(l.dst),
            reg_str(l.addr_src)
        ),
        TraceEvent::Store(s) => format!(
            "S {:x} {:x} {} {} {}",
            s.ip,
            s.addr,
            s.size,
            reg_str(s.data_src),
            reg_str(s.addr_src)
        ),
        TraceEvent::Branch(b) => format!(
            "B {:x} {} {:x} {}",
            b.ip,
            u8::from(b.taken),
            b.target,
            kind_char(b.kind)
        ),
        TraceEvent::Op(o) => format!(
            "O {:x} {} {} {} {}",
            o.ip,
            lat_char(o.latency),
            reg_str(o.dst),
            reg_str(o.srcs[0]),
            reg_str(o.srcs[1])
        ),
    }
}

struct LineParser<'a> {
    fields: std::str::SplitWhitespace<'a>,
    line: usize,
}

impl<'a> LineParser<'a> {
    fn err(&self, reason: impl Into<String>) -> ParseTraceError {
        ParseTraceError::Malformed {
            line: self.line,
            reason: reason.into(),
        }
    }

    fn next(&mut self) -> Result<&'a str, ParseTraceError> {
        self.fields.next().ok_or_else(|| self.err("missing field"))
    }

    fn hex(&mut self) -> Result<u64, ParseTraceError> {
        let f = self.next()?;
        u64::from_str_radix(f, 16).map_err(|_| self.err(format!("bad hex value '{f}'")))
    }

    fn int<T: std::str::FromStr>(&mut self) -> Result<T, ParseTraceError> {
        let f = self.next()?;
        f.parse()
            .map_err(|_| self.err(format!("bad integer '{f}'")))
    }

    fn reg(&mut self) -> Result<Option<RegId>, ParseTraceError> {
        let f = self.next()?;
        if f == "-" {
            return Ok(None);
        }
        let idx: u8 = f
            .parse()
            .map_err(|_| self.err(format!("bad register '{f}'")))?;
        if (idx as usize) >= RegId::COUNT {
            return Err(self.err(format!("register {idx} out of range")));
        }
        Ok(Some(RegId::new(idx)))
    }
}

/// Parses one non-blank, non-comment line into an event. Shared by the
/// strict and lenient readers and by delta-journal replay in
/// `cap-harness`; every failure mode is a structured
/// [`ParseTraceError::Malformed`] carrying `line_no` — this function never
/// panics, whatever the input bytes were.
///
/// # Errors
///
/// [`ParseTraceError::Malformed`] for any line that is not a canonical
/// event rendering.
pub fn parse_event_line(trimmed: &str, line_no: usize) -> Result<TraceEvent, ParseTraceError> {
    let mut fields = trimmed.split_whitespace();
    let Some(tag) = fields.next() else {
        // Unreachable through the public readers (blank lines are skipped
        // before this call), but a structured error beats an expect.
        return Err(ParseTraceError::Malformed {
            line: line_no,
            reason: "empty line".to_owned(),
        });
    };
    let mut p = LineParser {
        fields,
        line: line_no,
    };
    let event = match tag {
        "L" => TraceEvent::Load(LoadRecord {
            ip: p.hex()?,
            addr: p.hex()?,
            offset: p.int()?,
            size: p.int()?,
            value: p.hex()?,
            dst: p.reg()?,
            addr_src: p.reg()?,
        }),
        "S" => TraceEvent::Store(StoreRecord {
            ip: p.hex()?,
            addr: p.hex()?,
            size: p.int()?,
            data_src: p.reg()?,
            addr_src: p.reg()?,
        }),
        "B" => {
            let ip = p.hex()?;
            let taken: u8 = p.int()?;
            let target = p.hex()?;
            let kind = match p.next()? {
                "C" => BranchKind::Conditional,
                "A" => BranchKind::Call,
                "R" => BranchKind::Return,
                "J" => BranchKind::Jump,
                other => return Err(p.err(format!("bad branch kind '{other}'"))),
            };
            TraceEvent::Branch(BranchRecord {
                ip,
                taken: taken != 0,
                target,
                kind,
            })
        }
        "O" => {
            let ip = p.hex()?;
            let latency = match p.next()? {
                "A" => OpLatency::Alu,
                "M" => OpLatency::Mul,
                "D" => OpLatency::Div,
                "F" => OpLatency::FpAdd,
                "P" => OpLatency::FpMul,
                other => return Err(p.err(format!("bad latency class '{other}'"))),
            };
            TraceEvent::Op(OpRecord {
                ip,
                latency,
                dst: p.reg()?,
                srcs: [p.reg()?, p.reg()?],
            })
        }
        other => return Err(p.err(format!("unknown event tag '{other}'"))),
    };
    if let Some(extra) = p.fields.next() {
        return Err(p.err(format!("trailing field '{extra}'")));
    }
    Ok(event)
}

/// Reads a trace from the text format, draining a [`TraceCursor`].
///
/// # Errors
///
/// Returns [`ParseTraceError`] on I/O failure or on the first malformed
/// line (including non-UTF-8 bytes, a [`ParseTraceError::Malformed`] like
/// any other). This reader never panics, whatever bytes `r` yields — the
/// guarantee the corruption suite in `cap-faults` exercises.
pub fn read_trace<R: BufRead>(r: R) -> Result<Trace, ParseTraceError> {
    let mut cursor = TraceCursor::new(r);
    let mut trace = Trace::new();
    while let Some(event) = cursor.next_event()? {
        trace.push(event);
    }
    Ok(trace)
}

/// One malformed line skipped by [`read_trace_lenient`], with enough
/// position information to inspect the damage in the source stream (`dd`,
/// hex editors, or a re-read with [`crate::cursor::TraceCursor`] all work
/// in byte offsets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedLine {
    /// 1-based line number.
    pub line: usize,
    /// Byte offset of the start of the line in the input stream.
    pub byte_offset: u64,
    /// Why the line was rejected.
    pub reason: String,
}

/// Outcome of a lossy [`read_trace_lenient`] pass.
#[derive(Debug)]
#[must_use]
pub struct LenientParse {
    /// The events recovered from well-formed lines.
    pub trace: Trace,
    /// Number of malformed lines skipped.
    pub skipped: usize,
    /// The first skip, as `(1-based line number, reason)` — a ready-made
    /// warning message for callers that log degradation.
    pub first_error: Option<(usize, String)>,
    /// Every skipped line with its byte offset, in stream order.
    pub skips: Vec<SkippedLine>,
}

impl LenientParse {
    /// True when every line parsed cleanly.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.skipped == 0
    }
}

/// Reads a trace in lossy mode: malformed lines (including lines that are
/// not valid UTF-8) are skipped and counted instead of aborting the parse,
/// so a partially corrupted stream still yields every recoverable event.
///
/// # Errors
///
/// Only genuine I/O errors from `r` abort the parse; malformed content
/// never does.
pub fn read_trace_lenient<R: BufRead>(r: R) -> io::Result<LenientParse> {
    let mut cursor = TraceCursor::new(r);
    let mut out = LenientParse {
        trace: Trace::new(),
        skipped: 0,
        first_error: None,
        skips: Vec::new(),
    };
    loop {
        match cursor.next_event() {
            Ok(Some(event)) => out.trace.push(event),
            Ok(None) => return Ok(out),
            Err(ParseTraceError::Io(e)) => return Err(e),
            Err(e) => {
                let line = cursor.position().line as usize;
                let reason = e.to_string();
                out.skipped += 1;
                if out.first_error.is_none() {
                    out.first_error = Some((line, reason.clone()));
                }
                out.skips.push(SkippedLine {
                    line,
                    byte_offset: cursor.line_start(),
                    reason,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::suites::catalog;

    fn roundtrip(trace: &Trace) -> Trace {
        let mut buf = Vec::new();
        write_trace(&mut buf, trace).expect("write to Vec cannot fail");
        read_trace(buf.as_slice()).expect("roundtrip must parse")
    }

    #[test]
    fn roundtrips_every_event_kind() {
        let mut b = TraceBuilder::new();
        b.load_val(
            0x400,
            0x1008,
            8,
            0xDEAD,
            Some(RegId::new(3)),
            Some(RegId::new(4)),
        );
        b.load(0x404, 0x2000, -16);
        b.store_dep(0x408, 0x3000, Some(RegId::new(5)), None);
        b.cond_branch(0x40C, true);
        b.call(0x410, 0x800);
        b.ret(0x814, 0x414);
        b.op(
            0x418,
            OpLatency::Div,
            Some(RegId::new(6)),
            [Some(RegId::new(7)), None],
        );
        let trace = b.finish();
        assert_eq!(roundtrip(&trace), trace);
    }

    #[test]
    fn roundtrips_catalog_trace() {
        let trace = catalog()[0].generate(2_000);
        assert_eq!(roundtrip(&trace), trace);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# header\n\nL 400 1008 8 4 0 - -\n# trailing\n";
        let trace = read_trace(text.as_bytes()).expect("parses");
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.loads().next().unwrap().addr, 0x1008);
    }

    #[test]
    fn malformed_lines_report_position() {
        let text = "L 400 1008 8 4 0 - -\nX what\n";
        let err = read_trace(text.as_bytes()).expect_err("must fail");
        match err {
            ParseTraceError::Malformed { line, .. } => assert_eq!(line, 2),
            other => panic!("wrong error kind: {other}"),
        }
    }

    #[test]
    fn invalid_utf8_is_malformed_with_its_line() {
        let mut bytes = b"L 400 1008 8 4 0 - -\n".to_vec();
        bytes.extend_from_slice(&[b'L', b' ', 0xFF, b'\n']);
        match read_trace(bytes.as_slice()) {
            Err(ParseTraceError::Malformed { line, reason }) => {
                assert_eq!(line, 2);
                assert!(reason.contains("UTF-8"), "{reason}");
            }
            other => panic!("want Malformed on line 2, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_register_rejected() {
        let text = "L 400 1008 8 4 0 99 -\n";
        assert!(read_trace(text.as_bytes()).is_err());
    }

    #[test]
    fn bad_hex_rejected_with_description() {
        let text = "L zz 1008 8 4 0 - -\n";
        let err = read_trace(text.as_bytes()).expect_err("must fail");
        assert!(err.to_string().contains("bad hex"));
    }

    #[test]
    fn trailing_fields_rejected() {
        let text = "L 400 1008 8 4 0 - - junk\n";
        let err = read_trace(text.as_bytes()).expect_err("must fail");
        assert!(err.to_string().contains("trailing field"));
    }

    #[test]
    fn lenient_skips_malformed_lines_and_counts_them() {
        let text = "L 400 1008 8 4 0 - -\nX what\nL 404 2000 0 4 0 - -\n";
        let parsed = read_trace_lenient(text.as_bytes()).expect("no io error");
        assert_eq!(parsed.trace.len(), 2);
        assert_eq!(parsed.skipped, 1);
        let (line, reason) = parsed.first_error.expect("skip recorded");
        assert_eq!(line, 2);
        assert!(reason.contains("unknown event tag"));
    }

    #[test]
    fn lenient_survives_invalid_utf8() {
        let mut bytes = b"L 400 1008 8 4 0 - -\n".to_vec();
        bytes.extend_from_slice(&[0xFF, 0xFE, b'\n']);
        bytes.extend_from_slice(b"L 404 2000 0 4 0 - -\n");
        let parsed = read_trace_lenient(bytes.as_slice()).expect("no io error");
        assert_eq!(parsed.trace.len(), 2);
        assert_eq!(parsed.skipped, 1);
        assert!(!parsed.is_clean());
    }

    #[test]
    fn lenient_on_clean_input_matches_strict() {
        let trace = catalog()[0].generate(1_000);
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).expect("write to Vec cannot fail");
        let parsed = read_trace_lenient(buf.as_slice()).expect("no io error");
        assert!(parsed.is_clean());
        assert_eq!(parsed.trace, trace);
    }

    #[test]
    fn lenient_records_byte_offset_of_every_skip() {
        let good1 = "L 400 1008 8 4 0 - -\n";
        let bad1 = "X what\n";
        let good2 = "L 404 2000 0 4 0 - -\n";
        let bad2 = "L zz zz\n";
        let text = format!("{good1}{bad1}{good2}{bad2}");
        let parsed = read_trace_lenient(text.as_bytes()).expect("no io error");
        assert_eq!(parsed.skipped, 2);
        assert_eq!(parsed.skips.len(), 2);
        assert_eq!(parsed.skips[0].line, 2);
        assert_eq!(parsed.skips[0].byte_offset, good1.len() as u64);
        assert!(parsed.skips[0].reason.contains("unknown event tag"));
        assert_eq!(
            parsed.skips[1].byte_offset,
            (good1.len() + bad1.len() + good2.len()) as u64
        );
        // The offset points at the damaged bytes in the original stream.
        let start = parsed.skips[1].byte_offset as usize;
        assert!(text[start..].starts_with("L zz"));
    }

    #[test]
    fn event_line_roundtrips_every_event() {
        let trace = catalog()[0].generate(2_000);
        for (i, event) in trace.iter().enumerate() {
            let line = event_line(event);
            let back = parse_event_line(&line, i + 1).expect("canonical line parses");
            assert_eq!(&back, event, "event {i}: '{line}'");
        }
    }

    #[test]
    fn every_register_in_every_operand_slot_roundtrips() {
        let reg = |i: usize| Some(RegId::new((i % RegId::COUNT) as u8));
        let mut events = Vec::new();
        for i in 0..RegId::COUNT {
            events.push(TraceEvent::Load(LoadRecord {
                ip: 0x400,
                addr: 0x1000,
                offset: 0,
                size: 8,
                value: 0,
                dst: reg(i),
                addr_src: reg(i + 1),
            }));
            events.push(TraceEvent::Store(StoreRecord {
                ip: 0x404,
                addr: 0x2000,
                size: 8,
                data_src: reg(i + 2),
                addr_src: reg(i + 3),
            }));
            events.push(TraceEvent::Op(OpRecord {
                ip: 0x408,
                latency: OpLatency::Alu,
                dst: reg(i + 4),
                srcs: [reg(i + 5), reg(i + 6)],
            }));
        }
        let text: String = events.iter().map(|e| event_line(e) + "\n").collect();
        let back = read_trace(text.as_bytes()).expect("canonical lines parse");
        assert_eq!(back.events(), &events[..]);
    }

    #[test]
    fn negative_offsets_roundtrip() {
        let mut b = TraceBuilder::new();
        b.load(0x400, 0x1000, -128);
        let trace = b.finish();
        let back = roundtrip(&trace);
        assert_eq!(back.loads().next().unwrap().offset, -128);
    }
}
