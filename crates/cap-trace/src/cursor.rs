//! Streaming trace reading with a checkpointable cursor.
//!
//! [`TraceCursor::next_event`] is the one loop over the text format's
//! lines: [`crate::io::read_trace`] and [`crate::io::read_trace_lenient`]
//! drain a cursor to materialise a whole trace in memory, while the
//! resumable harness consumes events one at a time and records, at every
//! checkpoint, *where in the file* it stands. [`CursorPos`] captures that
//! position (byte offset, line number, events consumed) and
//! [`TraceCursor::open_at`] seeks straight back to it, so resuming an
//! interrupted run re-reads none of the already-processed prefix.

use crate::io::{parse_event_line, ParseTraceError};
use crate::record::TraceEvent;
use cap_snapshot::{Restorable, SectionReader, SectionWriter, Snapshot, SnapshotError};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Seek, SeekFrom};
use std::path::Path;

/// A position in a trace stream, exact to the byte.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CursorPos {
    /// Bytes consumed from the stream.
    pub byte_offset: u64,
    /// 1-based number of the last line consumed (0 before the first).
    pub line: u64,
    /// Events yielded so far (comments and blank lines don't count).
    pub events: u64,
}

impl Snapshot for CursorPos {
    fn write_state(&self, w: &mut SectionWriter) {
        w.put_u64(self.byte_offset);
        w.put_u64(self.line);
        w.put_u64(self.events);
    }
}

impl Restorable for CursorPos {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            byte_offset: r.take_u64("cursor byte offset")?,
            line: r.take_u64("cursor line")?,
            events: r.take_u64("cursor events")?,
        })
    }
}

/// A pull-based trace reader that tracks its own [`CursorPos`].
#[derive(Debug)]
pub struct TraceCursor<R> {
    reader: R,
    pos: CursorPos,
    /// Byte offset of the start of the last line consumed.
    line_start: u64,
    raw: Vec<u8>,
}

impl<R: BufRead> TraceCursor<R> {
    /// Wraps a reader positioned at the start of a trace stream.
    pub fn new(reader: R) -> Self {
        Self::with_position(reader, CursorPos::default())
    }

    /// Wraps a reader that is *already positioned* at `pos.byte_offset`
    /// (e.g. after an explicit seek). The cursor trusts the caller: it
    /// resumes line and event numbering from `pos` without re-reading.
    pub fn with_position(reader: R, pos: CursorPos) -> Self {
        Self {
            reader,
            pos,
            line_start: pos.byte_offset,
            raw: Vec::new(),
        }
    }

    /// The current position — safe to persist and later feed to
    /// [`TraceCursor::open_at`].
    #[must_use]
    pub fn position(&self) -> CursorPos {
        self.pos
    }

    /// Byte offset of the start of the last line consumed: the line a
    /// [`ParseTraceError::Malformed`] from [`TraceCursor::next_event`]
    /// names.
    pub(crate) fn line_start(&self) -> u64 {
        self.line_start
    }

    /// Pulls the next event, skipping comments and blank lines. Returns
    /// `Ok(None)` at end of stream.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError::Io`] on I/O failure and
    /// [`ParseTraceError::Malformed`] on a malformed line (including
    /// invalid UTF-8). The line is consumed either way, so the next call
    /// reads on from the line after it. This never panics whatever the
    /// input bytes.
    pub fn next_event(&mut self) -> Result<Option<TraceEvent>, ParseTraceError> {
        loop {
            self.raw.clear();
            if self.reader.read_until(b'\n', &mut self.raw)? == 0 {
                return Ok(None);
            }
            self.line_start = self.pos.byte_offset;
            self.pos.byte_offset += self.raw.len() as u64;
            self.pos.line += 1;
            let line_no = self.pos.line as usize;
            let Ok(line) = std::str::from_utf8(&self.raw) else {
                return Err(ParseTraceError::Malformed {
                    line: line_no,
                    reason: "invalid UTF-8".to_owned(),
                });
            };
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let event = parse_event_line(trimmed, line_no)?;
            self.pos.events += 1;
            return Ok(Some(event));
        }
    }
}

impl TraceCursor<BufReader<File>> {
    /// Opens a trace file for streaming from the beginning.
    ///
    /// # Errors
    ///
    /// Propagates the `File::open` failure.
    pub fn open(path: &Path) -> io::Result<Self> {
        Ok(Self::new(BufReader::new(File::open(path)?)))
    }

    /// Opens a trace file and seeks directly to a previously recorded
    /// position — the resume path of the checkpointed harness.
    ///
    /// # Errors
    ///
    /// Propagates open/seek failures.
    pub fn open_at(path: &Path, pos: CursorPos) -> io::Result<Self> {
        let mut f = File::open(path)?;
        f.seek(SeekFrom::Start(pos.byte_offset))?;
        Ok(Self::with_position(BufReader::new(f), pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{read_trace, write_trace};
    use crate::suites::catalog;

    fn trace_bytes() -> Vec<u8> {
        let trace = catalog()[0].generate(1_000);
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).expect("write to Vec cannot fail");
        buf
    }

    #[test]
    fn cursor_yields_exactly_the_batch_reader_events() {
        let bytes = trace_bytes();
        let batch = read_trace(bytes.as_slice()).expect("parses");
        let mut cursor = TraceCursor::new(bytes.as_slice());
        let mut streamed = Vec::new();
        while let Some(e) = cursor.next_event().expect("clean input") {
            streamed.push(e);
        }
        assert_eq!(streamed.len(), batch.len());
        assert!(streamed.iter().eq(batch.iter()));
        assert_eq!(cursor.position().events, batch.len() as u64);
        assert_eq!(cursor.position().byte_offset, bytes.len() as u64);
    }

    #[test]
    fn resuming_from_a_mid_stream_position_continues_exactly() {
        let bytes = trace_bytes();
        let mut full = TraceCursor::new(bytes.as_slice());
        let mut all = Vec::new();
        while let Some(e) = full.next_event().expect("clean input") {
            all.push(e);
        }

        let mut first = TraceCursor::new(bytes.as_slice());
        for _ in 0..300 {
            first
                .next_event()
                .expect("clean input")
                .expect("has events");
        }
        let pos = first.position();
        assert_eq!(pos.events, 300);

        // Simulate open_at: slice from the byte offset.
        let mut resumed = TraceCursor::with_position(&bytes[pos.byte_offset as usize..], pos);
        let mut tail = Vec::new();
        while let Some(e) = resumed.next_event().expect("clean input") {
            tail.push(e);
        }
        assert_eq!(tail.as_slice(), &all[300..]);
        assert_eq!(resumed.position().byte_offset, bytes.len() as u64);
    }

    #[test]
    fn malformed_line_reports_resumed_line_number() {
        let text = "L 400 1008 8 4 0 - -\nX broken\n";
        let mut cursor = TraceCursor::new(text.as_bytes());
        cursor.next_event().expect("first parses");
        let err = cursor.next_event().expect_err("second must fail");
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn position_roundtrips_through_snapshot() {
        let pos = CursorPos {
            byte_offset: 12345,
            line: 678,
            events: 432,
        };
        let restored = CursorPos::from_payload(&pos.to_payload(), "cursor").unwrap();
        assert_eq!(restored, pos);
    }

    #[test]
    fn open_at_seeks_files() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cap-cursor-test-{}.trace", std::process::id()));
        std::fs::write(&path, trace_bytes()).expect("write temp trace");

        let mut head = TraceCursor::open(&path).expect("opens");
        for _ in 0..100 {
            head.next_event().expect("clean").expect("has events");
        }
        let pos = head.position();
        let next_direct = head.next_event().expect("clean").expect("has events");

        let mut resumed = TraceCursor::open_at(&path, pos).expect("reopens");
        let next_resumed = resumed.next_event().expect("clean").expect("has events");
        assert_eq!(next_resumed, next_direct);

        std::fs::remove_file(&path).ok();
    }
}
