//! The replicated command log: framed, checksummed, append-only records
//! of every state-changing verb a primary applies.
//!
//! The wire trace is already a deterministic, replayable log — replies
//! are pure functions of engine state and command order — so replication
//! reduces to shipping the *mutating* suffix of that trace: a
//! [`LogRecord`] per `INSERT`/`DELETE`, one per atomic `BATCH`, and one
//! per compaction (with its id-translation table, so a replica can prove
//! it remapped fact ids identically).  Each record carries the
//! replication epoch and its logical offset; on disk each record payload
//! travels in a `[len ‖ crc32 ‖ payload]` frame so a torn tail from a
//! killed process is detected and discarded, never replayed.
//!
//! Replay (the server's `apply_record`) swallows per-record engine errors: a failed
//! delete or duplicate insert left the primary's engine untouched, so
//! reproducing the same error leaves the replica bit-for-bit identical
//! too.  Compaction replay cross-checks the translation table and fails
//! with [`ReplogError::Diverged`] if the replica's remap differs — the
//! invariant the follower-divergence tests lean on.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

use cdr_repairdb::snapshot::{
    crc32, decode_fact, encode_fact, write_u32, ByteReader, Snapshot, SnapshotError,
};
use cdr_repairdb::{FactId, Mutation, Schema};

use crate::engine::RepairEngine;
use crate::wire::frame::{read_varint, write_varint, FrameError};

/// File name of the snapshot inside a `--log-dir`.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

/// File name of the command log inside a `--log-dir`.
pub const LOG_FILE: &str = "log.bin";

/// A replication failure.
#[derive(Debug)]
pub enum ReplogError {
    /// Bytes that should decode did not.
    Codec(SnapshotError),
    /// The log directory could not be read or written.
    Io(io::Error),
    /// A replica's replay produced different state than the record
    /// promises — the invariant violation replication exists to rule out.
    Diverged(String),
}

impl fmt::Display for ReplogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplogError::Codec(e) => write!(f, "log codec failure: {e}"),
            ReplogError::Io(e) => write!(f, "log i/o failure: {e}"),
            ReplogError::Diverged(why) => write!(f, "replica diverged: {why}"),
        }
    }
}

impl std::error::Error for ReplogError {}

impl From<SnapshotError> for ReplogError {
    fn from(e: SnapshotError) -> Self {
        ReplogError::Codec(e)
    }
}

impl From<io::Error> for ReplogError {
    fn from(e: io::Error) -> Self {
        ReplogError::Io(e)
    }
}

/// The state-changing operation a [`LogRecord`] carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogOp {
    /// One `INSERT` or `DELETE`.
    Mutation(Mutation),
    /// One atomic `BATCH` of mutations (all-or-nothing on replay, exactly
    /// as [`RepairEngine::apply_batch`] applied it).
    Batch(Vec<Mutation>),
    /// One compaction, with enough of the id-translation table to prove a
    /// replica remapped identically: the size of the pre-compaction id
    /// space and the surviving old ids in new-id order.
    Compact {
        /// Fact ids assigned before the compaction ran.
        fact_ids_before: u32,
        /// Old ids of the surviving facts, in their (dense) new-id order.
        survivors: Vec<u32>,
    },
}

/// One replicated command: an epoch/offset header plus the operation.
///
/// Offsets are logical sequence numbers — record `k` is the `k`-th
/// state-changing command since the empty log — not byte positions, so
/// snapshot truncation does not renumber anything.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogRecord {
    /// The replication epoch the record was written in (bumped by
    /// `PROMOTE`).
    pub epoch: u64,
    /// The record's logical sequence number.
    pub offset: u64,
    /// The operation.
    pub op: LogOp,
}

const KIND_INSERT: u8 = 0;
const KIND_DELETE: u8 = 1;
const KIND_BATCH: u8 = 2;
const KIND_COMPACT: u8 = 3;

/// The record codec's varint reads, in the snapshot module's error
/// domain.
fn varint(reader: &mut ByteReader<'_>) -> Result<u64, SnapshotError> {
    reader.varint()
}

fn encode_mutation(out: &mut Vec<u8>, mutation: &Mutation) {
    match mutation {
        Mutation::Insert(fact) => {
            out.push(KIND_INSERT);
            encode_fact(out, fact);
        }
        Mutation::Delete(id) => {
            out.push(KIND_DELETE);
            write_varint(out, id.index() as u64);
        }
    }
}

fn decode_mutation(
    reader: &mut ByteReader<'_>,
    schema: &Schema,
) -> Result<Mutation, SnapshotError> {
    match reader.u8()? {
        KIND_INSERT => Ok(Mutation::Insert(decode_fact(reader, schema)?)),
        KIND_DELETE => Ok(Mutation::Delete(FactId::new(varint(reader)? as usize))),
        kind => Err(SnapshotError::Corrupt(format!(
            "unknown mutation kind {kind}"
        ))),
    }
}

impl LogRecord {
    /// Encodes the record payload (varint epoch and offset, kind byte,
    /// body).  The header varints matter: epoch and offset are tiny in
    /// practice, and a fixed-width header would double the wire size of
    /// a delete record.  Framing — length prefix and checksum — is
    /// layered on by [`frame`].
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        write_varint(&mut out, self.epoch);
        write_varint(&mut out, self.offset);
        match &self.op {
            LogOp::Mutation(m) => encode_mutation(&mut out, m),
            LogOp::Batch(mutations) => {
                out.push(KIND_BATCH);
                write_varint(&mut out, mutations.len() as u64);
                for m in mutations {
                    encode_mutation(&mut out, m);
                }
            }
            LogOp::Compact {
                fact_ids_before,
                survivors,
            } => {
                out.push(KIND_COMPACT);
                write_varint(&mut out, u64::from(*fact_ids_before));
                write_varint(&mut out, survivors.len() as u64);
                for &old in survivors {
                    write_varint(&mut out, u64::from(old));
                }
            }
        }
        out
    }

    /// Decodes a record payload against the served schema.
    pub fn decode(bytes: &[u8], schema: &Schema) -> Result<LogRecord, SnapshotError> {
        let mut reader = ByteReader::new(bytes);
        let epoch = varint(&mut reader)?;
        let offset = varint(&mut reader)?;
        let u32_varint = |reader: &mut ByteReader<'_>| {
            u32::try_from(varint(reader)?)
                .map_err(|_| SnapshotError::Corrupt("varint overflows 32 bits".to_string()))
        };
        let op = match reader.u8()? {
            KIND_INSERT => LogOp::Mutation(Mutation::Insert(decode_fact(&mut reader, schema)?)),
            KIND_DELETE => {
                LogOp::Mutation(Mutation::Delete(FactId::new(varint(&mut reader)? as usize)))
            }
            KIND_BATCH => {
                let count = varint(&mut reader)? as usize;
                let mut mutations = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    mutations.push(decode_mutation(&mut reader, schema)?);
                }
                LogOp::Batch(mutations)
            }
            KIND_COMPACT => {
                let fact_ids_before = u32_varint(&mut reader)?;
                let count = varint(&mut reader)? as usize;
                let mut survivors = Vec::with_capacity(count.min(65536));
                for _ in 0..count {
                    survivors.push(u32_varint(&mut reader)?);
                }
                LogOp::Compact {
                    fact_ids_before,
                    survivors,
                }
            }
            kind => {
                return Err(SnapshotError::Corrupt(format!(
                    "unknown record kind {kind}"
                )));
            }
        };
        if !reader.is_empty() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after record",
                reader.remaining()
            )));
        }
        Ok(LogRecord { epoch, offset, op })
    }
}

/// Wraps a record payload in its on-disk/wire frame:
/// `[len: u32][crc32(payload): u32][payload]`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    write_u32(&mut out, payload.len() as u32);
    write_u32(&mut out, crc32(payload));
    out.extend_from_slice(payload);
    out
}

/// Splits a byte stream into frame payloads, stopping at the first
/// truncated or checksum-failing frame (the torn tail a `SIGKILL` mid
/// write leaves behind).  Returns the payloads and the byte length of the
/// valid prefix.
pub fn split_frames(bytes: &[u8]) -> (Vec<Vec<u8>>, usize) {
    let mut payloads = Vec::new();
    let mut pos = 0;
    loop {
        if bytes.len() - pos < 8 {
            return (payloads, pos);
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if bytes.len() - pos - 8 < len {
            return (payloads, pos);
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            return (payloads, pos);
        }
        payloads.push(payload.to_vec());
        pos += 8 + len;
    }
}

/// Codec version byte every binary record batch opens with.
pub const BATCH_VERSION: u8 = 1;

/// Encodes a run of record payloads as one binary batch frame:
/// `[crc32(payload) ‖ payload]` where the payload is
///
/// ```text
/// version  u8                         — BATCH_VERSION (1)
/// count    varint
/// records  count × (len varint ‖ record payload bytes)
/// ```
///
/// The frame's byte length travels in the `OK REPL BATCH <len> …` header
/// line (exactly like `BULK <len>`), so no outer length prefix is needed.
/// One checksum covers the whole batch.
pub fn encode_record_batch(payloads: &[Vec<u8>]) -> Vec<u8> {
    let total: usize = payloads.iter().map(|p| p.len() + 2).sum();
    let mut payload = Vec::with_capacity(8 + total);
    payload.push(BATCH_VERSION);
    write_varint(&mut payload, payloads.len() as u64);
    for record in payloads {
        write_varint(&mut payload, record.len() as u64);
        payload.extend_from_slice(record);
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    write_u32(&mut frame, crc32(&payload));
    frame.extend_from_slice(&payload);
    frame
}

/// Decodes one binary batch frame back into record payloads.
///
/// Strict all-or-nothing, mirroring `BULK` semantics: a checksum
/// mismatch, an unknown version, a truncated record, a count or length
/// lie, or trailing bytes reject the *whole* batch — the tailer applies
/// zero records and reports one `ERR REPL FRAME <reason>`.  Capacity
/// reservations are bounded by the bytes actually present, so a hostile
/// `count` cannot reserve memory it never sent.
pub fn decode_record_batch(frame: &[u8]) -> Result<Vec<Vec<u8>>, FrameError> {
    if frame.len() < 4 {
        return Err(FrameError::Truncated);
    }
    let expected = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes"));
    let payload = &frame[4..];
    let actual = crc32(payload);
    if actual != expected {
        return Err(FrameError::Checksum { expected, actual });
    }
    let mut reader = ByteReader::new(payload);
    let version = reader.u8()?;
    if version != BATCH_VERSION {
        return Err(FrameError::Corrupt(format!(
            "unknown batch version {version} (this build speaks {BATCH_VERSION})"
        )));
    }
    let count = read_varint(&mut reader)? as usize;
    // Each record costs at least its length byte.
    let mut records: Vec<Vec<u8>> = Vec::with_capacity(count.min(reader.remaining() + 1));
    for _ in 0..count {
        let len = read_varint(&mut reader)? as usize;
        records.push(reader.bytes(len)?.to_vec());
    }
    if !reader.is_empty() {
        return Err(FrameError::Corrupt(format!(
            "{} trailing bytes after the last record",
            reader.remaining()
        )));
    }
    Ok(records)
}

/// Parses the 8-byte binary snapshot-chunk header
/// `[len: u32le ‖ crc32: u32le]` — the same frame layout as the on-disk
/// log ([`frame`]), streamed raw behind the `OK REPL SNAPSHOT` header.
pub fn chunk_header(bytes: &[u8]) -> Result<(usize, u32), FrameError> {
    if bytes.len() < 8 {
        return Err(FrameError::Truncated);
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    Ok((len, crc))
}

/// Verifies a binary snapshot-chunk body against the CRC its header
/// promised.
pub fn verify_chunk(crc: u32, payload: &[u8]) -> Result<(), FrameError> {
    let actual = crc32(payload);
    if actual != crc {
        return Err(FrameError::Checksum {
            expected: crc,
            actual,
        });
    }
    Ok(())
}

/// An append handle on the on-disk command log.
///
/// Writes are flushed per record but not fsynced — the durability story
/// is the replica, not the disk; the frame checksums make a torn tail
/// detectable, which is all recovery needs.
pub struct LogWriter {
    file: File,
}

impl LogWriter {
    /// Opens (creating if absent) the log file in append mode.
    pub fn open(path: &Path) -> io::Result<LogWriter> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(LogWriter { file })
    }

    /// Appends one framed record payload and flushes.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        self.file.write_all(&frame(payload))?;
        self.file.flush()
    }

    /// Empties the log — the truncation step after a snapshot is written.
    pub fn truncate(&mut self) -> io::Result<()> {
        // The handle is O_APPEND, so every later write lands at the (new)
        // end regardless of any cursor — `set_len(0)` alone is complete.
        self.file.set_len(0)
    }
}

/// Reads every valid framed payload from a log file; an absent file is an
/// empty log, and a torn tail is silently discarded.
pub fn read_log_payloads(path: &Path) -> io::Result<Vec<Vec<u8>>> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut file) => {
            file.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    }
    Ok(split_frames(&bytes).0)
}

/// Opens the log for appending after recovery: reads every valid frame,
/// truncates the file back to the valid prefix (so a torn tail is never
/// appended after), and returns the writer plus the recovered payloads.
pub fn open_log(path: &Path) -> io::Result<(LogWriter, Vec<Vec<u8>>)> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut file) => {
            file.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let (payloads, valid) = split_frames(&bytes);
    if valid < bytes.len() {
        OpenOptions::new()
            .write(true)
            .open(path)?
            .set_len(valid as u64)?;
    }
    Ok((LogWriter::open(path)?, payloads))
}

/// Writes the snapshot file atomically (temp file + rename), so a crash
/// mid-write can never leave a half-snapshot where recovery looks.
pub fn write_snapshot_file(dir: &Path, snapshot: &Snapshot) -> Result<(), ReplogError> {
    let bytes = snapshot.encode()?;
    let tmp = dir.join("snapshot.tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(&bytes)?;
    file.flush()?;
    drop(file);
    std::fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
    Ok(())
}

/// Loads the snapshot from a log directory, or `None` when no snapshot
/// has been written yet.  A present-but-corrupt snapshot is an error —
/// recovery must not silently boot empty.
pub fn read_snapshot_file(dir: &Path) -> Result<Option<Snapshot>, ReplogError> {
    let mut bytes = Vec::new();
    match File::open(dir.join(SNAPSHOT_FILE)) {
        Ok(mut file) => {
            file.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    Ok(Some(Snapshot::decode(&bytes)?))
}

/// The survivor list a compaction report proves: old ids of the live
/// facts, in their new-id order.
pub fn survivors_of(report: &cdr_repairdb::CompactionReport) -> Vec<u32> {
    report
        .iter()
        .map(|(old, _new)| old.index() as u32)
        .collect()
}

/// The `key=value` token of a `REPL HELLO` announcement carrying an
/// auto-compaction threshold (`compact=16`) or its absence
/// (`compact=off`).  Both sides of the handshake render the token through
/// this one function so the mismatch check compares like with like.
pub fn compact_token(threshold: Option<u64>) -> String {
    match threshold {
        Some(t) => format!("compact={t}"),
        None => "compact=off".to_string(),
    }
}

/// Parses a `compact=` token back into a threshold.  Returns `None` for a
/// malformed value (distinct from `Some(None)`, which is `compact=off`).
pub fn parse_compact_token(value: &str) -> Option<Option<u64>> {
    if value == "off" {
        return Some(None);
    }
    value.parse::<u64>().ok().map(Some)
}

/// Renders the announcing `REPL HELLO` a follower (or supervisor) sends:
/// its replication epoch, and — when `announce_compact` — the
/// auto-compaction threshold it would apply if promoted, so a mismatch
/// with the upstream is rejected at connect time instead of surfacing as
/// post-promotion divergence.
pub fn hello_request(epoch: u64, compact: Option<Option<u64>>) -> String {
    match compact {
        Some(threshold) => format!("REPL HELLO epoch={epoch} {}", compact_token(threshold)),
        None => format!("REPL HELLO epoch={epoch}"),
    }
}

/// Extracts a `key=value` field from a reply or announcement line
/// (`field(line, "epoch=")`); the shared parser for the HELLO handshake
/// and the `STATS` replication tail.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|token| token.strip_prefix(key))
}

/// [`field`], parsed as a `u64`.
pub fn field_u64(line: &str, key: &str) -> Option<u64> {
    field(line, key).and_then(|value| value.parse().ok())
}

/// Replays one record into an engine.
///
/// Mutation errors are swallowed: the primary's engine was left untouched
/// by the failing command, so reproducing the failure reproduces the
/// state.  A compaction record is cross-checked against the replica's own
/// translation table; any mismatch is [`ReplogError::Diverged`].
pub fn apply_record(engine: &mut RepairEngine, record: &LogRecord) -> Result<(), ReplogError> {
    match &record.op {
        LogOp::Mutation(m) => {
            let _ = engine.apply(m.clone());
            Ok(())
        }
        LogOp::Batch(mutations) => {
            let _ = engine.apply_batch(mutations.iter().cloned());
            Ok(())
        }
        LogOp::Compact {
            fact_ids_before,
            survivors,
        } => {
            let before = engine.database().fact_ids_assigned();
            if before != *fact_ids_before {
                return Err(ReplogError::Diverged(format!(
                    "compact at offset {} expected {} assigned ids, replica has {}",
                    record.offset, fact_ids_before, before
                )));
            }
            let outcome = engine.compact();
            let ours = survivors_of(&outcome.report);
            if &ours != survivors {
                return Err(ReplogError::Diverged(format!(
                    "compact at offset {} remapped {} survivors differently",
                    record.offset,
                    ours.len()
                )));
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdr_repairdb::{Database, KeySet};

    fn schema() -> Schema {
        let mut schema = Schema::new();
        schema.add_relation("Event", 2).unwrap();
        schema
    }

    fn records() -> Vec<LogRecord> {
        let schema = schema();
        let db = Database::new(schema.clone());
        let fact = |text: &str| db.parse_fact(text).unwrap();
        vec![
            LogRecord {
                epoch: 0,
                offset: 0,
                op: LogOp::Mutation(Mutation::Insert(fact("Event(1, 'a')"))),
            },
            LogRecord {
                epoch: 0,
                offset: 1,
                op: LogOp::Mutation(Mutation::Delete(FactId::new(7))),
            },
            LogRecord {
                epoch: 1,
                offset: 2,
                op: LogOp::Batch(vec![
                    Mutation::Insert(fact("Event(2, 'b')")),
                    Mutation::Delete(FactId::new(0)),
                ]),
            },
            LogRecord {
                epoch: 1,
                offset: 3,
                op: LogOp::Compact {
                    fact_ids_before: 9,
                    survivors: vec![1, 3, 8],
                },
            },
        ]
    }

    #[test]
    fn records_round_trip_through_the_codec() {
        let schema = schema();
        for record in records() {
            let bytes = record.encode();
            assert_eq!(LogRecord::decode(&bytes, &schema).unwrap(), record);
        }
    }

    #[test]
    fn framing_survives_a_torn_tail_and_rejects_corruption() {
        let records = records();
        let mut stream = Vec::new();
        let mut payloads = Vec::new();
        for record in &records {
            let payload = record.encode();
            stream.extend_from_slice(&frame(&payload));
            payloads.push(payload);
        }
        let full_len = stream.len();
        // Clean split.
        let (split, valid) = split_frames(&stream);
        assert_eq!(split, payloads);
        assert_eq!(valid, full_len);
        // Torn tail: drop the last 3 bytes — final frame is discarded.
        let torn = &stream[..stream.len() - 3];
        let (split, valid) = split_frames(torn);
        assert_eq!(split, payloads[..payloads.len() - 1]);
        assert!(valid <= torn.len());
        // A flipped byte in a payload stops the scan at that frame.
        let mut corrupt = stream.clone();
        corrupt[10] ^= 0xFF;
        let (split, _) = split_frames(&corrupt);
        assert!(split.len() < payloads.len());
    }

    #[test]
    fn record_batches_round_trip_and_reject_defects() {
        let payloads: Vec<Vec<u8>> = records().iter().map(LogRecord::encode).collect();
        let frame = encode_record_batch(&payloads);
        assert_eq!(decode_record_batch(&frame).unwrap(), payloads);
        // The empty batch is valid (an idle FETCH answers n=0).
        assert_eq!(
            decode_record_batch(&encode_record_batch(&[])).unwrap(),
            Vec::<Vec<u8>>::new()
        );
        // A flipped payload byte fails the checksum …
        let mut bad = frame.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(matches!(
            decode_record_batch(&bad),
            Err(FrameError::Checksum { .. })
        ));
        // … as does a flipped checksum byte.
        let mut bad = frame.clone();
        bad[0] ^= 0x01;
        assert!(matches!(
            decode_record_batch(&bad),
            Err(FrameError::Checksum { .. })
        ));
        // A truncated frame is refused outright.
        assert_eq!(decode_record_batch(&frame[..2]), Err(FrameError::Truncated));
        // An unknown version is corrupt, not silently reinterpreted.
        let mut payload = vec![BATCH_VERSION + 1];
        write_varint(&mut payload, 0);
        let mut reframed = Vec::new();
        write_u32(&mut reframed, crc32(&payload));
        reframed.extend_from_slice(&payload);
        assert!(matches!(
            decode_record_batch(&reframed),
            Err(FrameError::Corrupt(_))
        ));
        // Trailing bytes after the last record are corrupt.
        let mut payload = frame[4..].to_vec();
        payload.push(0xAB);
        let mut reframed = Vec::new();
        write_u32(&mut reframed, crc32(&payload));
        reframed.extend_from_slice(&payload);
        match decode_record_batch(&reframed) {
            Err(FrameError::Corrupt(why)) => assert!(why.contains("trailing"), "{why}"),
            other => panic!("expected a trailing-bytes error, got {other:?}"),
        }
    }

    #[test]
    fn batch_count_lies_never_allocate_for_promised_records() {
        // A batch promising 2^31 records over no bytes at all must fail
        // with Truncated, without reserving for the lie.
        let mut payload = vec![BATCH_VERSION];
        write_varint(&mut payload, 0x8000_0000);
        let mut frame = Vec::new();
        write_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        assert_eq!(decode_record_batch(&frame), Err(FrameError::Truncated));
        // Same for a record-length lie inside an honest count.
        let mut payload = vec![BATCH_VERSION];
        write_varint(&mut payload, 1);
        write_varint(&mut payload, 0x8000_0000);
        let mut frame = Vec::new();
        write_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        assert_eq!(decode_record_batch(&frame), Err(FrameError::Truncated));
    }

    #[test]
    fn chunk_headers_parse_and_verify() {
        let payload = b"snapshot chunk bytes";
        let framed = frame(payload);
        let (len, crc) = chunk_header(&framed).unwrap();
        assert_eq!(len, payload.len());
        verify_chunk(crc, payload).unwrap();
        assert!(matches!(
            verify_chunk(crc, b"different bytes"),
            Err(FrameError::Checksum { .. })
        ));
        assert_eq!(chunk_header(&framed[..7]), Err(FrameError::Truncated));
    }

    #[test]
    fn open_log_trims_a_torn_tail_before_appending() {
        let dir = std::env::temp_dir().join(format!("cdr-replog-trim-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(LOG_FILE);
        let _ = std::fs::remove_file(&path);
        let payloads: Vec<Vec<u8>> = records().iter().map(LogRecord::encode).collect();
        {
            let mut writer = LogWriter::open(&path).unwrap();
            for p in &payloads {
                writer.append(p).unwrap();
            }
        }
        // Simulate a SIGKILL mid-append: half a frame at the tail.
        let mut bytes = std::fs::read(&path).unwrap();
        let torn: Vec<u8> = frame(&payloads[0])[..5].to_vec();
        bytes.extend_from_slice(&torn);
        std::fs::write(&path, &bytes).unwrap();
        let (mut writer, recovered) = open_log(&path).unwrap();
        assert_eq!(recovered, payloads);
        // Appending after recovery lands on a clean frame boundary.
        writer.append(&payloads[1]).unwrap();
        let mut expected = payloads.clone();
        expected.push(payloads[1].clone());
        assert_eq!(read_log_payloads(&path).unwrap(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn log_writer_appends_truncates_and_tolerates_absence() {
        let dir = std::env::temp_dir().join(format!("cdr-replog-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(LOG_FILE);
        let _ = std::fs::remove_file(&path);
        assert_eq!(read_log_payloads(&path).unwrap(), Vec::<Vec<u8>>::new());
        let mut writer = LogWriter::open(&path).unwrap();
        let payloads: Vec<Vec<u8>> = records().iter().map(LogRecord::encode).collect();
        for p in &payloads {
            writer.append(p).unwrap();
        }
        assert_eq!(read_log_payloads(&path).unwrap(), payloads);
        writer.truncate().unwrap();
        assert_eq!(read_log_payloads(&path).unwrap(), Vec::<Vec<u8>>::new());
        writer.append(&payloads[0]).unwrap();
        assert_eq!(read_log_payloads(&path).unwrap(), payloads[..1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_reproduces_mutations_errors_and_compaction() {
        let schema = schema();
        let keys = KeySet::builder(&schema).key("Event", 1).unwrap().build();
        let mut db = Database::new(schema);
        db.insert_parsed("Event(1, 'a')").unwrap();
        db.insert_parsed("Event(1, 'b')").unwrap();
        db.insert_parsed("Event(2, 'c')").unwrap();
        let mut primary = RepairEngine::new(db.clone(), keys.clone());
        let mut replica = RepairEngine::new(db, keys);

        // Drive the primary; log exactly what a replicated backend would.
        let mut log: Vec<LogRecord> = Vec::new();
        let push = |op: LogOp, offset: u64| LogRecord {
            epoch: 0,
            offset,
            op,
        };
        let fact = primary.database().parse_fact("Event(3, 'd')").unwrap();
        log.push(push(LogOp::Mutation(Mutation::Insert(fact.clone())), 0));
        primary.apply(Mutation::Insert(fact)).unwrap();
        // A failing delete: logged, applied, error swallowed identically.
        log.push(push(LogOp::Mutation(Mutation::Delete(FactId::new(40))), 1));
        assert!(primary.apply(Mutation::Delete(FactId::new(40))).is_err());
        log.push(push(LogOp::Mutation(Mutation::Delete(FactId::new(1))), 2));
        primary.apply(Mutation::Delete(FactId::new(1))).unwrap();
        let outcome = primary.compact();
        log.push(push(
            LogOp::Compact {
                fact_ids_before: 4,
                survivors: survivors_of(&outcome.report),
            },
            3,
        ));

        for record in &log {
            apply_record(&mut replica, record).unwrap();
        }
        assert_eq!(replica.database(), primary.database());
        assert_eq!(replica.generation(), primary.generation());
        assert_eq!(replica.total_repairs(), primary.total_repairs());
        assert_eq!(replica.rel_generations(), primary.rel_generations());

        // A compact record that promises different survivors must be
        // refused, not silently absorbed.
        let bogus = LogRecord {
            epoch: 0,
            offset: 4,
            op: LogOp::Compact {
                fact_ids_before: replica.database().fact_ids_assigned(),
                survivors: vec![999],
            },
        };
        assert!(matches!(
            apply_record(&mut replica, &bogus),
            Err(ReplogError::Diverged(_))
        ));
    }

    #[test]
    fn hello_codec_round_trips_epoch_and_compact_announcements() {
        assert_eq!(
            hello_request(3, Some(Some(16))),
            "REPL HELLO epoch=3 compact=16"
        );
        assert_eq!(
            hello_request(0, Some(None)),
            "REPL HELLO epoch=0 compact=off"
        );
        assert_eq!(hello_request(7, None), "REPL HELLO epoch=7");

        let line = hello_request(5, Some(Some(32)));
        assert_eq!(field_u64(&line, "epoch="), Some(5));
        assert_eq!(field(&line, "compact="), Some("32"));
        assert_eq!(parse_compact_token("32"), Some(Some(32)));
        assert_eq!(parse_compact_token("off"), Some(None));
        assert_eq!(parse_compact_token("soon"), None);
        assert_eq!(compact_token(None), "compact=off");
        assert_eq!(compact_token(Some(8)), "compact=8");
        assert_eq!(field_u64("OK REPL HELLO epoch=2 end=9", "end="), Some(9));
        assert_eq!(field_u64("OK REPL HELLO", "epoch="), None);
    }
}
