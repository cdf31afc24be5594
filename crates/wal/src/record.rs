//! On-disk record framing: length-prefixed, CRC-checksummed binary
//! records sharing the v6 wire event codec.
//!
//! Every record in a segment is framed as
//!
//! ```text
//! [u32 LE payload length][u32 LE CRC-32 of payload][payload bytes]
//! ```
//!
//! In a `SEERWAL2` segment the payload is one kind byte and a body:
//!
//! ```text
//! kind 0 (Interns) = base: varint  count: varint  count × (len: varint, UTF-8 bytes)
//! kind 1 (Batch)   = generation: varint  events body
//! ```
//!
//! where the events body is exactly [`seer_trace::wire::encode_events_body`]'s,
//! the one event encoding the wire and the log share. `SEERWAL1`
//! segments, written before the binary format, carry a JSON payload in
//! the same frame; `decode_v1` still reads them, nothing writes them.
//!
//! The checksum covers only the payload; a flipped bit anywhere in the
//! frame fails either the length sanity check, the CRC, or the payload
//! parse, and decoding classifies the damage as *incomplete* (a torn
//! tail — more bytes might have made it whole) or *corrupt* (no suffix
//! could repair it). Recovery truncates at the first record that is
//! either, so a crash mid-`write` never poisons earlier records.

use seer_trace::wire::{decode_events_body, encode_events_body, put_varint, Cursor};
use seer_trace::{TraceEvent, WireError};
use serde::Deserialize;

/// Upper bound on a single record's payload. A length prefix above this
/// is treated as corruption rather than an allocation request — a torn
/// header bit-flipped into a huge length must not wedge recovery.
pub const MAX_RECORD_BYTES: usize = 64 * 1024 * 1024;

/// Bytes of framing overhead per record (length + checksum).
pub const RECORD_HEADER_BYTES: usize = 8;

/// Payload kind byte of an [`WalRecord::Interns`] record.
const KIND_INTERNS: u8 = 0;
/// Payload kind byte of a [`WalRecord::Batch`] record.
const KIND_BATCH: u8 = 1;

/// One logical entry in the log.
///
/// The two variants mirror the daemon's wire protocol split between
/// intern declarations and event batches: `Interns` extends the global
/// string table with dense ids starting at `base`, and `Batch` carries
/// events whose raw-path ids refer to previously declared strings.
/// `generation` is the engine's total applied-event count *after* the
/// batch — the same generation clusterings and snapshots are tagged
/// with, which is what makes point-in-time restore line up with live
/// query answers.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub enum WalRecord {
    /// Declares global string ids `base..base + paths.len()`, in order.
    ///
    /// The first record of every segment is an `Interns { base: 0, .. }`
    /// carrying the *entire* table at segment-creation time, which makes
    /// each segment self-contained: compaction can drop any prefix of
    /// sealed segments without losing id→path mappings.
    Interns {
        /// First id being declared.
        base: u32,
        /// The strings, dense from `base`.
        paths: Vec<String>,
    },
    /// One applied event batch, raw-path ids in the global space.
    Batch {
        /// Total events applied *after* this batch.
        generation: u64,
        /// The events, in application order.
        events: Vec<TraceEvent>,
    },
}

impl WalRecord {
    /// The batch generation, if this is a batch record.
    #[must_use]
    pub fn generation(&self) -> Option<u64> {
        match self {
            WalRecord::Batch { generation, .. } => Some(*generation),
            WalRecord::Interns { .. } => None,
        }
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    const fn table() -> [u32; 256] {
        let mut t = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    }
    static TABLE: [u32; 256] = table();
    let mut c = 0xFFFF_FFFF_u32;
    for &b in data {
        c = TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Appends one framed record whose payload `payload` writes, then
/// backpatches the length and checksum.
fn framed(buf: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = buf.len();
    buf.extend_from_slice(&[0; RECORD_HEADER_BYTES]);
    payload(buf);
    let body = &buf[start + RECORD_HEADER_BYTES..];
    let len = u32::try_from(body.len()).expect("record < 4 GiB");
    let crc = crc32(body);
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Appends a framed `Interns { base, paths }` record to `buf`.
pub(crate) fn encode_interns<'a>(
    buf: &mut Vec<u8>,
    base: u32,
    paths: impl ExactSizeIterator<Item = &'a str>,
) {
    framed(buf, |buf| {
        buf.push(KIND_INTERNS);
        put_varint(buf, u64::from(base));
        put_varint(buf, paths.len() as u64);
        for p in paths {
            put_varint(buf, p.len() as u64);
            buf.extend_from_slice(p.as_bytes());
        }
    });
}

/// Appends a framed `Batch { generation, events }` record to `buf`,
/// encoding straight from the borrowed events.
pub(crate) fn encode_batch(buf: &mut Vec<u8>, generation: u64, events: &[TraceEvent]) {
    framed(buf, |buf| {
        buf.push(KIND_BATCH);
        put_varint(buf, generation);
        encode_events_body(buf, events);
    });
}

/// Frames a record for appending: header + binary payload.
#[must_use]
pub fn encode(record: &WalRecord) -> Vec<u8> {
    let mut buf = Vec::new();
    match record {
        WalRecord::Interns { base, paths } => {
            encode_interns(&mut buf, *base, paths.iter().map(String::as_str));
        }
        WalRecord::Batch { generation, events } => encode_batch(&mut buf, *generation, events),
    }
    buf
}

/// Outcome of decoding one record from the front of `buf`.
#[derive(Debug)]
pub enum Decoded {
    /// A complete, valid record occupying `consumed` bytes.
    Record {
        /// The decoded record.
        record: WalRecord,
        /// Frame size in bytes (header + payload).
        consumed: usize,
    },
    /// The buffer ends mid-record: a torn tail, not damage.
    Incomplete,
    /// The front of the buffer can never decode, whatever follows.
    Corrupt(&'static str),
}

/// Checks the frame at the front of `buf` and hands its checksummed
/// payload to `parse`.
fn decode_frame(
    buf: &[u8],
    parse: impl FnOnce(&[u8]) -> Result<WalRecord, &'static str>,
) -> Decoded {
    if buf.len() < RECORD_HEADER_BYTES {
        return Decoded::Incomplete;
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len == 0 || len > MAX_RECORD_BYTES {
        return Decoded::Corrupt("implausible record length");
    }
    let Some(total) = len.checked_add(RECORD_HEADER_BYTES) else {
        return Decoded::Corrupt("record length overflows");
    };
    if buf.len() < total {
        return Decoded::Incomplete;
    }
    let expected = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    let payload = &buf[RECORD_HEADER_BYTES..total];
    if crc32(payload) != expected {
        return Decoded::Corrupt("checksum mismatch");
    }
    match parse(payload) {
        Ok(record) => Decoded::Record {
            record,
            consumed: total,
        },
        Err(why) => Decoded::Corrupt(why),
    }
}

/// Decodes the `SEERWAL2` record at the front of `buf`.
///
/// Never panics and never allocates more than the record's bytes
/// justify (at most [`MAX_RECORD_BYTES`] of payload): arbitrary garbage
/// classifies as [`Decoded::Incomplete`] or [`Decoded::Corrupt`].
#[must_use]
pub fn decode(buf: &[u8]) -> Decoded {
    decode_frame(buf, parse_binary)
}

/// Decodes the `SEERWAL1` (JSON payload) record at the front of `buf`,
/// with the same guarantees as [`decode`].
#[must_use]
pub(crate) fn decode_v1(buf: &[u8]) -> Decoded {
    decode_frame(buf, |payload| {
        let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8")?;
        serde_json::from_str::<WalRecord>(text).map_err(|_| "payload is not a record")
    })
}

fn parse_binary(payload: &[u8]) -> Result<WalRecord, &'static str> {
    let mut c = Cursor::new(payload);
    let malformed = |_: WireError| "malformed record body";
    let record = match c.u8().map_err(malformed)? {
        KIND_INTERNS => {
            let base = c.varint_u32().map_err(malformed)?;
            let count = c.varint().map_err(malformed)?;
            // Every path costs at least its length byte.
            if count > c.remaining() as u64 {
                return Err("interns count exceeds record");
            }
            if u64::from(base) + count > u64::from(u32::MAX) {
                return Err("interns ids overflow u32");
            }
            let mut paths = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let len = c.varint().map_err(malformed)?;
                let len = usize::try_from(len).map_err(|_| "interned path exceeds record")?;
                let bytes = c.bytes(len).map_err(|_| "interned path exceeds record")?;
                let path = std::str::from_utf8(bytes).map_err(|_| "interned path is not UTF-8")?;
                paths.push(path.to_owned());
            }
            WalRecord::Interns { base, paths }
        }
        KIND_BATCH => {
            let generation = c.varint().map_err(malformed)?;
            let events = decode_events_body(&mut c).map_err(malformed)?;
            WalRecord::Batch { generation, events }
        }
        _ => return Err("unknown record kind"),
    };
    if c.remaining() != 0 {
        return Err("trailing bytes after record body");
    }
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_trace::{EventKind, Fd, OpenMode, Pid, RawPathId, Seq, Timestamp};

    fn sample_batch() -> WalRecord {
        WalRecord::Batch {
            generation: 42,
            events: vec![TraceEvent {
                seq: Seq(1),
                time: Timestamp::from_millis(5),
                pid: Pid(9),
                root: false,
                kind: EventKind::Open {
                    path: RawPathId(0),
                    mode: OpenMode::Read,
                    fd: Fd(3),
                },
                error: None,
            }],
        }
    }

    /// Frames `payload` with a valid header, bypassing the encoder.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        framed(&mut buf, |b| b.extend_from_slice(payload));
        buf
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn encode_decode_round_trips() {
        for rec in [
            WalRecord::Interns {
                base: 0,
                paths: vec!["/a".into(), "/b".into()],
            },
            sample_batch(),
        ] {
            let buf = encode(&rec);
            match decode(&buf) {
                Decoded::Record { record, consumed } => {
                    assert_eq!(record, rec);
                    assert_eq!(consumed, buf.len());
                }
                other => panic!("expected record, got {other:?}"),
            }
        }
    }

    #[test]
    fn batch_payload_is_the_wire_events_body() {
        let WalRecord::Batch { events, .. } = sample_batch() else {
            unreachable!()
        };
        let buf = encode(&sample_batch());
        let frame = seer_trace::wire::encode_events_binary(&events, None);
        // Wire payload: flags byte, then the body. Log payload: kind
        // byte, generation varint (42 fits one byte), then the body.
        assert_eq!(buf[RECORD_HEADER_BYTES..][..2], [KIND_BATCH, 42]);
        assert_eq!(buf[RECORD_HEADER_BYTES + 2..], frame[6..]);
    }

    #[test]
    fn v1_json_records_still_decode() {
        let json = br#"{"Interns":{"base":3,"paths":["/x"]}}"#;
        match decode_v1(&frame(json)) {
            Decoded::Record { record, .. } => assert_eq!(
                record,
                WalRecord::Interns {
                    base: 3,
                    paths: vec!["/x".into()]
                }
            ),
            other => panic!("expected record, got {other:?}"),
        }
        // The binary decoder refuses a JSON payload, and vice versa.
        assert!(matches!(decode(&frame(json)), Decoded::Corrupt(_)));
        assert!(matches!(
            decode_v1(&encode(&sample_batch())),
            Decoded::Corrupt(_)
        ));
    }

    #[test]
    fn truncated_frames_are_incomplete() {
        let buf = encode(&sample_batch());
        for cut in 0..buf.len() {
            match decode(&buf[..cut]) {
                Decoded::Incomplete => {}
                other => panic!("cut at {cut}: expected incomplete, got {other:?}"),
            }
        }
    }

    #[test]
    fn flipped_payload_bit_is_corrupt() {
        let mut buf = encode(&sample_batch());
        let mid = RECORD_HEADER_BYTES + 3;
        buf[mid] ^= 0x10;
        assert!(matches!(decode(&buf), Decoded::Corrupt(_)));
    }

    #[test]
    fn absurd_length_is_corrupt_not_an_allocation() {
        let mut buf = encode(&sample_batch());
        buf[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&buf), Decoded::Corrupt(_)));
        buf[..4].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(decode(&buf), Decoded::Corrupt(_)));
    }

    #[test]
    fn checksummed_but_malformed_payloads_are_corrupt() {
        let mut huge_count = vec![KIND_INTERNS, 0];
        put_varint(&mut huge_count, u64::from(u32::MAX));
        let cases: [(&str, Vec<u8>); 7] = [
            ("unknown kind", vec![7, 0, 0]),
            ("trailing bytes", vec![KIND_BATCH, 1, 0, 0xAA]),
            ("invalid UTF-8", vec![KIND_INTERNS, 0, 1, 2, 0xC3, 0x28]),
            ("path past the end", vec![KIND_INTERNS, 0, 1, 9, b'a']),
            ("count past the end", huge_count),
            ("truncated events", vec![KIND_BATCH, 1, 2, 5, 1]),
            ("empty body", vec![KIND_BATCH]),
        ];
        for (what, payload) in cases {
            assert!(
                matches!(decode(&frame(&payload)), Decoded::Corrupt(_)),
                "{what}"
            );
        }
    }

    #[test]
    fn interns_ids_past_u32_are_corrupt() {
        let mut payload = vec![KIND_INTERNS];
        put_varint(&mut payload, u64::from(u32::MAX));
        payload.extend_from_slice(&[2, 1, b'a', 1, b'b']);
        assert!(matches!(decode(&frame(&payload)), Decoded::Corrupt(_)));
        // `base + count` reaching exactly `u32::MAX` is still fine.
        let mut payload = vec![KIND_INTERNS];
        put_varint(&mut payload, u64::from(u32::MAX - 1));
        payload.extend_from_slice(&[1, 1, b'a']);
        assert!(matches!(decode(&frame(&payload)), Decoded::Record { .. }));
    }

    #[test]
    fn decode_consumes_exactly_one_record() {
        let a = encode(&WalRecord::Interns {
            base: 0,
            paths: vec!["/x".into()],
        });
        let b = encode(&sample_batch());
        let mut joined = a.clone();
        joined.extend_from_slice(&b);
        match decode(&joined) {
            Decoded::Record { consumed, .. } => assert_eq!(consumed, a.len()),
            other => panic!("expected record, got {other:?}"),
        }
    }
}
