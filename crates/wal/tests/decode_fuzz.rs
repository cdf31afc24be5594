//! Property tests: record decoding must survive arbitrary damage —
//! torn writes, bit flips, truncated tails — without panicking,
//! over-allocating, or mis-decoding.

use proptest::prelude::*;
use seer_trace::{ErrorKind, EventKind, Fd, OpenMode, Pid, RawPathId, Seq, Timestamp, TraceEvent};
use seer_wal::{crc32, decode, encode, Decoded, WalRecord, RECORD_HEADER_BYTES};

/// Small values most of the time, the type's extremes some of the time.
fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..1_000_000, Just(u64::MAX), 0u64..=u64::MAX]
}

fn arb_u32() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..64, Just(u32::MAX), 0u32..=u32::MAX]
}

fn arb_path() -> impl Strategy<Value = RawPathId> {
    arb_u32().prop_map(RawPathId)
}

/// Every one of the 13 event kinds, with arbitrary field values.
fn arb_kind() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        (arb_path(), 0usize..3, arb_u32()).prop_map(|(path, mode, fd)| EventKind::Open {
            path,
            mode: [OpenMode::Read, OpenMode::Write, OpenMode::ReadWrite][mode],
            fd: Fd(fd),
        }),
        arb_u32().prop_map(|fd| EventKind::Close { fd: Fd(fd) }),
        (arb_path(), arb_u32()).prop_map(|(path, fd)| EventKind::OpenDir { path, fd: Fd(fd) }),
        (arb_u32(), arb_u32()).prop_map(|(fd, entries)| EventKind::ReadDir {
            fd: Fd(fd),
            entries,
        }),
        arb_path().prop_map(|path| EventKind::Exec { path }),
        Just(EventKind::Exit),
        arb_u32().prop_map(|child| EventKind::Fork { child: Pid(child) }),
        arb_path().prop_map(|path| EventKind::Unlink { path }),
        arb_path().prop_map(|path| EventKind::Create { path }),
        (arb_path(), arb_path()).prop_map(|(from, to)| EventKind::Rename { from, to }),
        arb_path().prop_map(|path| EventKind::Stat { path }),
        arb_path().prop_map(|path| EventKind::SetAttr { path }),
        arb_path().prop_map(|path| EventKind::Chdir { path }),
    ]
}

fn arb_event() -> impl Strategy<Value = TraceEvent> {
    (
        arb_u64(),
        arb_u64(),
        arb_u32(),
        arb_kind(),
        (0usize..4, prop::bool::ANY),
    )
        .prop_map(|(seq, time, pid, kind, (error, root))| TraceEvent {
            seq: Seq(seq),
            time: Timestamp(time),
            pid: Pid(pid),
            root,
            kind,
            error: [
                None,
                Some(ErrorKind::NotFound),
                Some(ErrorKind::NotHoarded),
                Some(ErrorKind::Other),
            ][error],
        })
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        (0u32..1_000, prop::collection::vec("[a-z/._-]{1,20}", 0..8))
            .prop_map(|(base, paths)| WalRecord::Interns { base, paths }),
        (1u64..1_000_000, prop::collection::vec(arb_event(), 0..8))
            .prop_map(|(generation, events)| WalRecord::Batch { generation, events }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup never panics and never claims a record.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        match decode(&bytes) {
            Decoded::Record { consumed, .. } => prop_assert!(consumed <= bytes.len()),
            Decoded::Incomplete | Decoded::Corrupt(_) => {}
        }
    }

    /// Every well-formed record round-trips exactly.
    #[test]
    fn round_trip(rec in arb_record()) {
        let buf = encode(&rec);
        match decode(&buf) {
            Decoded::Record { record, consumed } => {
                prop_assert_eq!(record, rec);
                prop_assert_eq!(consumed, buf.len());
            }
            other => prop_assert!(false, "expected record, got {:?}", other),
        }
    }

    /// Any truncation of a valid frame is Incomplete — a torn tail,
    /// never a phantom record and never corruption that would make
    /// recovery distrust the preceding (valid) log.
    #[test]
    fn truncation_is_always_incomplete(rec in arb_record(), keep_frac in 0.0f64..1.0) {
        let buf = encode(&rec);
        let keep = (((buf.len() as f64) * keep_frac) as usize).min(buf.len() - 1);
        prop_assert!(matches!(decode(&buf[..keep]), Decoded::Incomplete));
    }

    /// A flipped bit anywhere in a frame is detected: decode yields the
    /// original record only from undamaged bytes, otherwise classifies
    /// as Incomplete/Corrupt — it never produces a *different* record.
    #[test]
    fn bit_flips_never_mis_decode(rec in arb_record(), byte_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut buf = encode(&rec);
        let idx = ((buf.len() as f64) * byte_frac) as usize % buf.len();
        buf[idx] ^= 1 << bit;
        match decode(&buf) {
            Decoded::Record { record, .. } => {
                // A flip in the length prefix can shorten the frame so a
                // prefix still decodes; CRC makes that astronomically
                // unlikely, and the payload flip case must checksum-fail.
                prop_assert_eq!(record, rec, "damaged frame decoded to a different record");
            }
            Decoded::Incomplete | Decoded::Corrupt(_) => {}
        }
    }

    /// Garbage appended after a valid frame never disturbs decoding the
    /// frame itself, and `consumed` points exactly past it.
    #[test]
    fn trailing_garbage_is_ignored(rec in arb_record(), junk in prop::collection::vec(0u8..=255, 0..64)) {
        let mut buf = encode(&rec);
        let frame = buf.len();
        buf.extend_from_slice(&junk);
        match decode(&buf) {
            Decoded::Record { record, consumed } => {
                prop_assert_eq!(record, rec);
                prop_assert_eq!(consumed, frame);
            }
            other => prop_assert!(false, "expected record, got {:?}", other),
        }
    }

    /// A header whose length field points past the buffer is Incomplete
    /// (could be torn) unless implausibly large (Corrupt) — and in
    /// neither case does decoding allocate the claimed length.
    #[test]
    fn huge_lengths_are_rejected_cheaply(len in 0u32..=u32::MAX, crc in 0u32..=u32::MAX) {
        let mut buf = Vec::with_capacity(RECORD_HEADER_BYTES);
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&crc.to_le_bytes());
        match decode(&buf) {
            Decoded::Record { .. } => prop_assert!(false, "header alone cannot be a record"),
            Decoded::Incomplete | Decoded::Corrupt(_) => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every cut of a record, not just a sampled one, is Incomplete.
    #[test]
    fn every_cut_is_incomplete(rec in arb_record()) {
        let buf = encode(&rec);
        for cut in 0..buf.len() {
            prop_assert!(matches!(decode(&buf[..cut]), Decoded::Incomplete), "cut at {}", cut);
        }
    }

    /// Every single-bit flip, tried exhaustively. With the checksum left
    /// alone a flipped payload bit is always Corrupt (CRC-32 catches every
    /// single-bit error). With the checksum recomputed over the damaged
    /// payload, the binary parser itself must answer Corrupt or a
    /// different valid record: never a panic, never the original.
    #[test]
    fn every_single_bit_flip_is_caught(rec in arb_record()) {
        let buf = encode(&rec);
        for bit in 0..buf.len() * 8 {
            let (idx, mask) = (bit / 8, 1u8 << (bit % 8));
            let mut damaged = buf.clone();
            damaged[idx] ^= mask;
            match decode(&damaged) {
                Decoded::Record { record, .. } => {
                    prop_assert!(idx < RECORD_HEADER_BYTES, "payload flip at bit {} passed the CRC", bit);
                    prop_assert_ne!(record, rec.clone());
                }
                Decoded::Corrupt(_) => {}
                Decoded::Incomplete => prop_assert!(idx < 4, "only a longer length is a torn tail"),
            }
            if idx < RECORD_HEADER_BYTES {
                continue;
            }
            let crc = crc32(&damaged[RECORD_HEADER_BYTES..]);
            damaged[4..RECORD_HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
            match decode(&damaged) {
                Decoded::Record { record, consumed } => {
                    prop_assert_ne!(record, rec.clone(), "bit {} decoded unchanged", bit);
                    prop_assert_eq!(consumed, damaged.len());
                }
                Decoded::Corrupt(_) => {}
                Decoded::Incomplete => prop_assert!(false, "whole frame read as torn at bit {}", bit),
            }
        }
    }

    /// An interns record declaring ids past `u32::MAX` is Corrupt even
    /// though its checksum is valid.
    #[test]
    fn interns_past_the_id_space_are_corrupt(
        over in 1u32..16,
        paths in prop::collection::vec("[a-z/._-]{0,6}", 1..8),
    ) {
        let base = (u32::MAX - paths.len() as u32).saturating_add(over);
        let buf = encode(&WalRecord::Interns { base, paths });
        prop_assert!(matches!(decode(&buf), Decoded::Corrupt(_)));
    }
}
