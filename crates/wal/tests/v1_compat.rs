//! Logs written before the binary record format still recover.
//!
//! `fixtures/wal-v1/` is a two-segment `SEERWAL1` (JSON payload) log
//! written by the JSON encoder before it was removed: segment 0 holds a
//! base interns record, batch 7, an interns delta and batch 13; segment
//! 1 holds a full-table interns record and batch 16. Between them the
//! batches use all 13 event kinds, every error code and a root event.

use seer_trace::{
    ErrorKind, EventKind, Fd, OpenMode, Pid, RawPathId, Seq, StringTable, Timestamp, TraceEvent,
};
use seer_wal::{replay_dir, FsyncPolicy, Wal, WalConfig, WalRecord, SEGMENT_MAGIC};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

const PATHS: [&str; 7] = [
    "/home/u/a.c",
    "/home/u/b.h",
    "/usr/bin/cc",
    "/home/u",
    "/tmp/x",
    "/home/u/c.o",
    "/home/u/d.o",
];

fn ev(seq: u64, pid: u32, kind: EventKind) -> TraceEvent {
    TraceEvent {
        seq: Seq(seq),
        time: Timestamp::from_millis(1_000 + seq * 10),
        pid: Pid(pid),
        root: false,
        kind,
        error: None,
    }
}

fn interns(base: u32, paths: &[&str]) -> WalRecord {
    WalRecord::Interns {
        base,
        paths: paths.iter().map(|p| (*p).to_owned()).collect(),
    }
}

/// The records the fixture holds, in log order.
fn fixture_records() -> Vec<WalRecord> {
    let p = RawPathId;
    let b1 = vec![
        ev(1, 10, EventKind::Exec { path: p(2) }),
        ev(2, 10, EventKind::Chdir { path: p(3) }),
        ev(
            3,
            10,
            EventKind::OpenDir {
                path: p(3),
                fd: Fd(4),
            },
        ),
        ev(
            4,
            10,
            EventKind::ReadDir {
                fd: Fd(4),
                entries: 17,
            },
        ),
        ev(5, 10, EventKind::Close { fd: Fd(4) }),
        ev(
            6,
            10,
            EventKind::Open {
                path: p(0),
                mode: OpenMode::Read,
                fd: Fd(3),
            },
        ),
        TraceEvent {
            error: Some(ErrorKind::NotFound),
            ..ev(7, 10, EventKind::Stat { path: p(1) })
        },
    ];
    let b2 = vec![
        ev(8, 10, EventKind::Fork { child: Pid(11) }),
        TraceEvent {
            root: true,
            ..ev(9, 11, EventKind::Create { path: p(5) })
        },
        ev(
            10,
            11,
            EventKind::Open {
                path: p(5),
                mode: OpenMode::ReadWrite,
                fd: Fd(5),
            },
        ),
        ev(11, 11, EventKind::SetAttr { path: p(5) }),
        ev(
            12,
            11,
            EventKind::Rename {
                from: p(4),
                to: p(6),
            },
        ),
        TraceEvent {
            error: Some(ErrorKind::Other),
            ..ev(13, 11, EventKind::Unlink { path: p(4) })
        },
    ];
    let b3 = vec![
        TraceEvent {
            error: Some(ErrorKind::NotHoarded),
            ..ev(
                14,
                11,
                EventKind::Open {
                    path: p(1),
                    mode: OpenMode::Write,
                    fd: Fd(6),
                },
            )
        },
        ev(15, 11, EventKind::Close { fd: Fd(6) }),
        ev(16, 11, EventKind::Exit),
    ];
    vec![
        interns(0, &PATHS[..5]),
        WalRecord::Batch {
            generation: 7,
            events: b1,
        },
        interns(5, &PATHS[5..]),
        WalRecord::Batch {
            generation: 13,
            events: b2,
        },
        interns(0, &PATHS),
        WalRecord::Batch {
            generation: 16,
            events: b3,
        },
    ]
}

/// A private copy of the fixture, so tests may append and truncate.
fn fixture_copy(tag: &str) -> PathBuf {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wal-v1");
    let dir = std::env::temp_dir().join(format!("seer-wal-v1-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("mkdir");
    for entry in fs::read_dir(&src).expect("fixture dir") {
        let entry = entry.expect("entry");
        fs::copy(entry.path(), dir.join(entry.file_name())).expect("copy");
    }
    dir
}

fn replay(dir: &Path) -> Vec<WalRecord> {
    let mut recs = Vec::new();
    let stats = replay_dir(dir, |r| {
        recs.push(r);
        true
    })
    .expect("replay");
    assert!(!stats.damaged, "clean replay");
    recs
}

fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .expect("dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segs.sort();
    segs
}

fn magic(path: &Path) -> Vec<u8> {
    fs::read(path).expect("segment")[..8].to_vec()
}

fn table() -> StringTable {
    let mut strings = StringTable::new();
    for p in PATHS {
        strings.intern(p);
    }
    strings
}

fn next_batch() -> Vec<TraceEvent> {
    vec![ev(
        17,
        10,
        EventKind::Open {
            path: RawPathId(6),
            mode: OpenMode::Read,
            fd: Fd(3),
        },
    )]
}

#[test]
fn fixture_replays_exactly() {
    let dir = fixture_copy("replay");
    assert_eq!(segments(&dir).len(), 2);
    for seg in segments(&dir) {
        assert_eq!(magic(&seg), b"SEERWAL1");
    }
    let (wal, report) = Wal::open(WalConfig::new(&dir)).expect("open");
    assert_eq!(report.segments, 2);
    assert_eq!(report.records, 6);
    assert_eq!(report.last_generation, 16);
    assert_eq!(report.truncated_bytes, 0);
    drop(wal);
    assert_eq!(replay(&dir), fixture_records());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn append_rotates_into_a_v2_segment_and_replays_in_order() {
    let dir = fixture_copy("append");
    let mut cfg = WalConfig::new(&dir);
    cfg.fsync = FsyncPolicy::Always;
    let (mut wal, _) = Wal::open(cfg).expect("open");
    let out = wal
        .append_batch(&table(), 17, &next_batch())
        .expect("append");
    assert!(out.rotated, "a v1 active segment is sealed, not extended");
    assert_eq!(out.records, 1, "the new segment's base record declares all");
    drop(wal);

    let segs = segments(&dir);
    assert_eq!(segs.len(), 3);
    assert_eq!(magic(&segs[0]), b"SEERWAL1");
    assert_eq!(magic(&segs[1]), b"SEERWAL1");
    assert_eq!(magic(&segs[2]), SEGMENT_MAGIC);
    assert_eq!(SEGMENT_MAGIC, b"SEERWAL2");

    let mut expected = fixture_records();
    expected.push(interns(0, &PATHS));
    expected.push(WalRecord::Batch {
        generation: 17,
        events: next_batch(),
    });
    assert_eq!(replay(&dir), expected);

    // Reopening finds the mixed log whole and keeps appending to v2.
    let (mut wal, report) = Wal::open(WalConfig::new(&dir)).expect("reopen");
    assert_eq!(report.last_generation, 17);
    assert_eq!(report.records, 8);
    let out = wal
        .append_batch(&table(), 18, &next_batch())
        .expect("append");
    assert!(!out.rotated);
    assert_eq!(segments(&dir).len(), 3);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncate_after_inside_the_v1_segment() {
    let dir = fixture_copy("truncate");
    let (mut wal, _) = Wal::open(WalConfig::new(&dir)).expect("open");
    // Put a v2 segment after the v1 ones, then cut back into segment 0.
    wal.append_batch(&table(), 17, &next_batch())
        .expect("append");
    assert_eq!(wal.truncate_after(10).expect("truncate"), 7);
    assert_eq!(segments(&dir).len(), 1);
    assert_eq!(replay(&dir), fixture_records()[..2].to_vec());

    // The surviving active segment is v1, so the new timeline rotates.
    let out = wal
        .append_batch(&table(), 8, &next_batch())
        .expect("append");
    assert!(out.rotated);
    let segs = segments(&dir);
    assert_eq!(segs.len(), 2);
    assert_eq!(magic(&segs[1]), SEGMENT_MAGIC);
    let gens: Vec<u64> = replay(&dir)
        .iter()
        .filter_map(WalRecord::generation)
        .collect();
    assert_eq!(gens, vec![7, 8]);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_v1_tail_is_truncated() {
    let dir = fixture_copy("torn");
    let last = segments(&dir).pop().expect("segment");
    let len = fs::metadata(&last).expect("meta").len();
    let mut f = fs::OpenOptions::new()
        .append(true)
        .open(&last)
        .expect("open");
    f.write_all(&[0x13, 0x00, 0x00, 0x00, 0xAA, 0xBB])
        .expect("tear");
    drop(f);

    let (wal, report) = Wal::open(WalConfig::new(&dir)).expect("recover");
    assert_eq!(report.truncated_bytes, 6);
    assert_eq!(report.last_generation, 16);
    assert_eq!(fs::metadata(&last).expect("meta").len(), len);
    drop(wal);
    assert_eq!(replay(&dir), fixture_records());
    fs::remove_dir_all(&dir).ok();
}
