//! Per-layer timings: the public calls of each crate, run in process on
//! the workload's own generated inputs, one span per timed call.
//!
//! Each pass walks every tenant's trace in the daemon's 256-event
//! batches. Per-event calls (the observer's) are timed per batch.

use crate::drive::BUDGET;
use crate::inputs::{Tenant, FRAME_EVENTS};
use crate::offline::FILE_SIZE;
use crate::report::{median, Metrics};
use seer_core::{PairCountCache, Replayer, SeerEngine};
use seer_daemon::DaemonSnapshot;
use seer_distance::{DistanceConfig, DistanceEngine};
use seer_observer::{Observer, ObserverConfig, Reference, ReferenceSink};
use seer_telemetry::{Span, Tracer};
use seer_trace::wire::{decode_events_binary, encode_events_binary};
use seer_trace::{EventSink, PathTable, StringTable};
use seer_wal::{replay_dir, FsyncPolicy, Wal, WalConfig, WalRecord};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Counts references and drops them.
struct NullSink(u64);

impl ReferenceSink for NullSink {
    fn on_reference(&mut self, _r: &Reference, _paths: &PathTable) {
        self.0 += 1;
    }
}

/// Runs `f` under a span named `name`, a child of the pass's span, and
/// returns its result and time.
fn timed<T>(
    tracer: &Tracer,
    pass: &Span,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let span = tracer.child(name, pass.context());
    let started = Instant::now();
    let out = f();
    let took = started.elapsed();
    drop(span);
    (out, took)
}

fn ns_per(d: Duration, n: u64) -> f64 {
    d.as_secs_f64() * 1e9 / n as f64
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Measures every in-process layer over `tenants`; scratch files go
/// under `root`.
pub fn measure(tenants: &[Tenant], root: &Path, tracer: &Tracer) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let n: u64 = tenants.iter().map(|t| t.len() as u64).sum();

    // Wire codec.
    let pass = tracer.root("layers.codec");
    let (mut enc, mut dec) = (Duration::ZERO, Duration::ZERO);
    for t in tenants {
        for chunk in t.trace.events.chunks(FRAME_EVENTS) {
            let (frame, took) = timed(tracer, &pass, "trace.encode_events_binary", || {
                encode_events_binary(black_box(chunk), None)
            });
            enc += took;
            let (decoded, took) = timed(tracer, &pass, "trace.decode_events_binary", || {
                decode_events_binary(black_box(&frame[5..]))
            });
            dec += took;
            let (events, _) = decoded.map_err(|e| format!("decode: {e}"))?;
            if events.len() != chunk.len() {
                return Err("binary frame round trip lost events".into());
            }
        }
    }
    m.put("trace.encode_ns_per_event", "ns", ns_per(enc, n));
    m.put("trace.decode_ns_per_event", "ns", ns_per(dec, n));

    // Observer alone, then observer + distance; the difference is the
    // distance layer's self time.
    let pass = tracer.root("layers.observer");
    let (mut obs, mut refs) = (Duration::ZERO, 0u64);
    for t in tenants {
        let mut o = Observer::new(ObserverConfig::default(), NullSink(0));
        for chunk in t.trace.events.chunks(FRAME_EVENTS) {
            obs += timed(tracer, &pass, "observer.on_event", || {
                for ev in chunk {
                    o.on_event(ev, &t.trace.strings);
                }
            })
            .1;
        }
        refs += o.sink().0;
    }
    drop(pass);
    let pass = tracer.root("layers.distance");
    let (mut dist, mut observations) = (Duration::ZERO, 0u64);
    for t in tenants {
        let mut o = Observer::new(
            ObserverConfig::default(),
            DistanceEngine::new(DistanceConfig::default()),
        );
        for chunk in t.trace.events.chunks(FRAME_EVENTS) {
            dist += timed(tracer, &pass, "distance.observe", || {
                for ev in chunk {
                    o.on_event(ev, &t.trace.strings);
                }
            })
            .1;
        }
        observations += o.sink().stats().observations;
    }
    m.put("observer.ns_per_event", "ns", ns_per(obs, n));
    m.put("observer.refs_per_event", "refs", refs as f64 / n as f64);
    m.put(
        "distance.ns_per_event",
        "ns",
        ns_per(dist.saturating_sub(obs), n),
    );
    m.put(
        "distance.observations_per_event",
        "observations",
        observations as f64 / n as f64,
    );

    // The engine and its write-ahead log, batch by batch.
    drop(pass);
    let pass = tracer.root("layers.apply");
    let dir = root.join("layers");
    let _ = std::fs::remove_dir_all(&dir);
    let (mut apply, mut append, mut wal_bytes) = (Duration::ZERO, Duration::ZERO, 0u64);
    let mut syncs = Vec::new();
    let mut engines = Vec::new();
    for (i, t) in tenants.iter().enumerate() {
        let mut cfg = WalConfig::new(dir.join(format!("wal{i}")));
        cfg.fsync = FsyncPolicy::Interval(Duration::from_millis(50));
        cfg.segment_max_bytes = crate::child::WAL_SEGMENT_BYTES;
        let (mut wal, _) = Wal::open(cfg).map_err(|e| format!("open wal: {e}"))?;
        let mut engine = SeerEngine::default();
        let mut generation = 0u64;
        for chunk in t.trace.events.chunks(FRAME_EVENTS) {
            generation += chunk.len() as u64;
            let (res, took) = timed(tracer, &pass, "wal.append_batch", || {
                wal.append_batch(&t.trace.strings, generation, chunk)
            });
            append += took;
            let outcome = res.map_err(|e| format!("wal append: {e}"))?;
            wal_bytes += outcome.bytes;
            syncs.extend(outcome.fsync.map(ms));
            apply += timed(tracer, &pass, "core.on_batch", || {
                engine.on_batch(chunk, &t.trace.strings);
            })
            .1;
        }
        let (res, _) = timed(tracer, &pass, "wal.sync", || wal.sync());
        syncs.extend(res.map_err(|e| format!("wal sync: {e}"))?.map(ms));
        engines.push((engine, generation));
    }
    m.put("core.apply_ns_per_event", "ns", ns_per(apply, n));
    m.put("wal.append_ns_per_event", "ns", ns_per(append, n));
    m.put("wal.sync_ms", "ms", median(&syncs));
    m.put("wal.bytes_per_event", "B", wal_bytes as f64 / n as f64);

    // Recovery: decode the logs, then replay them into fresh engines.
    drop(pass);
    let pass = tracer.root("layers.replay");
    let (mut decode, mut replay) = (Duration::ZERO, Duration::ZERO);
    for (i, (_, generation)) in engines.iter().enumerate() {
        let mut records = Vec::new();
        let (res, took) = timed(tracer, &pass, "wal.replay_dir", || {
            replay_dir(&dir.join(format!("wal{i}")), |r| {
                records.push(r);
                true
            })
        });
        decode += took;
        res.map_err(|e| format!("wal replay: {e}"))?;
        let mut replayer = Replayer::new(SeerEngine::default(), StringTable::new(), 0);
        replay += timed(tracer, &pass, "core.replayer_apply", || {
            for r in records {
                match r {
                    WalRecord::Interns { base, paths } => replayer.declare(base, &paths),
                    WalRecord::Batch { generation, events } => {
                        replayer.apply(generation, &events);
                    }
                }
            }
        })
        .1;
        if replayer.events_applied() != *generation {
            return Err(format!(
                "replay reached {} of {generation} events",
                replayer.events_applied()
            ));
        }
    }
    m.put("wal.replay_ns_per_event", "ns", ns_per(decode, n));
    m.put("core.replay_ns_per_event", "ns", ns_per(replay, n));

    // Snapshots of each tenant's final engine.
    drop(pass);
    let pass = tracer.root("layers.snapshot");
    let (mut writes, mut loads, mut sizes) = (Vec::new(), Vec::new(), Vec::new());
    let path = dir.join("snapshot.json");
    for (engine, generation) in &engines {
        let snap = DaemonSnapshot {
            engine: engine.snapshot(),
            events_applied: *generation,
        };
        let (res, took) = timed(tracer, &pass, "daemon.snapshot_write", || {
            snap.write_atomic(&path)
        });
        res.map_err(|e| format!("snapshot write: {e}"))?;
        writes.push(ms(took));
        sizes.push(
            std::fs::metadata(&path)
                .map_err(|e| format!("stat: {e}"))?
                .len() as f64,
        );
        let (res, took) = timed(tracer, &pass, "daemon.snapshot_load", || {
            DaemonSnapshot::load(&path)
        });
        res.map_err(|e| format!("snapshot load: {e}"))?
            .ok_or("snapshot vanished")?;
        loads.push(ms(took));
    }
    m.put("daemon.snapshot_write_ms", "ms", median(&writes));
    m.put("daemon.snapshot_load_ms", "ms", median(&loads));
    m.put("daemon.snapshot_bytes", "B", median(&sizes));
    drop(pass);
    drop(engines);
    let _ = std::fs::remove_dir_all(&dir);

    clustering(&mut m, tenants, tracer);
    Ok(m)
}

/// Full and incremental reclustering, ranking and hoard choice at every
/// disconnection of the queried tenants, as the daemon's fresh query
/// does them.
fn clustering(m: &mut Metrics, tenants: &[Tenant], tracer: &Tracer) {
    let (mut full, mut incr, mut rank, mut choose) = (vec![], vec![], vec![], vec![]);
    let (mut runs, mut incremental, mut dirty_rows) = (0u64, 0u64, 0u64);
    let pass = tracer.root("layers.cluster");
    for t in tenants.iter().filter(|t| t.queried) {
        let mut engine = SeerEngine::default();
        let mut cache: Option<PairCountCache> = None;
        let mut pos = 0usize;
        for d in &t.disconnections {
            if d.at <= pos {
                continue;
            }
            for chunk in t.trace.events[pos..d.at].chunks(FRAME_EVENTS) {
                engine.on_batch(chunk, &t.trace.strings);
            }
            pos = d.at;
            let dirty = engine.take_dirty();
            let input = engine.recluster_input();
            let (run, took) = timed(tracer, &pass, "cluster.compute", || input.compute(1));
            full.push(ms(took));
            let (inc, took) = timed(tracer, &pass, "cluster.compute_incremental", || {
                input.compute_incremental(1, Some(&dirty), &mut cache)
            });
            incr.push(ms(took));
            runs += 1;
            incremental += u64::from(inc.incremental);
            dirty_rows += dirty.rows.len() as u64;
            engine.install_clustering(run.clustering, took, &[]);
            rank.push(ms(timed(tracer, &pass, "core.rank", || {
                black_box(engine.rank())
            })
            .1));
            choose.push(ms(timed(tracer, &pass, "core.choose_hoard", || {
                black_box(engine.choose_hoard(BUDGET, &|_| FILE_SIZE))
            })
            .1));
        }
    }
    m.put("cluster.full_ms", "ms", median(&full));
    m.put("cluster.incremental_ms", "ms", median(&incr));
    m.put(
        "cluster.incremental_share",
        "ratio",
        incremental as f64 / runs as f64,
    );
    m.put(
        "cluster.dirty_rows",
        "rows",
        dirty_rows as f64 / runs as f64,
    );
    m.put("core.rank_ms", "ms", median(&rank));
    m.put("core.choose_hoard_ms", "ms", median(&choose));
}
