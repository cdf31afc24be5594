//! The closed-loop client: streams every tenant's trace at the daemon,
//! asks for a fresh hoard at each disconnection, crashes the daemon with
//! SIGKILL near the end, and times its recovery.

use crate::child::{health, DaemonChild};
use crate::inputs::{Tenant, FRAME_EVENTS};
use seer_daemon::DaemonClient;
use seer_telemetry::{Span, SpanContext, Tracer};
use seer_trace::wire::{QueryRequest, QueryResponse};
use std::path::Path;
use std::sync::{Barrier, RwLock};
use std::time::{Duration, Instant};

/// How one workload drives the daemon.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Client threads, each holding one connection at a time.
    pub threads: usize,
    /// Frames between flushes.
    pub window_frames: usize,
    /// Frames per turn before the thread moves to its next tenant and
    /// reconnects; `None` streams a tenant's whole trace on one
    /// connection.
    pub turn_frames: Option<usize>,
}

/// Hoard budget of the fresh query at each disconnection: tight enough
/// that some disconnections miss a file and others do not (46 of the
/// 155 disconnections of machine F's 252 days at seed 1).
pub const BUDGET: u64 = 128 * 1024;

/// One fresh hoard answer, kept for the offline equivalence check.
pub struct HoardAnswer {
    /// Index of the tenant.
    pub tenant: usize,
    /// Index of the disconnection in the tenant's schedule.
    pub disconnection: usize,
    /// Files chosen, most important first.
    pub files: Vec<String>,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Per tenant: events acknowledged by flushes before the crash.
    pub acked: Vec<u64>,
    /// Per tenant: events handed to the client, in-flight window included.
    pub sent: Vec<u64>,
    /// Per tenant: events the restarted daemon reports applied.
    pub recovered: Vec<u64>,
    /// Fresh hoard answers, in no particular order.
    pub hoards: Vec<HoardAnswer>,
    /// Flush round trips, milliseconds.
    pub flush_ms: Vec<f64>,
    /// Fresh hoard round trips, milliseconds.
    pub hoard_ms: Vec<f64>,
    /// Connection set-ups (connect + hello), milliseconds.
    pub connect_ms: Vec<f64>,
    /// `send_events` calls, microseconds per frame.
    pub send_us: Vec<f64>,
    /// First `Health` per tenant after the restart, milliseconds.
    pub restore_ms: Vec<f64>,
    /// Events per second of each full window, from its first send (or
    /// its turn's connect) to its flush acknowledgement.
    pub window_rates: Vec<f64>,
    /// User-file reads made while disconnected.
    pub reads: u64,
    /// Reads whose file was not in the hoard.
    pub missed: u64,
    /// Disconnections queried.
    pub disconnections: u64,
    /// Disconnections with at least one miss.
    pub failed_disconnections: u64,
    /// `seer_wal_appended_bytes_total` at the pause before the tail.
    pub wal_bytes: u64,
    /// `seer_daemon_events_applied_total` at the pause before the tail.
    pub events_applied: u64,
    /// The daemon's `VmHWM` at the pause before the tail, MiB.
    pub peak_rss_mb: f64,
    /// Restart after SIGKILL until every tenant answered `Health`, the
    /// median over the restarts.
    pub recover_s: f64,
    /// Daemon start-up to the first `Health` answer on the workload's
    /// own (empty) data directory.
    pub start_s: f64,
    /// Operations attempted (connects, flushes, queries, restores).
    pub attempted: u64,
    /// Checks that failed, with a reason each.
    pub failures: Vec<String>,
}

/// Per-thread results, merged into the [`Outcome`] afterwards.
#[derive(Default)]
struct ThreadLog {
    acked: Vec<(usize, u64)>,
    sent: Vec<(usize, u64)>,
    hoards: Vec<HoardAnswer>,
    flush_ms: Vec<f64>,
    hoard_ms: Vec<f64>,
    connect_ms: Vec<f64>,
    send_us: Vec<f64>,
    window_rates: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Acknowledged windows each tenant streams after the pause that lets
/// the daemon snapshot everything, so every crash leaves a log tail of
/// the same length to replay.
const TAIL_WINDOWS: usize = 3;

/// The two streaming phases before the crash.
#[derive(Clone, Copy, PartialEq)]
enum Phase {
    /// Up to the pause, with a hoard query at each disconnection.
    Main,
    /// The acknowledged tail after the pause; no queries.
    Tail,
}

/// Where tenant `t` stops streaming in `phase`; the last window after
/// the tail is the one in flight at the crash.
fn stop(t: &Tenant, window_events: usize, phase: Phase) -> usize {
    let windows = match phase {
        Phase::Main => TAIL_WINDOWS + 1,
        Phase::Tail => 1,
    };
    t.len().saturating_sub(windows * window_events)
}

/// A thread's connection, tagged with the tenant it serves.
struct Conn {
    tenant: usize,
    client: DaemonClient,
}

struct Streamer<'a> {
    socket: &'a Path,
    tenants: &'a [Tenant],
    plan: Plan,
    tracer: &'a Tracer,
    /// The turn span the client calls record under.
    turn: Option<SpanContext>,
    log: ThreadLog,
    conn: Option<Conn>,
    /// Per tenant: events acked so far, and the next disconnection.
    pos: Vec<usize>,
    next: Vec<usize>,
    /// Turns stream under the read side; a hoard query takes the write
    /// side so it always meets a quiet shard (see README.md).
    quiet: &'a RwLock<()>,
}

impl Streamer<'_> {
    fn window_events(&self) -> usize {
        self.plan.turn_frames.unwrap_or(self.plan.window_frames) * FRAME_EVENTS
    }

    /// The connection for tenant `t`, reconnecting when the thread last
    /// served another tenant or the plan reconnects every turn.
    fn connect(&mut self, t: usize, fresh: bool) -> Result<(), String> {
        let reuse = !fresh && self.conn.as_ref().is_some_and(|c| c.tenant == t);
        if !reuse {
            self.conn = None;
            let _span = span_under(self.tracer, self.turn, "client.connect_tenant");
            let started = Instant::now();
            self.log.attempted += 1;
            let client =
                DaemonClient::connect_tenant(self.socket, "perfbench", &self.tenants[t].name)
                    .map_err(|e| format!("connect {}: {e}", self.tenants[t].name))?;
            self.log.connect_ms.push(ms(started.elapsed()));
            self.conn = Some(Conn { tenant: t, client });
        }
        Ok(())
    }

    /// Sends events `from..to` of tenant `t` in frames, flushing every
    /// window and, when `flush` is set, at the end. A full window's
    /// rate counts from `window_start` (the turn's start, connection
    /// included) or from the previous window's ack.
    fn send(
        &mut self,
        t: usize,
        from: usize,
        to: usize,
        flush: bool,
        mut window_start: Instant,
    ) -> Result<(), String> {
        let window = self.plan.window_frames;
        let (tenants, tracer, turn, log) = (self.tenants, self.tracer, self.turn, &mut self.log);
        let trace = &tenants[t].trace;
        let name = &tenants[t].name;
        let client = &mut self.conn.as_mut().expect("connected before send").client;
        let (mut pos, mut frames) = (from, 0usize);
        while pos < to {
            let end = (pos + FRAME_EVENTS).min(to);
            let span = span_under(tracer, turn, "client.send_events");
            let started = Instant::now();
            client
                .send_events(&trace.events[pos..end], &trace.strings)
                .map_err(|e| format!("send to {name}: {e}"))?;
            log.send_us.push(started.elapsed().as_secs_f64() * 1e6);
            drop(span);
            pos = end;
            frames += 1;
            let full = frames % window == 0;
            if flush && (full || pos == to) {
                let span = span_under(tracer, turn, "client.flush");
                let started = Instant::now();
                let acked = client.flush().map_err(|e| format!("flush {name}: {e}"))?;
                let done = Instant::now();
                drop(span);
                log.attempted += 1;
                if full {
                    log.flush_ms.push(ms(done - started));
                    let events = (window * FRAME_EVENTS) as f64;
                    log.window_rates
                        .push(events / (done - window_start).as_secs_f64());
                }
                window_start = done;
                if acked != client.events_sent() {
                    log.failures.push(format!(
                        "{name}: flush acked {acked} of {} sent on the connection",
                        client.events_sent()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Asks for a fresh hoard at disconnection `d` of tenant `t` and
    /// scores it against the reads made while disconnected.
    fn query(&mut self, t: usize, d: usize, applied: u64) -> Result<(), String> {
        let name = self.tenants[t].name.clone();
        let _quiet = self
            .quiet
            .write()
            .expect("no thread panics holding the lock");
        let client = &mut self.conn.as_mut().expect("connected before query").client;
        let span = span_under(self.tracer, self.turn, "client.hoard_fresh");
        let started = Instant::now();
        let answer = client
            .query(QueryRequest::Hoard {
                budget: BUDGET,
                fresh: true,
            })
            .map_err(|e| format!("hoard query {name}: {e}"))?;
        let took = started.elapsed();
        drop(span);
        self.log.attempted += 1;
        self.log.hoard_ms.push(ms(took));
        match answer {
            QueryResponse::Hoard {
                files,
                generation,
                stale: false,
                ..
            } if generation == applied => self.log.hoards.push(HoardAnswer {
                tenant: t,
                disconnection: d,
                files,
            }),
            other => self.log.failures.push(format!(
                "{name}: fresh hoard at generation {applied} answered {other:?}"
            )),
        }
        Ok(())
    }

    /// Streams this thread's tenants up to where `phase` stops, turn
    /// by turn; in the main phase a fresh hoard query follows every
    /// queried disconnection.
    fn run(&mut self, mine: &[usize], phase: Phase) -> Result<(), String> {
        let window_events = self.window_events();
        let turn_events = self.plan.turn_frames.map(|f| f * FRAME_EVENTS);
        loop {
            let mut active = false;
            for &t in mine {
                let tenant = &self.tenants[t];
                let (pos, next) = (self.pos[t], &mut self.next[t]);
                let mut end = stop(tenant, window_events, phase);
                if pos >= end {
                    continue;
                }
                active = true;
                if let Some(n) = turn_events {
                    end = end.min(pos + n);
                }
                let discs = &tenant.disconnections;
                while *next < discs.len() && discs[*next].at <= pos {
                    *next += 1;
                }
                let disc = (phase == Phase::Main && tenant.queried && *next < discs.len())
                    .then_some(*next)
                    .filter(|&d| discs[d].at <= end);
                if let Some(d) = disc {
                    end = discs[d].at;
                }
                let mut turn = self.tracer.root("client.turn");
                turn.attr("tenant", &tenant.name);
                self.turn = Some(turn.context());
                {
                    let _turn = self
                        .quiet
                        .read()
                        .expect("no thread panics holding the lock");
                    let turn_start = Instant::now();
                    self.connect(t, self.plan.turn_frames.is_some())?;
                    self.send(t, pos, end, true, turn_start)?;
                }
                self.pos[t] = end;
                if let Some(d) = disc {
                    self.query(t, d, end as u64)?;
                    self.next[t] += 1;
                }
                self.turn = None;
            }
            if !active {
                return Ok(());
            }
        }
    }

    /// Sends the in-flight window of the thread's last tenant, unflushed.
    fn in_flight(&mut self, mine: &[usize]) -> Result<(), String> {
        for &t in mine {
            self.log.acked.push((t, self.pos[t] as u64));
            self.log.sent.push((t, self.pos[t] as u64));
        }
        let Some(&t) = mine.last() else { return Ok(()) };
        let from = self.pos[t];
        let to = self.tenants[t].len();
        if from < to {
            let turn = self.tracer.root("client.in_flight");
            self.turn = Some(turn.context());
            self.connect(t, false)?;
            self.send(t, from, to, false, Instant::now())?;
            if let Some(s) = self.log.sent.iter_mut().find(|s| s.0 == t) {
                s.1 = to as u64;
            }
        }
        Ok(())
    }
}

/// A span under `parent`, or a root span without one.
fn span_under(tracer: &Tracer, parent: Option<SpanContext>, name: &'static str) -> Span {
    match parent {
        Some(p) => tracer.child(name, p),
        None => tracer.root(name),
    }
}

/// The tenants thread `k` of `threads` serves.
fn share(n: usize, threads: usize, k: usize) -> Vec<usize> {
    (0..n).filter(|t| t % threads == k).collect()
}

/// Reads counters from the daemon's `Metrics` answer.
fn counters<const N: usize>(socket: &Path, names: [&str; N]) -> Result<[u64; N], String> {
    let mut c = DaemonClient::connect(socket, "perfbench").map_err(|e| format!("connect: {e}"))?;
    let snapshot = match c.query(QueryRequest::Metrics) {
        Ok(QueryResponse::Metrics { snapshot }) => snapshot,
        Ok(other) => return Err(format!("metrics answered {other:?}")),
        Err(e) => return Err(format!("metrics query: {e}")),
    };
    let mut out = [0; N];
    for (o, name) in out.iter_mut().zip(names) {
        *o = snapshot.counter(name).ok_or(format!("no counter {name}"))?;
    }
    Ok(out)
}

/// The WAL byte and applied-event counters.
fn wal_counters(socket: &Path) -> Result<(u64, u64), String> {
    let [bytes, applied] = counters(
        socket,
        [
            "seer_wal_appended_bytes_total",
            "seer_daemon_events_applied_total",
        ],
    )?;
    Ok((bytes, applied))
}

/// Waits while the idle daemon snapshots every tenant: until the
/// snapshot count holds still across two idle ticks.
fn settle_snapshots(socket: &Path) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut last = None;
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(120));
        let [n] = counters(socket, ["seer_daemon_snapshots_total"])?;
        if last == Some(n) {
            return Ok(());
        }
        last = Some(n);
    }
    Err("snapshots did not settle".into())
}

/// Runs one workload against a fresh daemon in `dir`: stream, query,
/// crash, recover, shut down.
pub fn run(dir: &Path, tenants: &[Tenant], plan: Plan, tracer: &Tracer) -> Result<Outcome, String> {
    let _ = std::fs::remove_dir_all(dir);
    let first = &tenants[0].name;
    let (daemon, start) = DaemonChild::start(dir, first)?;
    let socket = daemon.socket().to_path_buf();
    let threads = plan.threads.min(tenants.len()).max(1);
    let barrier = Barrier::new(threads + 1);
    let quiet = RwLock::new(());
    let mut out = Outcome {
        start_s: start.as_secs_f64(),
        ..Outcome::default()
    };

    let mut pre_kill: Result<(u64, u64, f64), String> = Err("not measured".into());
    let mut daemon = Some(daemon);
    let logs: Vec<Result<ThreadLog, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|k| {
                let socket = &socket;
                let barrier = &barrier;
                let quiet = &quiet;
                s.spawn(move || {
                    let mine = share(tenants.len(), threads, k);
                    let mut st = Streamer {
                        socket,
                        tenants,
                        plan,
                        tracer,
                        turn: None,
                        log: ThreadLog::default(),
                        conn: None,
                        pos: vec![0; tenants.len()],
                        next: vec![0; tenants.len()],
                        quiet,
                    };
                    // Every thread reaches every barrier, even after an
                    // error, so the main thread never waits forever. No
                    // pause between the tail and the crash: an idle shard
                    // would snapshot the tail after one tick.
                    let main = st.run(&mine, Phase::Main);
                    barrier.wait();
                    barrier.wait();
                    let flown = main
                        .and_then(|()| st.run(&mine, Phase::Tail))
                        .and_then(|()| st.in_flight(&mine));
                    barrier.wait();
                    barrier.wait();
                    flown.map(|()| st.log)
                })
            })
            .collect();
        barrier.wait();
        let d = daemon.as_ref().expect("running");
        pre_kill = settle_snapshots(&socket)
            .and_then(|()| wal_counters(&socket))
            .and_then(|(b, a)| Ok((b, a, d.peak_rss_mb()?)));
        barrier.wait();
        barrier.wait();
        let killed = daemon.take().expect("running").kill();
        barrier.wait();
        let mut logs: Vec<_> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect();
        if let Err(e) = killed {
            logs.push(Err(e));
        }
        logs
    });
    let (wal_bytes, applied, rss) = pre_kill?;
    out.wal_bytes = wal_bytes;
    out.events_applied = applied;
    out.peak_rss_mb = rss;
    out.acked = vec![0; tenants.len()];
    out.sent = vec![0; tenants.len()];
    for log in logs {
        let log = log?;
        for (t, n) in log.acked {
            out.acked[t] = n;
        }
        for (t, n) in log.sent {
            out.sent[t] = n;
        }
        out.hoards.extend(log.hoards);
        out.flush_ms.extend(log.flush_ms);
        out.hoard_ms.extend(log.hoard_ms);
        out.connect_ms.extend(log.connect_ms);
        out.send_us.extend(log.send_us);
        out.window_rates.extend(log.window_rates);
        out.attempted += log.attempted;
        out.failures.extend(log.failures);
    }

    recover(dir, tenants, threads, tracer, &mut out)?;
    Ok(out)
}

/// Restarts after the crash, each from the same crashed data: one
/// restart takes a few 50 ms ticks (see README.md), so `recover_s` is
/// the median of several.
pub const RECOVERIES: usize = 7;

/// One tenant restored after the crash: index, recovered events, and
/// milliseconds to its first `Health` answer.
type Restored = (usize, u64, f64);

/// Restarts the daemon on the crashed data directory [`RECOVERIES`]
/// times, each time from a copy of the crashed state, and asks every
/// tenant for `Health` (which restores it), `threads` at a time.
fn recover(
    dir: &Path,
    tenants: &[Tenant],
    threads: usize,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let crashed = dir.with_extension("crashed");
    copy_dir(dir, &crashed)?;
    let mut times = Vec::new();
    for cycle in 0..RECOVERIES {
        if cycle > 0 {
            std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
            copy_dir(&crashed, dir)?;
        }
        let cycle_span = tracer.root("client.recover");
        let parent = Some(cycle_span.context());
        let started = Instant::now();
        let mut daemon = DaemonChild::spawn(dir)?;
        drop(daemon.connect(&tenants[0].name, started)?);
        let socket = daemon.socket().to_path_buf();
        let results: Vec<Result<Vec<Restored>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|k| {
                    let socket = &socket;
                    s.spawn(move || {
                        share(tenants.len(), threads, k)
                            .into_iter()
                            .map(|t| {
                                let name = &tenants[t].name;
                                let _span = span_under(tracer, parent, "client.restore");
                                let asked = Instant::now();
                                let mut c = DaemonClient::connect_tenant(socket, "perfbench", name)
                                    .map_err(|e| format!("reconnect {name}: {e}"))?;
                                let n = health(&mut c)?;
                                Ok((t, n, ms(asked.elapsed())))
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("recovery thread panicked".into()))
                })
                .collect()
        });
        times.push(started.elapsed().as_secs_f64());
        drop(cycle_span);
        let mut recovered = vec![0; tenants.len()];
        for r in results {
            for (t, n, took) in r? {
                recovered[t] = n;
                out.restore_ms.push(took);
                out.attempted += 1;
            }
        }
        if cycle == 0 {
            out.recovered = recovered;
        } else if recovered != out.recovered {
            out.failures.push(format!(
                "restart {cycle} recovered {recovered:?}, not {:?}",
                out.recovered
            ));
        }
        if cycle + 1 == RECOVERIES {
            daemon.shutdown()?;
        } else {
            daemon.kill()?;
        }
    }
    out.recover_s = crate::report::median(&times);
    std::fs::remove_dir_all(&crashed).map_err(|e| format!("clear {}: {e}", crashed.display()))
}

/// Copies the regular files under `from` into `to`; the socket is
/// skipped.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let err = |e: std::io::Error| format!("copy {}: {e}", from.display());
    std::fs::create_dir_all(to).map_err(err)?;
    for entry in std::fs::read_dir(from).map_err(err)? {
        let entry = entry.map_err(err)?;
        let kind = entry.file_type().map_err(err)?;
        let target = to.join(entry.file_name());
        if kind.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else if kind.is_file() {
            std::fs::copy(entry.path(), target).map_err(err)?;
        }
    }
    Ok(())
}

/// The crash invariant: every acknowledged event survives, and nothing
/// the client never sent is invented.
pub fn check_recovered(acked: u64, recovered: u64, sent: u64) -> Option<String> {
    (recovered < acked || recovered > sent)
        .then(|| format!("recovered {recovered} outside acked {acked} ..= sent {sent}"))
}

/// Counts reads served and missed by each online hoard.
pub fn score_hoards(tenants: &[Tenant], out: &mut Outcome) {
    for h in &out.hoards {
        let hoard: std::collections::HashSet<&str> = h.files.iter().map(String::as_str).collect();
        let reads = &tenants[h.tenant].disconnections[h.disconnection].reads;
        let missed = reads.iter().filter(|p| !hoard.contains(p.as_str())).count() as u64;
        out.reads += reads.len() as u64;
        out.missed += missed;
        out.disconnections += 1;
        out.failed_disconnections += u64::from(missed > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::check_recovered;

    #[test]
    fn recovery_within_acked_and_sent_passes() {
        assert_eq!(check_recovered(100, 100, 150), None);
        assert_eq!(check_recovered(100, 150, 150), None);
    }

    #[test]
    fn recovered_one_short_of_acked_fails() {
        assert!(check_recovered(100, 99, 150).is_some());
    }

    #[test]
    fn recovered_beyond_sent_fails() {
        assert!(check_recovered(100, 151, 150).is_some());
    }
}
