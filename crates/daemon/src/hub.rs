//! The connection hub: listeners, transports, and tenant routing.
//!
//! ```text
//!  Unix listener ──┐                        ┌─► shard 0: batcher ─► engine actor (tenants A, D, …)
//!                  ├─► accept ─► serve_conn ┼─► shard 1: batcher ─► engine actor (tenants B, E, …)
//!  TCP listener ───┘      (route by tenant) └─► shard 2: batcher ─► engine actor (tenants C, F, …)
//! ```
//!
//! Both listeners feed the same accept path; every connection gets a
//! reader thread that routes its frames to one shard chosen by hashing
//! the tenant id from the v7 handshake (pre-v7 clients land on the
//! default tenant). Queries flow to the same shard — except `Fleet`,
//! which fans out to every shard and merges the per-shard answers.
//!
//! A connection is a blast-radius boundary: protocol violations,
//! half-finished handshakes, oversized frames, and mid-frame
//! disconnects kill only the offending connection (counted in
//! `seer_daemon_connection_errors_total`), never the daemon.

use crate::pipeline::{self, Apply, Ingest, IngestTx, Tenant};
use crate::server::Shared;
use crate::stats::PipelineMetrics;
use seer_telemetry::{tlog, Level, SpanContext, TraceId, Tracer};
use seer_trace::wire::{
    self, ClientFrame, DaemonFrame, QueryRequest, QueryResponse, TenantFleetStat, WireError,
    MIN_WIRE_VERSION, WIRE_VERSION,
};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Longest accepted JSON line, matching the binary frame payload cap —
/// a hostile client cannot make the daemon buffer an unbounded line.
const MAX_LINE_BYTES: usize = wire::BINARY_MAX_PAYLOAD;

/// A client connection over either transport. Reading and writing
/// dispatch to the underlying socket; everything above this enum is
/// transport-agnostic.
pub(crate) enum HubStream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl HubStream {
    pub(crate) fn try_clone(&self) -> std::io::Result<HubStream> {
        match self {
            HubStream::Unix(s) => s.try_clone().map(HubStream::Unix),
            HubStream::Tcp(s) => s.try_clone().map(HubStream::Tcp),
        }
    }

    /// Closes both directions so a reader parked in `read` unblocks.
    pub(crate) fn shutdown_both(&self) {
        match self {
            HubStream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            HubStream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for HubStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            HubStream::Unix(s) => s.read(buf),
            HubStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for HubStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            HubStream::Unix(s) => s.write(buf),
            HubStream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            HubStream::Unix(s) => s.flush(),
            HubStream::Tcp(s) => s.flush(),
        }
    }
}

/// A listening socket of either transport, polled nonblocking by the
/// accept loop.
pub(crate) enum HubListener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl HubListener {
    fn accept(&self) -> std::io::Result<HubStream> {
        match self {
            HubListener::Unix(l) => l.accept().map(|(s, _)| HubStream::Unix(s)),
            HubListener::Tcp(l) => {
                let (s, _) = l.accept()?;
                // The wire protocol is request/response with explicit
                // flushes; Nagle only adds latency here.
                let _ = s.set_nodelay(true);
                Ok(HubStream::Tcp(s))
            }
        }
    }
}

/// What a pre-bind probe of the Unix socket path found.
pub(crate) enum SocketProbe {
    /// A live daemon owns the socket — `version` is what its handshake
    /// answered (None if it accepted the connection but never replied).
    Live { version: Option<u32> },
    /// The file exists but nobody is listening: a stale leftover from a
    /// dead daemon, safe to reap.
    Stale,
    /// No socket file at all.
    Absent,
}

/// Probes a Unix socket path before reaping it: connect, and if a
/// listener answers, attempt a wire handshake. Only a refused
/// connection (or a missing file) licenses deleting the path — a
/// successful connect means a live process owns it, handshake or not.
pub(crate) fn probe_unix_socket(path: &Path) -> SocketProbe {
    match UnixStream::connect(path) {
        Ok(stream) => SocketProbe::Live {
            version: probe_handshake(stream),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => SocketProbe::Absent,
        Err(_) => SocketProbe::Stale,
    }
}

/// Sends a Hello on an already-connected probe stream and reads the
/// reply, under short timeouts so a wedged listener cannot stall
/// startup. Returns the daemon's wire version if a handshake answered.
fn probe_handshake(stream: UnixStream) -> Option<u32> {
    stream
        .set_read_timeout(Some(Duration::from_millis(500)))
        .ok()?;
    stream
        .set_write_timeout(Some(Duration::from_millis(500)))
        .ok()?;
    let reader = stream.try_clone().ok()?;
    let mut w = BufWriter::new(stream);
    wire::write_frame(
        &mut w,
        &ClientFrame::Hello {
            client: "socket-probe".into(),
            version: WIRE_VERSION,
            tenant: None,
        },
    )
    .ok()?;
    w.flush().ok()?;
    let mut r = BufReader::new(reader);
    let mut line = String::new();
    r.read_line(&mut line).ok()?;
    match serde_json::from_str::<DaemonFrame>(line.trim_end()).ok()? {
        DaemonFrame::Welcome { version } => Some(version),
        _ => None,
    }
}

/// One shard's pipeline entrances: frames go through the batcher,
/// queries straight into the engine actor's inbox.
pub(crate) struct ShardHandle {
    pub ingest_tx: IngestTx,
    pub query_tx: SyncSender<Apply>,
}

impl ShardHandle {
    /// Puts a query in the engine actor's inbox and waits for the answer.
    fn ask(
        &self,
        query: QueryRequest,
        tenant: &Tenant,
        ctx: Option<SpanContext>,
    ) -> Result<QueryResponse, ()> {
        let (reply, answer) = sync_channel(1);
        let tenant = tenant.clone();
        let msg = Apply::Query {
            query,
            tenant,
            ctx,
            reply,
        };
        self.query_tx.send(msg).map_err(|_| ())?;
        answer.recv().map_err(|_| ())
    }
}

/// The routing table: tenant id → shard, by stable hash. A tenant's
/// whole life (ingest, queries, WAL, snapshots) happens on one shard,
/// so per-tenant ordering needs no cross-shard coordination.
pub(crate) struct Shards {
    pub handles: Vec<ShardHandle>,
}

/// The shard a tenant routes to among `shards`, by stable hash.
pub(crate) fn shard_index(tenant: &str, shards: usize) -> usize {
    let mut h = DefaultHasher::new();
    tenant.hash(&mut h);
    (h.finish() % shards as u64) as usize
}

impl Shards {
    fn handle_for(&self, tenant: &str) -> &ShardHandle {
        &self.handles[shard_index(tenant, self.handles.len())]
    }
}

/// Accept loop for one listener: polls nonblocking, spawning one reader
/// thread per connection, until shutdown or kill is raised. Exiting
/// drops this thread's clone of the shard senders, which is part of the
/// disconnect cascade (conn readers hold the rest).
pub(crate) fn run_listener(
    listener: &HubListener,
    shared: &Arc<Shared>,
    shards: &Arc<Shards>,
    read_buffer: usize,
) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) || shared.kill.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok(stream) => {
                let conn = shared.next_conn.fetch_add(1, Ordering::SeqCst);
                shared.metrics.connections.inc();
                tlog!(
                    Level::Debug,
                    "seer_daemon::hub",
                    "connection accepted",
                    conn = conn
                );
                if let Ok(dup) = stream.try_clone() {
                    shared.conns().push(dup);
                }
                let shared = Arc::clone(shared);
                let shards = Arc::clone(shards);
                thread::spawn(move || {
                    serve_conn(stream, conn, &shards, &shared, read_buffer);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return,
        }
    }
}

/// Sends a flush marker through the tenant's pipeline and waits for the
/// engine actor's acknowledgement, returning the connection's applied
/// count.
fn flush_pipeline(conn: u64, tenant: &Tenant, ingest_tx: &IngestTx) -> Result<u64, ()> {
    let (ack_tx, ack_rx) = sync_channel(1);
    ingest_tx
        .send(Ingest::Flush {
            conn,
            tenant: tenant.clone(),
            ack: ack_tx,
        })
        .map_err(|_| ())?;
    ack_rx.recv().map_err(|_| ())
}

/// When reading and decoding a frame started and how long each took —
/// measured before the frame's trace membership is known, so the spans
/// are recorded retroactively once the trace id is in hand.
#[derive(Clone, Copy)]
struct FrameTiming {
    read_start: Instant,
    read_time: Duration,
    decode_start: Instant,
    decode_time: Duration,
    bytes: usize,
}

/// Reads one newline-terminated line into `line`, refusing to buffer
/// more than `cap` bytes — the bound a hostile client's endless line
/// runs into. Returns the bytes consumed; `0` means clean EOF.
fn read_bounded_line(
    r: &mut impl BufRead,
    line: &mut Vec<u8>,
    cap: usize,
) -> Result<usize, WireError> {
    line.clear();
    let mut total = 0usize;
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            // EOF. A partial unterminated line is handed back as-is; the
            // caller's decode turns a half frame into a Format error.
            return Ok(total);
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let take = newline.map_or(buf.len(), |p| p + 1);
        if total + take > cap {
            return Err(WireError::Format(format!(
                "JSON line exceeds {cap}-byte cap"
            )));
        }
        line.extend_from_slice(&buf[..take]);
        r.consume(take);
        total += take;
        if newline.is_some() {
            return Ok(total);
        }
    }
}

/// Reads one client frame, timing the socket read and the decode as
/// separate pipeline stages. The read timing includes waiting for the
/// client, so its tail shows client pauses, not daemon slowness; the
/// decode timing is pure CPU. `Ok(None)` signals a clean end of stream.
///
/// The framing is sniffed from the first byte: [`wire::BINARY_EVENTS_MAGIC`]
/// introduces a v6 binary events frame (read into `scratch`, reused across
/// calls, and decoded without serde); anything else is a JSON line, so
/// v2–v5 clients keep working on the same code path. Both paths are
/// length-capped, so no client input can balloon the daemon's memory.
fn read_timed_frame(
    r: &mut impl BufRead,
    metrics: &PipelineMetrics,
    scratch: &mut Vec<u8>,
    line: &mut Vec<u8>,
) -> Result<Option<(ClientFrame, FrameTiming)>, WireError> {
    loop {
        let read_start = Instant::now();
        let read_timer = metrics.stage_socket_read.start_timer();
        let first = match r.fill_buf()?.first() {
            Some(&b) => b,
            None => {
                read_timer.stop();
                return Ok(None);
            }
        };
        if first == wire::BINARY_EVENTS_MAGIC {
            let mut header = [0u8; 5];
            r.read_exact(&mut header)?;
            let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
            if len > wire::BINARY_MAX_PAYLOAD {
                return Err(WireError::Format(format!(
                    "binary frame length {len} exceeds cap {}",
                    wire::BINARY_MAX_PAYLOAD
                )));
            }
            scratch.clear();
            scratch.resize(len, 0);
            r.read_exact(scratch)?;
            read_timer.stop();
            let read_time = read_start.elapsed();
            let decode_start = Instant::now();
            let decode_timer = metrics.stage_decode.start_timer();
            let (events, trace_id) = wire::decode_events_binary(scratch)?;
            decode_timer.stop();
            return Ok(Some((
                ClientFrame::Events { events, trace_id },
                FrameTiming {
                    read_start,
                    read_time,
                    decode_start,
                    decode_time: decode_start.elapsed(),
                    bytes: header.len() + len,
                },
            )));
        }
        let n = read_bounded_line(r, line, MAX_LINE_BYTES)?;
        read_timer.stop();
        let read_time = read_start.elapsed();
        if n == 0 {
            return Ok(None);
        }
        let text = std::str::from_utf8(line)
            .map_err(|e| WireError::Format(format!("frame is not valid UTF-8: {e}")))?;
        if !text.trim().is_empty() {
            let decode_start = Instant::now();
            let decode_timer = metrics.stage_decode.start_timer();
            let frame = serde_json::from_str(text.trim_end())?;
            decode_timer.stop();
            return Ok(Some((
                frame,
                FrameTiming {
                    read_start,
                    read_time,
                    decode_start,
                    decode_time: decode_start.elapsed(),
                    bytes: n,
                },
            )));
        }
    }
}

/// Records the retroactive `socket_read` → `decode` chain for a traced
/// events frame, returning the decode span's context for the batcher to
/// continue the chain.
fn record_frame_spans(tracer: &Tracer, trace: TraceId, timing: FrameTiming) -> SpanContext {
    let read_ctx = tracer.record_complete(
        "socket_read",
        trace,
        None,
        timing.read_start,
        timing.read_time,
        &[("bytes", timing.bytes.to_string())],
    );
    tracer.record_complete(
        "decode",
        trace,
        Some(read_ctx.span_id),
        timing.decode_start,
        timing.decode_time,
        &[],
    )
}

/// One connection's reader loop. Runs on its own thread; exits on EOF,
/// protocol error, or pipeline disconnect. Frames route to the shard of
/// the connection's tenant (the default until a v7 Hello names one).
fn serve_conn(
    stream: HubStream,
    conn: u64,
    shards: &Arc<Shards>,
    shared: &Arc<Shared>,
    read_buffer: usize,
) {
    let reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    // A buffer that holds a whole frame keeps each frame to one kernel
    // read; see `DaemonConfig::read_buffer`.
    let mut r = BufReader::with_capacity(read_buffer.max(512), reader);
    let mut w = BufWriter::new(stream);
    let mut scratch = Vec::new();
    let mut line = Vec::new();
    let mut tenant: Tenant = pipeline::default_tenant();
    let mut shard = shards.handle_for(&tenant);
    // The per-tenant twin of `connection_errors`, resolved once per
    // connection (and again on a tenant re-handshake) so the error
    // paths below never intern a label set.
    let mut tenant_conn_errors = shared.metrics.tenant_connection_errors(&tenant);
    loop {
        let (frame, timing) =
            match read_timed_frame(&mut r, &shared.metrics, &mut scratch, &mut line) {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(WireError::Format(m)) => {
                    // A protocol violation (garbage bytes, oversized line,
                    // half a handshake) kills this connection and nothing
                    // else — the counter is the blast-radius witness.
                    shared.metrics.connection_errors.inc();
                    tenant_conn_errors.inc();
                    tlog!(
                        Level::Warn,
                        "seer_daemon::hub",
                        "protocol error on connection",
                        conn = conn,
                        error = m.as_str(),
                    );
                    let _ = wire::write_frame(&mut w, &DaemonFrame::Error { message: m });
                    let _ = w.flush();
                    break;
                }
                Err(WireError::Io(_)) => {
                    // A mid-frame disconnect: not a clean EOF (that is
                    // `Ok(None)` above), so count it as a broken client.
                    shared.metrics.connection_errors.inc();
                    tenant_conn_errors.inc();
                    break;
                }
            };
        match frame {
            ClientFrame::Hello {
                version,
                tenant: hello_tenant,
                ..
            } => {
                // v2 differs only by the absence of trace stamps and the
                // Dump query, v3–v6 by queries and framing; all remain
                // fully functional, pinned to the default tenant.
                let reply = if (MIN_WIRE_VERSION..=WIRE_VERSION).contains(&version) {
                    if let Some(name) = hello_tenant {
                        let next: Tenant = Arc::from(name.as_str());
                        if next != tenant {
                            // Re-handshake onto a new tenant: retire this
                            // connection's state on the old shard first.
                            let _ = shard.ingest_tx.send(Ingest::ConnClosed {
                                conn,
                                tenant: tenant.clone(),
                            });
                            tenant = next;
                            shard = shards.handle_for(&tenant);
                            tenant_conn_errors = shared.metrics.tenant_connection_errors(&tenant);
                        }
                    }
                    DaemonFrame::Welcome {
                        version: WIRE_VERSION,
                    }
                } else {
                    DaemonFrame::Error {
                        message: format!(
                            "wire version mismatch: daemon speaks {MIN_WIRE_VERSION}..={WIRE_VERSION}, client sent {version}"
                        ),
                    }
                };
                if wire::write_frame(&mut w, &reply).is_err() || w.flush().is_err() {
                    break;
                }
            }
            ClientFrame::Intern { id, path } => {
                if shard
                    .ingest_tx
                    .send(Ingest::Intern {
                        conn,
                        tenant: tenant.clone(),
                        local: id,
                        path,
                    })
                    .is_err()
                {
                    break;
                }
            }
            ClientFrame::Events { events, trace_id } => {
                let n = events.len() as u64;
                // Depth *before* this send, clamped to the channel's
                // capacity (see `pipeline::queue_depth`), so this
                // observation can never exceed the configured bound.
                shared.metrics.observe_queue_depth(shard.ingest_tx.depth());
                shared.metrics.events_received.add(n);
                let ctx = trace_id
                    .map(|t| record_frame_spans(&shared.metrics.tracer, TraceId(t), timing));
                if shard
                    .ingest_tx
                    .send(Ingest::Events {
                        conn,
                        tenant: tenant.clone(),
                        events,
                        ctx,
                    })
                    .is_err()
                {
                    break;
                }
            }
            ClientFrame::Flush => match flush_pipeline(conn, &tenant, &shard.ingest_tx) {
                Ok(applied) => {
                    if wire::write_frame(&mut w, &DaemonFrame::Flushed { events: applied }).is_err()
                        || w.flush().is_err()
                    {
                        break;
                    }
                }
                Err(()) => {
                    let _ = wire::write_frame(
                        &mut w,
                        &DaemonFrame::Error {
                            message: "pipeline unavailable".into(),
                        },
                    );
                    let _ = w.flush();
                    break;
                }
            },
            ClientFrame::Query { query, trace_id } => {
                let result = if let QueryRequest::Fleet { top_k } = query {
                    run_fleet_query(conn, &tenant, top_k, shards, shard)
                } else {
                    run_query(
                        conn,
                        &tenant,
                        query,
                        trace_id,
                        shard,
                        &shared.metrics.tracer,
                    )
                };
                match result {
                    // An in-band error (e.g. an unanswerable History
                    // query) is an answer about *this query*, not a
                    // connection failure: report it and keep serving.
                    Ok(QueryResponse::Error { message }) => {
                        if wire::write_frame(&mut w, &DaemonFrame::Error { message }).is_err()
                            || w.flush().is_err()
                        {
                            break;
                        }
                    }
                    Ok(response) => {
                        if wire::write_frame(&mut w, &DaemonFrame::Answer { response }).is_err()
                            || w.flush().is_err()
                        {
                            break;
                        }
                    }
                    Err(()) => {
                        let _ = wire::write_frame(
                            &mut w,
                            &DaemonFrame::Error {
                                message: "pipeline unavailable".into(),
                            },
                        );
                        let _ = w.flush();
                        break;
                    }
                }
            }
            ClientFrame::Shutdown => {
                tlog!(
                    Level::Info,
                    "seer_daemon",
                    "shutdown requested by client",
                    conn = conn
                );
                // Flush this connection's stream so nothing it sent is
                // lost, acknowledge, then start the global cascade.
                let _ = flush_pipeline(conn, &tenant, &shard.ingest_tx);
                let _ = wire::write_frame(&mut w, &DaemonFrame::ShuttingDown);
                let _ = w.flush();
                shared.begin_shutdown();
                break;
            }
        }
    }
    tlog!(
        Level::Debug,
        "seer_daemon::hub",
        "connection closed",
        conn = conn
    );
    // Shut the socket down explicitly: the accept loop parked a
    // duplicate handle in `shared.conns` (for the shutdown cascade), so
    // dropping our halves alone would leave the connection half-open —
    // and a peer mid-write (e.g. the hostile client whose oversized
    // frame got it evicted) would block forever instead of seeing EPIPE.
    w.get_ref().shutdown_both();
    let _ = shard.ingest_tx.send(Ingest::ConnClosed {
        conn,
        tenant: tenant.clone(),
    });
}

/// Flushes the connection's stream, then forwards the query to the
/// tenant's engine actor and waits for its answer.
///
/// A traced query gets a root `query` span covering the whole exchange,
/// with a `flush_wait` child for the pipeline drain; the engine actor
/// hangs its `engine_answer` span (and any recluster it triggers) off
/// the root via the forwarded context.
fn run_query(
    conn: u64,
    tenant: &Tenant,
    query: QueryRequest,
    trace_id: Option<u64>,
    shard: &ShardHandle,
    tracer: &Tracer,
) -> Result<QueryResponse, ()> {
    let root = trace_id.map(|t| tracer.span_in("query", TraceId(t), None));
    let ctx = root.as_ref().map(seer_telemetry::Span::context);
    {
        let _flush_span = ctx.map(|c| tracer.child("flush_wait", c));
        flush_pipeline(conn, tenant, &shard.ingest_tx)?;
    }
    shard.ask(query, tenant, ctx)
}

/// A `Fleet` query fans out to every shard (each answers for its local
/// tenants) and merges: totals sum, rows concatenate, and the merged
/// list is re-ranked by miss rate and cut to `top_k`.
fn run_fleet_query(
    conn: u64,
    tenant: &Tenant,
    top_k: Option<usize>,
    shards: &Shards,
    own_shard: &ShardHandle,
) -> Result<QueryResponse, ()> {
    // Flush this connection's stream first, same as any query, so the
    // aggregate includes everything this connection already sent.
    flush_pipeline(conn, tenant, &own_shard.ingest_tx)?;
    let mut tenants = 0usize;
    let mut total_events = 0u64;
    let mut per_tenant: Vec<TenantFleetStat> = Vec::new();
    for shard in &shards.handles {
        match shard.ask(QueryRequest::Fleet { top_k }, tenant, None)? {
            QueryResponse::Fleet {
                tenants: t,
                total_events: e,
                per_tenant: rows,
            } => {
                tenants += t;
                total_events += e;
                per_tenant.extend(rows);
            }
            other => return Ok(other),
        }
    }
    per_tenant.sort_by(|a, b| {
        b.miss_rate
            .total_cmp(&a.miss_rate)
            .then_with(|| a.tenant.cmp(&b.tenant))
    });
    if let Some(k) = top_k {
        per_tenant.truncate(k);
    }
    Ok(QueryResponse::Fleet {
        tenants,
        total_events,
        per_tenant,
    })
}
