//! End-to-end and per-layer benchmark of the SEER daemon.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ingest|fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run generates its workload from the seed, starts a `seer daemon`
//! child process on an empty data directory under `.perfbench_run/`,
//! streams the workload over the daemon's socket protocol, asks for a
//! fresh hoard at every scheduled disconnection, crashes the daemon with
//! SIGKILL near the end and times its recovery. It then checks the
//! outputs and prints one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Any failed
//! check makes the run exit non-zero. See `perfbench/README.md`.

mod child;
mod drive;
mod inputs;
mod layers;
mod offline;
mod report;

use drive::{Outcome, Plan};
use report::{json_str, median, quantile, Metrics};
use seer_telemetry::Tracer;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Where runs keep daemon data directories (emptied at start and end).
const RUN_DIR: &str = ".perfbench_run";
/// Where traced runs leave their Chrome trace files.
const OUT_DIR: &str = ".perfbench_out";
/// Extra cold starts whose median, with the workload's own start, is
/// `setup_s`: one start takes about 50 ms, so one slow start would
/// move a single sample by more than its bound.
const SETUP_STARTS: usize = 6;
/// Spans the client-side tracer keeps.
const TRACE_CAPACITY: usize = 1 << 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    inject: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        inject: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} wants a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed wants a number")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds wants a number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1 (got {other})")),
                }
            }
            "--inject" => args.inject = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The client plan of each workload (see README.md for why).
fn plan(workload: &str) -> Plan {
    match workload {
        "fleet" => Plan {
            threads: 2,
            window_frames: 8,
            turn_frames: Some(8),
        },
        _ => Plan {
            threads: 1,
            window_frames: 16,
            turn_frames: None,
        },
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("daemon") {
        return run_daemon(&argv);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            let _ = std::fs::remove_dir_all(RUN_DIR);
            ExitCode::from(1)
        }
    }
}

/// The child side: run `seer daemon` with the given arguments.
fn run_daemon(argv: &[String]) -> ExitCode {
    let parsed = match seer_cli::Args::parse(argv.iter().cloned()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("seer: {e}");
            return ExitCode::from(2);
        }
    };
    match seer_cli::commands::dispatch(&parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("seer: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs one workload; returns whether every check passed.
fn run(args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let tenants = inputs::tenants(&args.workload, args.seed, args.seconds)
        .ok_or_else(|| format!("unknown workload {:?} (ingest|fleet)", args.workload))?;
    let plan = plan(&args.workload);
    let root = PathBuf::from(RUN_DIR).join(&args.workload);
    eprintln!(
        "perfbench: {} seed {}: {} tenants, {} events, inputs in {:.1}s",
        args.workload,
        args.seed,
        tenants.len(),
        tenants.iter().map(inputs::Tenant::len).sum::<usize>(),
        started.elapsed().as_secs_f64()
    );

    let mut setup = cold_starts(&root, &tenants[0].name)?;
    let tracer = if args.trace {
        Tracer::new(TRACE_CAPACITY, Duration::MAX)
    } else {
        Tracer::disabled()
    };
    let mut out = drive::run(&root.join("run"), &tenants, plan, &tracer)?;
    setup.push(out.start_s);
    inject(args.inject.as_deref(), &mut out)?;
    gate(&tenants, &mut out);

    let mut metrics = Metrics::default();
    if args.trace {
        let mut untraced = drive::run(&root.join("untraced"), &tenants, plan, &Tracer::disabled())?;
        gate(&tenants, &mut untraced);
        metrics = layers::measure(&tenants, &root, &tracer)?;
        client_layers(&mut metrics, &out);
        // CPU-bound figures follow the host's speed drift too closely
        // for an end-to-end bound (see README.md); the untraced run
        // reports them here.
        metrics.put("client.events_per_s", "events/s", events_per_s(&untraced));
        metrics.put("client.recover_s", "s", untraced.recover_s);
        metrics.put(
            "client.flush_p50_ms",
            "ms",
            quantile(&untraced.flush_ms, 0.5),
        );
        metrics.put(
            "client.flush_p90_ms",
            "ms",
            quantile(&untraced.flush_ms, 0.9),
        );
        metrics.put(
            "bench.trace_overhead",
            "ratio",
            events_per_s(&out) / events_per_s(&untraced),
        );
        write_trace(&tracer, &args.workload, args.seed)?;
        out.attempted += untraced.attempted;
        out.failures.extend(untraced.failures);
    } else {
        end_to_end(&mut metrics, &out, &setup);
    }
    let _ = std::fs::remove_dir_all(RUN_DIR);

    for f in &out.failures {
        eprintln!("perfbench: CHECK FAILED: {f}");
    }
    let correct = out.failures.is_empty();
    println!("{}", environment(args, &tenants, &out, setup.len()));
    println!(
        "{}",
        report::result_line(correct, out.attempted, out.failures.len() as u64, &metrics)
    );
    eprintln!("perfbench: done in {:.1}s", started.elapsed().as_secs_f64());
    Ok(correct)
}

/// Cold starts on empty data directories, each shut down again;
/// returns their start-up times in seconds.
fn cold_starts(root: &Path, tenant: &str) -> Result<Vec<f64>, String> {
    (0..SETUP_STARTS)
        .map(|i| {
            let dir = root.join(format!("setup{i}"));
            let _ = std::fs::remove_dir_all(&dir);
            let (daemon, took) = child::DaemonChild::start(&dir, tenant)?;
            daemon.shutdown()?;
            Ok(took.as_secs_f64())
        })
        .collect()
}

/// Scores the hoards and checks a run's outputs, outside every timed
/// phase: the crash invariant per tenant and every hoard against the
/// offline replay.
fn gate(tenants: &[inputs::Tenant], out: &mut Outcome) {
    drive::score_hoards(tenants, out);
    for (t, tenant) in tenants.iter().enumerate() {
        if let Some(e) = drive::check_recovered(out.acked[t], out.recovered[t], out.sent[t]) {
            out.failures.push(format!("{}: {e}", tenant.name));
        }
    }
    out.failures
        .extend(offline::check_hoards(tenants, &out.hoards));
}

/// Deliberate faults for showing that the gate fails the run.
fn inject(fault: Option<&str>, out: &mut Outcome) -> Result<(), String> {
    match fault {
        None => {}
        Some("recovered-short") => {
            let t = out
                .acked
                .iter()
                .position(|&n| n > 0)
                .ok_or("nothing acked")?;
            out.recovered[t] = out.acked[t] - 1;
        }
        Some("hoard-drop") => {
            let h = out
                .hoards
                .iter_mut()
                .find(|h| !h.files.is_empty())
                .ok_or("no non-empty hoard")?;
            h.files.pop();
        }
        Some(other) => {
            return Err(format!(
                "unknown fault {other} (recovered-short|hoard-drop)"
            ))
        }
    }
    Ok(())
}

/// The median full window's streaming rate.
fn events_per_s(out: &Outcome) -> f64 {
    median(&out.window_rates)
}

fn end_to_end(m: &mut Metrics, out: &Outcome, setup: &[f64]) {
    m.put("hoard_p50_ms", "ms", quantile(&out.hoard_ms, 0.5));
    m.put("hoard_p90_ms", "ms", quantile(&out.hoard_ms, 0.9));
    m.put("setup_s", "s", median(setup));
    m.put("peak_rss_mb", "MiB", out.peak_rss_mb);
    m.put(
        "wal_bytes_per_event",
        "B",
        out.wal_bytes as f64 / out.events_applied as f64,
    );
}

/// Layer metrics measured around the client's own daemon calls.
fn client_layers(m: &mut Metrics, out: &Outcome) {
    m.put("daemon.hoard_wait_ms", "ms", quantile(&out.hoard_ms, 0.5));
    m.put("daemon.connect_ms", "ms", quantile(&out.connect_ms, 0.5));
    m.put(
        "daemon.send_us_per_frame",
        "us",
        quantile(&out.send_us, 0.5),
    );
    m.put("daemon.flush_wait_ms", "ms", quantile(&out.flush_ms, 0.5));
    m.put("daemon.start_ms", "ms", out.start_s * 1e3);
    m.put("daemon.restore_ms", "ms", quantile(&out.restore_ms, 0.5));
    m.put(
        "core.hoard_miss_ratio",
        "ratio",
        out.missed as f64 / out.reads as f64,
    );
    m.put(
        "core.failed_disc_ratio",
        "ratio",
        out.failed_disconnections as f64 / out.disconnections as f64,
    );
}

/// Writes the client-side spans as a Chrome trace.
fn write_trace(tracer: &Tracer, workload: &str, seed: u64) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("mkdir {OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(format!("{workload}-seed{seed}.trace.json"));
    std::fs::write(
        &path,
        seer_telemetry::render_chrome_trace(&tracer.snapshot()),
    )
    .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(())
}

/// One JSON line recording what the result was measured on.
fn environment(args: &Args, tenants: &[inputs::Tenant], out: &Outcome, setups: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let dir = Path::new(RUN_DIR).join(&args.workload).join("run");
    let daemon: Vec<String> = child::daemon_args(&dir)
        .iter()
        .map(|a| json_str(a))
        .collect();
    let events: usize = tenants.iter().map(inputs::Tenant::len).sum();
    format!(
        "{{\"environment\": {{\"commit\": {}, \"nproc\": {nproc}, \"workload\": {}, \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"daemon_args\": [{}], \"client_threads\": {}, \
         \"tenants\": {}, \"events\": {events}, \"samples\": {{\"flush\": {}, \"hoard\": {}, \
         \"setup\": {setups}, \"recover\": {}, \"restore\": {}, \"connect\": {}}}, \
         \"quality\": {{\"reads\": {}, \
         \"missed\": {}, \"disconnections\": {}, \"failed_disconnections\": {}}}}}}}",
        json_str(&report::commit()),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        daemon.join(", "),
        plan(&args.workload).threads,
        tenants.len(),
        out.flush_ms.len(),
        out.hoard_ms.len(),
        drive::RECOVERIES,
        out.restore_ms.len(),
        out.connect_ms.len(),
        out.reads,
        out.missed,
        out.disconnections,
        out.failed_disconnections,
    )
}
