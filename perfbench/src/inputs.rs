//! Workload inputs: generated machine traces, their disconnection
//! schedules, and the user-file reads made while disconnected.
//!
//! Everything here is a pure function of the workload name, the seed,
//! and the run length, so the same arguments always give the same
//! inputs. The daemon only ever sees the generated events.

use seer_observer::{Observer, ObserverConfig, RefKind, Reference, ReferenceSink};
use seer_trace::{EventSink, FileId, PathTable, Trace};
use seer_workload::{generate, MachineProfile};
use std::collections::HashSet;

/// Events per binary frame on the wire.
pub const FRAME_EVENTS: usize = 256;

/// One scheduled disconnection of a tenant's trace.
pub struct Disconnection {
    /// Index of the first event at or after the disconnection's start:
    /// the hoard is chosen once every earlier event is applied.
    pub at: usize,
    /// Canonical paths of the user-file reads (`/home/...`) made while
    /// disconnected, one entry per open, in trace order. Files first
    /// seen during the disconnection are left out: no hoard could
    /// have known them.
    pub reads: Vec<String>,
}

/// One observed machine: a tenant of the daemon.
pub struct Tenant {
    /// Tenant name sent in the handshake.
    pub name: String,
    /// The generated trace.
    pub trace: Trace,
    /// Disconnections in trace order.
    pub disconnections: Vec<Disconnection>,
    /// Whether the client asks for a hoard at each disconnection.
    pub queried: bool,
}

impl Tenant {
    /// Generates the machine's trace, cut to at most `cap` events so the
    /// work per run does not vary with the seed. The name does not
    /// depend on the seed either: it picks the tenant's daemon shard.
    fn new(name: &str, profile: &MachineProfile, seed: u64, queried: bool, cap: usize) -> Tenant {
        let workload = generate(profile, seed);
        let mut trace = workload.trace;
        trace.events.truncate(cap);
        let periods: Vec<(u64, u64)> = workload
            .schedule
            .iter()
            .map(|p| (p.start.0, p.end.0))
            .collect();
        let mut observer = Observer::new(
            ObserverConfig::permissive(),
            DisconnectedReads {
                periods: periods.clone(),
                seen: HashSet::new(),
                created: HashSet::new(),
                current: None,
                reads: vec![Vec::new(); periods.len()],
            },
        );
        for ev in &trace.events {
            observer.on_event(ev, &trace.strings);
        }
        let reads = std::mem::take(&mut observer.sink_mut().reads);
        let disconnections = periods
            .iter()
            .zip(reads)
            .map(|(&(start, _), reads)| Disconnection {
                at: trace.events.partition_point(|e| e.time.0 < start),
                reads,
            })
            .collect();
        Tenant {
            name: name.to_owned(),
            trace,
            disconnections,
            queried,
        }
    }

    /// Events in the trace.
    pub fn len(&self) -> usize {
        self.trace.events.len()
    }
}

/// Collects, per disconnection, the reads of user files that existed
/// before it began (the reads a hoard is judged on).
struct DisconnectedReads {
    periods: Vec<(u64, u64)>,
    seen: HashSet<FileId>,
    created: HashSet<FileId>,
    current: Option<usize>,
    reads: Vec<Vec<String>>,
}

impl ReferenceSink for DisconnectedReads {
    fn on_reference(&mut self, r: &Reference, paths: &PathTable) {
        let RefKind::Open { read, write, .. } = r.kind else {
            return;
        };
        let t = r.time.0;
        let period = self.periods.iter().position(|&(s, e)| t >= s && t < e);
        if period != self.current {
            self.created.clear();
            self.current = period;
        }
        let seen_before = !self.seen.insert(r.file);
        let Some(d) = period else { return };
        if !seen_before || (write && !read) {
            self.created.insert(r.file);
            return;
        }
        if !read || self.created.contains(&r.file) {
            return;
        }
        if let Some(p) = paths.resolve(r.file) {
            if p.starts_with("/home/") {
                self.reads[d].push(p.to_owned());
            }
        }
    }
}

/// Machine labels of the paper's nine traced laptops.
pub const MACHINES: [&str; 9] = ["A", "B", "C", "D", "E", "F", "G", "H", "I"];

/// Builds the tenants of `workload` for `seed`, sized by `seconds`.
///
/// - `ingest`: machine F stretched to 125 days per second of run
///   length, keeping F's 184 disconnections, cut to 200,000 events per
///   second (2 M at 10 s).
/// - `fleet`: machines A–I × four seeds each, scaled to 8 days per
///   second of run length (capped at each machine's measured days);
///   the first seed of each machine is queried.
pub fn tenants(workload: &str, seed: u64, seconds: u64) -> Option<Vec<Tenant>> {
    let seconds = u32::try_from(seconds).unwrap_or(u32::MAX).max(1);
    Some(match workload {
        "ingest" => {
            let profile = MachineProfile {
                days: seconds.saturating_mul(125),
                ..MachineProfile::by_name("F").expect("machine F is built in")
            };
            let cap = 200_000 * seconds as usize;
            vec![Tenant::new("F", &profile, seed, true, cap)]
        }
        "fleet" => {
            let mut out = Vec::new();
            for k in 0..4u64 {
                for m in MACHINES {
                    let profile = MachineProfile::by_name(m)
                        .expect("paper machine")
                        .scaled_to_days(seconds.saturating_mul(8));
                    let name = format!("{m}{}", k + 1);
                    let seed = seed.saturating_sub(1) * 4 + 1 + k;
                    out.push(Tenant::new(&name, &profile, seed, k == 0, usize::MAX));
                }
            }
            out
        }
        _ => return None,
    })
}
