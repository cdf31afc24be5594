//! The offline reference for hoard answers: a single-threaded
//! `SeerEngine` replay of the same trace prefix, reclustered and asked
//! for a hoard at the same budget and uniform file size.

use crate::drive::{HoardAnswer, BUDGET};
use crate::inputs::{Tenant, FRAME_EVENTS};
use seer_core::SeerEngine;
use seer_trace::EventSink;

/// The uniform file size the daemon runs with (`--file-size`) and the
/// replay assumes.
pub const FILE_SIZE: u64 = 1024;

/// Compares every online answer with the offline replay; returns one
/// message per mismatch.
pub fn check_hoards(tenants: &[Tenant], answers: &[HoardAnswer]) -> Vec<String> {
    let mut failures = Vec::new();
    for (t, tenant) in tenants.iter().enumerate() {
        let mut mine: Vec<&HoardAnswer> = answers.iter().filter(|a| a.tenant == t).collect();
        if mine.is_empty() {
            continue;
        }
        mine.sort_by_key(|a| a.disconnection);
        let mut engine = SeerEngine::default();
        let mut pos = 0usize;
        for a in mine {
            let at = tenant.disconnections[a.disconnection].at;
            for chunk in tenant.trace.events[pos..at].chunks(FRAME_EVENTS) {
                engine.on_batch(chunk, &tenant.trace.strings);
            }
            pos = at;
            let expected = offline_hoard(&mut engine);
            if let Some(e) = check_hoard(&a.files, &expected) {
                failures.push(format!(
                    "{} disconnection {}: {e}",
                    tenant.name, a.disconnection
                ));
            }
        }
    }
    failures
}

/// Reclusters and selects a hoard, resolved to canonical paths.
fn offline_hoard(engine: &mut SeerEngine) -> Vec<String> {
    engine.recluster();
    let sel = engine.choose_hoard(BUDGET, &|_| FILE_SIZE);
    sel.files
        .iter()
        .filter_map(|&f| engine.paths().resolve(f).map(str::to_owned))
        .collect()
}

/// An online hoard must equal the offline one exactly, order included.
pub fn check_hoard(online: &[String], offline: &[String]) -> Option<String> {
    if online == offline {
        return None;
    }
    let missing = offline.iter().filter(|f| !online.contains(f)).count();
    let extra = online.iter().filter(|f| !offline.contains(f)).count();
    Some(format!(
        "online hoard of {} files differs from offline replay of {} ({missing} missing, {extra} extra)",
        online.len(),
        offline.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::check_hoard;

    fn hoard() -> Vec<String> {
        ["/home/u/a.c", "/home/u/a.h", "/home/u/b.c"]
            .map(String::from)
            .to_vec()
    }

    #[test]
    fn identical_hoards_pass() {
        assert_eq!(check_hoard(&hoard(), &hoard()), None);
    }

    #[test]
    fn hoard_with_one_file_removed_fails() {
        let mut online = hoard();
        online.pop();
        assert!(check_hoard(&online, &hoard()).is_some());
    }

    #[test]
    fn reordered_hoard_fails() {
        let mut online = hoard();
        online.swap(0, 2);
        assert!(check_hoard(&online, &hoard()).is_some());
    }
}
