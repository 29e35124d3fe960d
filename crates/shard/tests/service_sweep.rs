//! End-to-end guarantees of the multi-sweep service daemon, driven
//! through the real `mbcr` binary and its HTTP client plane:
//!
//! * two overlapping sweeps submitted **concurrently** to one daemon
//!   produce per-sweep manifests and Table 2 CSVs byte-identical to
//!   sequential single-process runs of the same specs against one store,
//!   with every digest-shared stage executed exactly once (the second
//!   sweep's manifest reports it `skipped` — truthful counts on both
//!   sides);
//! * a daemon killed with SIGKILL mid-campaign resumes its whole queue
//!   on restart: journaled job records replay with their original
//!   statuses, the interrupted campaign adopts its chunk log, and every
//!   artifact matches the clean reference byte-for-byte — the manifests
//!   differing only in `campaign_resumed`;
//! * a worker sent SIGTERM drains gracefully: it checkpoints and flushes
//!   the in-flight campaign chunk, hands its leases back, and exits 0,
//!   while the surviving fleet adopts the campaign and the outputs stay
//!   byte-identical to a single-process run.

mod common;

use std::fs;
use std::path::Path;
use std::process::Child;

use common::{
    assert_matches_reference, max_campaign_resumed, reap, run_ok, sequential_reference,
    spawn_worker, submit, tmp_dir, wait_for_slog, Daemon,
};

/// Blocks until every sweep on the daemon is terminal: `report --follow`
/// without `--sweep` follows each listed sweep to its end.
fn follow_until_done(daemon: &Daemon) {
    run_ok(&["report", "--connect", &daemon.url(), "--follow"]);
}

/// The sweep-spec arguments of the two overlapping campaigns used by the
/// dedup test: same benchmark and seed 11 everywhere (whole pipelines
/// shared), beta adding seed 12 (sharing only the seed-free pub/trace
/// stages with alpha).
fn overlap_specs(quick: bool) -> Vec<Vec<String>> {
    let (alpha_seeds, beta_seeds) = ("11", "11,12");
    let cap = if quick { "600" } else { "60000" };
    let make = |name: &str, seeds: &str| -> Vec<String> {
        [
            "--name",
            name,
            "--benchmarks",
            "bs",
            "--seeds",
            seeds,
            "--analyses",
            "pub_tac",
            "--max-campaign-runs",
            cap,
            "--checkpoint-interval",
            "200",
        ]
        .into_iter()
        .map(str::to_string)
        .collect()
    };
    vec![make("alpha", alpha_seeds), make("beta", beta_seeds)]
}

fn submit_all(daemon: &Daemon, specs: &[Vec<String>]) -> Vec<String> {
    specs
        .iter()
        .map(|s| {
            submit(
                &daemon.http,
                &s.iter().map(String::as_str).collect::<Vec<_>>(),
            )
        })
        .collect()
}

#[test]
fn concurrent_overlapping_sweeps_dedup_and_match_sequential_runs_byte_for_byte() {
    let reference = tmp_dir("dedup-ref");
    let specs = overlap_specs(true);
    let captured = sequential_reference(&reference, &specs);

    let out = tmp_dir("dedup-daemon");
    let daemon = Daemon::spawn(&out);
    // Submit both before any worker exists: when the fleet comes up, both
    // sweeps are active concurrently and the scheduler interleaves them.
    let ids = submit_all(&daemon, &specs);
    assert_ne!(ids[0], ids[1]);
    let mut workers: Vec<Child> = (0..2).map(|_| spawn_worker(&daemon.addr)).collect();
    follow_until_done(&daemon);
    reap(&mut workers);

    // Per-sweep manifests and tables byte-identical to the sequential
    // single-process runs, over the same artifact universe. This is also
    // what proves shared stages executed once — a re-execution would
    // have been recorded as `executed` in beta's manifest.
    let sweeps: Vec<_> = ids.into_iter().zip(captured.iter().cloned()).collect();
    assert_matches_reference(&out, &reference, &sweeps, false);

    // Truthful counts, stated explicitly: alpha executed its pipeline,
    // beta skipped every stage it shares with alpha (all of seed 11) and
    // executed only its own seed-12 work.
    let counts = |manifest: &str| {
        let doc = mbcr_json::parse(manifest).expect("manifest parses");
        let counts = doc.get("counts").expect("counts").clone();
        (
            counts
                .get("executed")
                .and_then(mbcr_json::Json::as_u64)
                .unwrap(),
            counts
                .get("skipped")
                .and_then(mbcr_json::Json::as_u64)
                .unwrap(),
        )
    };
    let (alpha_executed, alpha_skipped) = counts(&captured[0].0);
    let (beta_executed, beta_skipped) = counts(&captured[1].0);
    assert!(alpha_executed > 0 && alpha_skipped == 0);
    assert!(
        beta_skipped >= alpha_executed,
        "beta must skip at least alpha's whole shared pipeline"
    );
    assert!(beta_executed > 0, "beta still executes its seed-12 stages");

    let _ = fs::remove_dir_all(&reference);
    let _ = fs::remove_dir_all(&out);
}

/// One kill attempt for the daemon-restart test. Returns the sweep ids
/// and the maximum `campaign_resumed` found across both sweeps'
/// manifests (`0` when the SIGKILL missed every in-flight campaign — the
/// caller retries).
fn kill_daemon_mid_campaign(out: &Path, specs: &[Vec<String>]) -> (Vec<String>, u64) {
    let ids: Vec<String>;
    {
        let mut daemon = Daemon::spawn(out);
        ids = submit_all(&daemon, specs);
        let mut workers: Vec<Child> = (0..2).map(|_| spawn_worker(&daemon.addr)).collect();
        // Let the campaigns stream well past the convergence prefix, then
        // SIGKILL the daemon mid-flight.
        wait_for_slog(out, 8 * 1024, &mut daemon);
        drop(daemon); // SIGKILL (Drop uses Child::kill)
        reap(&mut workers);
    }
    // Restart over the same store: the queue and record journals must
    // bring both sweeps back, mid-campaign work adopted from chunk logs.
    let daemon = Daemon::spawn(out);
    let mut workers: Vec<Child> = (0..2).map(|_| spawn_worker(&daemon.addr)).collect();
    follow_until_done(&daemon);
    // `status` takes the gateway as a bare host:port too.
    let status = run_ok(&["status", "--connect", &daemon.http]);
    reap(&mut workers);
    for id in &ids {
        assert!(
            status.contains(id.as_str()),
            "restarted daemon must still know sweep {id}:\n{status}"
        );
    }
    let resumed = ids
        .iter()
        .map(|id| max_campaign_resumed(&out.join("sweeps").join(id).join("manifest.json")))
        .max()
        .unwrap_or(0);
    (ids, resumed)
}

#[test]
fn sigkilled_daemon_resumes_its_whole_queue_byte_identically() {
    let specs = overlap_specs(false); // ~21k-run campaigns: room to interrupt
    let reference = tmp_dir("daemon-kill-ref");
    let captured = sequential_reference(&reference, &specs);

    let mut resumed = 0;
    for attempt in 0..4 {
        let out = tmp_dir(&format!("daemon-kill-{attempt}"));
        let ids;
        (ids, resumed) = kill_daemon_mid_campaign(&out, &specs);
        if resumed > 0 {
            // Shared content identical to the clean sequential store, and
            // the per-sweep manifests/tables differ from the clean
            // references only in the resumed-run counts.
            let sweeps: Vec<_> = ids.into_iter().zip(captured.iter().cloned()).collect();
            assert_matches_reference(&out, &reference, &sweeps, true);
            let _ = fs::remove_dir_all(&out);
            break;
        }
        eprintln!("attempt {attempt}: kill missed every in-flight campaign; retrying");
        let _ = fs::remove_dir_all(&out);
    }
    assert!(
        resumed > 0,
        "no attempt interrupted a campaign mid-flight; the queue-resume \
         adoption path was never exercised"
    );
    let _ = fs::remove_dir_all(&reference);
}

#[cfg(unix)]
#[test]
fn sigtermed_worker_drains_gracefully_and_the_fleet_adopts_its_campaign() {
    let spec_args = [
        "--benchmarks",
        "bs",
        "--seeds",
        "7,8",
        "--analyses",
        "pub_tac",
        "--max-campaign-runs",
        "60000",
        "--checkpoint-interval",
        "500",
    ];
    let reference = tmp_dir("drain-ref");
    let spec: Vec<String> = spec_args.iter().map(ToString::to_string).collect();
    let captured = sequential_reference(&reference, &[spec]);

    let mut resumed = 0;
    for attempt in 0..4 {
        let out = tmp_dir(&format!("drain-{attempt}"));
        let id;
        (id, resumed) = common::lose_one_worker_mid_campaign(&out, &spec_args, true);
        if resumed > 0 {
            assert_matches_reference(&out, &reference, &[(id, captured[0].clone())], true);
            let _ = fs::remove_dir_all(&out);
            break;
        }
        eprintln!("attempt {attempt}: drain missed every in-flight campaign; retrying");
        let _ = fs::remove_dir_all(&out);
    }
    assert!(
        resumed > 0,
        "no attempt drained a worker mid-campaign; the graceful-drain \
         adoption path was never exercised"
    );
    let _ = fs::remove_dir_all(&reference);
}
