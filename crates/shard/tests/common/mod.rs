//! Shared harness of the end-to-end suites: a daemon with its worker
//! listener and HTTP gateway, workers, the CLI client, and the
//! byte-identity comparisons every suite asserts.

// Each suite uses its own subset of the harness.
#![allow(dead_code)]

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mbcr_json::Json;

pub const MBCR: &str = env!("CARGO_BIN_EXE_mbcr");

/// A fresh (removed) scratch directory under the system temp dir.
pub fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbcr-shard-e2e-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Runs `mbcr` to success and returns its stdout.
pub fn run_ok(args: &[&str]) -> String {
    let output = Command::new(MBCR).args(args).output().expect("spawn mbcr");
    assert!(
        output.status.success(),
        "mbcr {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// Every file under a directory, relative path → bytes, sorted. `*.tmpN`
/// strays a `kill -9`'d writer left mid-`write_atomic` are skipped — the
/// store contract says scans ignore them; they are not artifacts.
fn snapshot(root: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in fs::read_dir(dir).expect("read_dir").flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, root, out);
            } else if path
                .extension()
                .is_some_and(|e| e.to_string_lossy().starts_with("tmp"))
            {
                continue;
            } else {
                let rel = path
                    .strip_prefix(root)
                    .expect("under root")
                    .to_string_lossy()
                    .into_owned();
                out.push((rel, fs::read(&path).expect("read file")));
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

pub fn assert_dirs_identical(a: &Path, b: &Path, what: &str) {
    let snap_a = snapshot(a);
    let snap_b = snapshot(b);
    let names = |snap: &[(String, Vec<u8>)]| -> Vec<String> {
        snap.iter().map(|(n, _)| n.clone()).collect()
    };
    assert_eq!(names(&snap_a), names(&snap_b), "{what}: file sets differ");
    for ((name_a, bytes_a), (_, bytes_b)) in snap_a.iter().zip(&snap_b) {
        assert_eq!(
            bytes_a,
            bytes_b,
            "{what}: {name_a} differs between {} and {}",
            a.display(),
            b.display()
        );
    }
}

/// Strips the `campaign_resumed` lines a resumed/adopted campaign is
/// allowed (and required) to differ in.
pub fn normalize_manifest(text: &str) -> String {
    text.lines()
        .filter(|l| !l.contains("\"campaign_resumed\""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The largest `campaign_resumed` count in a manifest (`0` when no
/// campaign resumed).
pub fn max_campaign_resumed(manifest: &Path) -> u64 {
    let text = fs::read_to_string(manifest).expect("manifest");
    let doc = mbcr_json::parse(&text).expect("manifest parses");
    doc.get("jobs")
        .and_then(Json::as_array)
        .map(|jobs| {
            jobs.iter()
                .filter_map(|j| j.get("summary"))
                .filter_map(|s| s.get("campaign_resumed"))
                .filter_map(Json::as_u64)
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0)
}

/// Sequential single-process reference: runs each spec with `mbcr sweep`
/// against one store, capturing (manifest, table2) after each — exactly
/// what a daemon's per-sweep scopes must reproduce.
pub fn sequential_reference(store: &Path, specs: &[Vec<String>]) -> Vec<(String, String)> {
    let out = store.display().to_string();
    specs
        .iter()
        .map(|spec| {
            let mut args = vec!["sweep", "--out", &out];
            args.extend(spec.iter().map(String::as_str));
            run_ok(&args);
            (
                fs::read_to_string(store.join("manifest.json")).expect("manifest"),
                fs::read_to_string(store.join("table2.csv")).expect("table2"),
            )
        })
        .collect()
}

/// Asserts a daemon store against a sequential reference store: shared
/// `jobs/` and `stages/` byte-identical, and each sweep's manifest and
/// Table 2 equal to its captured reference — manifests up to
/// `campaign_resumed` when `resumed` (a kill or drain interrupted a
/// campaign), exactly otherwise.
pub fn assert_matches_reference(
    out: &Path,
    reference: &Path,
    sweeps: &[(String, (String, String))],
    resumed: bool,
) {
    assert_dirs_identical(&reference.join("jobs"), &out.join("jobs"), "jobs/");
    assert_dirs_identical(&reference.join("stages"), &out.join("stages"), "stages/");
    for (id, (ref_manifest, ref_table)) in sweeps {
        let scope = out.join("sweeps").join(id);
        let manifest = fs::read_to_string(scope.join("manifest.json")).expect("manifest");
        if resumed {
            assert_eq!(
                normalize_manifest(&manifest),
                normalize_manifest(ref_manifest),
                "{id}: manifests must agree on everything but campaign_resumed"
            );
        } else {
            assert_eq!(
                &manifest, ref_manifest,
                "{id}: manifest must match its sequential reference"
            );
        }
        assert_eq!(
            &fs::read_to_string(scope.join("table2.csv")).expect("table2"),
            ref_table,
            "{id}: table2 must match its sequential reference"
        );
    }
}

/// A running `mbcr serve`: `addr` is the worker listener, `http` the
/// gateway (`host:port`) every client talks to. Dropping it SIGKILLs the
/// daemon.
pub struct Daemon {
    child: Child,
    pub addr: String,
    pub http: String,
}

impl Daemon {
    pub fn spawn(out: &Path) -> Self {
        let mut child = Command::new(MBCR)
            .args(["serve", "--listen", "127.0.0.1:0", "--http", "127.0.0.1:0"])
            .args(["--out", &out.display().to_string()])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn daemon");
        let stdout = child.stdout.take().expect("daemon stdout");
        let mut lines = BufReader::new(stdout).lines();
        let (mut addr, mut http) = (None, None);
        while addr.is_none() || http.is_none() {
            let line = lines
                .next()
                .expect("daemon exited before announcing its addresses")
                .expect("read daemon stdout");
            if let Some(a) = line.strip_prefix("service listening on ") {
                addr = Some(a.to_string());
            } else if let Some(h) = line.strip_prefix("http listening on ") {
                http = Some(h.to_string());
            }
        }
        // Drain the rest of the daemon's stdout so it never blocks on a
        // full pipe.
        std::thread::spawn(move || for _ in lines {});
        Self {
            child,
            addr: addr.expect("service address"),
            http: http.expect("http address"),
        }
    }

    /// The gateway as an `http://` URL.
    pub fn url(&self) -> String {
        format!("http://{}", self.http)
    }

    /// Panics when the daemon died.
    pub fn assert_alive(&mut self) {
        if let Ok(Some(status)) = self.child.try_wait() {
            panic!("the daemon exited early with {status}");
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

pub fn spawn_worker(addr: &str) -> Child {
    Command::new(MBCR)
        .args(["worker", "--connect", addr])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn worker")
}

pub fn reap(workers: &mut [Child]) {
    for w in workers {
        let _ = w.kill();
        let _ = w.wait();
    }
}

/// Submits `mbcr sweep`-style spec arguments with `mbcr submit --connect
/// <gateway>`, returning the sweep id.
pub fn submit(gateway: &str, args: &[&str]) -> String {
    let mut all = vec!["submit", "--connect", gateway];
    all.extend(args);
    run_ok(&all)
        .lines()
        .find_map(|l| l.strip_prefix("submitted "))
        .expect("submit prints the sweep id")
        .trim()
        .to_string()
}

/// Total bytes of campaign chunk logs currently in a store.
pub fn slog_bytes(out: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(out.join("stages")) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".samples.slog"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Blocks until the store's campaign chunk logs hold `bytes` (panics
/// after five minutes, or when the daemon died).
pub fn wait_for_slog(out: &Path, bytes: u64, daemon: &mut Daemon) {
    let deadline = Instant::now() + Duration::from_secs(300);
    while slog_bytes(out) < bytes {
        assert!(Instant::now() < deadline, "campaign logs never grew");
        daemon.assert_alive();
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// One worker-loss attempt: a daemon with two workers runs `spec_args`
/// (submitted over HTTP); once the campaign logs pass 8 KiB one worker
/// is SIGKILLed — or SIGTERMed, when it must drain gracefully and exit
/// 0 — and the survivor finishes the sweep. Returns the sweep id and the
/// manifest's largest resumed-run count (`0` when the loss missed every
/// in-flight campaign, and the caller retries).
pub fn lose_one_worker_mid_campaign(
    out: &Path,
    spec_args: &[&str],
    sigterm: bool,
) -> (String, u64) {
    let mut daemon = Daemon::spawn(out);
    let id = submit(&daemon.http, spec_args);
    let mut victim = spawn_worker(&daemon.addr);
    let mut survivor = spawn_worker(&daemon.addr);
    // ~4k runs of delta-varint samples: past R_pub (~1k for bs), well
    // inside the ~21k-run campaigns.
    wait_for_slog(out, 8 * 1024, &mut daemon);
    if sigterm {
        // SIGTERM, not SIGKILL: the worker must checkpoint, flush, send
        // its Drain frame, and exit zero.
        let term = Command::new("kill")
            .arg(victim.id().to_string())
            .status()
            .expect("send SIGTERM");
        assert!(term.success(), "kill(1) failed");
        let drained = victim.wait().expect("reap the drained worker");
        assert!(
            drained.success(),
            "a SIGTERM'd worker must drain gracefully and exit 0, got {drained}"
        );
    } else {
        reap(std::slice::from_mut(&mut victim));
    }
    // `report --follow` exits 0 only once the sweep is done without a
    // failed job.
    run_ok(&[
        "report",
        "--connect",
        &daemon.url(),
        "--follow",
        "--sweep",
        &id,
    ]);
    reap(std::slice::from_mut(&mut survivor));
    drop(daemon);
    let resumed = max_campaign_resumed(&out.join("sweeps").join(&id).join("manifest.json"));
    (id, resumed)
}
