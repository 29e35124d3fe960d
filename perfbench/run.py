#!/usr/bin/env python3
"""The repository benchmark: Table 2 cells through the paths users run.

One run measures one workload for a fixed time and prints, as the last line
of standard output, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 40 --trace 0

``--trace 0`` drives the ``mbcr`` binary (``mbcr sweep`` processes, or an
``mbcr serve --http`` daemon) in a closed loop and reports the end-to-end
metrics. ``--trace 1`` runs the in-process traced pass
(``perfbench/tracer``), which times the calls into each crate's public
functions from the outside, and reports the per-layer metrics.

``python3 perfbench/run.py --self-check`` is the benchmark's own test: every
workload runs twice at reduced size, at both trace settings, and the check
fails when a named metric is missing or when metric names, units or output
digests differ between the two passes.

Every timing is host time. Simulated results (R values, pWCET, samples) are
outputs, pinned by digest, never metrics. The program is built from source
in the checkout (``CARGO_TARGET_DIR``, default ``.bench_build``); scratch
stores live under ``.bench_work``.
"""

import argparse
import ctypes
import hashlib
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(ROOT, ".bench_work")
PINNED = os.path.join(BENCH_DIR, "digests.json")
TRACER_MANIFEST = os.path.join(BENCH_DIR, "tracer", "Cargo.toml")

# The paper L1 (4096 B, 2-way, 32 B lines) for both caches, quick preset.
GEOMETRY = {"size_bytes": 4096, "ways": 2, "line_size": 32}
GEOMETRY_FLAG = "4096:2:32"
COLD_BENCHMARKS = ["bs", "cnt", "fir", "insertsort", "crc", "matmult"]

# name -> sweep shape. `kind` is how the program is driven: `cli` spawns one
# `mbcr sweep` per sweep into a fresh store, `service` submits to one HTTP
# daemon. Two workloads only, so that each run can measure long enough for
# its medians to hold still on a shared 2-core host.
WORKLOADS = {
    "sweep_cold": {
        "kind": "cli",
        "benchmarks": COLD_BENCHMARKS,
        "analyses": None,
        "max_campaign_runs": None,
        "threads": 1,
        # A new seed for every sweep of a 40 s run: convergence length, and
        # with it a sweep's work, moves with the seed, so a run's median
        # spreads less over eight seeds than over four seeds twice.
        "seeds_per_run": 8,
    },
    "service_http": {
        "kind": "service",
        "benchmarks": ["bs", "insertsort"],
        "analyses": ["pub_tac"],
        "max_campaign_runs": None,
        "threads": 1,
    },
}

# Printed and gated with --trace 0: (name, unit). `failed_frac` is printed
# too, but it is 0 on a healthy run, so the JSON carries it as `failed` /
# `attempted`.
END_TO_END = [
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("store_bytes", "bytes"),
]
# Printed for service_http, not gated: both are dominated by the daemon's
# 20 ms accept-poll phase, so a run's median moves by a third across seeds.
SERVICE_LATENCIES = [("ttfe_s", "s"), ("submit_s", "s")]

# How a run's samples become its reading: timings are medians; memory is
# the peak over the run; store bytes, one exact reading per seed of the
# run's cycle, are averaged (a mean of deterministic values stays
# deterministic and spreads less across workload seeds than a median).
AGGREGATE = {"peak_rss_mb": max, "store_bytes": statistics.fmean}

# Printed with --trace 1: (name, unit, better, what it should move, on which
# workload, where it should read flat). Written down before measuring, so a
# change that claims a gain on one layer can be checked against it.
PER_LAYER = [
    ("json.decode_s", "s", "lower", "sweep_s", "sweep_cold", "-"),
    ("json.decode_bytes", "bytes", "lower", "store_bytes", "every workload", "-"),
    ("json.decode_mb_per_s", "MB/s", "higher", "sweep_s", "sweep_cold", "-"),
    ("json.encode_s", "s", "lower", "sweep_s", "sweep_cold", "-"),
    ("store.load_stage_s", "s", "lower", "sweep_s, peak_rss_mb", "sweep_cold", "-"),
    ("store.load_stage_count", "count", "lower", "sweep_s", "sweep_cold", "-"),
    ("store.load_samples_s", "s", "lower", "sweep_s, peak_rss_mb", "sweep_cold", "-"),
    ("store.load_samples_count", "count", "lower", "sweep_s", "sweep_cold", "-"),
    ("store.save_stage_s", "s", "lower", "sweep_s, store_bytes", "sweep_cold", "-"),
    ("store.save_stage_count", "count", "lower", "store_bytes", "sweep_cold", "-"),
    ("store.append_samples_s", "s", "lower", "sweep_s, store_bytes", "sweep_cold, service_http", "-"),
    ("store.append_samples_count", "count", "lower", "store_bytes", "sweep_cold, service_http", "-"),
    ("store.write_job_s", "s", "lower", "sweep_s, store_bytes", "sweep_cold", "-"),
    ("store.write_job_count", "count", "lower", "store_bytes", "sweep_cold", "-"),
    ("engine.plan_s", "s", "lower", "sweep_s", "sweep_cold", "-"),
    ("engine.cached_summary_s", "s", "lower", "sweep_s", "sweep_cold", "-"),
    ("engine.finalize_s", "s", "lower", "sweep_s", "sweep_cold", "-"),
    # The traced passes start from an empty store, so this reads 0; the
    # sweep_cold traced run prints a warm re-run's hits beside it.
    ("engine.cache_hit_ratio", "ratio", "higher", "sweep_s", "sweep_cold", "-"),
    ("engine.pass_wall_s", "s", "lower", "sweep_s", "every workload", "-"),
] + [
    row
    # The daemon dedups the seed-free pub and trace stages after the first
    # sweep, so they read flat on service_http; campaigns are capped at
    # 3000 runs on sweep_cold but bs runs a 21k-layout one on service_http.
    for kind, on, flat in [
        ("pub", "sweep_cold", "service_http"),
        ("trace", "sweep_cold", "service_http"),
        ("tac_il1", "sweep_cold", "-"),
        ("tac_dl1", "sweep_cold", "-"),
        ("converge", "sweep_cold", "-"),
        ("campaign", "service_http", "sweep_cold"),
        ("fit", "sweep_cold", "-"),
    ]
    for row in [
        (f"engine.stage.{kind}_self_s", "s", "lower", "sweep_s, cpu_s", on, flat),
        (f"engine.stage.{kind}_count", "count", "lower", "sweep_s, cpu_s", on, flat),
    ]
] + [
    ("cpu.resolve_s", "s", "lower", "sweep_s", "sweep_cold", "-"),
    ("cpu.serial_runs_per_s", "1/s", "higher", "sweep_s", "sweep_cold", "-"),
    ("cpu.batched_runs_per_s", "1/s", "higher", "sweep_s", "service_http", "sweep_cold"),
    ("evt.sample_s", "s", "lower", "sweep_s", "sweep_cold", "-"),
    ("evt.converge_refit_s", "s", "lower", "sweep_s", "sweep_cold", "-"),
    ("evt.fit_s", "s", "lower", "sweep_s", "sweep_cold", "-"),
    ("evt.iid_s", "s", "lower", "sweep_s", "sweep_cold", "-"),
    ("tac.analyze_s", "s", "lower", "sweep_s", "sweep_cold", "-"),
    ("pub.transform_s", "s", "lower", "sweep_s", "sweep_cold", "service_http"),
    ("ir.execute_s", "s", "lower", "sweep_s", "sweep_cold", "service_http"),
    ("shard.frame_encode_s", "s", "lower", "sweep_s, ttfe_s", "service_http", "sweep_cold"),
    ("shard.frame_decode_s", "s", "lower", "sweep_s, ttfe_s", "service_http", "sweep_cold"),
    ("shard.frame_bytes", "bytes", "lower", "sweep_s, ttfe_s", "service_http", "sweep_cold"),
    ("shard.bytes_shipped", "bytes", "lower", "sweep_s, ttfe_s", "service_http", "sweep_cold"),
    ("shard.bytes_elided", "bytes", "higher", "sweep_s, ttfe_s", "service_http", "sweep_cold"),
    ("gateway.read_request_s", "s", "lower", "submit_s, ttfe_s", "service_http", "sweep_cold"),
    ("gateway.request_post_sweeps_s", "s", "lower", "submit_s", "service_http", "sweep_cold"),
    ("gateway.request_get_events_s", "s", "lower", "sweep_s, ttfe_s", "service_http", "sweep_cold"),
    ("gateway.request_get_healthz_s", "s", "lower", "setup_s", "service_http", "sweep_cold"),
    ("gateway.request_get_metrics_s", "s", "lower", "-", "service_http", "sweep_cold"),
    ("engine.dedup_hits", "count", "higher", "sweep_s, cpu_s", "service_http", "sweep_cold"),
    ("engine.dedup_parked", "count", "higher", "sweep_s, cpu_s", "service_http", "sweep_cold"),
    ("engine.queue_wait_count", "count", "lower", "sweep_s", "service_http", "sweep_cold"),
    ("engine.queue_wait_mean_s", "s", "lower", "sweep_s, ttfe_s", "service_http", "sweep_cold"),
    ("obs.trace_overhead", "ratio", "lower", "(the cost of tracing)", "every workload", "-"),
    ("obs.accounted_share", "ratio", "higher", "(wall time the traced calls explain)", "every workload", "-"),
]

# Per-layer metrics that only a daemon produces; in-process workloads report 0.
SERVICE_ONLY = {
    "shard.bytes_shipped",
    "shard.bytes_elided",
    "gateway.request_post_sweeps_s",
    "gateway.request_get_events_s",
    "gateway.request_get_healthz_s",
    "gateway.request_get_metrics_s",
    "engine.dedup_hits",
    "engine.dedup_parked",
    "engine.queue_wait_count",
    "engine.queue_wait_mean_s",
}

SETUP_REPEATS = 9
SERVICE_SETUP_REPEATS = 5
# Sweeps submitted into the service's own fixed-size store, whose bytes and
# digests must repeat exactly (the timed loop's sweep count varies).
SERVICE_STORE_SWEEPS = 16
# Upper end of the uniform think time between service sweeps: the daemon's
# longest polling period (the SSE follow tick, 200 ms).
THINK_MAX_S = 0.2
PERCENTILES = (99, 95, 90, 75, 50)


class BenchError(Exception):
    """A failure that leaves no result to report."""


# ---------------------------------------------------------------- build ---


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the `mbcr` binary and the tracer from the checkout's source."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "mbcr-shard"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", TRACER_MANIFEST],
    ):
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            raise BenchError(f"build: {e}") from e
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return {name: os.path.join(release, name)
            for name in ("mbcr", "mbcr-perfbench-tracer", "perfbench-spawn")}


# ----------------------------------------------------------------- host ---


def host_record():
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and model == "unknown":
                    model = value.strip()
                elif key.strip() == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    avx512 = {"avx512f", "avx512dq", "avx512vl", "bmi2"} <= flags
    revision = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            revision = rev.stdout.strip() or revision
        except OSError:
            revision = "unknown (git not installed)"
    profile = "release"
    try:
        with open(os.path.join(ROOT, "Cargo.toml")) as f:
            section = re.search(r"\[profile\.release\]([^\[]*)", f.read())
        if section:
            settings = ", ".join(l.strip() for l in section.group(1).splitlines() if l.strip())
            profile += f" ({settings})" if settings else ""
    except OSError:
        pass
    return {
        "cpu": model,
        "nproc": len(os.sched_getaffinity(0)),
        "avx512_f_dq_vl_bmi2": avx512,
        "campaign_kernel": "avx512 packed-pair" if avx512 else "scalar",
        "git": revision,
        "profile": profile,
    }


# -------------------------------------------------------------- outputs ---


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def tree_digest(root):
    """SHA-256 over the (name, bytes) of every file in `root`, name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(root, name), "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()


def store_bytes(root):
    total = 0
    for dirpath, _, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def store_outputs(store):
    return {
        "table2": sha256_file(os.path.join(store, "table2.csv")),
        "stages": tree_digest(os.path.join(store, "stages")),
    }


def manifest_failed(store):
    with open(os.path.join(store, "manifest.json")) as f:
        return json.load(f)["counts"]["failed"]


def pinned(workload, seed):
    """Pinned output digests of the default seed: one entry per seed of the
    run's cycle (`sweep_seed(1, k)`)."""
    if seed != 1:
        return None
    with open(PINNED) as f:
        return json.load(f).get(workload)


# ------------------------------------------------------------ processes ---


def become_subreaper():
    """Orphaned grandchildren (the daemon's workers) are re-parented to this
    process, so it can wait for every process it caused to start."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def children(pid):
    out = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as f:
                out.extend(int(p) for p in f.read().split())
    except OSError:
        pass
    return out


def proc_cpu_s(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def proc_hwm_mb(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def reap(pid, timeout=15.0):
    """Waits until `pid` has ended; SIGKILLs it after `timeout`."""
    deadline = time.monotonic() + timeout
    killed = False
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
            if done == pid:
                return
        except ChildProcessError:
            if not os.path.exists(f"/proc/{pid}"):
                return
            try:
                with open(f"/proc/{pid}/stat") as f:
                    if f.read().rsplit(")", 1)[1].split()[0] == "Z":
                        return  # ended; its parent reaps it
            except OSError:
                return
        if not killed and time.monotonic() > deadline:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                return
            killed = True
        time.sleep(0.01)


def timed_process(bins, args, stderr_path):
    """Runs one program process to exit through `perfbench-spawn`. Returns
    wall time, user+sys CPU, peak RSS and exit code."""
    report = os.path.join(WORK, "rusage")
    if os.path.exists(report):
        os.remove(report)
    with open(stderr_path, "ab") as err:
        start = time.perf_counter()
        done = subprocess.run([bins["perfbench-spawn"], report] + args,
                              stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
        wall = time.perf_counter() - start
    if not os.path.exists(report):
        raise BenchError(f"perfbench-spawn could not run {args[0]}")
    with open(report) as f:
        user, system, rss_kb, code = f.read().split()
    return {
        "wall": wall,
        "cpu": float(user) + float(system),
        "rss_mb": int(rss_kb) / 1024,
        "rc": int(code),
    }


def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(os.path.dirname(path), exist_ok=True)


# ---------------------------------------------------------------- specs ---


def spec_json(w, seeds, name="sweep"):
    spec = {
        "name": name,
        "benchmarks": w["benchmarks"],
        "geometries": [GEOMETRY],
        "seeds": seeds,
    }
    if w["analyses"]:
        spec["analyses"] = w["analyses"]
    if w["max_campaign_runs"]:
        spec["max_campaign_runs"] = w["max_campaign_runs"]
    return spec


def sweep_args(mbcr, w, seeds, store, threads):
    args = [mbcr, "sweep", "--benchmarks", ",".join(w["benchmarks"])]
    args += ["--geometries", GEOMETRY_FLAG, "--seeds", ",".join(map(str, seeds))]
    if w["analyses"]:
        args += ["--analyses", ",".join(w["analyses"])]
    if w["max_campaign_runs"]:
        args += ["--max-campaign-runs", str(w["max_campaign_runs"])]
    return args + ["--threads", str(threads), "--out", store]


def sweep_seed(seed, k):
    """The master seed of a run's k-th sweep, derived from the workload seed
    (k = 0 sweeps the workload seed itself)."""
    return (seed + 1000 * k) % 2**64


# ------------------------------------------------------- CLI workloads ---


class Run:
    """Samples and failures of one timed run."""

    def __init__(self):
        self.samples = {name: [] for name, _ in END_TO_END + SERVICE_LATENCIES}
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.outputs = {}
        self.layers = {}

    def fail(self, why):
        self.failed += 1
        self.notes.append(why)


def check_store(store, expect, what):
    """Compares a store's outputs with `expect` (None: nothing to compare)."""
    got = store_outputs(store)
    if expect is not None:
        for key in ("table2", "stages"):
            if got[key] != expect[key]:
                return f"{what}: {key} digest {got[key][:12]} != expected {expect[key][:12]}"
    return None


def warmup_setup(bins, run, errlog):
    """Cold workloads: a fresh store plus a small sweep (bs and insertsort,
    both analyses) that warms the host side: binary pages, allocator, page
    cache. Timed SETUP_REPEATS times. The warm-up is not part of the
    measured input, so its seed is fixed: a seed-driven convergence length
    would make set-up time vary with the workload seed."""
    scratch = os.path.join(WORK, "warmup")
    args = [bins["mbcr"], "sweep", "--benchmarks", "bs,insertsort", "--analyses", "original,pub_tac",
            "--geometries", GEOMETRY_FLAG, "--seeds", "1", "--threads", "1", "--out", scratch]
    for _ in range(SETUP_REPEATS):
        fresh(scratch)
        start = time.perf_counter()
        done = timed_process(bins, args, errlog)
        run.samples["setup_s"].append(time.perf_counter() - start)
        if done["rc"] != 0:
            raise BenchError(f"set-up sweep exited {done['rc']}")
    shutil.rmtree(scratch, ignore_errors=True)


def run_cli(bins, name, w, seed, seconds):
    """Closed loop of `mbcr sweep` processes. The run cycles through the
    workload's `seeds_per_run` master seeds, each sweep into a fresh store,
    for at least `seconds` and at least one sweep per seed."""
    mbcr = bins["mbcr"]
    run = Run()
    store = os.path.join(WORK, "store")
    errlog = os.path.join(WORK, "mbcr.stderr")
    cycle = w["seeds_per_run"]
    expect = pinned(name, seed) or [None] * cycle
    sizes = [None] * cycle
    warmup_setup(bins, run, errlog)

    start = time.perf_counter()
    while run.attempted < cycle or time.perf_counter() - start < seconds:
        k = run.attempted % cycle
        run.attempted += 1
        what = f"sweep {run.attempted} (seed {sweep_seed(seed, k)})"
        fresh(store)
        args = sweep_args(mbcr, w, [sweep_seed(seed, k)], store, w["threads"])
        done = timed_process(bins, args, errlog)
        for key, metric in [("wall", "sweep_s"), ("cpu", "cpu_s"), ("rss_mb", "peak_rss_mb")]:
            run.samples[metric].append(done[key])
        if sizes[k] is None:
            sizes[k] = store_bytes(store)
        if done["rc"] != 0:
            run.fail(f"{what}: mbcr exited {done['rc']}")
            continue
        if manifest_failed(store):
            run.fail(f"{what}: failed jobs in the manifest")
            continue
        got = store_outputs(store)
        if expect[k] is None:
            expect[k] = got  # later sweeps of this seed must reproduce it
        bad = check_store(store, expect[k], what)
        if bad:
            run.fail(bad)
        run.outputs[str(sweep_seed(seed, k))] = got
    # One reading per seed: the store of a seed is deterministic, so the
    # figure repeats exactly for a given workload seed.
    run.samples["store_bytes"] = [b for b in sizes if b is not None]
    return run


# ------------------------------------------------------------ service ---


def http(addr, method, path, body=None, timeout=60):
    """One request on its own connection (the gateway serves one request per
    connection). Returns (status, body bytes)."""
    payload = b"" if body is None else json.dumps(body).encode()
    head = (f"{method} {path} HTTP/1.1\r\nHost: {addr[0]}:{addr[1]}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n")
    with socket.create_connection(addr, timeout=timeout) as s:
        s.sendall(head.encode() + payload)
        chunks = []
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    header, _, rest = raw.partition(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1])
    return status, rest


def follow(addr, sweep, start):
    """Follows a sweep's SSE stream to `end`. Returns (time of the first
    progress event, time of end, last progress document), from `start`."""
    first, last = None, None
    with socket.create_connection(addr, timeout=60) as s:
        s.sendall(f"GET /v1/sweeps/{sweep}/events HTTP/1.1\r\nHost: {addr[0]}\r\n\r\n".encode())
        stream = s.makefile("rb")
        status = stream.readline().split(b" ", 2)
        if len(status) < 2 or status[1] != b"200":
            raise BenchError(f"events for {sweep}: HTTP {status}")
        while stream.readline().strip():
            pass  # response headers
        event, data = None, []
        for line in stream:
            line = line.rstrip(b"\r\n")
            if line.startswith(b"event:"):
                event = line[6:].strip().decode()
            elif line.startswith(b"data:"):
                data.append(line[5:].strip())
            elif not line and event:
                if event == "progress":
                    if first is None:
                        first = time.perf_counter() - start
                    last = json.loads(b"\n".join(data))
                elif event == "end":
                    return first, time.perf_counter() - start, last
                event, data = None, []
    raise BenchError(f"events for {sweep}: stream closed before end")


class Daemon:
    """One `mbcr serve --http --spawn-workers 1..1` process."""

    def __init__(self, mbcr, store):
        fresh(store)
        self.errlog = open(os.path.join(WORK, "serve.stderr"), "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [mbcr, "serve", "--listen", "127.0.0.1:0", "--http", "127.0.0.1:0",
             "--spawn-workers", "1..1", "--out", store],
            stdout=subprocess.PIPE, stderr=self.errlog, cwd=ROOT)
        try:
            self.addr = None
            for line in self.proc.stdout:
                m = re.match(rb"http listening on ([0-9.]+):(\d+)", line)
                if m:
                    self.addr = (m.group(1).decode(), int(m.group(2)))
                    break
            if self.addr is None:
                raise BenchError("mbcr serve exited before listening")
            self.healthz = []
            while True:
                t = time.perf_counter()
                status, body = http(self.addr, "GET", "/v1/healthz")
                self.healthz.append(time.perf_counter() - t)
                if status == 200 and json.loads(body).get("workers", 0) >= 1:
                    break
                if time.perf_counter() - start > 60:
                    raise BenchError("daemon not healthy with a worker after 60 s")
                time.sleep(0.002)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def pids(self):
        return [self.proc.pid] + children(self.proc.pid)

    def stop(self):
        """SIGTERMs the daemon and its workers and waits until all ended."""
        kids = children(self.proc.pid)
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        for pid in kids:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
            reap(pid)
        self.errlog.close()


def submit_and_follow(daemon, w, seed, k):
    """The k-th closed-loop sweep: POST, then follow its events to end."""
    body = {"spec": spec_json(w, [sweep_seed(seed, k)], name=f"k{k}")}
    start = time.perf_counter()
    status, resp = http(daemon.addr, "POST", "/v1/sweeps", body)
    submit = time.perf_counter() - start
    if status != 201:
        return {"error": f"POST /v1/sweeps answered {status}: {resp[:200]!r}"}
    sweep = json.loads(resp)["sweep"]
    first, end, last = follow(daemon.addr, sweep, start)
    error = None
    if last is None or last.get("state") != "done":
        error = f"{sweep} ended in state {last and last.get('state')}"
    elif any(j.get("status") == "failed" for j in last.get("jobs", [])):
        error = f"{sweep} has failed jobs"
    return {"sweep": sweep, "submit": submit, "ttfe": first if first is not None else end,
            "wall": end, "events": end - submit, "error": error}


def rows_by_seed(table, rows=None):
    """Appends a table2.csv's rows to `rows`, keyed by their seed column."""
    rows = {} if rows is None else rows
    with open(table) as f:
        for line in f.read().splitlines()[1:]:
            rows.setdefault(line.split(",")[3], []).append(line)
    return rows


def reference_rows(mbcr, w, seeds, store):
    """An in-process sweep (`mbcr sweep`) over the same specs."""
    fresh(store)
    args = sweep_args(mbcr, w, seeds, store, len(os.sched_getaffinity(0)))
    done = subprocess.run(args, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, cwd=ROOT)
    if done.returncode != 0:
        raise BenchError(f"reference sweep exited {done.returncode}")
    return rows_by_seed(os.path.join(store, "table2.csv"))


def compare_with_reference(run, mbcr, w, seeds, store, what):
    """Every service cell must equal the in-process sweep's, and every stage
    artifact of that sweep must sit byte-identical in the service store."""
    ref_store = os.path.join(WORK, "reference")
    ref = reference_rows(mbcr, w, seeds, ref_store)
    got = {}
    for sweep in sorted(os.listdir(os.path.join(store, "sweeps"))):
        rows_by_seed(os.path.join(store, "sweeps", sweep, "table2.csv"), got)
    bad = sum(1 for s in map(str, seeds) if got.get(s) != ref.get(s))
    if bad:
        run.fail(f"{what}: {bad} sweep(s) whose cells differ from the in-process sweep")
    ref_stages = os.path.join(ref_store, "stages")
    for name in os.listdir(ref_stages):
        ours = os.path.join(store, "stages", name)
        if not os.path.exists(ours) or sha256_file(ours) != sha256_file(os.path.join(ref_stages, name)):
            run.fail(f"{what}: stage artifact {name} differs from the in-process sweep")
            break
    shutil.rmtree(ref_store, ignore_errors=True)


def obs_counts(daemon):
    """Reads the daemon's existing telemetry surfaces (read-only)."""
    out = {}
    t = time.perf_counter()
    status, body = http(daemon.addr, "GET", "/v1/metrics")
    out["gateway.request_get_metrics_s"] = time.perf_counter() - t
    if status != 200:
        raise BenchError(f"GET /v1/metrics answered {status}")
    doc = json.loads(body)
    out["engine.dedup_hits"] = sum(s.get("skipped", 0) for s in doc.get("sweeps", []))
    out["engine.dedup_parked"] = doc.get("dedup_parked", 0)
    out["shard.bytes_shipped"] = doc.get("affinity", {}).get("shipped_bytes", 0)
    out["shard.bytes_elided"] = doc.get("affinity", {}).get("elided_bytes", 0)
    status, body = http(daemon.addr, "GET", "/v1/metrics?format=prometheus")
    text = body.decode(errors="replace")
    count = re.search(r"^mbcr_queue_wait_seconds_count(?:\{\})? (\S+)", text, re.M)
    total = re.search(r"^mbcr_queue_wait_seconds_sum(?:\{\})? (\S+)", text, re.M)
    n = float(count.group(1)) if count else 0.0
    out["engine.queue_wait_count"] = n
    out["engine.queue_wait_mean_s"] = float(total.group(1)) / n if total and n else 0.0
    return out


def program_cpu_s(daemon):
    return sum(proc_cpu_s(p) for p in daemon.pids())


def run_service(mbcr, name, w, seed, seconds):
    """Closed loop of sweeps submitted to one daemon, for `seconds`. Set-up
    (daemon start until healthz answers with a worker) repeats
    SERVICE_SETUP_REPEATS times; the first daemon also serves
    SERVICE_STORE_SWEEPS sweeps into a store of its own, whose bytes and
    digests are exact for a workload seed."""
    run = Run()
    fixed_store = os.path.join(WORK, "service-fixed")
    for rep in range(SERVICE_SETUP_REPEATS):
        daemon = Daemon(mbcr, fixed_store)
        run.samples["setup_s"].append(daemon.setup_s)
        try:
            for k in range(SERVICE_STORE_SWEEPS if rep == 0 else 0):
                res = submit_and_follow(daemon, w, seed, k)
                if res["error"]:
                    raise BenchError(f"fixed-store sweep {k}: {res['error']}")
        finally:
            daemon.stop()
        if rep == 0:
            tables = hashlib.sha256()
            for sweep in sorted(os.listdir(os.path.join(fixed_store, "sweeps"))):
                tables.update(open(os.path.join(fixed_store, "sweeps", sweep, "table2.csv"), "rb").read())
            run.outputs = {"table2": tables.hexdigest(),
                           "stages": tree_digest(os.path.join(fixed_store, "stages"))}
            run.samples["store_bytes"].append(store_bytes(fixed_store))
            expect = (pinned(name, seed) or [None])[0]
            if expect and any(expect[key] != run.outputs[key] for key in ("table2", "stages")):
                raise BenchError(f"fixed-store outputs {run.outputs} differ from the pinned {expect}")
            seeds = [sweep_seed(seed, k) for k in range(SERVICE_STORE_SWEEPS)]
            compare_with_reference(run, mbcr, w, seeds, fixed_store, "fixed store")
            if run.failed:
                raise BenchError("; ".join(run.notes))

    store = os.path.join(WORK, "service")
    daemon = Daemon(mbcr, store)
    run.samples["setup_s"].append(daemon.setup_s)
    # The daemon polls on timers (accept loop, worker back-off, SSE tick).
    # A think time drawn uniformly over the longest period keeps the loop
    # from locking onto one phase of them, which would make a run's median
    # depend on the phase it happened to start in.
    think = random.Random(seed)
    seeds, cpu = [], 0.0
    try:
        start = time.perf_counter()
        while run.attempted == 0 or time.perf_counter() - start < seconds:
            k = run.attempted
            run.attempted += 1
            before = program_cpu_s(daemon)
            res = submit_and_follow(daemon, w, seed, k)
            cpu += program_cpu_s(daemon) - before
            if res.get("sweep"):
                seeds.append(sweep_seed(seed, k))
            if res["error"]:
                run.fail(f"sweep {k}: {res['error']}")
            else:
                for key, metric in [("wall", "sweep_s"), ("ttfe", "ttfe_s"), ("submit", "submit_s")]:
                    run.samples[metric].append(res[key])
                run.layers.setdefault("gateway.request_post_sweeps_s", []).append(res["submit"])
                run.layers.setdefault("gateway.request_get_events_s", []).append(res["events"])
            time.sleep(think.uniform(0, THINK_MAX_S))
        # /proc counts CPU in clock ticks, too coarse for one ~0.3 s sweep:
        # the per-sweep figure is the sweeps' summed CPU over their count.
        run.samples["cpu_s"].append(cpu / run.attempted)
        run.samples["peak_rss_mb"].append(sum(proc_hwm_mb(p) for p in daemon.pids()))
        run.layers["gateway.request_get_healthz_s"] = daemon.healthz
        obs = obs_counts(daemon)
    finally:
        daemon.stop()
    compare_with_reference(run, mbcr, w, seeds, store, "timed loop")
    run.layers.update(obs)
    return run


# ------------------------------------------------------------- traced ---


def tracer_pass(tracer, spec_path, mode, seconds):
    """One `perfbench/tracer` invocation; prints its breakdown and returns
    its result object."""
    work = os.path.join(WORK, "traced", mode)
    done = subprocess.run(
        [tracer, "--spec", spec_path, "--work", work, "--mode", mode, "--seconds", str(seconds)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
    print(f"{mode} in-process pass:")
    for line in done.stderr.splitlines():
        print(line)
    if done.returncode != 0:
        raise BenchError(f"tracer ({mode}) exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_traced(bins, name, w, seed, seconds):
    """The per-layer run: the in-process traced pass of the workload's first
    sweep (`perfbench/tracer`), plus, for service_http, a shorter closed
    loop against the daemon for the figures only a daemon produces, and for
    sweep_cold, one warm re-run whose breakdown is printed (the read side of
    the store), not reported."""
    mbcr, tracer = bins["mbcr"], bins["mbcr-perfbench-tracer"]
    run = Run()
    layers = {}
    if w["kind"] == "service":
        # The daemon half: the per-route client timings and the telemetry
        # counts only a daemon produces.
        half = max(1.0, seconds / 2)
        service = run_service(mbcr, name, w, seed, half)
        run.attempted += service.attempted
        run.failed += service.failed
        run.notes += service.notes
        for key, value in service.layers.items():
            layers[key] = statistics.median(value) if isinstance(value, list) else value
        seconds = half
    fresh(os.path.join(WORK, "traced"))
    os.makedirs(os.path.join(WORK, "traced"))
    spec_path = os.path.join(WORK, "traced", "spec.json")
    with open(spec_path, "w") as f:
        json.dump(spec_json(w, [sweep_seed(seed, 0)]), f)
    results = [tracer_pass(tracer, spec_path, "cold", seconds)]
    if w["kind"] == "cli":
        results.append(tracer_pass(tracer, spec_path, "warm", 0))
    expect = (pinned(name, seed) or [None])[0] if w["kind"] != "service" else None
    for result in results:
        run.attempted += result["passes"]
        run.failed += result["failed"]
        for store in result["stores"]:
            bad = check_store(store, expect, f"in-process store {os.path.relpath(store, WORK)}")
            if bad:
                run.fail(bad)
    layers.update(results[0]["metrics"])
    run.outputs = store_outputs(results[0]["stores"][-1])
    for metric in SERVICE_ONLY:
        layers.setdefault(metric, 0.0)
    run.layers = layers
    return run


# ------------------------------------------------------------- report ---


def percentile_line(values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"p{p}={q:.6g}"
    return "-"


def report(name, seed, seconds, trace, run, host):
    print(f"host: {json.dumps(host)}")
    print(f"workload: {name} seed={seed} seconds={seconds} trace={trace} "
          "(closed loop, one client, at most nproc threads and connections)")
    metrics = {}
    if trace:
        print(f"{'per-layer metric':<32} {'value':>14} {'unit':<6} moves / on / flat on")
        for metric, unit, _, moves, on, flat in PER_LAYER:
            value = run.layers.get(metric)
            if value is None:
                raise BenchError(f"per-layer metric {metric} missing")
            note = ""
            if metric in SERVICE_ONLY and WORKLOADS[name]["kind"] != "service":
                note = "  (not applicable: no daemon in this workload)"
            elif value == 0:
                note = "  (0: the traced pass made no call into this layer)"
            print(f"{metric:<32} {value:>14.6g} {unit:<6} {moves} / {on} / {flat}{note}")
            metrics[metric] = {"value": value, "unit": unit}
    else:
        print(f"{'metric':<12} {'value':>14} {'unit':<6} {'n':>4}  high percentile")
        for metric, unit in END_TO_END:
            values = run.samples[metric]
            if not values:
                raise BenchError(f"no samples for {metric}")
            value = AGGREGATE.get(metric, statistics.median)(values)
            print(f"{metric:<12} {value:>14.6g} {unit:<6} {len(values):>4}  {percentile_line(values)}")
            metrics[metric] = {"value": value, "unit": unit}
        if WORKLOADS[name]["kind"] == "service":
            for metric, unit in SERVICE_LATENCIES:
                values = run.samples[metric]
                print(f"{metric:<12} {statistics.median(values):>14.6g} {unit:<6} "
                      f"{len(values):>4}  {percentile_line(values)}  (not gated)")
            counts = {k: v for k, v in sorted(run.layers.items()) if not isinstance(v, list)}
            print(f"daemon telemetry at the end of the run: {json.dumps(counts)}")
        frac = run.failed / max(1, run.attempted)
        print(f"{'failed_frac':<12} {frac:>14.6g} {'ratio':<6} {run.attempted:>4}")
    for note in run.notes:
        print(f"failure: {note}")
    print(f"outputs: {json.dumps(run.outputs, sort_keys=True)}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


# --------------------------------------------------------- self-check ---


def self_check():
    """Runs every workload twice at reduced size, at both trace settings,
    and compares metric names, units and output digests across the two."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    want = {
        0: {(m["name"], m["unit"]) for m in declared["end_to_end"]},
        1: {(m["name"], m["unit"]) for m in declared["per_layer"]},
    }
    problems = []
    if want[0] != set(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.py's END_TO_END")
    if want[1] != {(n, u) for n, u, *_ in PER_LAYER}:
        problems.append("BENCHMARK.json per_layer differs from run.py's PER_LAYER")
    if {w["name"] for w in declared["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's WORKLOADS")
    for name in WORKLOADS:
        for trace in (0, 1):
            passes = []
            for _ in range(2):
                cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                       "--seed", "1", "--seconds", "1", "--trace", str(trace)]
                done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    problems.append(f"{name} trace={trace}: exit {done.returncode}: {done.stderr[-500:]}")
                    break
                result = json.loads(lines[-1])
                outputs = next((l for l in lines if l.startswith("outputs: ")), "outputs: {}")
                passes.append((result, json.loads(outputs[len("outputs: "):])))
            if len(passes) != 2:
                continue
            for result, _ in passes:
                names = {(k, v["unit"]) for k, v in result["metrics"].items()}
                if names != want[trace]:
                    problems.append(f"{name} trace={trace}: metrics {sorted(names ^ want[trace])} "
                                    "missing or undeclared")
                if not result["correct"] or result["failed"]:
                    problems.append(f"{name} trace={trace}: run reported failures")
            (a, out_a), (b, out_b) = passes
            if {(k, v["unit"]) for k, v in a["metrics"].items()} != {
                    (k, v["unit"]) for k, v in b["metrics"].items()}:
                problems.append(f"{name} trace={trace}: metric names or units differ between passes")
            if out_a != out_b:
                problems.append(f"{name} trace={trace}: output digests differ between passes")
            print(f"self-check {name} trace={trace}: "
                  f"{'ok' if not problems else 'see below'}", flush=True)
    for p in problems:
        print(f"self-check failure: {p}")
    return 0 if not problems else 1


# --------------------------------------------------------------- main ---


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if args.self_check:
        return self_check()
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    become_subreaper()
    try:
        bins = build()
        os.makedirs(WORK, exist_ok=True)
        w = WORKLOADS[args.workload]
        if args.trace:
            run = run_traced(bins, args.workload, w, args.seed, args.seconds)
        elif w["kind"] == "service":
            run = run_service(bins["mbcr"], args.workload, w, args.seed, args.seconds)
        else:
            run = run_cli(bins, args.workload, w, args.seed, args.seconds)
        report(args.workload, args.seed, args.seconds, args.trace, run, host_record())
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
