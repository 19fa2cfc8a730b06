#!/usr/bin/env python3
"""The repository benchmark: the paper's sweeps, single-play and combinatorial.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-single --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --compare base.json head.json

Each run first builds the programs under test (ncb_sweep, ncb_serve) and
the benchmark's tools (pb_loadgen, pb_layers, pb_rss) from source in
Release into .bench_build/, then makes every input from --seed, measures
for --seconds, checks the outputs, and prints one JSON result as the last
line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones; a traced run also drives ncb_serve for the serve layers and
prints the serve reconciliation report. A human-readable table, the host
block and the reconciliation report go to stderr; --out FILE also saves
the result with its host block, which --compare reads. Workloads, metric
definitions and the reasons behind them are in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
BUILD = ROOT / ".bench_build"
WORK = BUILD / "work"
TARGETS = ["ncb_serve", "ncb_sweep", "pb_loadgen", "pb_layers", "pb_rss"]

# The workloads: the paper's four scenarios on K = 20 ER(0.3), M = 3, as
# (scenario, policies, horizon, replications), split by regime.
WORKLOADS = {
    "sweep-single": [
        ("sso", "dfl-sso, moss", 20000, 32),
        ("ssr", "dfl-ssr, ucb1", 20000, 32),
    ],
    "sweep-combinatorial": [
        ("cso", "dfl-cso, cucb", 5000, 8),
        ("csr", "dfl-csr, cucb", 5000, 8),
    ],
}
SWEEP_WORKERS = 2
SWEEP_THREADS = 2
# ncb_sweep --workers prints one line per finished job ending in
# "  <seconds>s  (worker <id>)": the job's wall time in the worker.
JOB_SECONDS = re.compile(r"  (\S+)s  \(worker ")

# The traced serve pass: K = 10^4 arms on a sparse ER relation graph.
# pb_loadgen and pb_layers build the same instance from the seed.
SERVE_ARMS = 10000
SERVE_EDGE_PROB = 0.001
SERVE_POLICY = "eps-greedy:eps=0"
SERVE_EPSILON = 0.05
# Open-loop offered rate, fixed once at about a third of the closed-loop
# capacity measured when the benchmark was defined on a shared 4-core Xeon
# at its slowest (≈105k decisions/s; ≈190k when the host was quiet), so a
# slowed host does not push the open loop into saturation.
OPEN_RATE = 35000.0

# Set-up is timed this many times per run and reported as the median: one
# sweep set-up takes ~10 ms, so a single sample is mostly scheduling noise.
SETUP_REPEATS = 15

# peak_rss_mb is ncb_sweep's own peak RSS on one thread, averaged over this
# many instances with seeds made from --seed, at most RSS_PARALLEL at once.
# One thread, because with two per process the peak depends on how their
# allocations interleave. Many instances, because the peak follows the ER
# graph drawn (DFL-CSO's side-observation structures grow with its density):
# over 80 seeds one combinatorial instance peaked at 7.7-18 MB.
RSS_INSTANCES = 12
RSS_PARALLEL = min(4, os.cpu_count() or 1)

# On 4+ CPUs the server (reactor + log flusher) and the load generator's two
# connection threads get disjoint CPU pairs, so every run places them alike.
SERVER_CPUS = {0, 1} if (os.cpu_count() or 1) >= 4 else None
LOADGEN_CPUS = {2, 3} if (os.cpu_count() or 1) >= 4 else None

# Sizes: "full" is the benchmark; "tiny" is the self-test's smoke size.
SIZES = {
    "full": {"arms": SERVE_ARMS, "sweep_scale": 1.0, "layers_scale": 1.0,
             "min_passes": 3},
    "tiny": {"arms": 1000, "sweep_scale": 0.05, "layers_scale": 0.02,
             "min_passes": 2},
}


class BenchError(Exception):
    """A step of the benchmark itself failed (not a correctness check)."""


def log(message=""):
    print(message, file=sys.stderr, flush=True)


# --------------------------------------------------------------- processes --

class Processes:
    """Every child this run starts; all are stopped and reaped on exit."""

    def __init__(self):
        self.live = []

    def start(self, cmd, stdout_path, cpus=None):
        pin = None
        if cpus and hasattr(os, "sched_setaffinity"):
            pin = lambda: os.sched_setaffinity(0, cpus)  # noqa: E731
        with open(stdout_path, "wb") as out:
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    cwd=WORK, preexec_fn=pin)
        self.live.append(proc)
        return proc

    def finish(self, proc, timeout):
        """Waits for `proc`; returns (exit code, rusage)."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid == proc.pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                self.live.remove(proc)
                return proc.returncode, usage
            if time.monotonic() > deadline:
                raise BenchError(f"{Path(proc.args[0]).name} did not finish "
                                 f"within {timeout}s")
            time.sleep(0.002)

    def run(self, cmd, name, timeout=170, cpus=None):
        """Runs to completion; returns (code, wall s, rusage, output text)."""
        out_path = WORK / f"{name}.out"
        start = time.perf_counter()
        proc = self.start(cmd, out_path, cpus)
        code, usage = self.finish(proc, timeout)
        wall = time.perf_counter() - start
        return code, wall, usage, out_path.read_text(errors="replace")

    def stop_all(self):
        for proc in list(self.live):
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        self.live.clear()


PROCS = Processes()


def exe(name):
    return str(BUILD / name) if name.startswith("pb_") else str(
        BUILD / "ncb" / "examples" / name)


# -------------------------------------------------------------------- build --

def build():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise BenchError(f"no repository sources next to {PERFBENCH.name}/ — "
                         "run from a full checkout")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    BUILD.mkdir(exist_ok=True)
    cache = BUILD / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={PERFBENCH}" not in \
            cache.read_text(errors="replace"):
        shutil.rmtree(BUILD)
        BUILD.mkdir()
    build_log = BUILD / "build.log"
    with open(build_log, "ab") as out:
        if not cache.exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            code = subprocess.call(
                ["cmake", "-S", str(PERFBENCH), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release", *generator],
                stdout=out, stderr=subprocess.STDOUT)
            if code != 0:
                raise BenchError(f"cmake configure failed (see {build_log})")
        code = subprocess.call(
            ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
             "--target", *TARGETS], stdout=out, stderr=subprocess.STDOUT)
    if code != 0:
        tail = build_log.read_text(errors="replace").splitlines()[-30:]
        raise BenchError("build failed:\n" + "\n".join(tail))


def host_block():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text(errors="replace").splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    rev = "unknown"
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            rev = result.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "examples", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "kernel": platform.release(), "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", ""), "git_rev": rev,
            "source_digest": digest.hexdigest()[:16]}


# ------------------------------------------------------------------ helpers --

class Checks:
    """Correctness checks; each failure counts in failed/attempted."""

    def __init__(self):
        self.count = 0
        self.failures = []

    def expect(self, ok, what):
        self.count += 1
        if not ok:
            self.failures.append(what)
            log(f"CHECK FAILED: {what}")
        return ok


def median(values):
    return statistics.median(values)


def percentile(values, q):
    """Nearest-rank percentile (the maximum when fewer than 1/(1-q) values)."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 1))))
    return ordered[rank - 1]


def peak_rss_mb(pid):
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError("VmHWM missing from /proc status")


# -------------------------------------------------------------------- sweep --

def write_sweep_specs(scenarios, seed, size, tag="", horizon_one=False):
    scale = SIZES[size]["sweep_scale"]
    paths, slots = [], 0
    for scenario, policies, horizon, reps in scenarios:
        horizon = 1 if horizon_one else max(100, int(horizon * scale))
        reps = max(2, int(reps * max(scale, 0.25)))
        path = WORK / f"{tag}{scenario}.sweep"
        path.write_text(
            f"name = paper-{scenario}\nscenario = {scenario}\n"
            f"policies = {policies}\ngraphs = er\narms = 20\np = 0.3\n"
            f"horizons = {horizon}\nreplications = {reps}\nseed = {seed}\n"
            f"checkpoints = 30\nstrategy-size = 3\n")
        paths.append(path.name)
        slots += horizon * reps * len(policies.split(","))
    return paths, slots


def sweep_once(specs, checks, reference=None, workers=SWEEP_WORKERS):
    """Runs every spec once; returns (wall s, cpu s, job wall times s,
    requeued)."""
    wall = cpu = 0.0
    jobs, requeued = [], 0
    for spec in specs:
        out = spec.replace(".sweep", f".w{workers}.json")
        cmd = [exe("ncb_sweep"), "--spec", spec, "--out", out]
        if workers:
            cmd += ["--workers", str(workers), "--threads", str(SWEEP_THREADS),
                    "--metrics-out", "sweep-metrics.json"]
        code, seconds, usage, text = PROCS.run(cmd, "sweep")
        checks.expect(code == 0, f"ncb_sweep {spec} exits 0 (got {code})")
        if reference is not None:
            checks.expect((WORK / out).read_bytes() == reference[spec],
                          f"ncb_sweep {spec} --workers {workers} output is "
                          "byte-identical to --workers 0")
        if workers:
            metrics = json.loads((WORK / "sweep-metrics.json").read_text())
            requeued += metrics["counters"].get("dist.jobs.requeued", 0)
            found = [float(s) for s in JOB_SECONDS.findall(text)]
            if not found:
                raise BenchError(f"no job lines in the ncb_sweep {spec} output")
            jobs += found
        wall += seconds
        cpu += usage.ru_utime + usage.ru_stime
    return wall, cpu, jobs, requeued


def sweep_pass(scenarios, seed, seconds, size, checks):
    specs, slots = write_sweep_specs(scenarios, seed, size)
    sweep_once(specs, checks, workers=0)
    reference = {s: (WORK / s.replace(".sweep", ".w0.json")).read_bytes()
                 for s in specs}
    # Each set-up sample builds another instance, seeded from `seed`: like
    # the RSS peak, the build cost follows the ER graph drawn.
    setups = []
    for repeat in range(SETUP_REPEATS):
        setup_specs, _ = write_sweep_specs(
            scenarios, (seed * SETUP_REPEATS + repeat) % 2**64, size,
            tag="setup-", horizon_one=True)
        setups.append(sweep_once(setup_specs, checks)[0])
    walls, cpus, jobs, requeued = [], [], [], 0
    deadline = time.monotonic() + seconds
    while len(walls) < SIZES[size]["min_passes"] or time.monotonic() < deadline:
        wall, cpu, job_walls, lost = sweep_once(specs, checks, reference)
        walls.append(wall)
        cpus.append(cpu)
        jobs += job_walls
        requeued += lost
    return {
        "ops": slots * len(walls),
        "setup_s": median(setups),
        "ops_per_s": median(slots / w for w in walls),
        "cpu_us_per_op": median(c / slots * 1e6 for c in cpus),
        "p50_us": median(jobs) * 1e6,
        "p99_us": percentile(jobs, 0.99) * 1e6,
        "samples": len(jobs),
        "requeued": requeued,
        "wall_s": median(walls),
    }


def rss_probe(scenarios, seed, size, checks):
    """Mean over RSS_INSTANCES instances, seeded from `seed`, of ncb_sweep's
    own peak RSS in MB running the workload's specs in-process on one
    thread (under pb_rss), RSS_PARALLEL processes at a time."""
    tasks = []
    for i in range(RSS_INSTANCES):
        instance_seed = (seed * RSS_INSTANCES + i) % 2**64
        specs, _ = write_sweep_specs(scenarios, instance_seed, size,
                                     tag=f"rss{i}-")
        tasks += [(i, spec) for spec in specs]
    peaks = [0.0] * RSS_INSTANCES
    for first in range(0, len(tasks), RSS_PARALLEL):
        running = []
        for i, spec in tasks[first:first + RSS_PARALLEL]:
            cmd = [exe("pb_rss"), f"{spec}.kib", exe("ncb_sweep"), "--spec",
                   spec, "--out", f"{spec}.json", "--threads", "1"]
            running.append((i, spec, PROCS.start(cmd, WORK / f"{spec}.out")))
        for i, spec, proc in running:
            code, _ = PROCS.finish(proc, 170)
            if checks.expect(code == 0,
                             f"ncb_sweep {spec} exits 0 (got {code})"):
                kib = int((WORK / f"{spec}.kib").read_text())
                peaks[i] = max(peaks[i], kib / 1024.0)
    return statistics.fmean(peaks)


# -------------------------------------------------------------------- serve --

class Server:
    """One ncb_serve process on WORK/serve.sock logging to WORK/serve.ncbl."""

    def __init__(self, seed, arms):
        self.cmd = [exe("ncb_serve"), "--socket", "serve.sock", "--policy",
                    SERVE_POLICY, "--epsilon", str(SERVE_EPSILON), "--arms",
                    str(arms), "--graph", "er", "--edge-prob",
                    str(SERVE_EDGE_PROB), "--seed", str(seed), "--log",
                    "serve.ncbl", "--drain-ms", "100"]
        self.proc = None

    def launch(self):
        """Starts the server; returns seconds from launch to first HelloAck."""
        (WORK / "serve.sock").unlink(missing_ok=True)
        launched = time.monotonic_ns()
        self.proc = PROCS.start(self.cmd, WORK / "server.out", SERVER_CPUS)
        code, _, _, out = PROCS.run(
            [exe("pb_loadgen"), "--socket", "serve.sock", "--probe"], "probe",
            timeout=60)
        if code != 0:
            raise BenchError(f"set-up probe failed: {out.strip()}")
        return (json.loads(out)["hello_ack_ns"] - launched) / 1e9

    def stop(self, checks):
        self.proc.send_signal(signal.SIGTERM)
        code, _ = PROCS.finish(self.proc, 60)
        checks.expect(code == 0, f"ncb_serve exits 0 after SIGTERM (got {code})")
        return (WORK / "server.out").read_text(errors="replace")


def check_log(checks, expected):
    """--inspect-log join health: decisions = feedbacks = joined = expected."""
    code, _, _, out = PROCS.run(
        [exe("ncb_serve"), "--inspect-log", "serve.ncbl"], "inspect")
    health = json.loads(out[out.index("{"):out.rindex("}") + 1])
    checks.expect(code == 0, f"inspect-log exits 0 (got {code})")
    checks.expect(
        health["decisions"] == health["feedbacks"] == health["joined"]
        == expected,
        f"inspect-log: decisions {health['decisions']} = feedbacks "
        f"{health['feedbacks']} = joined {health['joined']} = requests "
        f"{expected}")
    checks.expect(health["duplicate_feedbacks"] == 0
                  and health["orphan_feedbacks"] == 0
                  and not health["truncated_tail"],
                  "inspect-log: no duplicate/orphan feedback, no torn tail")


def serve_pass(seed, seconds, size, checks):
    """Set-up probes, then warm-up, closed loop, open loop and a StatsRequest
    scrape on one server."""
    arms = SIZES[size]["arms"]
    server = Server(seed, arms)
    setups = []
    for attempt in range(SETUP_REPEATS):
        setups.append(server.launch())
        if attempt + 1 < SETUP_REPEATS:
            server.stop(checks)
    try:
        cmd = [exe("pb_loadgen"), "--socket", "serve.sock", "--server-pid",
               str(server.proc.pid), "--arms", str(arms), "--seed", str(seed),
               "--warmup", str(arms + arms // 5), "--closed-seconds",
               str(0.5 * seconds), "--open-seconds", str(0.4 * seconds),
               "--rate", str(OPEN_RATE)]
        code, _, _, out = PROCS.run(cmd, "loadgen", cpus=LOADGEN_CPUS)
        if code != 0:
            raise BenchError(f"pb_loadgen failed: {out.strip()}")
        load = json.loads(out.strip().splitlines()[-1])
        rss = peak_rss_mb(server.proc.pid)
    finally:
        server_out = server.stop(checks)
    requests = load["requests"]
    checks.expect(f"served {requests} decisions, {requests} feedbacks (0 unknown, "
                  f"0 duplicate)" in server_out,
                  f"ncb_serve exit line reports {requests} decisions and "
                  "feedbacks")
    check_log(checks, requests)
    (WORK / "serve.ncbl").unlink(missing_ok=True)

    closed = load["closed"]
    window_rates = [n / closed["window_s"] for n in closed["window_counts"]]
    # Median over windows: one scheduling stall moves a window, not the run.
    windows = [w for w in load["open"]["latency_windows"] if w["count"]]
    return {
        "setup_s": median(setups),
        "decisions_per_s": median(window_rates),
        "cpu_us_per_decision": closed["server_cpu_s"] / closed["decisions"] * 1e6,
        "p50_us": median(w["p50_us"] for w in windows),
        "p99_us": median(w["p99_us"] for w in windows),
        "peak_rss_mb": rss,
        "load": load,
    }


# ------------------------------------------------------------------ metrics --

def declared(kind):
    """{name: unit} of the BENCHMARK.json metrics of one kind."""
    return {entry["name"]: entry["unit"] for entry in
            json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


def end_to_end(workload, result):
    units = declared("end_to_end")
    log(f"{workload}: {result['samples']} sweep jobs timed, 1 op = 1 policy-slot")
    for name, unit in units.items():
        log(f"  {name:<16} {result[name]:>14.6g} {unit}")
    log(f"  {'p99_us':<16} {result['p99_us']:>14.6g} us (not a BENCHMARK.json metric)")
    return {name: {"value": result[name], "unit": unit}
            for name, unit in units.items()}


def reconcile(layers, serve):
    """Per-decision layer sum against the server's CPU per decision."""
    cpu_ns = serve["cpu_us_per_decision"] * 1e3
    parts = {
        "dist.codec (decode request + encode reply + decode feedback)":
            layers["dist.codec.decode_request_ns"]
            + layers["dist.codec.encode_reply_ns"]
            + layers["dist.codec.decode_feedback_ns"],
        "serve.engine (decide + report, eps-greedy)":
            layers["serve.engine.decide_ns.eps-greedy"]
            + layers["serve.engine.report_ns.eps-greedy"],
        "serve.log (append decision + feedback)": layers["serve.log.append_ns"],
        "obs (2 counter incs + 2 scoped timers)":
            2 * layers["obs.counter_inc_ns"] + 2 * layers["obs.scoped_timer_ns"],
    }
    layer_sum = sum(parts.values())
    residual = cpu_ns - sum(v for k, v in parts.items() if not k.startswith("obs"))
    unexplained = 1.0 - layer_sum / cpu_ns
    log("serve pass (eps-greedy, K = 10^4): "
        + ", ".join(f"{k} {serve[k]:.6g}" for k in
                    ("decisions_per_s", "cpu_us_per_decision", "p50_us",
                     "p99_us", "peak_rss_mb", "setup_s")))
    log("reconciliation, ns per decision:")
    for name, value in parts.items():
        log(f"  {value:>12.1f}  {name}")
    log(f"  {layer_sum:>12.1f}  layer sum")
    log(f"  {cpu_ns:>12.1f}  server_cpu_us_per_decision x 1000")
    log(f"  {residual:>12.1f}  serve.reactor.residual_ns")
    log(f"  reconcile.unexplained_frac = {unexplained:.3f} (target within ~0.2)")
    return residual, unexplained


def trace_run(workload, seed, seconds, size, checks):
    """Per-layer metrics: pb_layers over seed-generated inputs, a traced
    half-length pass of the workload, and a half-length ncb_serve pass for
    the serve layers, the scraped counters and the reconciliation."""
    short = max(1.0, seconds / 2)
    specs, _ = write_sweep_specs(WORKLOADS[workload], seed, size)
    code, _, _, out = PROCS.run(
        [exe("pb_layers"), "--seed", str(seed), "--arms",
         str(SIZES[size]["arms"]), "--scale", str(SIZES[size]["layers_scale"]),
         "--work-dir", ".", "--sweep-specs", ",".join(specs)], "layers")
    if code != 0:
        raise BenchError(f"pb_layers failed: {out.strip()[-2000:]}")
    layers = json.loads(out.strip().splitlines()[-1])

    sweep = sweep_pass(WORKLOADS[workload], seed, short, size, checks)
    serve = serve_pass(seed, short, size, checks)
    residual, unexplained = reconcile(layers, serve)
    stats = serve["load"]["stats"]
    derived = {
        "serve.log.flush_stalls": stats.get("serve.log.flush_stalls", 0),
        "serve.protocol_errors": stats.get("serve.protocol.errors", 0),
        "serve.reactor.residual_ns": residual,
        "reconcile.unexplained_frac": unexplained,
        "loadgen.lag_p99_us": serve["load"]["open"]["lag"]["p99_us"],
        "dist.farm.overhead_s":
            sweep["wall_s"] - layers["exp.sweep_job_s"] / SWEEP_WORKERS,
        "dist.jobs.requeued": sweep["requeued"],
    }
    values = {**layers, **derived}
    units = declared("per_layer")
    missing = [name for name in units if name not in values]
    if missing:
        raise BenchError(f"per-layer metrics not produced: {missing}")
    log(f"{workload}: per-layer metrics")
    for name in units:
        log(f"  {name:<40} {values[name]:>14.6g} {units[name]}")
    ops = sweep["ops"] + serve["load"]["requests"]
    return ops, {name: {"value": values[name], "unit": units[name]}
                 for name in units}


def run_workload(workload, seed, seconds, trace, size):
    checks = Checks()
    if trace:
        ops, metrics = trace_run(workload, seed, seconds, size, checks)
    else:
        result = sweep_pass(WORKLOADS[workload], seed, seconds, size, checks)
        result["peak_rss_mb"] = rss_probe(WORKLOADS[workload], seed, size,
                                          checks)
        ops, metrics = result["ops"], end_to_end(workload, result)
    attempted = ops + checks.count
    failed = len(checks.failures)
    log(f"{workload}: error_rate = {failed}/{attempted} = "
        f"{failed / attempted:.3g} ({checks.count} correctness checks)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# ------------------------------------------------------------------ compare --

COMPARABLE_HOST_KEYS = ("cpu_model", "nproc", "kernel", "compiler", "build_type")


def compare(base_path, head_path):
    base = json.loads(Path(base_path).read_text())
    head = json.loads(Path(head_path).read_text())
    differs = [k for k in COMPARABLE_HOST_KEYS
               if base["host"].get(k) != head["host"].get(k)]
    if differs:
        print(f"not comparable: host differs in {', '.join(differs)}")
        return 0
    if base["workload"] != head["workload"] or base["trace"] != head["trace"]:
        print("not comparable: different workload or trace mode")
        return 0
    print(f"{head['workload']}: head {head['host']['git_rev'][:12]} vs base "
          f"{base['host']['git_rev'][:12]}")
    for name, entry in head["result"]["metrics"].items():
        before = base["result"]["metrics"].get(name)
        if before is None or before["value"] == 0:
            print(f"  {name:<40} n/a")
            continue
        ratio = entry["value"] / before["value"]
        print(f"  {name:<40} {ratio:8.3f}x  ({before['value']:.6g} -> "
              f"{entry['value']:.6g} {entry['unit']})")
    return 0


# --------------------------------------------------------------------- main --

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--out", help="also save the result with its host block")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"),
                        help="compare two --out files (same host only)")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        build()
        if WORK.exists():
            shutil.rmtree(WORK)
        WORK.mkdir(parents=True)
        host = host_block()
        log("host: " + json.dumps(host))
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace, args.size)
    except BenchError as error:
        log(f"error: {error}")
        return 2
    finally:
        PROCS.stop_all()

    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"host": host, "workload": args.workload, "seed": args.seed,
             "trace": args.trace, "seconds": args.seconds, "result": result},
            indent=1) + "\n")
    print(json.dumps({"host": host}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
