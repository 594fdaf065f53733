#!/usr/bin/env python3
"""End-to-end benchmark of vliw_vp with per-layer attribution.

Run from the root of a vliw-vp source tree:

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 12 --trace 0

The script builds `bin/vliw_vp.exe` from source (dune, into
`.bench_build/`), sets the workload up, runs it in a closed loop for
`--seconds`, checks every output, and prints one JSON object as the last
line of stdout. `--trace 0` reports the end-to-end metrics; `--trace 1`
reruns the loop with the program's telemetry on and adds a layer pass,
reporting the per-layer metrics. Progress notes go to stderr. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import collections
import json
import os
import random
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # no __pycache__ inside the benchmark
import checks  # noqa: E402
import wire  # noqa: E402

MODELS = 8  # the CLI's default benchmark set: all eight SPEC-like models
PROGRAM_SEEDS = 8  # workload seeds per run, derived from --seed
SETUP_REPEATS = 5  # daemon set-ups timed per serve-warm run
OP_TIMEOUT_S = 120.0
SWEEP = "ccewidth"
LAYER_ROUNDS = 3


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# --- building -------------------------------------------------------------


def build(root):
    """Build the CLI from the sources in [root]; return the executable."""
    for f in ("dune-project", os.path.join("bin", "vliw_vp.ml")):
        if not os.path.isfile(os.path.join(root, f)):
            raise BenchError(
                f"{f} not found: run from the root of a vliw-vp source tree")
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        raise BenchError("dune is not on PATH")
    out = os.path.join(root, ".bench_build")
    os.makedirs(out, exist_ok=True)
    # Keep every byte dune writes inside the checkout: no shared cache.
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(out, "xdg-cache"))
    cmd = dune + ["build", "--root", root, "--build-dir",
                  os.path.join(out, "dune"), "bin/vliw_vp.exe"]
    t0 = time.perf_counter()
    r = subprocess.run(cmd, env=env, cwd=root, stdin=subprocess.DEVNULL,
                       capture_output=True, text=True, timeout=850)
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stderr[-4000:])
    log(f"build ok in {time.perf_counter() - t0:.1f}s")
    return os.path.join(out, "dune", "default", "bin", "vliw_vp.exe")


# --- running the program --------------------------------------------------


Result = collections.namedtuple("Result", "seconds code out err rss_kib")


class Cli:
    """Runs vliw_vp invocations, timing each from spawn to exit. Output
    travels through pipes, not files: a file truncated and rewritten on
    every operation is slow on some file systems (see SERVE_SEEDS)."""

    def __init__(self, exe):
        self.exe = exe

    def run(self, args):
        t0 = time.perf_counter()
        p = subprocess.Popen([self.exe] + args, stdin=subprocess.DEVNULL,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        chunks = {p.stdout: [], p.stderr: []}
        deadline = t0 + OP_TIMEOUT_S
        with selectors.DefaultSelector() as sel:
            for f in chunks:
                sel.register(f, selectors.EVENT_READ)
            while sel.get_map():
                ready = sel.select(max(0.0, deadline - time.perf_counter()))
                if not ready:
                    p.kill()
                    break
                for key, _ in ready:
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
        _, status, usage = os.wait4(p.pid, 0)
        dt = time.perf_counter() - t0
        p.returncode = code = os.waitstatus_to_exitcode(status)
        out, err = (b"".join(chunks[f]).decode("utf-8", "replace")
                    for f in (p.stdout, p.stderr))
        p.stdout.close()
        p.stderr.close()
        if code != 0:
            log(f"vliw_vp {' '.join(args)} exited {code}: {err[-500:]}")
        return Result(dt, code, out, err, usage.ru_maxrss)

    def must(self, args):
        r = self.run(args)
        if r.code != 0:
            raise BenchError(f"vliw_vp {' '.join(args)} failed")
        return r


def telemetry(err):
    """The JSON object `--telemetry -` wrote as the last line of stderr."""
    for line in reversed(err.splitlines()):
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                break
    return {}


def counter(obj, path):
    """The number at dotted [path] in [obj], or -1 when the program does
    not report it."""
    for key in path.split("."):
        obj = obj.get(key) if isinstance(obj, dict) else None
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return obj
    return -1


def dir_usage(path):
    files = size = 0
    for base, _, names in os.walk(path):
        for n in names:
            files += 1
            size += os.path.getsize(os.path.join(base, n))
    return files, size


class Daemon:
    """A `vliw_vp serve` process tree (supervisor plus one shard)."""

    def __init__(self, exe, workdir, store, name):
        self.sock = os.path.relpath(os.path.join(workdir, name + ".sock"))
        self.log = open(os.path.join(workdir, name + ".log"), "wb")
        self.proc = subprocess.Popen(
            [exe, "serve", "--socket", self.sock, "--workers", "1",
             "--jobs", "1", "--cache-dir", store],
            stdin=subprocess.DEVNULL, stdout=self.log, stderr=self.log,
            start_new_session=True)
        deadline = time.perf_counter() + 30
        while True:
            try:
                c = wire.Client(self.sock)
                c.ping()
                c.close()
                return
            except (OSError, wire.ServerError):
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    self.stop()
                    raise BenchError("serve daemon did not come up")
                time.sleep(0.002)

    def client(self):
        return wire.Client(self.sock)

    def pids(self):
        """The daemon's process group, read from /proc."""
        pids = []
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                try:
                    if os.getpgid(int(entry)) == self.proc.pid:
                        pids.append(int(entry))
                except OSError:
                    pass
        return pids

    def peak_rss_kib(self):
        total = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
            except OSError:
                pass
        return total

    def stop(self):
        try:
            c = self.client()
            c.shutdown()
            c.close()
        except (OSError, wire.ServerError):
            pass
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            pass
        # Whatever is left of the group (a hung supervisor, an orphaned
        # shard) is killed, and waited for until /proc no longer lists it.
        deadline = time.perf_counter() + 15
        while True:
            left = self.pids()
            if self.proc.poll() is None:
                left.append(self.proc.pid)
            if not left or time.perf_counter() > deadline:
                break
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except OSError:
                pass
            if self.proc.poll() is None:
                self.proc.wait()
            time.sleep(0.01)
        self.log.close()


# --- measurement ----------------------------------------------------------


class Run:
    """State shared by one benchmark run: the derived workload seeds, the
    program, and what was measured."""

    def __init__(self, exe, workdir, seed, seconds, trace):
        rng = random.Random(seed)
        self.seeds = [str(rng.randrange(1, 1 << 30)) for _ in range(PROGRAM_SEEDS)]
        self.exe = exe
        self.workdir = workdir
        self.cli = Cli(exe)
        self.seconds = seconds
        self.trace = trace
        self.setup = []
        self.latencies = collections.defaultdict(list)  # input -> seconds
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.peak_rss_kib = 0
        self.op_counters = []  # per-op program counters, traced runs only
        self.layers = {}
        self.fresh = 0

    def fresh_dir(self):
        self.fresh += 1
        return os.path.join(self.workdir, f"store{self.fresh}")

    def reference(self, args, check, setup=True):
        """Run [args] once as a reference, timed as set-up unless
        [setup] is false; its output must pass [check]."""
        r = self.cli.must(args)
        if setup:
            self.setup.append(r.seconds)
        self.attempted += 1
        problems = check(r.out)
        if problems:
            self.failed += 1
            self.problems += problems
        return r.out

    def loop(self, op, seconds=None):
        """Call [op](i) -> (input, seconds, ok) for [seconds] (default
        --seconds) of wall time, where input names the workload seed op i
        used."""
        seconds = self.seconds if seconds is None else seconds
        t_end = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < t_end:
            key, dt, ok = op(i)
            i += 1
            self.attempted += 1
            if ok:
                self.latencies[key].append(dt)
            else:
                self.failed += 1
        log(f"{i} ops in {seconds:g}s")

    def cli_loop(self, make_args, refs):
        """Closed loop over CLI invocations; op i runs the i-th seed of
        [refs] round-robin and must print exactly that seed's reference."""
        seeds = list(refs)

        def op(i):
            seed = seeds[i % len(seeds)]
            args = make_args(seed)
            if self.trace:
                args = args + ["--telemetry", "-"]
            r = self.cli.run(args)
            self.peak_rss_kib = max(self.peak_rss_kib, r.rss_kib)
            ok = r.code == 0 and r.out == refs[seed]
            if not ok:
                self.problems.append(f"op {i} (seed {seed}): output differs")
            if self.trace:
                t = telemetry(r.err)
                self.op_counters.append({
                    "op_jobs": counter(t, "jobs.done"),
                    "op_store_hits": counter(t, "cache.hits"),
                    "op_store_misses": counter(t, "cache.misses"),
                    "op_graph_deduped": counter(t, "graph.deduped"),
                    "op_spec_unit_hits": counter(t, "spec_unit.hits"),
                    "op_spec_unit_misses": counter(t, "spec_unit.misses"),
                })
            return seed, r.seconds, ok

        self.loop(op)


# --- workloads ------------------------------------------------------------

# The cold workloads run without a result store: the store's files are
# slow to delete on some file systems (~60 ms a file on ext4 mounted with
# discard), and a fresh store per operation would spend most of a run
# deleting. Workloads that need a filled store fill one in set-up:
# suite-warm for every workload seed, as its cost varies with the input
# by several percent; serve-warm for SERVE_SEEDS of them, which every
# daemon it starts is warmed with.
SERVE_SEEDS = 4


def suite_cold(run):
    """`vliw_vp all` from scratch: every compute layer runs."""
    refs = {}
    for s in run.seeds:
        refs[s] = run.reference(["all", "--seed", s, "--jobs", "1", "--no-cache"],
                                lambda out: checks.check_all(out, MODELS))
    run.cli_loop(lambda s: ["all", "--seed", s, "--jobs", "1", "--no-cache"], refs)


def suite_warm(run):
    """`vliw_vp all` over a result store filled in set-up."""
    store = run.fresh_dir()
    refs = {}
    for s in run.seeds:
        refs[s] = run.reference(
            ["all", "--seed", s, "--jobs", "1", "--cache-dir", store],
            lambda out: checks.check_all(out, MODELS))
    run.cli_loop(
        lambda s: ["all", "--seed", s, "--jobs", "1", "--cache-dir", store], refs)


def sweep_shared(run):
    """One ablation sweep per process: its points share per-block
    artifacts in the in-memory spec-unit cache."""
    refs = {}
    for s in run.seeds:
        refs[s] = run.reference(
            ["ablate", "--sweep", SWEEP, "--seed", s, "--jobs", "1", "--no-cache"],
            lambda out: checks.check_ablation(out, SWEEP, MODELS))
    run.cli_loop(
        lambda s: ["ablate", "--sweep", SWEEP, "--seed", s, "--jobs", "1",
                   "--no-cache"], refs)


def serve_warm(run):
    """One client submitting `all` requests in a closed loop to daemons
    whose job graph already holds every requested artifact."""
    store = run.fresh_dir()
    seeds = run.seeds[:SERVE_SEEDS]
    refs = {}
    for s in seeds:
        # Filling the store is not the daemon's set-up: it is timed in
        # suite-warm's.
        refs[s] = run.reference(
            ["all", "--seed", s, "--jobs", "1", "--cache-dir", store],
            lambda out: checks.check_all(out, MODELS), setup=False)

    def warm_wave(client):
        for s in seeds:
            run.attempted += 1
            if client.submit({"seed": int(s)}) != refs[s]:
                run.failed += 1
                run.problems.append(f"warm-up stream for seed {s} differs")

    def measure(client):
        def op(i):
            seed = seeds[i % len(seeds)]
            t0 = time.perf_counter()
            try:
                out = client.submit({"seed": int(seed)})
            except wire.ServerError as e:
                run.problems.append(f"request {i}: {e}")
                return seed, time.perf_counter() - t0, False
            dt = time.perf_counter() - t0
            if out != refs[seed]:
                run.problems.append(f"request {i} (seed {seed}): stream differs")
                return seed, dt, False
            return seed, dt, True

        before = client.stats() if run.trace else {}
        done = run.attempted
        run.loop(op, run.seconds / SETUP_REPEATS)
        if run.trace:
            after = client.stats()
            n = max(1, run.attempted - done)

            def delta(path):
                a, b = counter(after, path), counter(before, path)
                return -1 if -1 in (a, b) else (a - b) / n

            run.op_counters.append({
                "op_jobs": delta("graph.jobs_done"),
                "op_store_hits": delta("cache.hits"),
                "op_store_misses": delta("cache.misses"),
                "op_graph_deduped": delta("graph.deduped"),
                "op_spec_unit_hits": delta("spec_unit.hits"),
                "op_spec_unit_misses": delta("spec_unit.misses"),
            })

    # Set-up: spawn a daemon and warm its graph from the store. Each of
    # the repeats then serves an equal share of the measured loop, so
    # the latency is not that of one daemon's heap layout.
    daemon = None
    try:
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            daemon = Daemon(run.exe, run.workdir, store, f"d{k}")
            client = daemon.client()
            warm_wave(client)
            run.setup.append(time.perf_counter() - t0)
            measure(client)
            run.peak_rss_kib = max(run.peak_rss_kib, daemon.peak_rss_kib())
            if run.trace and k == SETUP_REPEATS - 1:
                layer_pass(run, daemon)
            client.close()
            daemon.stop()
            daemon = None
    finally:
        if daemon:
            daemon.stop()


WORKLOADS = {
    "suite-cold": suite_cold,
    "suite-warm": suite_warm,
    "sweep-shared": sweep_shared,
    "serve-warm": serve_warm,
}


# --- layer pass (--trace 1) -----------------------------------------------

# Spans around the CLI command that ends at each layer, all cold (no
# result store) on one workload seed. Each span includes the ones above
# it in the pipeline, so a layer's self time is the difference between
# its span and the span of the stage it builds on (see README.md).
SPANS = [
    ("startup_ms", ["--version"]),
    ("profile_span_ms", ["profile"]),
    ("pipeline_span_ms", ["summary"]),
    ("tables_span_ms", ["table2"]),
    ("regions_span_ms", ["regions"]),
    ("overlap_span_ms", ["overlap"]),
    ("tracesim_span_ms", ["hardware"]),
]


def layer_pass(run, daemon=None):
    s = run.seeds[0]
    samples = {name: [] for name, _ in SPANS}
    for _ in range(LAYER_ROUNDS):
        for name, cmd in SPANS:
            args = cmd if cmd[0].startswith("-") else (
                cmd + ["--seed", s, "--jobs", "1", "--no-cache"])
            samples[name].append(run.cli.must(args).seconds * 1e3)
    layers = {name: statistics.median(v) for name, v in samples.items()}

    store = run.fresh_dir()
    base = ["all", "--seed", s, "--jobs", "1", "--cache-dir", store]
    cold = telemetry(run.cli.must(base + ["--telemetry", "-"]).err)
    layers["store_entries"], layers["store_bytes"] = dir_usage(store)
    warm = [run.cli.must(base).seconds * 1e3 for _ in range(LAYER_ROUNDS)]
    layers["store_read_span_ms"] = statistics.median(warm)
    layers.update({
        "spec_unit_hits": counter(cold, "spec_unit.hits"),
        "spec_unit_misses": counter(cold, "spec_unit.misses"),
        "bitset_vectors": counter(cold, "spec_eval.bitset_vectors"),
    })

    own = daemon is None
    if own:
        daemon = Daemon(run.exe, run.workdir, store, "probe")
    try:
        client = daemon.client()
        pings = []
        for _ in range(200):
            t0 = time.perf_counter()
            client.ping()
            pings.append((time.perf_counter() - t0) * 1e3)
        client.close()
        layers["serve_ping_ms"] = statistics.median(pings)
    finally:
        if own:
            daemon.stop()
    run.layers = layers


# --- reporting ------------------------------------------------------------


def metrics(run):
    lat = sorted(x * 1e3 for v in run.latencies.values() for x in v)
    if not lat:
        raise BenchError("no operation succeeded")
    # Inputs differ in cost by a few percent, so the median of the pooled
    # samples jumps between inputs from run to run; the mean of per-input
    # medians weighs every input the same and is steadier.
    typical = statistics.mean(
        statistics.median(v) * 1e3 for v in run.latencies.values())
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    log(f"{len(lat)} timed ops over {len(run.latencies)} inputs, "
        f"per-input median {typical:.3f} ms, pooled p90 {p90:.3f} ms, "
        f"set-up samples {[round(x, 3) for x in run.setup]}")
    if not run.trace:
        return {
            "latency_ms": (typical, "ms"),
            "peak_rss_mb": (run.peak_rss_kib / 1024.0, "MiB"),
            "setup_s": (statistics.median(run.setup), "s"),
        }
    # The tail is reported without a bound: for a sub-millisecond
    # request on a shared host, p90 follows the host's scheduler.
    out = {"traced_latency_ms": (typical, "ms"), "traced_p90_ms": (p90, "ms")}
    for key in run.op_counters[0]:
        out[key] = (statistics.mean(c[key] for c in run.op_counters), "count")
    for key, value in run.layers.items():
        unit = "ms" if key.endswith("_ms") else (
            "bytes" if key.endswith("_bytes") else "count")
        out[key] = (value, unit)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    def terminate(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    root = os.getcwd()
    workdir = None
    try:
        exe = build(root)
        # Everything measured runs on one CPU: a request handed between
        # processes on different CPUs of a shared virtual machine waits
        # for the idle one to be woken, which varies with the host's load.
        # The last CPU, as the first tends to take the device interrupts.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        workdir = os.path.join(root, ".bench_build", "perfbench",
                               f"{args.workload}-{os.getpid()}")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        run = Run(exe, workdir, args.seed, args.seconds, bool(args.trace))
        WORKLOADS[args.workload](run)
        if run.trace and not run.layers:
            layer_pass(run)
        result = metrics(run)
    except (BenchError, wire.ServerError, subprocess.SubprocessError,
            OSError) as e:
        log(f"error: {e}")
        return 1
    finally:
        if workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    for p in run.problems[:20]:
        log(f"check failed: {p}")
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
