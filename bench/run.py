#!/usr/bin/env python3
"""Benchmark of uvmasim's two user surfaces: the uvmbench command line
and the uvmbench HTTP experiment service.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. It builds cmd/uvmbench into
.bench_build/ (Go's build cache and temporary files stay there too, so
nothing outside the checkout is written), runs one closed-loop workload
for S seconds, checks every output, and prints one JSON object as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics: per-operation latency (median
and 90th percentile; `attempted` is the sample count) and set-up time.
--trace 1 repeats the loop with the program's own instrumentation
switched on (a cell store, the metrics documents it prints or serves,
one recorded timeline) and reports the per-layer metrics instead; the
difference between the two runs is the cost of that instrumentation.

Every workload is one client in a closed loop, and every program run
uses the program's default executor width (-par 0: one worker per core),
so the cost-ordered parallel executor, intra-cell fan-out and the
server's worker-slot admission all run inside the timed window. Each
operation draws its seed from --seed.

  paper_suite   `uvmbench -json -i 2 all` processes, a fresh seed each:
                every table and figure of the paper, cold.
  uvm_pressure  `uvmbench -json oversub,micro` processes at the Mega
                input under the standard and managed setups, a fresh seed
                each: the footprint sweep past device capacity (eviction)
                plus fault-driven migration of 32 GB inputs.
  serve_cold    one `uvmbench serve` process; every request is the
                documented `{"figure":"fig7"}` spec with a fresh seed, so
                every cell simulates (the "cold" column of the serve
                latency table in EXPERIMENTS.md).
  serve_warm    one `uvmbench serve` process; every request repeats one
                `{"figure":"fig7"}` spec, filled at set-up, so every cell
                is an in-memory cache hit (the "memory hits" column). The
                third documented class, a store-warm request after a
                restart, is the per-layer metric store_warm_ms.

Set-up (setup_s, the median of 21 per run): for the CLI workloads, one
program start timed on `table3`, which simulates nothing; for the serve
workloads, booting a server until /healthz answers, plus, on serve_warm,
the request that fills its cache.

Per-layer metrics (--trace 1; host time unless marked simulated):

  cells_simulated, cell_lookups  core: cells the executor simulated, and
                                 cell-cache lookups (hits plus misses)
  cell_ms, iteration_us          core and cuda: host time per simulated
                                 cell and per simulated iteration
  store_warm_ms                  store: one operation answered from the
                                 cell store alone (a restarted server on
                                 the serve workloads)
  trace_ms, trace_events         one traced run of a representative
                                 workload: host time and events recorded
  sim_pcie_busy_ms, sim_kernel_busy_ms, uvm_fault_batches,
  uvm_migrated_gib, gpu_launches simulated pcie, gpu and uvm activity of
                                 that traced run

A faster simulator lowers cell_ms and iteration_us, which move latency on
paper_suite, uvm_pressure and serve_cold; serve_warm simulates nothing
after set-up, so it moves only with HTTP, rendering and JSON encoding. A
change meant only to speed up the simulator leaves the simulated metrics
identical.

Outputs are checked against the program's documented contracts: figure
documents parse and every breakdown is non-negative with a positive
total; the oversub sweep evicts exactly when the footprint exceeds
capacity; a CLI run replayed serially (-par 1) is byte-identical; a
served response is byte-identical to `uvmbench -json` for the same spec;
a repeated spec, in the same process or from the store after a restart,
returns the same bytes.
"""

import argparse
import http.client
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
SETUP_REPS = 21  # set-ups per run; the median is reported
OP_TIMEOUT = 120  # seconds one program run or request may take

# Managed setups plus the standard baseline the improvement math needs.
PRESSURE_SETUPS = "standard,uvm,uvm_prefetch,uvm_prefetch_async"

CLI_WORKLOADS = {
    "paper_suite": {
        "args": ["-i", "2", "all"],
        "figures": ["table3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
                    "fig11", "fig12", "fig13", "fig14", "oversub", "multigpu"],
        "trace": ["-workload", "gemm", "-size", "large", "trace"],
    },
    "uvm_pressure": {
        "args": ["-i", "4", "-size", "mega", "-setups", PRESSURE_SETUPS, "oversub,micro"],
        "figures": ["oversub", "micro"],
        "trace": ["-workload", "vector_seq", "-size", "mega", "-setups", "uvm,uvm_prefetch", "trace"],
    },
}
SERVE_WORKLOADS = ("serve_cold", "serve_warm")
SERVE_TRACE = ["-workload", "vector_seq", "-size", "large", "trace"]
WORKLOADS = list(CLI_WORKLOADS) + list(SERVE_WORKLOADS)

BREAKDOWN_KEYS = ("alloc_ns", "memcpy_ns", "kernel_ns", "overhead_ns", "total_ns")


class BenchError(Exception):
    pass


def log(msg):
    print("bench: " + msg, file=sys.stderr, flush=True)


# --- build -------------------------------------------------------------------

def build():
    """Builds cmd/uvmbench and returns the binary. Go's build cache skips
    the work when the sources have not changed."""
    if not (os.path.isfile("go.mod") and os.path.isdir(os.path.join("cmd", "uvmbench"))):
        raise BenchError("go.mod and cmd/uvmbench not found: run from the root of a uvmasim checkout")
    build_dir = os.path.abspath(BUILD_DIR)
    exe = os.path.join(build_dir, "uvmbench")
    env = dict(os.environ, GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", CGO_ENABLED="0")
    # XDG_CONFIG_HOME keeps the go command's configuration and telemetry
    # files inside the checkout as well.
    for var, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "gotmp"), ("GOPATH", "gopath"),
                     ("XDG_CONFIG_HOME", "config")):
        env[var] = os.path.join(build_dir, sub)
        os.makedirs(env[var], exist_ok=True)
    try:
        p = subprocess.run(["go", "build", "-o", exe, "./cmd/uvmbench"], env=env,
                           capture_output=True, text=True, timeout=840)
    except FileNotFoundError:
        raise BenchError("go toolchain not found on PATH")
    if p.returncode != 0:
        raise BenchError("go build failed:\n" + p.stderr)
    return exe


# --- output checks -----------------------------------------------------------

def parse_docs(text):
    """Splits a stream of concatenated JSON documents."""
    dec = json.JSONDecoder()
    docs, i, n = [], 0, len(text)
    while True:
        while i < n and text[i].isspace():
            i += 1
        if i == n:
            return docs
        doc, i = dec.raw_decode(text, i)
        docs.append(doc)


def check_breakdowns(node, where):
    """Every breakdown is non-negative with a positive total."""
    if isinstance(node, dict):
        if all(k in node for k in BREAKDOWN_KEYS):
            if any(node[k] < 0 for k in BREAKDOWN_KEYS) or node["total_ns"] <= 0:
                raise BenchError(f"{where}: invalid breakdown {node}")
        for v in node.values():
            check_breakdowns(v, where)
    elif isinstance(node, list):
        for v in node:
            check_breakdowns(v, where)


def check_figures(text, want, where):
    try:
        docs = parse_docs(text)
    except ValueError as e:
        raise BenchError(f"{where}: output is not a JSON document stream: {e}")
    got = [d.get("figure") for d in docs]
    if got != want:
        raise BenchError(f"{where}: figures {got}, want {want}")
    for d in docs:
        check_breakdowns(d["data"], where)
        if d["figure"] == "oversub":
            for p in d["data"]["points"]:
                if (p["evicted_bytes"] > 0) != (p["ratio"] > 1):
                    raise BenchError(f"{where}: oversub ratio {p['ratio']} evicted {p['evicted_bytes']} bytes")
    return docs


def summary_doc(stderr, where):
    """The cache-summary document a store-backed -json run prints on stderr."""
    start = stderr.find("{")
    docs = parse_docs(stderr[start:]) if start >= 0 else []
    for d in docs:
        if d.get("figure") == "cache_summary":
            return d["data"]
    raise BenchError(f"{where}: no cache_summary document on stderr")


def snapshot_value(summary, name, field="value"):
    for m in summary.get("metrics", []):
        if m["name"] == name:
            return m.get(field, 0)
    return 0


# --- program runs ------------------------------------------------------------

def run_cli(exe, work, args, seed=1, extra=()):
    """Runs one `uvmbench -json` process. A run that outlives OP_TIMEOUT
    is killed and returned as a failed process."""
    cmd = [exe, "-json", "-seed", str(seed), *extra, *args]
    t0 = time.perf_counter()
    try:
        p = subprocess.run(cmd, cwd=work, capture_output=True, text=True, timeout=OP_TIMEOUT)
    except subprocess.TimeoutExpired:
        p = subprocess.CompletedProcess(cmd, -signal.SIGKILL, "", f"killed after {OP_TIMEOUT} s")
    return time.perf_counter() - t0, p


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Client:
    """One keep-alive HTTP connection to the server."""

    def __init__(self, port):
        self.port = port
        self.conn = None

    def call(self, method, path, body=None):
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=OP_TIMEOUT)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            self.conn.request(method, path, body, headers)
            r = self.conn.getresponse()
            return r.status, r.read()
        except (http.client.HTTPException, OSError):
            self.close()
            raise

    def post_fig7(self, seed):
        """Posts the documented fig7 spec with the given seed; a request
        that fails on the wire returns status 0."""
        try:
            return self.call("POST", "/v1/experiments", json.dumps({"figure": "fig7", "seed": seed}))
        except (OSError, http.client.HTTPException) as e:
            return 0, str(e).encode()

    def close(self):
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class Server:
    """A `uvmbench serve` process, ready once /healthz answers."""

    def __init__(self, exe, work, store=None):
        self.port = free_port()
        cmd = [exe, "-addr", f"127.0.0.1:{self.port}"]
        if store:
            cmd += ["-cache-dir", store]
        cmd.append("serve")
        self.log = open(os.path.join(work, f"serve-{self.port}.log"), "wb")
        self.proc = subprocess.Popen(cmd, cwd=work, stdout=subprocess.DEVNULL, stderr=self.log)
        probe = Client(self.port)
        deadline = time.perf_counter() + 30
        try:
            while True:
                if self.proc.poll() is not None:
                    raise BenchError(f"uvmbench serve exited with code {self.proc.returncode}")
                try:
                    if probe.call("GET", "/healthz")[0] == 200:
                        return
                except (OSError, http.client.HTTPException):
                    pass
                if time.perf_counter() > deadline:
                    raise BenchError("uvmbench serve did not become healthy within 30 s")
                time.sleep(0.0005)
        except BaseException:
            self.stop()
            raise
        finally:
            probe.close()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def prometheus(text):
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            samples[name] = float(value)
    return samples


# --- trace-mode helpers ------------------------------------------------------

def trace_layers(exe, work, args, seed):
    """Records one timeline per setup with the trace subcommand and returns
    the per-layer figures it yields: simulated busy time per track, trace
    counters, event count, and the host wall time of the run."""
    out = os.path.join(work, "trace-out")
    # With a cell store attached the run prints its cache-summary
    # document, which carries the trace counters.
    store = os.path.join(work, "trace-store")
    wall, p = run_cli(exe, work, args, seed=seed, extra=["-out", out, "-cache-dir", store])
    if p.returncode != 0:
        raise BenchError(f"trace run failed: {p.stderr.strip()}")
    docs = parse_docs(p.stdout)
    if [d.get("figure") for d in docs] != ["trace"] or not docs[0]["data"]:
        raise BenchError("trace run printed no trace document")
    counters = summary_doc(p.stderr, "trace run").get("trace_counters", {})
    events = pcie = kernel = 0.0
    for run in docs[0]["data"]:
        busy = run["busy_ns_by_track"]
        events += run["events"]
        pcie += busy.get("pcie-h2d", 0) + busy.get("pcie-d2h", 0) + busy.get("prefetch-stream", 0)
        kernel += busy.get("gpu-kernel", 0)
    shutil.rmtree(out, ignore_errors=True)
    return {
        "trace_ms": (wall * 1e3, "ms"),
        "trace_events": (events, "count"),
        "sim_pcie_busy_ms": (pcie / 1e6, "ms"),
        "sim_kernel_busy_ms": (kernel / 1e6, "ms"),
        "uvm_fault_batches": (counters.get("uvm.fault_batches", 0), "count"),
        "uvm_migrated_gib": (counters.get("uvm.migrated_bytes", 0) / 2**30, "GiB"),
        "gpu_launches": (counters.get("gpu.launches", 0), "count"),
    }


def core_layers(simulated, lookups, cell_s, cells, iter_s, iters):
    return {
        "cells_simulated": (simulated, "count"),
        "cell_lookups": (lookups, "count"),
        "cell_ms": (cell_s / max(cells, 1) * 1e3, "ms"),
        "iteration_us": (iter_s / max(iters, 1) * 1e6, "us"),
    }


# --- workloads ---------------------------------------------------------------

class Run:
    """The state one benchmark run accumulates."""

    def __init__(self, seed):
        self.next_seed = random.Random(seed).randrange(10**6, 10**9)
        self.latencies = []
        self.setups = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.layers = {}

    def fresh_seed(self):
        self.next_seed += 1
        return self.next_seed

    def problem(self, msg):
        if len(self.problems) < 20:
            self.problems.append(msg)


def cli_workload(exe, work, name, r, seconds, traced):
    spec = CLI_WORKLOADS[name]
    store = os.path.join(work, "store")
    extra = ["-cache-dir", store] if traced else []

    # Set-up of a CLI operation is starting the program: timed on the
    # artifact that simulates nothing.
    for _ in range(SETUP_REPS):
        wall, p = run_cli(exe, work, ["table3"])
        if p.returncode != 0:
            raise BenchError(f"table3 failed: {p.stderr.strip()}")
        check_figures(p.stdout, ["table3"], "table3")
        r.setups.append(wall)

    first = None
    simulated = lookups = cell_s = cells = iter_s = iters = 0.0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        seed = r.fresh_seed()
        r.attempted += 1
        wall, p = run_cli(exe, work, spec["args"], seed=seed, extra=extra)
        if p.returncode != 0:
            r.failed += 1
            r.problem(f"seed {seed}: exit {p.returncode}: {p.stderr.strip()[-300:]}")
            continue
        r.latencies.append(wall)
        try:
            check_figures(p.stdout, spec["figures"], f"seed {seed}")
            if traced:
                s = summary_doc(p.stderr, f"seed {seed}")
                simulated += snapshot_value(s, "uvmbench_cells_simulated_total")
                lookups += s["memory_hits"] + s["memory_misses"]
                cell_s += snapshot_value(s, "uvmbench_cell_seconds", "sum")
                cells += snapshot_value(s, "uvmbench_cell_seconds", "count")
                iter_s += snapshot_value(s, "uvmbench_iteration_seconds", "sum")
                iters += snapshot_value(s, "uvmbench_iteration_seconds", "count")
        except BenchError as e:
            r.problem(str(e))
        if first is None:
            first = (seed, p.stdout)
    if first is None:
        raise BenchError("no operation succeeded")

    # Contract: output is byte-identical at any -par x -itpar.
    seed, want = first
    _, p = run_cli(exe, work, spec["args"], seed=seed, extra=["-par", "1"])
    if p.returncode != 0 or p.stdout != want:
        r.problem(f"seed {seed}: output differs at -par 1")

    if traced:
        r.layers.update(core_layers(simulated, lookups, cell_s, cells, iter_s, iters))
        # A rerun of the first operation resolves every cell from the store.
        wall, p = run_cli(exe, work, spec["args"], seed=seed, extra=extra)
        s = summary_doc(p.stderr, "store replay") if p.returncode == 0 else {}
        if p.stdout != want or s.get("store_hits", 0) == 0 or s.get("store_misses", 1) != 0:
            r.problem(f"seed {seed}: store replay diverges or simulates")
        r.layers["store_warm_ms"] = (wall * 1e3, "ms")
        r.layers.update(trace_layers(exe, work, spec["trace"], seed))


def serve_workload(exe, work, name, r, seconds, traced):
    cold = name == "serve_cold"
    store = os.path.join(work, "store") if traced else None
    warm_seed = r.fresh_seed()

    # Set-up: boot the server and, on serve_warm, fill its cache with the
    # one spec the loop repeats. The last server booted serves the loop.
    server, warm_body = None, None
    try:
        for _ in range(SETUP_REPS):
            if server is not None:
                server.stop()
            t0 = time.perf_counter()
            server = Server(exe, work, store)
            if not cold:
                c = Client(server.port)
                status, body = c.post_fig7(warm_seed)
                c.close()
                if status != 200:
                    raise BenchError(f"warm fill: status {status}: {body[:300]!r}")
            r.setups.append(time.perf_counter() - t0)
            if cold:
                continue
            if warm_body is None:
                check_figures(body.decode(), ["fig7"], "warm fill")
                warm_body = body
            elif body != warm_body:
                r.problem("warm fill responses differ between server processes")

        first = None if cold else (warm_seed, warm_body)
        c = Client(server.port)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            seed = r.fresh_seed() if cold else warm_seed
            r.attempted += 1
            t0 = time.perf_counter()
            status, body = c.post_fig7(seed)
            dt = time.perf_counter() - t0
            if status != 200:
                r.failed += 1
                r.problem(f"seed {seed}: status {status}: {body[:300]!r}")
                continue
            r.latencies.append(dt)
            if not cold:
                if body != warm_body:
                    r.problem(f"warm spec seed {seed}: response differs from the first one")
                continue
            try:
                check_figures(body.decode(), ["fig7"], f"seed {seed}")
            except BenchError as e:
                r.problem(str(e))
            if first is None:
                first = (seed, body)
        c.close()
        if first is None:
            raise BenchError("no request succeeded")

        if traced:
            c = Client(server.port)
            status, body = c.call("GET", "/metrics")
            c.close()
            if status != 200:
                raise BenchError(f"/metrics: status {status}")
            m = prometheus(body.decode())
            r.layers.update(core_layers(
                m.get("uvmbench_cells_simulated_total", 0),
                m.get("uvmbench_cell_cache_hits_total", 0) + m.get("uvmbench_cell_cache_misses_total", 0),
                m.get("uvmbench_cell_seconds_sum", 0), m.get("uvmbench_cell_seconds_count", 0),
                m.get("uvmbench_iteration_seconds_sum", 0), m.get("uvmbench_iteration_seconds_count", 0)))
    finally:
        if server is not None:
            server.stop()

    # Contract: a served response is byte-identical to `uvmbench -json`,
    # here replayed serially.
    seed, body = first
    _, p = run_cli(exe, work, ["fig7"], seed=seed, extra=["-par", "1"])
    if p.returncode != 0 or p.stdout.encode() != body:
        r.problem(f"seed {seed}: served fig7 differs from uvmbench -json")

    if traced:
        # A restarted server answers the same spec from the store alone.
        server = Server(exe, work, store)
        try:
            c = Client(server.port)
            t0 = time.perf_counter()
            status, again = c.post_fig7(seed)
            r.layers["store_warm_ms"] = ((time.perf_counter() - t0) * 1e3, "ms")
            m = prometheus(c.call("GET", "/metrics")[1].decode())
            c.close()
        finally:
            server.stop()
        if status != 200 or again != body or m.get("uvmbench_cells_simulated_total", 1) != 0:
            r.problem(f"seed {seed}: store replay after restart diverges or simulates")
        r.layers.update(trace_layers(exe, work, SERVE_TRACE, seed))


def main():
    ap = argparse.ArgumentParser(description="uvmasim benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Turn SIGTERM into an exception so the finally blocks stop the server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        exe = build()
        work = os.path.join(os.path.abspath(BUILD_DIR), "work",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
        os.makedirs(work)
        r = Run(args.seed)
        run = serve_workload if args.workload in SERVE_WORKLOADS else cli_workload
        try:
            run(exe, work, args.workload, r, args.seconds, args.trace == 1)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log(str(e))
        return 1

    for msg in r.problems:
        log("check failed: " + msg)
    if args.trace:
        metrics = r.layers
    else:
        lat = r.latencies
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
        metrics = {
            "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "latency_p90_ms": (p90 * 1e3, "ms"),
            "setup_s": (statistics.median(r.setups), "s"),
        }
    print(json.dumps({
        "correct": not r.problems,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
