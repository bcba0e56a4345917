"""Run one workload of the fedsec benchmark and print its metrics.

    python3 perfbench/run.py --workload authz-50k --seed 1 --seconds 10 --trace 0

The federation runs in its own server process (``server.py``), built from
the checkout's ``src/``; this process is the load generator. Two client
threads drive it in a closed loop over loopback HTTP, one keep-alive
``http.client`` connection each, after an unmeasured warm-up. The
generator is pinned to one CPU and the server to the others.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` makes one
untraced pass (for the harness metrics and the untraced throughput) and
one traced pass (for the span-derived layer metrics), and reports every
per-layer metric. Each metric is printed by name with its unit; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER, load_spans, span_metrics  # noqa: E402
from workloads import CLIENT_THREADS, HASH_SEED, WORKLOADS, Client  # noqa: E402

WARMUP_SECONDS = 2.0
# Set-up is timed several times per run and reported as the median; each
# authz-50k set-up seeds 50K grants, so it repeats fewer times.
SETUPS_PER_RUN = {"authz-50k": 3, "sac-jobs": 5, "assoc-mixed": 5}
READY_TIMEOUT = 120.0
COMMAND_TIMEOUT = 60.0
# A generator busier than this may be the bottleneck instead of the server.
SATURATION = 0.9
CLK_TCK = os.sysconf("SC_CLK_TCK")

END_TO_END_UNITS = {"setup_s": "s", "ok_ops_per_s": "ops/s", "op_p50_ms": "ms", "server_rss_mb": "MiB"}
# Printed on every untraced run and emitted by traced runs, but not gated: on
# the tuning machine op_p99_ms spread by more than the largest allowed bound.
UNGATED_MS = ("op_p99_ms", "read_p50_ms", "forward_p50_ms", "grant_visible_p50_ms")


class BenchmarkError(Exception):
    pass


class ServerProcess:
    """The federation's process, driven over its stdin/stdout protocol."""

    def __init__(self, workload, seed, trace, cpus, spans_path=""):
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPATH", None)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--workload", workload, "--seed", str(seed),
             "--trace", str(trace), "--cpus", ",".join(map(str, cpus)), "--spans", spans_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        self._lines = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.pid = self.proc.pid
        try:
            self.ready = self._receive(READY_TIMEOUT)
        except BenchmarkError:
            self.close()
            raise
        self.setup_s = time.perf_counter() - self.started

    def _read(self):
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _receive(self, timeout):
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise BenchmarkError(f"server gave no answer within {timeout:.0f}s") from None
        if line is None:
            raise BenchmarkError(f"server exited with code {self.proc.wait()}")
        return json.loads(line)

    def command(self, cmd):
        self.proc.stdin.write(json.dumps({"cmd": cmd}) + "\n")
        self.proc.stdin.flush()
        return self._receive(COMMAND_TIMEOUT)

    def status_kb(self, field):
        with open(f"/proc/{self.pid}/status") as src:
            for line in src:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
        raise BenchmarkError(f"{field} missing from /proc/{self.pid}/status")

    def cpu_s(self):
        with open(f"/proc/{self.pid}/stat") as src:
            fields = src.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write('{"cmd": "exit"}\n')
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)


def run_phase(workload, seconds, stream, corrupt_every=0):
    """Closed loop: each client thread sends its next op when the last returns."""
    records = [[] for _ in range(CLIENT_THREADS)]
    clients = []
    barrier = threading.Barrier(CLIENT_THREADS + 1)
    deadline = [0.0]
    finished = [0.0] * CLIENT_THREADS

    def client_thread(index):
        client = Client()
        clients.append(client)
        ops = workload.ops(stream, index)
        out = records[index]
        barrier.wait()
        n = 0
        try:
            while time.perf_counter() < deadline[0]:
                op = next(ops)
                n += 1
                if corrupt_every and n % corrupt_every == 0:
                    op.expect = ("deliberately wrong", op.expect)
                t0 = time.perf_counter()
                try:
                    outcome = workload.execute(client, op, f"{stream}{index}-{n}")
                    ok, extra = outcome.observed == op.expect, outcome.extra
                except Exception as exc:  # noqa: BLE001 - any failure is the op's failure
                    ok, extra = False, {"error": f"{type(exc).__name__}: {exc}"}
                out.append((op.kind, time.perf_counter() - t0, ok, extra))
        finally:
            finished[index] = time.perf_counter()
            client.close()

    threads = [threading.Thread(target=client_thread, args=(i,)) for i in range(CLIENT_THREADS)]
    for t in threads:
        t.start()
    deadline[0] = time.perf_counter() + seconds
    start = time.perf_counter()
    barrier.wait()
    for t in threads:
        t.join()
    ops = [r for per_thread in records for r in per_thread]
    requests = sum(c.requests for c in clients)
    return {
        "ops": ops,
        "elapsed": max(finished) - start,
        "client_request_us": sum(c.request_seconds for c in clients) / max(requests, 1) * 1e6,
    }


def _p50_ms(latencies):
    return statistics.median(latencies) * 1000.0 if latencies else 0.0


def measure(server, workload_cls, seed, seconds, corrupt_every=0):
    """Warm up, then time one closed-loop window against ``server``."""
    workload = workload_cls(seed, server.ready)
    warm = run_phase(workload, WARMUP_SECONDS, "warm", corrupt_every)
    peak_rss_kb = server.status_kb("VmHWM")
    rss0, cpu0, gen0 = server.status_kb("VmRSS"), server.cpu_s(), time.process_time()
    server.command("start")
    phase = run_phase(workload, seconds, "run", corrupt_every)
    server.command("stop")
    rss1, cpu1, gen1 = server.status_kb("VmRSS"), server.cpu_s(), time.process_time()

    ops = phase["ops"]
    if not ops:
        raise BenchmarkError("no operation completed in the measured window")
    latencies = sorted(r[1] for r in ops)
    ok = sum(1 for r in ops if r[2])
    by_kind = {}
    for kind, latency, _, _ in ops:
        by_kind.setdefault(kind, []).append(latency)
    visible = [r[3]["grant_visible_s"] for r in ops if "grant_visible_s" in r[3]]
    errors = [r[3]["error"] for r in warm["ops"] + ops if "error" in r[3]]
    return {
        "attempted": len(ops),
        "failed": len(ops) - ok,
        "warmup_failed": sum(1 for r in warm["ops"] if not r[2]),
        "errors": errors[:3],
        "elapsed": phase["elapsed"],
        "ok_ops_per_s": ok / phase["elapsed"],
        "op_p50_ms": statistics.median(latencies) * 1000.0,
        "op_p99_ms": statistics.quantiles(latencies, n=100, method="inclusive")[98] * 1000.0
        if len(latencies) > 1 else latencies[0] * 1000.0,
        "server_rss_mb": peak_rss_kb / 1024.0,
        "read_p50_ms": _p50_ms(by_kind.get("read", [])),
        "forward_p50_ms": _p50_ms(by_kind.get("forward", [])),
        "grant_visible_p50_ms": _p50_ms(visible),
        "server.rss_growth_kb_per_op": (rss1 - rss0) / len(ops),
        "service.cpu_ms_per_op": (cpu1 - cpu0) * 1000.0 / len(ops),
        "loadgen.cpu_busy_ratio": (gen1 - gen0) / phase["elapsed"],
        "client_request_us": phase["client_request_us"],
    }


def placement():
    """Generator pinned to the first allowed CPU, the server to the others.

    With the server allowed on every CPU, its request threads hand the
    interpreter lock across CPUs. On a 2-vCPU machine that made sac-jobs
    and assoc-mixed 20-35% slower and far less steady than with the
    server on a CPU of its own, in runs interleaved over the same minutes.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[:1], cpus[1:] or cpus


def machine_record(generator_cpus, server_cpus):
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "cryptography": version("cryptography"),
        "requests": version("requests"),
        "generator_cpus": generator_cpus,
        "server_cpus": server_cpus,
        "client_threads": CLIENT_THREADS,
    }


def run(workload_name, seed, seconds, trace, cpus, corrupt_every=0, setups=None,
        workload_cls=None):
    """One benchmark run; returns (report lines, result object).

    ``cpus`` is the (generator, server) CPU split from ``placement()``;
    ``corrupt_every``, ``setups`` and ``workload_cls`` (a variant of the
    named workload's generator) exist for the self-test.
    """
    if not (ROOT / "src" / "fedsec" / "__init__.py").is_file():
        raise BenchmarkError(f"no fedsec sources under {ROOT / 'src'}")
    workload_cls = workload_cls or WORKLOADS[workload_name]
    generator_cpus, server_cpus = cpus
    machine = machine_record(generator_cpus, server_cpus)
    lines = [f"# fedsec benchmark: workload={workload_name} seed={seed} seconds={seconds} "
             f"trace={trace} PYTHONHASHSEED={HASH_SEED}",
             f"# why: {workload_cls.why}",
             "# machine: " + " ".join(f"{k}={v}" for k, v in machine.items())]
    spans_path = ""
    if trace:
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        spans_path = str(out_dir / f"spans-{workload_name}-{seed}.json")

    setup_times, results = [], {}
    repeats = setups or (1 if trace else SETUPS_PER_RUN[workload_name])
    for index in range(repeats):
        server = ServerProcess(workload_name, seed, 0, server_cpus)
        try:
            setup_times.append(server.setup_s)
            lines.append(f"# server pid={server.pid} cpus={sorted(os.sched_getaffinity(server.pid))} "
                         f"PYTHONHASHSEED={server.ready['hash_seed']} "
                         f"set-up {index + 1}/{repeats}: {server.setup_s:.3f}s "
                         f"(bootstrap {server.ready['bootstrap_s']:.3f}s, "
                         f"seed {server.ready['seed_s']:.3f}s)")
            if index == repeats - 1:
                results = measure(server, workload_cls, seed, seconds, corrupt_every)
                ready = server.ready
        finally:
            server.close()
    busy = results["loadgen.cpu_busy_ratio"]
    lines.append(f"# generator busy {busy:.2f} of one CPU: "
                 + ("SATURATED - the generator, not the server, may limit this run"
                    if busy > SATURATION else "below saturation"))

    attempted, failed = results["attempted"], results["failed"]
    if trace:
        server = ServerProcess(workload_name, seed, 1, server_cpus, spans_path)
        try:
            traced = measure(server, workload_cls, seed, seconds, corrupt_every)
        finally:
            server.close()
        spans = load_spans(spans_path)
        metrics = span_metrics(spans, traced["attempted"], traced["client_request_us"])
        metrics.update({
            "rbac.seed_s": ready["seed_s"],
            "skadmin.bootstrap_s": ready["bootstrap_s"],
            "trace.overhead_ratio": 1.0 - traced["ok_ops_per_s"] / results["ok_ops_per_s"],
        })
        for name in UNGATED_MS + ("server.rss_growth_kb_per_op", "service.cpu_ms_per_op",
                                  "loadgen.cpu_busy_ratio"):
            metrics[name] = results[name]
        lines.append(f"# traced pass: {traced['attempted']} ops, {len(spans)} spans in "
                     f"{Path(spans_path).relative_to(ROOT)}; "
                     f"untraced {results['ok_ops_per_s']:.1f} ok ops/s, "
                     f"traced {traced['ok_ops_per_s']:.1f}")
        attempted += traced["attempted"]
        failed += traced["failed"]
        warmup_failed = results["warmup_failed"] + traced["warmup_failed"]
        errors = results["errors"] + traced["errors"]
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: results[name] for name in END_TO_END_UNITS if name != "setup_s"}
        metrics["setup_s"] = statistics.median(setup_times)
        warmup_failed, errors = results["warmup_failed"], results["errors"]
        units = END_TO_END_UNITS
        lines.append(f"# set-up times: {', '.join(f'{t:.3f}' for t in setup_times)} s")

    for name, unit in units.items():
        lines.append(f"{name:40s} {metrics[name]:14.4f} {unit}")
    if not trace:
        # failed_ratio is 0 on a correct run, and the associate metrics exist
        # only where the mix has those operations, so neither is gated either.
        lines.append(f"{'failed_ratio':40s} {results['failed'] / results['attempted']:14.4f} ratio")
        lines.append(f"{'op_p99_ms':40s} {results['op_p99_ms']:14.4f} ms "
                     f"({results['attempted']} samples, {results['attempted'] // 100} beyond p99)")
        if workload_name == "assoc-mixed":
            for name in UNGATED_MS[1:]:
                lines.append(f"{name:40s} {results[name]:14.4f} ms")
    for error in errors:
        lines.append(f"# error: {error}")
    if warmup_failed:
        lines.append(f"# {warmup_failed} warm-up ops answered wrongly")
    result = {
        "correct": failed == 0 and warmup_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one fedsec benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lines, result = run(args.workload, args.seed, args.seconds, args.trace, placement())
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
