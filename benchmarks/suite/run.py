"""The end-to-end benchmark: five workloads against a server process.

    python3 benchmarks/suite/run.py [--workload W ...] [--seed N]
        [--seconds S] [--trace 0|1] [--smoke] [--out PATH]

For each workload it prepares the on-disk state the server restores
(untimed), drives the workload's load from this process (at most two
threads and two connections) against ``serve.py`` restoring that
state, stops the server and checks the outputs; a failed request is
an incorrect output.  Set-up is timed over five spawns of the server,
before and after the load.  The server and the load run on different
vCPUs, and the gated times are scaled to a reference speed of the
server's vCPU (see ``speed.py``); the times as measured are printed
as ``measured.*``.  Every metric is printed by name with its unit; the
last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (see
``BENCHMARK.json``); with ``--trace 1`` the workload runs untraced and
then once more against a traced server, the metrics are the per-layer
ones, and ``trace_overhead`` (traced / untraced) is printed.  With
several workloads the metrics are nested under each workload's name.
``--out`` appends each workload's full result as one JSON line, the
input of ``compare.py``.  The exit code is 1 when any output was
incorrect, 2 when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from speed import SpeedTrace, placement

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

#: The vCPU the servers and the speed monitor run on, and the one the
#: load runs on.
SERVER_CPU, LOAD_CPU = placement()
#: Server spawns timed per run (one of them serves the load).
SPAWNS = 5
#: Seconds a server may take to become ready or to exit.
PROCESS_TIMEOUT = 120.0


def load_spec() -> Dict:
    """``BENCHMARK.json``: the gated metric lists and their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as source:
        return json.load(source)


def unit_of(name: str, spec: Optional[Dict] = None) -> str:
    """A metric's unit: as ``BENCHMARK.json`` states it, else as its
    name implies."""
    for entry in (spec or {}).get("end_to_end", []) \
            + (spec or {}).get("per_layer", []):
        if entry["name"] == name:
            return entry["unit"]
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ms") or "_ms." in name \
            or name.endswith("_ms_per_event") \
            or name.endswith("_ms_per_doc"):
        return "ms"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if "bytes" in name and "per_user" not in name:
        return "bytes"
    if name.endswith("_count") or name.endswith("per_request"):
        return "count"
    return "ratio"


def import_system():
    """Put ``src/`` first on the path and import the system under
    test from it, or exit 2."""
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as error:
        print("error: cannot import the system under test from {}: {}"
              .format(SRC, error), file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print("error: repro imported from {}, not {}".format(
            repro.__file__, SRC), file=sys.stderr)
        sys.exit(2)


class ServerProcess:
    """One ``serve.py`` child, pinned to ``cpu``: started, timed to
    ready, stopped."""

    def __init__(self, state: str, shards: int, log_path: str, cpu: int,
                 spans: Optional[str] = None) -> None:
        command = [sys.executable, os.path.join(HERE, "serve.py"),
                   "--persist-dir", state]
        if shards:
            command += ["--shards", str(shards)]
        if spans:
            command += ["--spans", spans]
        env = dict(os.environ, PYTHONHASHSEED="0")
        self._log_path = log_path
        self._log = open(log_path, "ab")
        started = time.perf_counter()
        self._process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, env=env, cwd=ROOT,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        ready, _, _ = select.select([self._process.stdout], [], [],
                                   PROCESS_TIMEOUT)
        line = self._process.stdout.readline() if ready else b""
        if not line:
            self._end()
            raise RuntimeError("server did not start:\n" + self._tail())
        #: Spawn and ready times over the restored state.
        self.spawned = (started, time.perf_counter())
        self.port = json.loads(line)["port"]

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (VmHWM) so far."""
        with open("/proc/{}/status".format(self._process.pid)) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        """Close its standard input and wait for it to exit."""
        code = self._end()
        if code != 0:
            raise RuntimeError("server exited with {}:\n{}".format(
                code, self._tail()))

    def _end(self) -> int:
        try:
            self._process.stdin.close()
        except OSError:
            pass
        try:
            self._process.wait(PROCESS_TIMEOUT)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        finally:
            self._process.stdout.close()
            self._log.close()
        return self._process.returncode

    def _tail(self) -> str:
        """The end of the server's log (it lives in the run directory,
        which is removed when the run ends)."""
        with open(self._log_path, "rb") as log:
            return log.read()[-4000:].decode("utf-8", "replace")


def drive_once(workload, ctx, run_dir: str, pristine: str,
               spawns: int = 1, spans: Optional[str] = None) -> Dict:
    """Drive the load against a server over the prepared state, stop
    it and verify.

    Set-up is timed ``spawns`` times: the server the load runs
    against, ``spawns // 2`` spawns before it and the rest after the
    run over a fresh copy of the prepared state (``pristine``).  The
    speed of the server's vCPU is sampled throughout.
    """
    from repro.service.client import ServiceClient

    log = os.path.join(run_dir, "server.log")
    speed = SpeedTrace(SERVER_CPU)

    def spawn(state: str) -> Tuple[float, float]:
        server = ServerProcess(state, workload.shards, log, SERVER_CPU)
        server.stop()
        return server.spawned

    try:
        spawned = [spawn(ctx.state) for _ in range(spawns // 2)]
        server = ServerProcess(ctx.state, workload.shards, log,
                               SERVER_CPU, spans=spans)
        spawned.append(server.spawned)
        try:
            outcome = workload.drive(ctx, server.port)
            client = ServiceClient("http://127.0.0.1:{}".format(
                server.port))
            health = client.health()
            client.close()
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        if spawns > len(spawned):
            again = os.path.join(run_dir, "again")
            shutil.copytree(pristine, again)
            try:
                spawned += [spawn(again)
                            for _ in range(spawns - len(spawned))]
            finally:
                shutil.rmtree(again)
    finally:
        speed.stop()
    problems = workload.verify(ctx, outcome)
    return {"outcome": outcome, "spawned": spawned, "speed": speed,
            "health": health, "peak_rss_mb": rss, "problems": problems}


def end_to_end(run: Dict) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The gated metrics at the reference speed, and as measured."""
    outcome, speed = run["outcome"], run["speed"]
    setups = [end - start for start, end in run["spawned"]]
    at_reference = {
        "setup_s": statistics.median(
            seconds * speed.factor(*spawned)
            for seconds, spawned in zip(setups, run["spawned"])),
        "ops_per_s": outcome.ops_per_s
        / speed.factor(*outcome.rate_window),
        # Each latency at the speed of its own middle, so that a slow
        # stretch moves the requests it served, not the quantile.
        "p50_ms": statistics.median(
            latency * speed.at(end - latency / 2)
            for latency, end in zip(outcome.latencies,
                                    outcome.latency_ends)) * 1000.0,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    measured = {"setup_s": statistics.median(setups),
                "ops_per_s": outcome.ops_per_s,
                "p50_ms": statistics.median(outcome.latencies) * 1000.0}
    return at_reference, measured


def _wal_coalescing(health: Dict) -> Optional[float]:
    values = [entry["wal"]["coalescing"]
              for entry in health.get("sessions", [])
              if entry.get("wal", {}).get("coalescing")]
    return max(values) if values else None


def run_workload(workload, args, run_dir: str) -> Dict:
    """One workload: untraced, then (``--trace 1``) traced."""
    from driver import percentile
    from spans import layer_metrics, load
    from workloads import Context

    ctx = Context(seed=args.seed, seconds=args.seconds,
                  smoke=args.smoke, state=os.path.join(run_dir, "state"))
    os.makedirs(ctx.state, exist_ok=True)
    workload.prepare(ctx)
    pristine = os.path.join(run_dir, "pristine")
    shutil.copytree(ctx.state, pristine)
    runs = [drive_once(workload, ctx, run_dir, pristine,
                       spawns=1 if args.smoke else SPAWNS)]
    metrics, measured = end_to_end(runs[0])
    result = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "smoke": args.smoke,
              "metrics": metrics}
    outcome, speed = runs[0]["outcome"], runs[0]["speed"]
    result["printed"] = {
        "p99_ms": [percentile(outcome.latencies, 0.99) * 1000.0, "ms"],
        "latency_count": [len(outcome.latencies), "count"],
        "gen.late_share": [outcome.late_share, "ratio"],
        "error_rate": [outcome.failed / outcome.attempted, "ratio"],
        "speed.rate_window": [speed.factor(*outcome.rate_window),
                              "ratio"],
    }
    result["printed"].update({"measured." + name: [value, unit_of(name)]
                              for name, value in measured.items()})
    result["printed"].update({name: list(entry)
                              for name, entry in outcome.extra.items()})
    if args.trace:
        shutil.rmtree(ctx.state)
        shutil.copytree(pristine, ctx.state)
        spans_path = os.path.join(args.workdir, "spans",
                                  workload.name + ".spans.jsonl")
        traced = drive_once(workload, ctx, run_dir, pristine,
                            spans=spans_path)
        runs.append(traced)
        out = traced["outcome"]
        layers = layer_metrics(
            load(spans_path), out.window, out.attempted,
            out.client_latencies, out.user_bytes,
            _wal_coalescing(traced["health"]))
        layers["gen.late_share"] = out.late_share
        result["layers"] = layers
        traced_metrics, _ = end_to_end(traced)
        result["trace_overhead"] = {
            name: traced_metrics[name] / result["metrics"][name]
            for name in ("ops_per_s", "p50_ms")}
    result["attempted"] = sum(run["outcome"].attempted for run in runs)
    result["failed"] = sum(run["outcome"].failed for run in runs)
    result["problems"] = [problem for run in runs
                          for problem in run["problems"]]
    if result["failed"]:
        result["problems"].append("{} of {} requests failed".format(
            result["failed"], result["attempted"]))
    result["correct"] = not result["problems"]
    return result


def report(result: Dict, spec: Dict) -> None:
    """Print every metric of one workload by name, with its unit."""
    name = result["workload"]

    def line(metric: str, value: float, unit: str) -> None:
        print("{:<18} {:<36} {:>14.6g} {}".format(name, metric, value,
                                                  unit))

    for metric, value in result["metrics"].items():
        line(metric, value, unit_of(metric, spec))
    for metric, (value, unit) in result["printed"].items():
        line(metric, value, unit)
    for metric, value in sorted(result.get("layers", {}).items()):
        line(metric, value, unit_of(metric, spec))
    for metric, value in result.get("trace_overhead", {}).items():
        line("trace_overhead." + metric, value, "ratio")
    for problem in result["problems"]:
        print("{:<18} INCORRECT: {}".format(name, problem))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", metavar="W",
                        help="workload to run (repeatable; default: "
                             "all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="request and crowd seed")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="nominal measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced run and report the "
                             "per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every reply checked")
    parser.add_argument("--out", metavar="PATH",
                        help="append each workload's result as a JSON "
                             "line")
    parser.add_argument("--workdir", metavar="DIR",
                        default=os.path.join(ROOT, ".bench_build",
                                             "suite"),
                        help="scratch directory (default: %(default)s)")
    args = parser.parse_args(argv)
    import_system()
    spec = load_spec()
    os.sched_setaffinity(0, {LOAD_CPU})
    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error("unknown workload(s): {}; one of: {}".format(
            ", ".join(unknown), ", ".join(WORKLOADS)))
    results = []
    for name in names:
        run_dir = os.path.join(args.workdir, "run-{}".format(os.getpid()))
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        try:
            result = run_workload(WORKLOADS[name], args, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        report(result, spec)
        results.append(result)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as sink:
                sink.write(json.dumps(result, sort_keys=True) + "\n")

    def gated(result: Dict) -> Dict:
        values = result["layers"] if args.trace else result["metrics"]
        listed = spec["per_layer"] if args.trace else spec["end_to_end"]
        return {entry["name"]: {"value": values[entry["name"]],
                                "unit": entry["unit"]}
                for entry in listed}

    summary = {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": (gated(results[0]) if len(results) == 1 else
                    {result["workload"]: gated(result)
                     for result in results}),
    }
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
