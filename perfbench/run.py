"""floeralg benchmark: census, rings and maslov closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0

``--workload all`` (the default) runs the three workloads one after the
other in this process. With ``--trace 0`` the last line of stdout is a JSON
object whose metrics are the end-to-end metrics; with ``--trace 1`` they
are the per-layer metrics of a traced run. Each workload first prints a
line of details: the tail percentile used, failures, the dominant layer,
and the machine and versions. Under ``all`` the metric names carry the
workload as a prefix, and each workload's ``failed_ratio`` is added. See
perfbench/README.md for the definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 5
COLD_RUNS = 7
IMPORTTIME_RUNS = 3
SUBPROCESS_TIMEOUT = 120
# Tail percentile per workload: the highest of 50/75/90/95/99 with at least
# ten samples beyond it in a 40 s run of the seed code. It is fixed so that
# runs with more or fewer items still report the same percentile.
TAIL_PERCENTILE = {"census": 95.0, "rings": 75.0, "maslov": 75.0}


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT,
                          check=False)


# -- the closed loop ------------------------------------------------------------


class Loop:
    """Runs items one at a time, checks each, and keeps the statistics."""

    def __init__(self, wl, seed, span=nullcontext, run_item=None, probes=None):
        self.wl, self.seed, self.span = wl, seed, span
        self.run_item = run_item or (lambda i, fn: fn())
        self.probes = probes
        self.latencies = []     # completed items, seconds
        self.busy_s = 0.0       # all attempted items, seconds
        self.attempted = self.failed = 0
        self.seen = set()
        self.repeats = 0

    def item(self, i):
        spec = self.wl.spec(i)
        key = self.wl.key(spec)
        self.repeats += key in self.seen
        self.seen.add(key)
        self.attempted += 1
        start = time.perf_counter()
        try:
            outcome = self.run_item(i, lambda: self.wl.run(spec, self.span))
        except Exception:
            self.busy_s += time.perf_counter() - start
            return self.fail(i, "raised:\n" + traceback.format_exc())
        elapsed = time.perf_counter() - start
        self.busy_s += elapsed
        try:
            errors = self.wl.check(spec, outcome)
        except Exception:
            errors = ["check raised:\n" + traceback.format_exc()]
        if errors:
            return self.fail(i, "; ".join(errors))
        self.latencies.append(elapsed)

    def fail(self, i, reason):
        self.failed += 1
        name = self.wl.name
        print(f"FAIL workload={name} seed={self.seed} item={i}: {reason}\n"
              f"  rerun: python3 perfbench/run.py --workload {name} "
              f"--seed {self.seed} --item {i}", file=sys.stderr)

    def cycles(self, first, seconds):
        """Whole cycles from ``first`` on, stopping at the cycle boundary
        nearest to ``seconds`` of wall time (at least one cycle)."""
        n = self.wl.cycle_len
        start = time.perf_counter()
        done = 0
        while True:
            for pos in range(n):
                self.item((first + done) * n + pos)
                if self.probes is not None:
                    self.probes.due((time.perf_counter() - start) / seconds)
            done += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / done / 2 >= seconds:
                return elapsed

    def items_per_s(self):
        return len(self.latencies) / self.busy_s if self.busy_s else 0.0


def tail_latency(latencies, percentile):
    """Nearest-rank percentile: (seconds, samples beyond it)."""
    xs = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100 * len(xs)))
    return xs[rank - 1], len(xs) - rank


# -- probes in fresh processes ------------------------------------------------------


def setup_probe(name, seed):
    """Time import plus input build in this fresh process; prints seconds."""
    start = time.perf_counter()
    work = ROOT / "perfbench" / f".work-{os.getpid()}"
    try:
        WORKLOADS[name]().setup(seed, work)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))


class Probes:
    """Fresh-process probes: cold starts of the workload's commands, whose
    stdout must match the expected bytes, and set-up runs. They are spread
    evenly over the measured run, so that a slow stretch of a shared machine
    does not fall on all of them."""

    def __init__(self, wl, seed):
        self.wl, self.seed = wl, seed
        self.commands = wl.cold_commands()
        tasks = [(j / COLD_RUNS, k) for k in range(len(self.commands))
                 for j in range(COLD_RUNS)]
        tasks += [(j / SETUP_RUNS, None) for j in range(SETUP_RUNS)]
        self.pending = [k for _, k in sorted(tasks, key=lambda t: t[0])]
        self.total = len(self.pending)
        self.cold_s = [[] for _ in self.commands]
        self.setup_s = []
        self.cold_runs = self.cold_failed = 0

    def due(self, fraction):
        """Run the probes that fall before this fraction of the run."""
        while self.pending and self.total - len(self.pending) < fraction * self.total:
            k = self.pending.pop(0)
            if k is None:
                self.setup()
            else:
                self.cold(k)

    def setup(self):
        proc = run_child([str(Path(__file__).resolve()), "--setup-probe",
                          "--workload", self.wl.name, "--seed", str(self.seed)])
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr}")
        self.setup_s.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])

    def cold(self, k):
        args, expected, want_code = self.commands[k]
        start = time.perf_counter()
        proc = run_child(["-m", "floeralg.cli", *args])
        self.cold_s[k].append(time.perf_counter() - start)
        self.cold_runs += 1
        if proc.returncode != want_code or proc.stdout != expected:
            self.cold_failed += 1
            print(f"FAIL workload={self.wl.name} cold start {' '.join(args)}: exit "
                  f"{proc.returncode}, stdout as expected: {proc.stdout == expected}",
                  file=sys.stderr)

    def cold_start_ms(self):
        """Median per command, averaged over the workload's commands."""
        return 1000 * statistics.fmean(statistics.median(t) for t in self.cold_s)


def import_times():
    """Cumulative import times (ms) from ``python -X importtime``, median of
    fresh processes."""
    wanted = {"floeralg.cli": "cli.import_ms", "numpy": "cli.import_numpy_ms",
              "jsonschema": "cli.import_jsonschema_ms", "click": "cli.import_click_ms"}
    samples = {metric: [] for metric in wanted.values()}
    for _ in range(IMPORTTIME_RUNS):
        proc = run_child(["-X", "importtime", "-c", "import floeralg.cli"])
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr[-2000:]}")
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, module = line.split("|")
            metric = wanted.get(module.strip())
            if metric and cumulative.strip().isdigit():
                samples[metric].append(int(cumulative) / 1000)
    return {metric: statistics.median(v) if v else 0.0 for metric, v in samples.items()}


def environment():
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30, check=False)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "floeralg").rglob("*")):
        if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "jsonschema": version("jsonschema"),
        "click": version("click"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# -- one workload -----------------------------------------------------------------


def end_to_end(wl, seed, seconds):
    probes = Probes(wl, seed)
    loop = Loop(wl, seed, probes=probes)
    measured = loop.cycles(0, seconds)
    probes.due(1.0)
    if not loop.latencies:
        raise RuntimeError(f"{wl.name}: no item completed")
    pct = TAIL_PERCENTILE[wl.name]
    tail_s, beyond = tail_latency(loop.latencies, pct)
    metrics = {
        "items_per_s": loop.items_per_s(),
        "latency_p50_ms": 1000 * statistics.median(loop.latencies),
        "latency_tail_ms": 1000 * tail_s,
        "cold_start_ms": probes.cold_start_ms(),
        "setup_s": statistics.median(probes.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    attempted = loop.attempted + probes.cold_runs
    failed = loop.failed + probes.cold_failed
    details = {
        "items": loop.attempted, "measured_s": measured,
        "tail_percentile": pct, "tail_samples_beyond": beyond,
        "failed_ratio": {"value": failed / attempted, "unit": "ratio"},
        "repeat_share": loop.repeats / loop.attempted,
    }
    return attempted, failed, metrics, details


def per_layer(wl, seed, seconds, spans_path):
    tracer = tracing.Tracer()
    uninstall = tracer.install()
    try:
        traced = Loop(wl, seed, span=tracer.span, run_item=tracer.run_item)
        traced.cycles(0, 0)  # exactly one cycle: the same inputs for a seed
    finally:
        uninstall()
    plain = Loop(wl, seed)
    plain.seen = traced.seen  # repeats are counted over the whole run
    plain.cycles(1, seconds / 2)
    metrics = tracer.layer_metrics()
    metrics.update(import_times())
    untraced, traced_ips = plain.items_per_s(), traced.items_per_s()
    metrics["trace.items_per_s_untraced"] = untraced
    metrics["trace.items_per_s_traced"] = traced_ips
    metrics["trace.overhead_share"] = 1 - traced_ips / untraced if untraced else 0.0
    metrics["input.repeat_share"] = ((traced.repeats + plain.repeats)
                                     / (traced.attempted + plain.attempted))
    if spans_path:
        tracer.dump_spans(spans_path)
    details = {
        "traced_items": tracer.items, "traced_item_s": tracer.item_s,
        "dominant_layer": tracer.dominant_layer(),
        "layer_self_s": {layer: tracer.self_s[layer] for layer in ("bench",) + tracing.LAYERS},
        "spans": len(tracer.spans),
    }
    attempted = traced.attempted + plain.attempted
    failed = traced.failed + plain.failed
    return attempted, failed, metrics, details


def unit_of(name):
    """Unit of a metric, from its name (as declared in BENCHMARK.json)."""
    for suffix, unit in (("_ms", "ms"), ("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"),
                         ("bytes_read", "bytes"), ("bytes_written", "bytes"),
                         ("_share", "ratio"), ("_coverage", "ratio"), ("_yield", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_workload(name, args, env):
    wl = WORKLOADS[name]()
    work = ROOT / "perfbench" / f".work-{os.getpid()}" / name
    try:
        wl.setup(args.seed, work)
        if args.item is not None:
            loop = Loop(wl, args.seed)
            loop.item(args.item)
            print(json.dumps({"workload": name, "item": args.item,
                              "spec": repr(wl.spec(args.item)),
                              "failed": loop.failed, "latency_s": loop.busy_s}))
            return loop.attempted, loop.failed, {}
        if args.trace:
            attempted, failed, metrics, details = per_layer(wl, args.seed, args.seconds,
                                                            args.spans)
        else:
            attempted, failed, metrics, details = end_to_end(wl, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"workload": name, "seed": args.seed, "trace": args.trace,
                      "details": details, "env": env}, sort_keys=True))
    return attempted, failed, {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--item", type=int, help="run and check one item only")
    parser.add_argument("--spans", help="write the traced spans to this JSON-lines file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "floeralg" / "__init__.py").is_file():
        print(f"error: no floeralg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total_attempted = total_failed = 0
    all_metrics = {}
    try:
        for name in names:
            attempted, failed, metrics = run_workload(name, args, env)
            total_attempted += attempted
            total_failed += failed
            if len(names) == 1:
                all_metrics = metrics
            else:
                all_metrics.update({f"{name}.{k}": v for k, v in metrics.items()})
                all_metrics[f"{name}.failed_ratio"] = {"value": failed / attempted,
                                                       "unit": "ratio"}
    finally:
        shutil.rmtree(ROOT / "perfbench" / f".work-{os.getpid()}", ignore_errors=True)
    print(json.dumps({"correct": total_failed == 0, "attempted": total_attempted,
                      "failed": total_failed, "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
