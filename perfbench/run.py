#!/usr/bin/env python3
"""isoweave benchmark: seeded closed-loop workloads, one client, one thread.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload stripe --seed 0 --seconds 50 --trace 1
    python3 perfbench/run.py --smoke

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics and the tracing overhead.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory for the metrics, the
workloads and the golden digests.
"""

from __future__ import annotations

import os

# single-threaded numpy, for this process only, before anything imports it
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import gc
import importlib
import inspect
import json
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from types import SimpleNamespace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(BENCH_DIR, "golden.json")
sys.path.insert(0, BENCH_DIR)

from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, candidate_count, digest  # noqa: E402

LAYERS = ("design", "isometry", "symmetry", "colouring", "torus", "svg", "cli")
SETUP_REPEATS = 11
#: Rounds whose per-layer totals the traced run reports, so that they
#: cover the same inputs on every run with one seed.
TRACE_ROUNDS = {"corpus": 2, "stripe": 1, "cli": 4}
#: Stop starting rounds after this much wall time, whatever --seconds says.
WALL_CAP_S = 140.0
TAIL_LADDER = (99.9, 99.0, 90.0)
CLI_SUBCOMMANDS = ("twill", "analyze", "hang", "check", "search", "place", "torus", "render")

PER_LAYER_TIMES = (
    "design.parse_ms",
    "design.serialise_ms",
    "symmetry.find_symmetries_ms",
    "symmetry.axis_inventory_ms",
    "symmetry.lattice_units_ms",
    "symmetry.hangs_together_ms",
    "symmetry.is_isonemal_ms",
    "colouring.search_ms",
    "colouring.placement_ms",
    "colouring.is_perfect_ms",
    "torus.validate_ms",
    "torus.inflate_ms",
    "torus.count_ms",
    "svg.render_ms",
    "svg.render_axes_ms",
) + tuple(f"cli.{name}_ms" for name in CLI_SUBCOMMANDS)
PER_LAYER_COUNTS = {
    "symmetry.group_builds": "count",
    "symmetry.group_lookups": "count",
    "colouring.candidates": "count",
    "colouring.found": "count",
    "torus.inflate_factor_sum": "count",
    "svg.bytes": "bytes",
    "cli.nonzero_exits": "count",
}


# -- loading the program -------------------------------------------------


def load_isoweave() -> SimpleNamespace:
    """Import isoweave afresh from the checkout's src directory."""
    for name in [n for n in sys.modules if n == "isoweave" or n.startswith("isoweave.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("isoweave")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise ImportError(f"isoweave was imported from {package.__file__}, not from the checkout")
    return SimpleNamespace(**{name: importlib.import_module(f"isoweave.{name}") for name in LAYERS})


def set_up(name: str, seed: int, work_dir: str, smoke: bool):
    lib = load_isoweave()
    workload = WORKLOADS[name](lib, work_dir) if name == "cli" else WORKLOADS[name](lib)
    rng = random.Random(f"{name}:{seed}")
    pool = workload.build(rng, 1 if smoke else workload.pool_rounds, smoke)
    for r, ops in enumerate(pool):
        for i, op in enumerate(ops):
            op.key = f"{r}.{i}"
    return lib, workload, pool


def timed_set_up(name: str, seed: int, work_dir: str):
    """Set up SETUP_REPEATS times, each from a collected heap; return the
    last set-up and the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        result = set_up(name, seed, work_dir, smoke=False)
        times.append(time.perf_counter() - start)
    return result, statistics.median(times)


# -- running -------------------------------------------------------------


class Runner:
    """Runs rounds of one workload and keeps the tallies."""

    def __init__(self, name: str, lib, workload, golden: dict | None, record: dict | None):
        self.name = name
        self.lib = lib
        self.workload = workload
        self.golden = golden
        self.record = record
        self.find_symmetries = lib.symmetry.find_symmetries
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def round(self, ops, tracer: Tracer | None = None) -> list[float]:
        """Run one round; return the latency of every operation."""
        latencies = []
        earlier: dict[str, str] = {}  # outputs so far, for checks that relate operations
        clear = getattr(self.find_symmetries, "cache_clear", None)
        info = getattr(self.find_symmetries, "cache_info", None)
        for op in ops:
            if clear is not None:
                clear()
            if tracer is not None:
                tracer.install()
            start = time.perf_counter()
            try:
                out, error = self.workload.run(op), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
                self._trace_op(tracer, op, out, elapsed, info)
            latencies.append(elapsed)
            self.attempted += 1
            problems = [error] if error else self._check(op, out, earlier)
            if problems:
                self.failed += 1
                self.problems += [f"{self.name} op {op.key} ({op.slot}): {p}" for p in problems]
        return latencies

    def _check(self, op, out, earlier: dict[str, str]) -> list[str]:
        problems = self.workload.check(op, out, earlier)
        if self.golden is None and self.record is None:
            return problems
        found = digest(self.workload.render(op, out))
        if self.record is not None:
            self.record[op.key] = found
        elif self.golden.get(op.key) != found:
            problems.append(f"digest {found} differs from golden {self.golden.get(op.key)}")
        return problems

    def _trace_op(self, tracer: Tracer, op, out, elapsed: float, info) -> None:
        if info is not None:  # the cache was cleared just before the operation
            stats = info()
            tracer.count("symmetry.group_builds", stats.misses)
            tracer.count("symmetry.group_lookups", stats.hits)
        if self.name == "cli":
            tracer.add_time(f"cli.{op.args['argv'][0]}_ms", elapsed)
            if out is None or out[0] != 0:
                tracer.count("cli.nonzero_exits")


def search_hook(signature):
    def hook(tracer: Tracer, args, kwargs, result) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        tracer.count("colouring.candidates", candidate_count(a["colours"], a["relation"].value, a["thin"], a["max_len"]))
        tracer.count("colouring.found", len(result))

    return hook


def _factor(scaled: tuple[int, int], base: tuple[int, int]) -> int:
    return scaled[0] // base[0] if base[0] else scaled[1] // base[1]


def inflate_hook(tracer: Tracer, args, kwargs, result) -> None:
    basis = args[2] if len(args) > 2 else kwargs["basis"]
    tracer.count("torus.inflate_factor_sum", _factor(result.v1, basis.v1) + _factor(result.v2, basis.v2))


def svg_hook(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("svg.bytes", len(result.encode("utf-8")))


def make_tracer(lib) -> Tracer:
    return Tracer(
        lib,
        after={
            ("colouring", "search_stripings"): search_hook(inspect.signature(lib.colouring.search_stripings)),
            ("torus", "inflate"): inflate_hook,
            ("svg", "render_design"): svg_hook,
            ("svg", "render_colouring"): svg_hook,
        },
    )


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest ladder percentile with at least
    ten samples beyond it; the median when there are too few samples."""
    ordered = sorted(latencies)
    p = next((p for p in TAIL_LADDER if len(ordered) * (1 - p / 100) >= 10), 50.0)
    return p, percentile(ordered, p)


def percentile(ordered: list[float], p: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure(runner: Runner, pool, seconds: float, started: float) -> dict:
    """Untraced closed loop over whole rounds until `seconds` of op time,
    after one warm-up round."""
    runner.round(pool[0])
    latencies: list[float] = []
    r = 0
    while True:
        latencies += runner.round(pool[(r + 1) % len(pool)])
        r += 1
        if sum(latencies) >= seconds or time.perf_counter() - started > WALL_CAP_S:
            break
    busy = sum(latencies)
    p, tail_value = tail(latencies)
    return {
        "rounds": r,
        "ops": len(latencies),
        "busy_s": busy,
        "ops_per_s": len(latencies) / busy,
        "op_p50_ms": percentile(sorted(latencies), 50) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "tail_percentile": p,
    }


def measure_traced(runner: Runner, pool, seconds: float, started: float, trace_rounds: int):
    """After a warm-up round, pairs of rounds on the same inputs, untraced
    then traced, until `seconds` of op time and at least `trace_rounds`
    pairs.  Per-layer totals cover the first `trace_rounds` traced rounds."""
    runner.round(pool[0])
    tracer = make_tracer(runner.lib)
    untraced = traced = 0.0
    r = 0
    layers = None
    while True:
        ops = pool[r % len(pool)]
        untraced += sum(runner.round(ops))
        traced += sum(runner.round(ops, tracer))
        r += 1
        if r == trace_rounds:
            layers = (dict(tracer.times), dict(tracer.counts))
        done = untraced + traced >= seconds and r >= trace_rounds
        if done or time.perf_counter() - started > WALL_CAP_S:
            break
    if layers is None:
        layers = (dict(tracer.times), dict(tracer.counts))
    return layers, untraced / traced, r


def layer_metrics(times: dict, counts: dict, ratio: float) -> dict:
    metrics = {name: {"value": times.get(name, 0.0) * 1e3, "unit": "ms"} for name in PER_LAYER_TIMES}
    for name, unit in PER_LAYER_COUNTS.items():
        metrics[name] = {"value": int(counts.get(name, 0)), "unit": unit}
    candidates = counts.get("colouring.candidates", 0)
    metrics["colouring.yield"] = {
        "value": counts.get("colouring.found", 0) / candidates if candidates else 0.0,
        "unit": "ratio",
    }
    metrics["trace.ops_per_s_ratio"] = {"value": ratio, "unit": "ratio"}
    return metrics


# -- reporting -----------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def _commit() -> str:
    """HEAD of the checkout's git repository, read from .git; "unknown"
    when the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def print_metrics(metrics: dict) -> None:
    for name, m in metrics.items():
        value = f"{m['value']:.4f}" if isinstance(m["value"], float) else m["value"]
        print(f"{name} = {value} {m['unit']}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def run_benchmark(args) -> int:
    started = time.perf_counter()
    work_dir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        (lib, workload, pool), setup_s = timed_set_up(args.workload, args.seed, work_dir)
        golden = load_golden()[args.workload] if args.seed == DEFAULT_SEED else None
        runner = Runner(args.workload, lib, workload, golden, None)
        print(f"# env {json.dumps(environment(args.seed))}")
        print(f"# workload {args.workload}: {len(pool[0])} operations per round, set-up {setup_s:.4f} s")
        if args.trace:
            (times, counts), ratio, pairs = measure_traced(
                runner, pool, args.seconds, started, TRACE_ROUNDS[args.workload]
            )
            metrics = layer_metrics(times, counts, ratio)
            print(f"# traced {pairs} round pairs; per-layer totals over {TRACE_ROUNDS[args.workload]} traced rounds")
            print(f"# tracing overhead: traced ops_per_s = {ratio:.3f} x untraced")
            print_metrics(metrics)
        else:
            stats = measure(runner, pool, args.seconds, started)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            error_rate = runner.failed / runner.attempted
            metrics = {
                "ops_per_s": {"value": stats["ops_per_s"], "unit": "1/s"},
                "op_p50_ms": {"value": stats["op_p50_ms"], "unit": "ms"},
                "op_tail_ms": {"value": stats["op_tail_ms"], "unit": "ms"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
            print(
                f"# {stats['rounds']} rounds after a warm-up round, {stats['ops']} operations in "
                f"{stats['busy_s']:.3f} s of operation time"
            )
            print_metrics(metrics)
            print(f"op_tail_ms is p{stats['tail_percentile']:g} of {stats['ops']} samples")
            print(f"error_rate = {error_rate:.4f} ({runner.failed} of {runner.attempted})")
        for problem in runner.problems[:20]:
            print(f"# FAILED {problem}")
        print(result_line(runner.failed == 0, runner.attempted, runner.failed, metrics))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run_smoke(seed: int) -> int:
    """A few operations of every workload, untraced and traced, all checks on."""
    golden = load_golden()["smoke"] if seed == DEFAULT_SEED else None
    attempted = failed = 0
    work_dir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        for name in WORKLOADS:
            lib, workload, pool = set_up(name, seed, work_dir, smoke=True)
            runner = Runner(name, lib, workload, None if golden is None else golden[name], None)
            runner.round(pool[0])
            runner.round(pool[0], make_tracer(lib))
            attempted += runner.attempted
            failed += runner.failed
            for problem in runner.problems:
                print(f"# FAILED {problem}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(result_line(failed == 0, attempted, failed, {}))
    return 0 if failed == 0 else 1


def record_golden() -> int:
    """Run every pooled round of every workload once, and the smoke
    rounds, with the default seed, and write their digests."""
    recorded: dict = {"seed": DEFAULT_SEED, "smoke": {}}
    work_dir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    problems = []
    try:
        for smoke in (False, True):
            for name in WORKLOADS:
                lib, workload, pool = set_up(name, DEFAULT_SEED, work_dir, smoke)
                record: dict = {}
                runner = Runner(name, lib, workload, None, record)
                for ops in pool:
                    runner.round(ops)
                problems += runner.problems
                (recorded["smoke"] if smoke else recorded)[name] = record
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if problems:
        for problem in problems:
            print(f"FAILED {problem}", file=sys.stderr)
        return 1
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few checked operations of every workload")
    parser.add_argument("--record-golden", action="store_true", help="rewrite golden.json from this code")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "isoweave", "__init__.py")):
        print(f"error: no isoweave sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.record_golden:
        return record_golden()
    if args.smoke:
        return run_smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
