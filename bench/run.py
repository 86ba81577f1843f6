"""projquant benchmark: one closed-loop client, one operation at a time.

    python3 bench/run.py --workload casimir_oracle --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): casimir_oracle, quantize_sweep, repr_batch,
cli_batch.  Each run is a fresh process, so the library's caches start
cold.  The run measures set-up in fresh child processes, warms the same
caches in-process, then executes whole rounds of seeded operations until
`--seconds` have passed and at least ten latency samples lie beyond p90.

Times are reported at a nominal machine speed.  Shared hosts change speed
by up to 1.6x within seconds and drift by 15% between minute-long windows,
so the run times a fixed reference between operations and scales each
operation and set-up probe by the reference's nominal time over the mean
of the reference times measured just before and just after it.  The
reference is a kernel of exact rational arithmetic that runs no projquant
code; for operations that start processes it is a child interpreter that
runs the kernel five times, since process start-up drifts in ways the
in-process kernel does not see.  A set-up probe is split the same way:
its interpreter start and imports are scaled by the child reference, its
cache warming by the kernel.  The run and its children stay on one
CPU, so the reference measures the CPU they use.  The raw figures and the
speed factor are printed above the result line.

With `--trace 0` the last stdout line is the end-to-end result; with
`--trace 1` it holds the per-layer metrics of a traced run, which
alternates untraced and traced rounds, counts only the traced ones, and
writes its spans to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 11  # fresh processes whose median set-up time is reported
MIN_BEYOND_P90 = 10
HARD_STOP_S = 120.0  # stop measuring even if the sample target is not met
PROBE = (
    "import sys, time\n{imports}\nimported = time.monotonic()\n{warm}\n"
    "print(imported - float(sys.argv[1]), time.monotonic() - float(sys.argv[1]))\n"
)


def metric_units(kind: str) -> dict[str, str]:
    """Name-to-unit map of the `end_to_end` or `per_layer` metrics that
    BENCHMARK.json defines."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def import_library():
    """Import projquant from this checkout's sources, never from elsewhere."""
    if not (SRC / "projquant" / "__init__.py").is_file():
        sys.exit(f"bench: no projquant sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import projquant

    if Path(projquant.__file__).resolve().parent != SRC / "projquant":
        sys.exit(f"bench: imported projquant from {projquant.__file__}, not {SRC}")


def child(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120
    )


def reference_kernel() -> Fraction:
    """Fixed exact-rational work that runs no projquant code."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 1500):
        acc += Fraction(i % 17 + 1, i % 13 + 2) * Fraction(3, i % 7 + 1)
        table[i % 50, i % 7] = acc
    return acc


class Speed:
    """Reference samples over the run, to convert raw intervals into
    seconds at nominal speed."""

    def __init__(self, reference, nominal_s: float, every_s: float):
        self.reference = reference
        self.nominal_s = nominal_s  # reference time that defines nominal speed
        self.every_s = every_s
        self.times: list[float] = []  # end of each sample
        self.costs: list[float] = []

    def sample(self) -> float:
        start = time.perf_counter()
        self.reference()
        self.times.append(time.perf_counter())
        self.costs.append(self.times[-1] - start)
        return self.costs[-1]

    def keep_fresh(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] > self.every_s:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Nominal-over-measured speed around the interval, from the last
        sample before it and the first sample after it."""
        before = bisect_right(self.times, start)
        after = bisect_left(self.times, end)
        near = self.costs[max(before - 1, 0) : before] + self.costs[after : after + 1]
        return self.nominal_s / statistics.fmean(near)

    def nominal(self, start: float, end: float) -> float:
        """Seconds at nominal speed of the interval."""
        return (end - start) * self.scale(start, end)

    def factor(self) -> float:
        """Median nominal-over-measured speed ratio of the run."""
        return self.nominal_s / statistics.median(self.costs)


def kernel_speed() -> Speed:
    return Speed(reference_kernel, 0.010, 0.2)


SPAWN_REFERENCE = (
    "import sys; sys.path.insert(0, 'bench'); from run import reference_kernel\n"
    "for _ in range(5): reference_kernel()"
)


def spawn_speed(env: dict) -> Speed:
    return Speed(lambda: child(["-c", SPAWN_REFERENCE], env), 0.150, 1.0)


def measure_setup(workload, env: dict) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to the end of the workload's
    imports and cache warming, raw and at nominal speed.  Interpreter start
    and imports are scaled by the spawn reference, the warming by the kernel
    reference, each from its samples just before and just after the probe.
    time.monotonic is one clock for all processes on the machine."""
    code = PROBE.format(imports=workload.imports, warm=workload.warm)
    kernel, spawn = kernel_speed(), spawn_speed(env)
    kernel.sample()
    spawn.sample()
    raw, nominal = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = child(["-c", code, repr(time.monotonic())], env)
        end = time.perf_counter()
        kernel.sample()
        spawn.sample()
        if proc.returncode:
            sys.exit(f"bench: set-up probe failed:\n{proc.stderr}")
        imported, ready = map(float, proc.stdout.split())
        raw.append(ready)
        nominal.append(
            imported * spawn.scale(start, end) + (ready - imported) * kernel.scale(start, end)
        )
    return raw, nominal


def quantile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Loop:
    """Runs whole rounds of one workload and keeps what the metrics need."""

    def __init__(self, rounds, speed: Speed):
        self.rounds = rounds
        self.speed = speed
        self.intervals: list[tuple[float, float]] = []
        self.outcomes = {"ok": 0, "failed": 0, "wrong": 0}

    def run_round(self, tr) -> list:
        ops = next(self.rounds)
        for op in ops:
            self.speed.keep_fresh()
            if tr.enabled:
                tr.op = len(self.intervals)
            result = exc = None
            with tr.span("op"):
                start = time.perf_counter()
                try:
                    result = op.run(tr)
                except Exception as error:  # the check decides if it was expected
                    exc = error
                end = time.perf_counter()
            self.intervals.append((start, end))
            verdict = op.check(tr, result, exc)
            self.outcomes[verdict] += 1
            if tr.enabled:
                tr.op = None
                if verdict != "ok":
                    tr.count(op.layer + ".failed")
        return ops

    @property
    def attempted(self) -> int:
        return len(self.intervals)

    def raw(self) -> list[float]:
        return [end - start for start, end in self.intervals]

    def nominal(self) -> list[float]:
        """Latencies at nominal speed; call after a final `speed.sample()`."""
        return [self.speed.nominal(start, end) for start, end in self.intervals]

    def beyond_p90(self) -> int:
        lat = self.raw()
        if len(lat) < 2:
            return 0
        p90 = quantile(lat, 90)
        return sum(1 for x in lat if x > p90)


def timing_metrics(lat: list[float], setup: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(lat) / sum(lat),
        "op_ms_p50": quantile(lat, 50) * 1000,
        "op_ms_p90": quantile(lat, 90) * 1000,
    }


def cache_counts() -> tuple[int, int]:
    """Hits and misses of the quantization solve cache, if the library has one."""
    from projquant.flatmodel import quantize

    cached = getattr(quantize, "_cached_coefficients", None)
    info = cached.cache_info() if hasattr(cached, "cache_info") else None
    return (info.hits, info.misses) if info else (0, 0)


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def cli_layer_metrics(tr, ops: list, env: dict) -> dict[str, float]:
    """Interpreter start, import cost, and each subcommand in a subprocess
    and in-process (stdout captured) over the traced rounds' arguments."""
    from projquant.cli import main as cli_main
    from workloads import SUBCOMMANDS

    def median_ms(args):
        return statistics.median(_timed(lambda: child(args, env)) for _ in range(SETUP_PROBES)) * 1000

    start_ms = median_ms(["-c", "pass"])
    out = {
        "cli.python_start_ms": start_ms,
        "cli.import_ms": median_ms(["-c", "import projquant.cli"]) - start_ms,
    }
    inproc: dict[str, list[float]] = {}
    for op in ops:

        def call(argv=op.argv):
            with redirect_stdout(StringIO()):
                try:
                    cli_main(argv)
                except (Exception, SystemExit):  # the subprocess run already judged it
                    pass

        inproc.setdefault(op.argv[0], []).append(_timed(call))
    for sub in SUBCOMMANDS:
        spans = [e - s for n, s, e, _, _ in tr.spans if n == f"cli.{sub}"]
        out[f"cli.{sub}.subprocess_ms"] = statistics.median(spans) * 1000 if spans else 0.0
        times = inproc.get(sub)
        out[f"cli.{sub}.inproc_ms"] = statistics.median(times) * 1000 if times else 0.0
    return out


def run_untraced(workload, loop: Loop, seconds: float, env: dict) -> tuple[dict, dict]:
    from tracing import NullTracer

    setup_raw, setup = measure_setup(workload, env)
    exec(workload.imports + workload.warm, {})
    start = time.perf_counter()
    while True:
        loop.run_round(NullTracer())
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S:
            break
        if elapsed >= seconds and loop.beyond_p90() >= MIN_BEYOND_P90:
            break
    loop.speed.sample()
    who = resource.RUSAGE_CHILDREN if workload.in_children else resource.RUSAGE_SELF
    metrics = timing_metrics(loop.nominal(), setup)
    metrics["ok_share"] = loop.outcomes["ok"] / loop.attempted
    metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    return metrics, timing_metrics(loop.raw(), setup_raw)


def run_traced(workload, loop: Loop, seconds: float, env: dict, seed: int) -> tuple[dict, dict]:
    from tracing import NullTracer, Tracer

    tr = Tracer()
    with tr.span(workload.setup_span):
        exec(workload.imports + workload.warm, {})
    # Traced and untraced rounds alternate, each pair in the other order of
    # the last, so both modes see the same warm-up and machine state.
    rounds: list[tuple[bool, int, int]] = []
    ops: list = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        for traced in (False, True) if len(rounds) % 4 == 0 else (True, False):
            first = loop.attempted
            round_ops = loop.run_round(tr if traced else NullTracer())
            rounds.append((traced, first, loop.attempted))
            if traced:
                ops += round_ops
    busy = {False: 0.0, True: 0.0}
    loop.speed.sample()
    lat = loop.nominal()
    for traced, first, last in rounds:
        busy[traced] += sum(lat[first:last])

    metrics = dict.fromkeys(metric_units("per_layer"), 0.0)
    for name, entry in tr.summary().items():
        for key in ("calls", "busy_s"):
            if f"{name}.{key}" in metrics:
                metrics[f"{name}.{key}"] = entry[key]
    for name, value in tr.counts.items():
        if name in metrics:
            metrics[name] = value
    hits, misses = cache_counts()
    metrics["flatmodel.quantize.cache_hits"] = hits
    metrics["flatmodel.quantize.cache_misses"] = misses
    if workload.in_children:
        metrics.update(cli_layer_metrics(tr, ops, env))
    metrics["trace.overhead_share"] = busy[True] / busy[False] - 1
    tr.write(HERE / "out" / f"trace-{workload.name}-seed{seed}.json")
    return metrics, {}


def result_line(loop: Loop, metrics: dict, units: dict) -> dict:
    """The final JSON line.  `failed` counts refusals, crashes and wrong
    answers; `correct` is false only when an answer was wrong."""
    return {
        "correct": loop.outcomes["wrong"] == 0,
        "attempted": loop.attempted,
        "failed": loop.outcomes["failed"] + loop.outcomes["wrong"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, the one whose speed
    the reference kernel measures."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    from workloads import WORKLOADS, child_env

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    pin_to_one_cpu()
    env = child_env()
    speed = spawn_speed(env) if workload.in_children else kernel_speed()
    loop = Loop(workload.rounds(random.Random(f"{workload.name}:{args.seed}")), speed)
    if args.trace:
        metrics, raw = run_traced(workload, loop, args.seconds, env, args.seed)
    else:
        metrics, raw = run_untraced(workload, loop, args.seconds, env)
    units = metric_units("per_layer" if args.trace else "end_to_end")

    result = result_line(loop, metrics, units)
    print(f"# {workload.name} seed={args.seed} trace={args.trace} "
          f"python={platform.python_version()} machine={platform.machine()}")
    print(f"# samples={loop.attempted} beyond_p90={loop.beyond_p90()} "
          f"failed={loop.outcomes['failed']} wrong={loop.outcomes['wrong']} "
          f"failed_share={result['failed'] / loop.attempted:.4f} "
          f"speed_factor={loop.speed.factor():.4f}")
    for name, value in metrics.items():
        note = f"  (raw {raw[name]:.6f})" if name in raw else ""
        print(f"{name:52s} {value:16.6f} {units[name]}{note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
