"""genoball benchmark: drive the CLI the way users do, check every output.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-json --seed 1 --seconds 25 --trace 0

One client calls ``genoball.cli.main(argv)`` in process, in a closed loop:
each operation starts when the previous one ends.  Stdout is captured and
every operation's output is checked outside the timed region.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced operations and reports the per-layer
metrics and the tracing overhead, and writes the spans to
``.perfbench_out/``.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` of the current directory and from
nowhere else; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SCRATCH_DIR = ROOT / ".perfbench_tmp"
HERE = Path(__file__).resolve().parent

SETUP_SAMPLES = 9  # interpreter start-ups timed per run for setup_s
# op_s_tail is percentile TAIL_PERCENTILE, or the highest percentile with
# TAIL_BEYOND samples beyond it when a run has fewer than 40 operations.  A
# fixed percentile keeps the metric comparable between runs whose operation
# counts differ with the machine's speed; every workload makes 40 or more
# operations in a 25-second run.
TAIL_PERCENTILE = 75
TAIL_BEYOND = 10

# The speed of a shared machine drifts by tens of percent within a minute.
# So every timed interval sits between two runs of a fixed reference that
# drifts in step with it, and is reported scaled by
# nominal / (mean of the two reference times): seconds at the speed the
# reference had on the machine that defined the benchmark.  An operation's
# reference is reference_work(), a start-up's is a bare interpreter's
# start-up.  Neither runs genoball code.  Raw wall medians are printed on the
# info line.
REFERENCE_S = 0.004  # reference_work()
BARE_START_S = 0.05  # `python3 -c pass`


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import genoball from ./src only; exit 2 if it is not there."""
    if not (SRC / "genoball" / "__init__.py").is_file():
        fail(f"{SRC}/genoball not found; run from the repository root")
    sys.path.insert(0, str(SRC))
    import genoball.cli

    if Path(genoball.cli.__file__).resolve().parent != (SRC / "genoball").resolve():
        fail(f"genoball was imported from {genoball.cli.__file__}, not {SRC}")
    return genoball.cli


def reference_work() -> int:
    """Fixed pure-Python work like the program's face expansion: tuples in sets and dicts."""
    faces = set()
    for face in itertools.combinations(range(22), 4):
        faces.add(face)
    ridges: dict[tuple[int, ...], int] = {}
    for face in faces:
        ridges[face[:3]] = ridges.get(face[:3], 0) + 1
    return len(ridges)


def timed(fn, reference=reference_work, nominal=REFERENCE_S) -> tuple[float, float, object]:
    """(scaled seconds, raw seconds, result) of fn(), timed between two reference runs."""
    ref_start = time.perf_counter()
    reference()
    start = time.perf_counter()
    result = fn()
    end = time.perf_counter()
    reference()
    ref_end = time.perf_counter()
    mean_reference = (start - ref_start + ref_end - end) / 2
    return (end - start) * nominal / mean_reference, end - start, result


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def time_setup() -> list[tuple[float, float]]:
    """(scaled, raw) time of a fresh interpreter importing genoball.cli, several times.

    One untimed start-up first writes the bytecode caches, which a user
    pays for once, not on every call.
    """

    def start(code: str) -> None:
        subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT, check=True)

    start("import genoball.cli")
    return [
        timed(lambda: start("import genoball.cli"), lambda: start("pass"), BARE_START_S)[:2]
        for _ in range(SETUP_SAMPLES)
    ]


def peak_rss_mb(calls: list[list[str]]) -> tuple[float, int]:
    """(peak RSS, exit code) of a fresh interpreter running one operation's CLI calls."""
    cmd = [sys.executable, str(HERE / "rss_child.py"), json.dumps(calls)]
    proc = subprocess.Popen(
        cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024, proc.returncode  # Linux reports KiB


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the op_s_tail percentile.

    With TAIL_BEYOND samples or fewer, the slowest sample: percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    index = min(math.ceil(n * TAIL_PERCENTILE / 100), n - TAIL_BEYOND) - 1
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


class Loop:
    """The closed loop: run operations for a fixed time, check each one."""

    def __init__(self, cli, workload):
        self.cli, self.workload = cli, workload
        self.attempted = 0
        self.failures: list[str] = []
        self.times: list[float] = []  # scaled, of the untraced operations
        self.raw_times: list[float] = []

    def _calls(self, tracer=None) -> list[tuple[int, str]]:
        outputs = []
        for argv in self.workload.calls:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(argv)
            outputs.append((rc, buf.getvalue()))
        if tracer is not None:
            tracer.release()
        return outputs

    def op(self, tracer=None) -> tuple[float, float] | None:
        """Run one operation, traced if a tracer is given, and check it.

        Returns its (scaled, raw) time, or None if it raised.  Tracing covers
        the CLI calls only, not the output check.
        """
        self.workload.before_op()
        gc.collect()
        self.attempted += 1
        outputs = []
        if tracer is not None:
            tracer.begin_op(self.attempted)
            tracer.install()
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                scaled, raw, outputs = timed(lambda: self._calls(tracer))
        except Exception:  # a traceback is a failed operation, not a crash
            self.failures.append(traceback.format_exc(limit=3))
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.end_op(sum(len(out.encode("utf-8")) for _, out in outputs))
        problem = self.workload.check(outputs)
        if problem is not None:
            self.failures.append(problem)
        return scaled, raw

    def run(self, seconds: float, tracer=None) -> list[float]:
        """Operations for ``seconds``; with a tracer, every second one is traced.

        Returns the traced operations' scaled times.
        """
        traced_times = []
        deadline = time.perf_counter() + seconds
        min_ops = 1 if tracer is None else 2
        while self.attempted < min_ops or time.perf_counter() < deadline:
            traced = tracer is not None and self.attempted % 2 == 1
            result = self.op(tracer if traced else None)
            if result is None:
                continue
            if traced:
                traced_times.append(result[0])
            else:
                self.times.append(result[0])
                self.raw_times.append(result[1])
        return traced_times


def measure(workload, seconds: float, trace: bool, seed: int, program_cli) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    # both import genoball, which import_program() has put on the path
    import tracing
    import workloads

    scratch = SCRATCH_DIR / str(os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        setup_failures = []
        if workloads.corpus_facets_digest(scratch) != workloads.CORPUS_FACETS_SHA256:
            setup_failures.append("corpus facet files differ from the pinned digest")
        workload.prepare(scratch)
        loop = Loop(program_cli, workload)
        if trace:
            tracer = tracing.Tracer()
            traced_times = loop.run(seconds, tracer)
            if not traced_times or not loop.times:
                fail(f"{workload.name}: no operation completed: {loop.failures[0]}")
            overhead = statistics.median(traced_times) / statistics.median(loop.times)
            metrics = {
                name: {"value": value, "unit": tracing.unit_of(name)}
                for name, value in tracer.metrics(overhead).items()
            }
            tracer.write(
                OUT_DIR / f"spans-{workload.name}-seed{seed}.json",
                {"workload": workload.name, "seed": seed, "ops": tracer.ops},
            )
        else:
            setup_times = time_setup()
            rss, rss_exit = peak_rss_mb(workload.calls)
            if rss_exit != 0:
                setup_failures.append(f"one operation in a fresh interpreter exited {rss_exit}")
            loop.run(seconds)
            times = loop.times
            if not times:
                fail(f"{workload.name}: no operation completed: {loop.failures[0]}")
            tail_value, tail_pct, tail_beyond = tail(times)
            metrics = {
                "setup_s": {"value": statistics.median(t for t, _ in setup_times), "unit": "s"},
                "op_s_p50": {"value": statistics.median(times), "unit": "s"},
                "op_s_tail": {"value": tail_value, "unit": "s"},
                "units_per_s": {"value": workload.units * len(times) / math.fsum(times), "unit": "1/s"},
                "peak_rss_mb": {"value": rss, "unit": "MB"},
                "ok_frac": {"value": 1 - len(loop.failures) / loop.attempted, "unit": "ratio"},
            }
            print(
                f"info: {workload.name}: {len(times)} operations, "
                f"op_s_tail is percentile {tail_pct:.1f} "
                f"({tail_beyond} samples beyond it); "
                f"raw wall medians: op {statistics.median(loop.raw_times):.6f} s, "
                f"setup {statistics.median(t for _, t in setup_times):.6f} s"
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            SCRATCH_DIR.rmdir()
    for problem in setup_failures + loop.failures[:5]:
        print(f"failure: {problem}", file=sys.stderr)
    failed = len(loop.failures) + len(setup_failures)
    return {
        "correct": failed == 0,
        "attempted": loop.attempted + len(setup_failures),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    program_cli = import_program()
    import workloads

    try:
        workload = workloads.make(args.workload, args.seed)
    except ValueError as exc:
        fail(str(exc))
    result = measure(workload, args.seconds, bool(args.trace), args.seed, program_cli)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
