"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

For each workload, at toy size, it checks that an untraced run emits exactly
the end-to-end metrics of BENCHMARK.json and a traced run exactly the
per-layer ones, with no failure; and that a fault injected into the CLI's
output makes the output checks fail (``failed`` above 0, ``ok_frac`` below
1).  Last, it checks that the benchmark, copied into a directory that holds
only itself, exits nonzero without printing a result.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SECONDS = 0.3


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


@contextlib.contextmanager
def broken_output(cli):
    """Make every CLI call print one extra line and corrupt the file it writes."""
    original = cli.main

    def broken(argv):
        rc = original(argv)
        print("x")
        if "--out" in argv:
            with open(argv[argv.index("--out") + 1], "a", encoding="utf-8") as fh:
                fh.write(" ")
        return rc

    cli.main = broken
    try:
        yield
    finally:
        cli.main = original


def check_bare_directory(spec_path: Path) -> None:
    """The benchmark alone, without the program, must fail without a result."""
    bare = run.SCRATCH_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(spec_path, bare / spec_path.name)
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "corpus-json",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "run in a directory without the program exited 0")
    expect('"metrics"' not in proc.stdout, "run without the program printed a result")


def main() -> int:
    cli = run.import_program()
    import workloads

    spec_path = run.ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    expected = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    expect([w["name"] for w in spec["workloads"]] == list(workloads.NAMES), "workload names")
    for name in workloads.NAMES:
        for trace in (False, True):
            result = run.measure(workloads.make(name, 1, toy=True), SECONDS, trace, 1, cli)
            expect(result["correct"] and result["failed"] == 0, f"{name}: {result}")
            expect(set(result["metrics"]) == expected[trace], f"{name}: metric names, trace={trace}")
            expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                   f"{name}: non-numeric metric")
        with broken_output(cli):
            result = run.measure(workloads.make(name, 1, toy=True), SECONDS, False, 1, cli)
        expect(result["failed"] > 0 and not result["correct"], f"{name}: broken output passed")
        expect(result["metrics"]["ok_frac"]["value"] < 1, f"{name}: ok_frac stayed 1")
        print(f"selftest: {name} ok")
    check_bare_directory(spec_path)
    print("selftest: bare directory ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
