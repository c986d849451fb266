"""The benchmark's workloads: the CLI calls of one operation, and their checks.

Each workload builds its inputs from the workload seed during set-up, gives
the argv lists of one operation, and checks the outputs of each operation
outside the timed region.  Expected values come from closed forms or from
digests pinned at the commit that defined the benchmark, never from the code
under test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

from genoball.cli import main as cli_main
from genoball.corpus import corpus_balls
from genoball.fileio import save_complex
from genoball.generators import barycentric_subdivision, simplex_ball, stacked_ball

# ROADMAP invariants: stdout of `verify --corpus --json`, and the corpus facet
# files concatenated in corpus_balls() order.
CORPUS_JSON_SHA256 = "a6ba16f1ece630e11e67a8b7071e2fc698ad4e9a00233cfacca492997f5bf940"
CORPUS_FACETS_SHA256 = "8c383c77b8e12278c5c9a856947c21d4d50f922aad1d685c859ce5b12afde0c1"

# stdout of `genocchi N`, by N
GENOCCHI_SHA256 = {
    100: "35fcc32b0e472bdf712c029c28c325cb95185d0654e21fd8e7fe2db7a78e434b",
    8: "c36d6a76103ca4560a3e8f9960e871bc20f13211fc12235067904e18af4c5ade",
}

# facet file written by `generate stacked --n N --m M --seed 1`, by (N, M)
STACKED_SHA256 = {
    (9, 300): "81c4a6f2a7aef5f6d44fdf1ae57b0e95c76c626037bddab172145d2a11513035",
    (4, 20): "087c033badf5c6475c67208e2888209f39383c74d8ba1fbe78ae3b1c806a623a",
}

DEFAULT_SEED = 1


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def corpus_facets_digest(scratch: Path) -> str:
    """sha256 of every corpus ball's facet file, concatenated in corpus order."""
    path = scratch / "corpus-ball.json"
    digest = hashlib.sha256()
    for name, ball in corpus_balls():
        save_complex(ball, path, name)
        digest.update(path.read_bytes())
    path.unlink()
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# closed-form f-vectors, independent of genoball.complexes


def _stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k)."""
    return sum((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1)) // math.factorial(k)


def _subdivided(f: list[int]) -> list[int]:
    """f-vector of the barycentric subdivision of a complex with f-vector f.

    A j-face of sd C is a chain of j+1 faces; the chains ending at an
    i-face are the ordered partitions of its i+1 vertices into j+1 blocks.
    """
    return [
        sum(f[i] * math.factorial(j + 1) * _stirling2(i + 1, j + 1) for i in range(j, len(f)))
        for j in range(len(f))
    ]


def _stacked_rows(n: int, m: int) -> tuple[list[int], list[int]]:
    """(f(B), f(bd B)) of a stacked ball: each step adds C(n-1, j) j-faces."""
    total = [math.comb(n, j + 1) + (m - 1) * math.comb(n - 1, j) for j in range(n)]
    interior = [0] * (n - 2) + [m - 1, m]
    return total, [t - i for t, i in zip(total, interior)][: n - 1]


def _simplex_rows(n: int) -> tuple[list[int], list[int]]:
    total = [math.comb(n, j + 1) for j in range(n)]
    return total, total[: n - 1]


def _sd_rows(n: int, m: int) -> tuple[list[int], list[int]]:
    """Rows of sd(stacked ball): the boundary of sd C is sd of the boundary of C."""
    total, bd = _stacked_rows(n, m)
    return _subdivided(total), _subdivided(bd)


def fvector_stdout(total: list[int], bd: list[int]) -> str:
    """The exact stdout `genoball fvector` must print for these rows."""
    interior = [t - (bd[j] if j < len(bd) else 0) for j, t in enumerate(total)]
    return (
        "f(B) = " + " ".join(map(str, total)) + "\n"
        "f(∂B) = " + " ".join(map(str, bd)) + "\n"
        "f(int B) = " + " ".join(map(str, interior)) + "\n"
    )


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One benchmark workload.

    ``calls`` are the argv lists of one operation, run in order; ``units``
    is the work one operation does, in ``unit``.  ``check`` returns None when
    the outputs of one operation are correct, else the reason they are not.
    """

    name = ""
    unit = ""
    calls: list[list[str]] = []
    units = 0

    def prepare(self, scratch: Path) -> None:
        """Write inputs under ``scratch``; runs once, untimed."""

    def before_op(self) -> None:
        """Untimed preparation of each operation."""

    def check(self, outputs: list[tuple[int, str]]) -> str | None:
        raise NotImplementedError


class CorpusJson(Workload):
    """`verify --corpus --json`: 99 small balls of all five families."""

    name = "corpus-json"
    unit = "checks"
    calls = [["verify", "--corpus", "--json"]]
    units = 576

    def check(self, outputs):
        (rc, out), = outputs
        if rc != 0:
            return f"exit code {rc}"
        if sha256(out) != CORPUS_JSON_SHA256:
            return "stdout digest differs from the pinned corpus report"
        return None


class BallFiles(Workload):
    """`verify FILE --json` then `fvector FILE`, on three facet files.

    The inputs span three levels of face sharing: a stacked ball (moderate
    sharing, large boundary), the subdivision of a small stacked ball (heavy
    sharing, small n) and one simplex (no sharing).
    """

    name = "ball-files"
    unit = "faces"

    def __init__(self, seed: int, stacked=(9, 60), sd_of=(5, 12), simplex_n=13):
        self.seed = seed
        self.stacked, self.sd_of, self.simplex_n = stacked, sd_of, simplex_n

    def prepare(self, scratch):
        s = self.seed
        inputs = [
            ("stacked", stacked_ball(*self.stacked, s), _stacked_rows(*self.stacked)),
            ("sd", barycentric_subdivision(stacked_ball(*self.sd_of, s)), _sd_rows(*self.sd_of)),
            ("simplex", simplex_ball(self.simplex_n), _simplex_rows(self.simplex_n)),
        ]
        self.calls, self.expected = [], []
        self.units = 0
        for label, ball, (total, bd) in inputs:
            path = str(scratch / f"{label}.json")
            save_complex(ball, path, label)
            self.calls += [["verify", path, "--json"], ["fvector", path]]
            self.expected.append(fvector_stdout(total, bd))
            self.units += 2 * sum(total)

    def check(self, outputs):
        for i, expected_fvector in enumerate(self.expected):
            (rc_v, out_v), (rc_f, out_f) = outputs[2 * i], outputs[2 * i + 1]
            file = self.calls[2 * i][1]
            if rc_v != 0 or rc_f != 0:
                return f"{file}: exit codes {rc_v}, {rc_f}"
            try:
                report = json.loads(out_v)
            except json.JSONDecodeError:
                return f"{file}: verify --json printed invalid JSON"
            if not isinstance(report, dict) or report.get("pass") is not True:
                return f"{file}: verify did not pass"
            entries = report.get("entries")
            if not isinstance(entries, list) or not entries:
                return f"{file}: verify did not pass"
            if any(
                not isinstance(e, dict) or e.get("residual_numerator") != "0" or e.get("pass") is not True
                for e in entries
            ):
                return f"{file}: nonzero residual"
            if out_f != expected_fvector:
                return f"{file}: fvector rows differ from the closed form"
        return None


class StackedGen(Workload):
    """`generate stacked --n N --m M --seed S --out F`."""

    name = "stacked-gen"
    unit = "facets"

    def __init__(self, seed: int, n: int = 9, m: int = 300):
        self.seed, self.n, self.m = seed, n, m
        self.units = m

    def prepare(self, scratch):
        self.out = scratch / "stacked-gen.json"
        self.calls = [
            ["generate", "stacked", "--n", str(self.n), "--m", str(self.m),
             "--seed", str(self.seed), "--out", str(self.out)]
        ]
        self.digest = None

    def before_op(self):
        # a call that writes nothing must not pass on the previous file
        self.out.unlink(missing_ok=True)

    def check(self, outputs):
        (rc, out), = outputs
        if rc != 0 or out:
            return f"exit code {rc}, stdout {len(out)} chars"
        try:
            data = self.out.read_bytes()
        except OSError:
            return "no output file"
        digest = sha256(data)
        if self.digest is not None:
            # every operation of a run has the same inputs: its file must match
            # the first one, which was checked in full below
            return None if digest == self.digest else "output differs between operations"
        problem = self._check_first(data, digest)
        if problem is None:
            self.digest = digest
        return problem

    def _check_first(self, data: bytes, digest: str) -> str | None:
        try:
            obj = json.loads(data)
        except json.JSONDecodeError:
            return "output file is not JSON"
        facets = obj.get("facets") if isinstance(obj, dict) else None
        if not isinstance(facets, list) or len(facets) != self.m:
            return f"expected {self.m} facets"
        if not all(isinstance(f, list) for f in facets):
            return "facets are not arrays"
        if len({v for f in facets for v in f}) != self.n + self.m - 1:
            return f"expected {self.n + self.m - 1} vertices"
        pinned = STACKED_SHA256.get((self.n, self.m))
        if self.seed == DEFAULT_SEED and pinned is not None and digest != pinned:
            return "output differs from the pinned default-seed file"
        if _quiet_main(["verify", str(self.out)]) != 0:
            return "generated ball does not pass verify"
        return None


class GenocchiAll(Workload):
    """`genocchi N`: all four methods, cross-checked."""

    name = "genocchi-all"
    unit = "values"

    def __init__(self, N: int = 100):
        self.N = N
        self.calls = [["genocchi", str(N)]]
        self.units = 4 * N

    def check(self, outputs):
        (rc, out), = outputs
        if rc != 0 or not out.endswith("cross-check: OK\n"):
            return f"exit code {rc}, cross-check not OK"
        pinned = GENOCCHI_SHA256.get(self.N)
        if pinned is not None and sha256(out) != pinned:
            return "stdout digest differs from the pinned table"
        return None


def _quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli_main(argv)


NAMES = ("corpus-json", "ball-files", "stacked-gen", "genocchi-all")


def make(name: str, seed: int, toy: bool = False) -> Workload:
    """The workload ``name``; ``toy`` shrinks its inputs for the self-test."""
    if name == "corpus-json":
        return CorpusJson()
    if name == "ball-files":
        return BallFiles(seed, (5, 10), (3, 4), 6) if toy else BallFiles(seed)
    if name == "stacked-gen":
        return StackedGen(seed, 4, 20) if toy else StackedGen(seed)
    if name == "genocchi-all":
        return GenocchiAll(8) if toy else GenocchiAll()
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
