"""Outside-in tracing of genoball's layers for the benchmark's traced run.

The tracer replaces public callables of each module with wrappers that
record a span (name, start, end, parent span, operation id) and count work
at the same boundary.  A callable is replaced wherever genoball holds it:
as a module attribute, under every name another module imported it by, and
as a value of a module-level dict (``cli`` keeps the Genocchi methods in
one).  Methods of ``Complex`` are replaced on the class.  ``uninstall``
puts every original back, so untraced operations run the unmodified code.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from genoball.complexes import Complex

# (module, callable, time metric, "self" or "total" time, calls metric)
FUNCTIONS = [
    ("cli", "main", "cli.self_s", "self", None),
    ("fileio", "load_complex", "fileio.load_s", "total", None),
    ("fileio", "save_complex", "fileio.save_s", "total", None),
    ("corpus", "corpus_balls", "corpus.corpus_balls_self_s", "self", None),
    ("generators", "stacked_ball", "generators.stacked_ball_s", "total", None),
    ("generators", "barycentric_subdivision", "generators.barycentric_s", "total", None),
    ("generators", "cone_over_boundary", "generators.cone_s", "total", None),
    ("generators", "sphere_minus_facet", "generators.minus_facet_s", "total", None),
    ("generators", "boundary_sphere", "generators.boundary_sphere_s", "total", None),
    ("complexes", "from_facets", "complexes.from_facets_s", "total", "complexes.from_facets_calls"),
    ("verify", "verify_ball", "verify.verify_ball_self_s", "self", None),
    ("verify", "genocchi_identity_residual", "verify.residual_s", "total", "verify.residual_calls"),
    ("verify", "dehn_sommerville_residual", "verify.residual_s", "total", "verify.residual_calls"),
    ("verify", "no_interior_faces_residual", "verify.residual_s", "total", "verify.residual_calls"),
    ("genocchi", "genocchi_by_series", "genocchi.series_s", "total", None),
    ("genocchi", "genocchi_by_recursion_even", "genocchi.recursion_even_s", "total", None),
    ("genocchi", "genocchi_by_recursion_odd", "genocchi.recursion_odd_s", "total", None),
    ("genocchi", "genocchi_by_bernoulli", "genocchi.bernoulli_s", "total", None),
]

# Complex methods: (method, time metric, calls metric)
METHODS = [
    ("f_vector", "complexes.f_vector_s", "complexes.f_vector_calls"),
    ("ball_check", "complexes.ball_check_s", "complexes.ball_check_calls"),
    ("boundary", "complexes.boundary_s", "complexes.boundary_calls"),
    ("interior_f_vector", "complexes.interior_f_vector_s", "complexes.interior_f_vector_calls"),
]

COUNTS = [
    "cli.stdout_bytes",
    "fileio.bytes_read",
    "fileio.bytes_written",
    "corpus.balls",
    "generators.stacked_steps",
    "complexes.expanded_complexes",
    "complexes.faces_expanded",
    "complexes.faces_useful",
    "verify.balls",
    "verify.checks",
    "genocchi.values",
]


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in report order."""
    names = []
    for _, _, time_metric, _, calls_metric in FUNCTIONS:
        names += [time_metric] + ([calls_metric] if calls_metric else [])
    for _, time_metric, calls_metric in METHODS:
        names += [time_metric, calls_metric]
    names += COUNTS + ["complexes.expand_useful_ratio", "trace.overhead_ratio", "trace.spans_per_op"]
    return list(dict.fromkeys(names))


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes") or metric.startswith("fileio.bytes"):
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


class Tracer:
    """Spans and counters of the traced operations, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, op id]
        self.counts: Counter[str] = Counter()
        self.ops = 0
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []
        self._f_vector = Complex.f_vector  # unwrapped, to size expansions
        # Complex objects whose faces were requested in the current CLI call,
        # by id; ``_held`` keeps every one alive until the operation ends, since
        # Complex has __slots__ without __weakref__ and a freed id is reused.
        self._call_complexes: dict[int, Complex] = {}
        self._held: list[Complex] = []

    # -- operations ---------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self.ops += 1

    def release(self) -> None:
        """Drop the operation's Complex objects.  Runs inside the timed region,
        where an untraced operation frees them too."""
        self._held.clear()

    def end_op(self, stdout_bytes: int) -> None:
        self.counts["cli.stdout_bytes"] += stdout_bytes

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _register(self, args, result) -> None:
        C = args[0]
        self._call_complexes.setdefault(id(C), C)

    def _end_call(self, args, result) -> None:
        """Fold the Complex objects of one CLI call into the expansion counts."""
        sizes = {id(C): sum(self._f_vector(C)) for C in self._call_complexes.values()}
        distinct = {}
        for C in self._call_complexes.values():
            distinct.setdefault(C, sizes[id(C)])  # Complex compares by facet set
        self.counts["complexes.expanded_complexes"] += len(sizes)
        self.counts["complexes.faces_expanded"] += sum(sizes.values())
        self.counts["complexes.faces_useful"] += sum(distinct.values())
        self._held.extend(self._call_complexes.values())
        self._call_complexes = {}

    def _hooks(self) -> dict[str, object]:
        """Counters recorded when a callable returns, by span name."""
        counts = self.counts

        def add(metric, amount):
            def after(args, result):
                counts[metric] += amount(args, result)

            return after

        def verified(args, report):
            counts["verify.balls"] += 1
            counts["verify.checks"] += len(report.checks)

        table_values = add("genocchi.values", lambda a, table: len(table.values))
        return {
            "cli.main": self._end_call,
            "fileio.load_complex": add("fileio.bytes_read", lambda a, r: os.path.getsize(a[0])),
            "fileio.save_complex": add("fileio.bytes_written", lambda a, r: os.path.getsize(a[1])),
            "corpus.corpus_balls": add("corpus.balls", lambda a, balls: len(balls)),
            "generators.stacked_ball": add("generators.stacked_steps", lambda a, C: len(C.facets) - 1),
            "verify.verify_ball": verified,
            "genocchi.genocchi_by_series": table_values,
            "genocchi.genocchi_by_recursion_even": table_values,
            "genocchi.genocchi_by_recursion_odd": table_values,
            "genocchi.genocchi_by_bernoulli": table_values,
            "complexes.Complex.f_vector": self._register,
        }

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        modules = [m for key, m in sys.modules.items() if key == "genoball" or key.startswith("genoball.")]
        for module, attr, *_ in FUNCTIONS:
            original = getattr(sys.modules[f"genoball.{module}"], attr)
            name = f"{module}.{attr}"
            wrapper = self._wrap(name, original, hooks.get(name))
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if key.startswith("__"):
                        continue
                    if value is original:
                        self._patch(holder, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._patch(value, k, wrapper)
        for method, *_ in METHODS:
            name = f"complexes.Complex.{method}"
            self._patch(Complex, method, self._wrap(name, getattr(Complex, method), hooks.get(name)))
        # `faces` is counted, not timed: barycentric_subdivision calls it per dimension
        faces = Complex.faces
        register = self._register

        def counted_faces(C, dim):
            result = faces(C, dim)
            register((C,), result)
            return result

        self._patch(Complex, "faces", counted_faces)

    def _patch(self, holder, key, value) -> None:
        if isinstance(holder, dict):
            self._patches.append((holder, key, holder[key]))
            holder[key] = value
        else:
            self._patches.append((holder, key, getattr(holder, key)))
            setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics, each the mean over the traced operations."""
        span_metric = {f"{m}.{a}": (t, kind, c) for m, a, t, kind, c in FUNCTIONS}
        span_metric.update({f"complexes.Complex.{m}": (t, "total", c) for m, t, c in METHODS})
        child_time: defaultdict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: defaultdict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            time_metric, kind, calls_metric = span_metric[name]
            duration = end - start
            totals[time_metric] += duration - child_time[index] if kind == "self" else duration
            if calls_metric:
                totals[calls_metric] += 1
        totals.update(self.counts)
        ops = max(self.ops, 1)
        out = {name: totals[name] / ops for name in metric_names()}
        expanded = self.counts["complexes.faces_expanded"]
        out["complexes.expand_useful_ratio"] = (
            self.counts["complexes.faces_useful"] / expanded if expanded else 1.0
        )
        out["trace.overhead_ratio"] = overhead_ratio
        out["trace.spans_per_op"] = len(self.spans) / ops
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Write every span, with its parent's index, as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {**meta, "fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
