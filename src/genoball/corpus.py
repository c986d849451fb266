"""The built-in verification corpus: a fixed, deterministic grid of balls.

The default grid spans five families (simplices, stacked balls, cones,
spheres minus a facet, barycentric subdivisions) and is identical on every
run.  A custom grid can be loaded from a JSON file with the same field
names as :class:`CorpusGrid`; omitted fields keep their defaults, unknown
fields are rejected.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

from .complexes import Complex
from .generators import (
    SPHERE_FAMILIES,
    barycentric_subdivision,
    boundary_sphere,
    cone_over_boundary,
    simplex_ball,
    sphere_minus_facet,
    stacked_ball,
)

__all__ = [
    "BARYCENTRIC_NAME", "FAMILIES", "CorpusGrid", "DEFAULT_GRID", "grid_from_json", "corpus_balls"
]


def _sphere_facet_size(base: str, n: int) -> int:
    """Vertices per facet of ``boundary_sphere(base, n)``, without building it."""
    return n - 1 if base == "simplex" else n


# generate family -> (each option it reads -> the CorpusGrid field of its
# values, in loop order; its builder from a sphere maker and the options;
# its ball name; its ball's n from the options), in corpus order.  A
# generated file carries the name that the corpus gives the same ball.  The
# builders look the generators up in this module when they run, so a
# generator replaced here (as the benchmark's tracer does) is the one both
# `generate` and the corpus call.
FAMILIES = {
    "simplex": (
        {"n": "simplex_n"},
        lambda sphere, n: simplex_ball(n),
        "simplex-n{n}",
        lambda n: n,
    ),
    "stacked": (
        {"n": "stacked_n", "m": "stacked_m", "seed": "stacked_seeds"},
        lambda sphere, n, m, seed: stacked_ball(n, m, seed),
        "stacked-n{n}-m{m}-s{seed}",
        lambda n, m, seed: n,
    ),
    "cone": (
        {"base": "sphere_bases", "n": "sphere_n"},
        lambda sphere, base, n: cone_over_boundary(sphere(base, n)),
        "cone-{base}-n{n}",
        lambda base, n: _sphere_facet_size(base, n) + 1,
    ),
    "sphere-minus-facet": (
        {"base": "sphere_bases", "n": "sphere_n"},
        lambda sphere, base, n: sphere_minus_facet(sphere(base, n)),
        "minus-facet-{base}-n{n}",
        _sphere_facet_size,
    ),
}
# barycentric subdivides a ball that exists: a file, or an earlier corpus ball
BARYCENTRIC_NAME = "sd-{name}"


class CorpusGrid(
    namedtuple(
        "CorpusGrid",
        "simplex_n stacked_n stacked_m stacked_seeds sphere_bases sphere_n"
        " barycentric_max_n",
    )
):
    """The corpus parameters: tuples of ints, except ``sphere_bases`` (a
    tuple of sphere family names) and ``barycentric_max_n`` (an int)."""

    __slots__ = ()


DEFAULT_GRID = CorpusGrid(
    simplex_n=tuple(range(2, 11)),
    stacked_n=tuple(range(3, 8)),
    stacked_m=(2, 5, 20),
    stacked_seeds=(1, 2, 3),
    sphere_bases=("simplex", "cross_polytope"),
    sphere_n=(3, 4, 5, 6),
    barycentric_max_n=4,
)


def grid_from_json(obj: dict) -> CorpusGrid:
    """A grid from a parsed JSON object, defaulting omitted fields.

    Raises ValueError unless each field is a list of distinct integers, of
    distinct sphere family names or (``barycentric_max_n``) one integer.
    """
    if not isinstance(obj, dict):
        raise ValueError("corpus grid file must hold a JSON object")
    unknown = set(obj) - set(CorpusGrid._fields)
    if unknown:
        raise ValueError(f"unknown corpus grid fields: {sorted(unknown)}")
    for key, value in obj.items():
        if key == "barycentric_max_n":
            ok, expected = type(value) is int, "an integer"
        elif key == "sphere_bases":
            ok = isinstance(value, list) and all(v in SPHERE_FAMILIES for v in value)
            expected = f"a list of names from {list(SPHERE_FAMILIES)}"
        else:
            ok = isinstance(value, list) and all(type(v) is int for v in value)
            expected = "a list of integers"
        if not ok:
            raise ValueError(f"corpus grid field {key!r} must be {expected}, got {value!r}")
        if isinstance(value, list) and len(set(value)) < len(value):
            raise ValueError(f"corpus grid field {key!r} repeats a value: {value!r}")
    overrides = {key: tuple(v) if isinstance(v, list) else v for key, v in obj.items()}
    return DEFAULT_GRID._replace(**overrides)


def corpus_balls(
    grid: CorpusGrid = DEFAULT_GRID, max_n: int | None = None
) -> list[tuple[str, Complex]]:
    """All corpus balls as (name, complex) pairs, in fixed order.

    Each ``FAMILIES`` row gives one ball per element of the product of its
    grid fields, taken in row order, but none whose ambient n, read off
    its options, exceeds ``max_n``: such a ball is never built.  The
    subdivision entries subdivide every built ball whose ambient n is at
    most ``grid.barycentric_max_n``; a subdivision keeps its ball's n.
    """
    balls: list[tuple[str, Complex]] = []
    # the cones and the spheres minus a facet share each (base, n) sphere
    sphere = functools.cache(boundary_sphere)
    for fields, build, name, ball_n in FAMILIES.values():
        for values in itertools.product(*[getattr(grid, f) for f in fields.values()]):
            options = dict(zip(fields, values))
            if max_n is None or ball_n(**options) <= max_n:
                balls.append((name.format_map(options), build(sphere, **options)))
    subdivided = [
        (BARYCENTRIC_NAME.format(name=name), barycentric_subdivision(ball))
        for name, ball in balls
        if ball.n <= grid.barycentric_max_n
    ]
    balls.extend(subdivided)
    return balls
