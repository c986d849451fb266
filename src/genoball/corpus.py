"""The built-in verification corpus: a fixed, deterministic grid of balls.

The default grid spans five families (simplices, stacked balls, cones,
spheres minus a facet, barycentric subdivisions) and is identical on every
run.  A custom grid can be loaded from a JSON file with the same field
names as :class:`CorpusGrid`; omitted fields keep their defaults, unknown
fields are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

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

__all__ = ["BALL_NAMES", "CorpusGrid", "DEFAULT_GRID", "grid_from_json", "corpus_balls"]

# Ball names by ``generate`` family: a generated file carries the name
# that the corpus gives the same ball.
BALL_NAMES = {
    "simplex": "simplex-n{n}",
    "stacked": "stacked-n{n}-m{m}-s{seed}",
    "cone": "cone-{base}-n{n}",
    "sphere-minus-facet": "minus-facet-{base}-n{n}",
    "barycentric": "sd-{name}",
}


@dataclass(frozen=True)
class CorpusGrid:
    simplex_n: tuple[int, ...]
    stacked_n: tuple[int, ...]
    stacked_m: tuple[int, ...]
    stacked_seeds: tuple[int, ...]
    sphere_bases: tuple[str, ...]
    sphere_n: tuple[int, ...]
    barycentric_max_n: int


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

    Raises ValueError unless every field has its type: a list of integers,
    a list of sphere family names, or (``barycentric_max_n``) an integer.
    """
    if not isinstance(obj, dict):
        raise ValueError("corpus grid file must hold a JSON object")
    known = {f.name for f in fields(CorpusGrid)}
    unknown = set(obj) - known
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
    overrides = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in obj.items()
    }
    return replace(DEFAULT_GRID, **overrides)


def corpus_balls(
    grid: CorpusGrid = DEFAULT_GRID, max_n: int | None = None
) -> list[tuple[str, Complex]]:
    """All corpus balls as (name, complex) pairs, in fixed order.

    The subdivision entries subdivide every earlier ball whose ambient n
    is at most ``grid.barycentric_max_n``.  ``max_n`` filters the final
    list by ambient n.
    """
    balls: list[tuple[str, Complex]] = []
    for n in grid.simplex_n:
        balls.append((BALL_NAMES["simplex"].format(n=n), simplex_ball(n)))
    for n in grid.stacked_n:
        for m in grid.stacked_m:
            for seed in grid.stacked_seeds:
                name = BALL_NAMES["stacked"].format(n=n, m=m, seed=seed)
                balls.append((name, stacked_ball(n, m, seed)))
    spheres = [
        (base, n, boundary_sphere(base, n))
        for base in grid.sphere_bases
        for n in grid.sphere_n
    ]
    for base, n, sphere in spheres:
        balls.append((BALL_NAMES["cone"].format(base=base, n=n), cone_over_boundary(sphere)))
    for base, n, sphere in spheres:
        name = BALL_NAMES["sphere-minus-facet"].format(base=base, n=n)
        balls.append((name, sphere_minus_facet(sphere)))
    subdivided = [
        (BALL_NAMES["barycentric"].format(name=name), barycentric_subdivision(ball))
        for name, ball in balls
        if ball.n <= grid.barycentric_max_n
    ]
    balls.extend(subdivided)
    if max_n is not None:
        balls = [(name, ball) for name, ball in balls if ball.n <= max_n]
    return balls
