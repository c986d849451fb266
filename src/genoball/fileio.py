"""The JSON facet-file format shared by every command.

    {"n": 3, "facets": [[1, 2, 3], [2, 3, 4]], "name": "two-triangles"}

``n`` is the number of vertices per facet; ``facets`` holds strictly
increasing arrays of positive integers, all of length n; ``name`` is
optional.  Unknown fields are rejected so a file means one thing only.

These format checks are the only validation a file gets: a nonempty
array of length-n, strictly increasing facets of positive ``int`` ids is
already nonempty, pure, sorted and free of repeated vertices, so the
facets become a :class:`Complex` as they are, without ``from_facets``.
The facets are checked in a few bulk passes over all of them at once;
only when one of those fails are they walked one by one, so that the
error names the first offender in file order.
"""

from __future__ import annotations

import itertools
import json
import operator
import os

from .complexes import Complex

__all__ = [
    "FileFormatError",
    "complex_from_obj",
    "complex_to_obj",
    "load_json",
    "load_complex",
    "save_complex",
]

_ALLOWED_KEYS = {"n", "facets", "name"}


class FileFormatError(ValueError):
    """The file does not match the facet-file format."""


def complex_from_obj(obj: object) -> tuple[Complex, str | None]:
    """Parse and validate one facet object; returns (complex, name)."""
    if not isinstance(obj, dict):
        raise FileFormatError("top level must be a JSON object")
    unknown = set(obj) - _ALLOWED_KEYS
    if unknown:
        raise FileFormatError(f"unknown fields: {sorted(unknown)}")
    if "n" not in obj or "facets" not in obj:
        raise FileFormatError('fields "n" and "facets" are required')
    n = obj["n"]
    if type(n) is not int or n < 1:
        raise FileFormatError(f'"n" must be a positive integer, got {n!r}')
    facets = obj["facets"]
    if not isinstance(facets, list) or not facets:
        raise FileFormatError('"facets" must be a nonempty array')
    if not _facets_are_valid(facets, n):
        # only a failed bulk check walks the facets one by one, so that the
        # first offender in file order is named
        for facet in facets:
            if not isinstance(facet, list) or len(facet) != n:
                raise FileFormatError(f"every facet must be an array of length {n}: {facet!r}")
            for v in facet:
                if type(v) is not int or v < 1:
                    raise FileFormatError(f"vertex ids must be positive integers, got {v!r}")
            if any(a >= b for a, b in zip(facet, facet[1:])):
                raise FileFormatError(f"facet {facet!r} is not strictly increasing")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise FileFormatError(f'"name" must be a string, got {name!r}')
    return Complex(frozenset(map(tuple, facets))), name


def _facets_are_valid(facets: list, n: int) -> bool:
    """The facet checks in a few bulk passes: lists of length n of strictly
    increasing ``int`` ids >= 1 (a ``bool`` is not an ``int`` here)."""
    if set(map(type, facets)) != {list} or set(map(len, facets)) != {n}:
        return False
    flat = list(itertools.chain.from_iterable(facets))
    if set(map(type, flat)) != {int} or min(flat) < 1:
        return False
    # the pairs inside each facet: every position but a facet's last one
    inside = [True] * (n - 1) + [False]
    lower = itertools.compress(flat, itertools.cycle(inside))
    upper = itertools.compress(itertools.islice(flat, 1, None), itertools.cycle(inside))
    return all(map(operator.lt, lower, upper))


def complex_to_obj(C: Complex, name: str | None = None) -> dict:
    """The canonical JSON object for a complex: sorted facets, optional name."""
    obj: dict = {"n": C.n, "facets": [list(f) for f in sorted(C.facets)]}
    if name is not None:
        obj["name"] = name
    return obj


def load_json(path: str | os.PathLike) -> object:
    """Read one UTF-8 JSON file; bad content is a FileFormatError naming the path."""
    try:
        with open(path, encoding="utf-8") as file:
            return json.loads(file.read())
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not valid UTF-8 ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise FileFormatError(f"{path}: JSON nested too deeply") from exc


def load_complex(path: str | os.PathLike) -> tuple[Complex, str | None]:
    """Read a facet file; raises FileFormatError on malformed content."""
    return complex_from_obj(load_json(path))


def _dumps(obj: dict) -> str:
    # one facet per line keeps files diffable without json.dumps exploding
    # every vertex onto its own line
    parts = [f'  "n": {obj["n"]}']
    facets = ",\n".join(f"    {json.dumps(f)}" for f in obj["facets"])
    parts.append(f'  "facets": [\n{facets}\n  ]')
    if "name" in obj:
        parts.append(f'  "name": {json.dumps(obj["name"])}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def save_complex(C: Complex, path: str | os.PathLike, name: str | None = None) -> None:
    """Write ``C`` as a facet file that :func:`load_complex` reads back.

    Raises FileFormatError, and writes nothing, when the format cannot hold
    the complex: a vertex id below 1, or a name that is not a string.
    """
    obj = complex_to_obj(C, name)
    # facets are sorted tuples, so the first facet starts with the least id
    least = obj["facets"][0][0]
    if least < 1:
        raise FileFormatError(f"vertex ids must be positive integers, got {least!r}")
    if name is not None and not isinstance(name, str):
        raise FileFormatError(f'"name" must be a string, got {name!r}')
    with open(path, "w", encoding="utf-8") as file:
        file.write(_dumps(obj))
