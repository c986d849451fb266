"""The JSON facet-file format: strict parsing and byte-stable output."""

import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genoball.complexes import Complex, from_facets
from genoball.fileio import (
    FileFormatError,
    _check_facets_one_by_one,
    _dumps,
    _facets_are_valid,
    complex_from_obj,
    complex_to_obj,
    load_complex,
    save_complex,
)
from genoball.generators import stacked_ball


def test_round_trip(tmp_path):
    ball = stacked_ball(4, 5, seed=2)
    path = tmp_path / "ball.json"
    save_complex(ball, path, name="stacked-n4-m5-s2")
    loaded, name = load_complex(path)
    assert loaded == ball
    assert name == "stacked-n4-m5-s2"


def test_output_is_valid_json_with_one_facet_per_line(tmp_path):
    path = tmp_path / "ball.json"
    save_complex(stacked_ball(3, 2, 1), path)
    text = path.read_text()
    assert json.loads(text)["n"] == 3
    assert "[1, 2, 3]" in text


def test_name_is_optional():
    ball, name = complex_from_obj({"n": 3, "facets": [[1, 2, 3]]})
    assert name is None
    assert ball.n == 3


def test_to_obj_sorts_facets():
    obj = complex_to_obj(stacked_ball(3, 3, 9))
    assert obj["facets"] == sorted(obj["facets"])


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {"facets": [[1, 2]]},
        {"n": 2},
        {"n": 2, "facets": [[1, 2]], "extra": 1},
        {"n": "2", "facets": [[1, 2]]},
        {"n": 0, "facets": [[1]]},
        {"n": 2, "facets": []},
        {"n": 2, "facets": [[1, 2, 3]]},
        {"n": 2, "facets": [[2, 1]]},
        {"n": 2, "facets": [[1, 1]]},
        {"n": 2, "facets": [[0, 1]]},
        {"n": 2, "facets": [[1, True]]},
        {"n": 2, "facets": [[1, 2]], "name": 7},
    ],
    ids=[
        "not-an-object",
        "missing-n",
        "missing-facets",
        "unknown-field",
        "n-not-int",
        "n-zero",
        "facets-empty",
        "wrong-length",
        "not-increasing",
        "repeated-vertex",
        "zero-vertex",
        "bool-vertex",
        "name-not-string",
    ],
)
def test_rejections(obj):
    with pytest.raises(FileFormatError):
        complex_from_obj(obj)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(FileFormatError):
        load_complex(path)


def test_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_complex(stacked_ball(5, 7, 3), a, name="x")
    save_complex(stacked_ball(5, 7, 3), b, name="x")
    assert a.read_bytes() == b.read_bytes()


@st.composite
def _valid_facet_objects(draw):
    n = draw(st.integers(1, 5))
    facet = st.lists(st.integers(1, 12), min_size=n, max_size=n, unique=True).map(sorted)
    return {"n": n, "facets": draw(st.lists(facet, min_size=1, max_size=8))}


@given(_valid_facet_objects())
def test_valid_objects_build_the_same_complex_as_from_facets(obj):
    ball, _ = complex_from_obj(obj)
    assert ball == from_facets(obj["facets"])
    assert all(
        type(facet) is tuple and all(type(v) is int for v in facet)
        for facet in ball.facets
    )


def _reference_complex_from_facets(facets, n):
    """The per-facet checks that complex_from_obj made before its bulk passes."""
    for facet in facets:
        if not isinstance(facet, list) or len(facet) != n:
            raise FileFormatError(f"every facet must be an array of length {n}: {facet!r}")
        for v in facet:
            if type(v) is not int or v < 1:
                raise FileFormatError(f"vertex ids must be positive integers, got {v!r}")
        if any(a >= b for a, b in zip(facet, facet[1:])):
            raise FileFormatError(f"facet {facet!r} is not strictly increasing")
    return from_facets(facets)


_VERTICES = st.integers(1, 9) | st.sampled_from([0, -1, -7, True, False, 2.0, 1.5, "3", None])


def _with_a_lookalike(facet, i):
    """``facet`` with its i-th id replaced by an equal value that is no ``int``:
    True for 1, a float otherwise, so the facet stays increasing."""
    facet = list(facet)
    facet[i] = True if facet[i] == 1 else float(facet[i])
    return facet


@st.composite
def _mixed_facet_objects(draw):
    """Facet arrays that are mostly valid, with every kind of fault mixed in."""
    n = draw(st.integers(1, 4))
    valid = st.lists(st.integers(1, 9), min_size=n, max_size=n, unique=True).map(sorted)
    faulty = st.one_of(
        st.lists(st.integers(1, 9), max_size=n + 2),  # any length, any order, repeats
        st.lists(_VERTICES, min_size=n, max_size=n),
        valid.map(lambda f: f[::-1]),
        valid.map(tuple),
        st.builds(_with_a_lookalike, valid, st.integers(0, n - 1)),
        st.sampled_from([None, 3, "abc", {"a": 1}]),
    )
    facets = draw(st.lists(valid | faulty, min_size=1, max_size=8))
    return {"n": n, "facets": draw(st.permutations(facets))}


@settings(max_examples=200)
@given(_mixed_facet_objects())
def test_bulk_checks_agree_with_the_per_facet_loop(obj):
    try:
        expected = _reference_complex_from_facets(obj["facets"], obj["n"])
    except FileFormatError as exc:
        with pytest.raises(FileFormatError) as info:
            complex_from_obj(obj)
        assert type(info.value) is type(exc)
        assert str(info.value) == str(exc)
    else:
        assert complex_from_obj(obj) == (expected, None)


@settings(max_examples=300)
@given(_mixed_facet_objects())
@example({"n": 3, "facets": [[1, 2, 3], [1, 2]]})  # a wrong length
@example({"n": 3, "facets": [[1, 2, 3, 4]]})
@example({"n": 3, "facets": [[1, 2, 3], [2, 2, 4]]})  # equal neighbours
@example({"n": 3, "facets": [[1, 2, 3], [1, 4, 3]]})  # descending neighbours
@example({"n": 2, "facets": [[0, 1]]})
@example({"n": 2, "facets": [[-1, 1]]})
@example({"n": 2, "facets": [[True, 2]]})
@example({"n": 2, "facets": [[1.0, 2]]})
@example({"n": 2, "facets": [["1", 2]]})
@example({"n": 1, "facets": [[1], [1]]})
@example({"n": 3, "facets": [[1, 2, 3], [2, 3, 4]]})
def test_bulk_check_accepts_exactly_what_the_per_facet_walk_accepts(obj):
    facets, n = obj["facets"], obj["n"]
    try:
        _check_facets_one_by_one(facets, n)
    except FileFormatError:
        walked = False
    else:
        walked = True
    assert _facets_are_valid(facets, n) is walked


def test_the_first_faulty_facet_in_file_order_is_named():
    # facet 2 has a bad vertex and facet 4 a wrong length; the bulk checks
    # fail on both, and the message names facet 2's vertex
    obj = {"n": 3, "facets": [[1, 2, 3], [1, 2.5, 4], [2, 3, 4], [1, 2]]}
    with pytest.raises(FileFormatError) as info:
        complex_from_obj(obj)
    assert str(info.value) == "vertex ids must be positive integers, got 2.5"


@st.composite
def _accepted_complexes(draw):
    """A complex that from_facets accepts, vertex id 0 included."""
    n = draw(st.integers(1, 4))
    ids = st.integers(0, 9) | st.integers(0, 2**70)
    facet = st.lists(ids, min_size=n, max_size=n, unique=True)
    return from_facets(draw(st.lists(facet, min_size=1, max_size=6)))


@given(_accepted_complexes(), st.none() | st.text(max_size=8))
def test_save_either_refuses_and_writes_nothing_or_round_trips(ball, name):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ball.json"
        try:
            save_complex(ball, path, name)
        except FileFormatError:
            assert not path.exists()
            assert min(ball.vertices) == 0
            return
        assert load_complex(path) == (ball, name)


def test_save_refuses_vertex_zero(tmp_path):
    path = tmp_path / "z.json"
    with pytest.raises(FileFormatError, match="positive integers, got 0"):
        save_complex(from_facets([[0, 1, 2]]), path)
    assert not path.exists()


def test_save_refuses_a_name_that_is_not_a_string(tmp_path):
    path = tmp_path / "ball.json"
    with pytest.raises(FileFormatError, match='"name" must be a string'):
        save_complex(stacked_ball(3, 2, 1), path, name=7)
    assert not path.exists()


def _reference_dumps(obj):
    """The writer as it was before facet lines skipped json: one json.dumps
    call per facet line."""
    parts = [f'  "n": {obj["n"]}']
    facets = ",\n".join(f"    {json.dumps(f)}" for f in obj["facets"])
    parts.append(f'  "facets": [\n{facets}\n  ]')
    if "name" in obj:
        parts.append(f'  "name": {json.dumps(obj["name"])}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


_NAMES = st.none() | st.text(max_size=8) | st.sampled_from(['say "hi"', "back\\slash", "ball-π-∂", "ü\n\t"])


@given(_accepted_complexes(), _NAMES)
def test_dumps_writes_the_bytes_of_one_json_dumps_per_facet(ball, name):
    obj = complex_to_obj(ball, name)
    assert _dumps(obj) == _reference_dumps(obj)


@pytest.mark.parametrize(
    ("ball", "message"),
    [
        (Complex(frozenset({(True, 2, 3)})), "positive integers, got True"),
        (Complex(frozenset({(1, Fraction(3, 2), 2)})), r"positive integers, got Fraction\(3, 2\)"),
        (Complex(frozenset({()})), '"n" must be a positive integer, got 0'),
    ],
    ids=["bool-vertex", "fraction-vertex", "empty-facet"],
)
@pytest.mark.parametrize("old", [None, b"old bytes\n"], ids=["no-file", "old-file"])
def test_save_refuses_what_load_refuses_and_leaves_the_path_as_it_was(tmp_path, ball, message, old):
    path = tmp_path / "ball.json"
    if old is not None:
        path.write_bytes(old)
    with pytest.raises(FileFormatError, match=message):
        save_complex(ball, path)
    if old is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == old
