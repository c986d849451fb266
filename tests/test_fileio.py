"""The JSON facet-file format: strict parsing and byte-stable output."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genoball.complexes import from_facets
from genoball.fileio import (
    FileFormatError,
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
