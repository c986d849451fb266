"""The result records: repr text, equality, immutability and defaults.

Every record prints, compares and refuses assignment the same way whatever
class machinery builds it, so these tests pin the observable behaviour only.
"""

import copy
import json
import pickle
from fractions import Fraction

import pytest

from genoball.complexes import BallCheckReport, Census, FVector
from genoball.corpus import DEFAULT_GRID, CorpusGrid, grid_from_json
from genoball.genocchi import BernoulliTable, GenocchiTable
from genoball.verify import IdentityCheck, VerificationReport

_REPORT = dict(
    n=2,
    ridge_incidence_ok=True,
    has_boundary=True,
    dual_graph_connected=True,
    euler_char_ball=1,
    euler_char_boundary=2,
)
_CENSUS = dict(
    f=FVector((2, 1)),
    f_boundary=FVector((2,)),
    f_interior=FVector((0, 1)),
    report=BallCheckReport(**_REPORT),
    boundary_ridges=frozenset({(1,)}),
    ridge_overflow=None,
)
_CHECK = dict(identity="genocchi", k=0, residual=Fraction(1, 2), trivial=False)
_GRID = dict(
    simplex_n=(2, 3),
    stacked_n=(3,),
    stacked_m=(2,),
    stacked_seeds=(1,),
    sphere_bases=("simplex",),
    sphere_n=(3,),
    barycentric_max_n=3,
)

# (class, fields, expected repr, a field to change, its new value); a named
# tuple is built from its fields by keyword, FVector from its counts alone
RECORDS = [
    (
        FVector,
        dict(counts=(8, 18, 16, 5)),
        "FVector((8, 18, 16, 5))",
        "counts",
        (8, 18, 16, 6),
    ),
    (
        BallCheckReport,
        _REPORT,
        "BallCheckReport(n=2, ridge_incidence_ok=True, has_boundary=True, "
        "dual_graph_connected=True, euler_char_ball=1, euler_char_boundary=2)",
        "dual_graph_connected",
        False,
    ),
    (
        Census,
        _CENSUS,
        "Census(f=FVector((2, 1)), f_boundary=FVector((2,)), "
        "f_interior=FVector((0, 1)), report=BallCheckReport(n=2, "
        "ridge_incidence_ok=True, has_boundary=True, dual_graph_connected=True, "
        "euler_char_ball=1, euler_char_boundary=2), boundary_ridges=frozenset({(1,)}), "
        "ridge_overflow=None)",
        "ridge_overflow",
        ((1,), 3),
    ),
    (
        GenocchiTable,
        dict(values={2: -1, 4: 1}, method="series"),
        "GenocchiTable(values={2: -1, 4: 1}, method='series')",
        "method",
        "bernoulli",
    ),
    (
        BernoulliTable,
        dict(values={0: Fraction(1), 1: Fraction(-1, 2)}),
        "BernoulliTable(values={0: Fraction(1, 1), 1: Fraction(-1, 2)})",
        "values",
        {0: Fraction(1)},
    ),
    (
        IdentityCheck,
        _CHECK,
        "IdentityCheck(identity='genocchi', k=0, residual=Fraction(1, 2), trivial=False)",
        "residual",
        Fraction(0),
    ),
    (
        VerificationReport,
        dict(n=4, checks=(IdentityCheck(**_CHECK),), name="ball"),
        "VerificationReport(n=4, checks=(IdentityCheck(identity='genocchi', k=0, "
        "residual=Fraction(1, 2), trivial=False),), name='ball')",
        "name",
        None,
    ),
    (
        CorpusGrid,
        _GRID,
        "CorpusGrid(simplex_n=(2, 3), stacked_n=(3,), stacked_m=(2,), "
        "stacked_seeds=(1,), sphere_bases=('simplex',), sphere_n=(3,), "
        "barycentric_max_n=3)",
        "sphere_n",
        (3, 4),
    ),
]
IDS = [record[0].__name__ for record in RECORDS]


def _build(cls, fields):
    return cls(*fields.values()) if cls is FVector else cls(**fields)


@pytest.mark.parametrize("cls, fields, text, _field, _value", RECORDS, ids=IDS)
def test_repr_text(cls, fields, text, _field, _value):
    assert repr(_build(cls, fields)) == text


@pytest.mark.parametrize("cls, fields, _text, field, value", RECORDS, ids=IDS)
def test_equal_fields_equal_records_and_one_change_breaks_it(
    cls, fields, _text, field, value
):
    record = _build(cls, fields)
    assert record == _build(cls, fields)
    assert record == cls(*fields.values())
    assert not record != _build(cls, fields)
    changed = _build(cls, {**fields, field: value})
    assert record != changed
    assert not record == changed


@pytest.mark.parametrize("cls, fields, _text, field, value", RECORDS, ids=IDS)
def test_assignment_and_deletion_raise_attribute_error(cls, fields, _text, field, value):
    record = _build(cls, fields)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == fields[field]


@pytest.mark.parametrize("cls, fields, _text, _field, _value", RECORDS, ids=IDS)
def test_pickle_round_trip(cls, fields, _text, _field, _value):
    record = _build(cls, fields)
    assert pickle.loads(pickle.dumps(record)) == record


def test_defaults():
    check = IdentityCheck("genocchi", 0, Fraction(0))
    assert check.trivial is False
    assert VerificationReport(4, (check,)).name is None


def test_fvector_keeps_its_own_sequence_protocol():
    fv = FVector((3, 3, 1))
    assert tuple(fv) == (3, 3, 1)
    assert len(fv) == fv.n == 3
    assert fv[5] == 0
    assert hash(fv) == hash(FVector((3, 3, 1)))
    # it is the tuple of its counts, and n is that tuple's length: a size
    # beside the counts, the old form, is refused
    with pytest.raises(TypeError):
        FVector(3, (1, 2, 3))
    fv = FVector((4, 3))
    assert fv == (4, 3) and hash(fv) == hash((4, 3))
    assert json.dumps(fv) == "[4, 3]"
    assert copy.deepcopy(fv) == fv and type(copy.deepcopy(fv)) is FVector
    assert fv[-1] == fv[len(fv)] == 0
    # a slice is a slice of the counts
    fv = FVector((1, 2, 3))
    assert fv[1:] == (2, 3) and fv[::-1] == (3, 2, 1)


def test_grid_from_json_rejects_unknown_fields():
    with pytest.raises(ValueError, match=r"unknown corpus grid fields: \['bogus', 'zz'\]"):
        grid_from_json({"zz": 1, "bogus": 1, "simplex_n": [2]})


@pytest.mark.parametrize(
    "field, value",
    [("simplex_n", [3, 3]), ("stacked_seeds", [1, 2, 1]), ("sphere_bases", ["simplex"] * 2)],
)
def test_grid_from_json_rejects_a_repeated_value(field, value):
    # a repeated value would build, verify and report the same ball twice
    with pytest.raises(ValueError, match=rf"corpus grid field '{field}' repeats a value"):
        grid_from_json({field: value})


def test_grid_from_json_overrides_only_the_given_fields():
    grid = grid_from_json({"simplex_n": [2, 3], "barycentric_max_n": 3})
    expected = {
        **{name: getattr(DEFAULT_GRID, name) for name in _GRID},
        "simplex_n": (2, 3),
        "barycentric_max_n": 3,
    }
    assert grid == CorpusGrid(**expected)
    assert grid_from_json({}) == DEFAULT_GRID


@pytest.mark.parametrize("counts", [(), (1,), (8, 18, 16, 5)])
def test_fvector_round_trips_through_pickle_copy_and_repr(counts):
    fv = FVector(counts)
    copies = [pickle.loads(pickle.dumps(fv, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(fv), copy.deepcopy(fv), eval(repr(fv))]
    for other in copies:
        assert other == fv and type(other) is FVector and other.n == len(counts)
