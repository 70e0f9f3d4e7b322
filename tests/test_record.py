"""The frozen record classes: construction, value semantics, immutability."""
import pytest

from tsecon._record import FrozenInstanceError, field, record
from tsecon.dataset import AnnualSeries, DatasetError, Term, TermError
from tsecon.scenario import ScenarioResult
from tsecon.unitroot import AdfSpec


@record
class Point:
    x: int
    y: int = 0
    tags: dict = field(default_factory=dict)


def test_positional_keyword_and_default_arguments():
    assert Point(1, 2) == Point(x=1, y=2) == Point(1, y=2, tags={})
    assert Point(1).y == 0
    assert AdfSpec() == AdfSpec("constant", 1)
    assert AdfSpec(lag_order=2) == AdfSpec("constant", 2)


def test_bad_arguments_are_type_errors():
    with pytest.raises(TypeError, match="missing required argument 'x'"):
        Point()
    with pytest.raises(TypeError, match="takes 3 positional arguments"):
        Point(1, 2, {}, 4)
    with pytest.raises(TypeError, match="'z'"):
        Point(1, z=3)
    with pytest.raises(TypeError, match="'x'"):
        Point(1, x=2)


def test_assignment_and_deletion_raise():
    p = Point(1, 2)
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'x'"):
        p.x = 5
    with pytest.raises(FrozenInstanceError, match="cannot delete field 'y'"):
        del p.y
    with pytest.raises(AttributeError):
        Term("GDP").lag = 1
    assert (p.x, p.y) == (1, 2)


def test_equal_instances_hash_equal():
    a, b = Term("GDP", "ln", 1), Term("GDP", "ln", 1)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != Term("GDP", "ln", 2)
    assert AnnualSeries("s", 1970, (1.0, 2.0)) == AnnualSeries("s", 1970, (1, 2))
    assert Point(1) != (1, 0, {})


def test_term_is_a_dict_key():
    counts = {Term("GDP", "ln"): 1}
    counts[Term("GDP", "ln")] += 1
    counts[Term("GDP", "diff_ln")] = 1
    assert counts == {Term("GDP", "ln"): 2, Term("GDP", "diff_ln"): 1}


def test_default_factory_gives_a_fresh_value_each_time():
    a, b = Point(1), Point(1)
    assert a.tags == {} and a.tags is not b.tags
    s = AnnualSeries("s", 2000, (1.0,))
    assert ScenarioResult(s, s, 0.0).derived_quantities is not ScenarioResult(s, s, 0.0).derived_quantities
    assert "tags" not in vars(Point)


def test_post_init_validates_and_normalises():
    with pytest.raises(TermError, match="unknown transform"):
        Term("GDP", "cube")
    with pytest.raises(DatasetError, match="is empty"):
        AnnualSeries("s", 1970, ())
    with pytest.raises(ValueError, match="lag_order"):
        AdfSpec("constant", -1)
    assert AnnualSeries("s", 1970, [1, 2]).values == (1.0, 2.0)


def test_repr_lists_the_fields_in_order():
    assert repr(Point(1, 2)) == "Point(x=1, y=2, tags={})"
    assert repr(Term("GDP", "ln")) == "Term(base='GDP', transform='ln', lag=0, label=None)"
