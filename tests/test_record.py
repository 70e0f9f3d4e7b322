"""The frozen record classes: construction, value semantics, immutability."""
import re

import pytest

from tsecon._record import FrozenInstanceError, record
from tsecon.cointegration import relation_size
from tsecon.dataset import AnnualSeries, DatasetError, Term, TermError
from tsecon.dynamics import ArSpec, GrangerSpec, same_dependent
from tsecon.regress import EstimationError, ModelSpec
from tsecon.scenario import CapitalScenario
from tsecon.tsls import TslsSpec
from tsecon.unitroot import AdfSpec, adf_lags, df_residual_test
from tsecon.var import VarSpec, response_horizon


@record
class Point:
    x: int
    y: int = 0


def test_positional_keyword_and_default_arguments():
    assert Point(1, 2) == Point(x=1, y=2) == Point(1, y=2)
    assert Point(1).y == 0
    assert AdfSpec() == AdfSpec("constant", 1)
    assert AdfSpec(lag_order=2) == AdfSpec("constant", 2)


def test_bad_arguments_are_type_errors():
    with pytest.raises(TypeError, match="missing required argument 'x'"):
        Point()
    with pytest.raises(TypeError, match="takes 2 positional arguments"):
        Point(1, 2, 3)
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
    assert Point(1) != (1, 0)


def test_term_is_a_dict_key():
    counts = {Term("GDP", "ln"): 1}
    counts[Term("GDP", "ln")] += 1
    counts[Term("GDP", "diff_ln")] = 1
    assert counts == {Term("GDP", "ln"): 2, Term("GDP", "diff_ln"): 1}


def test_post_init_validates_and_normalises():
    with pytest.raises(TermError, match="unknown transform"):
        Term("GDP", "cube")
    with pytest.raises(TermError, match="lag must be >= 0"):
        Term("GDP", lag=-1)
    with pytest.raises(DatasetError, match="is empty"):
        AnnualSeries("s", 1970, ())
    with pytest.raises(EstimationError, match="lag order"):
        AdfSpec("constant", -1)
    assert AnnualSeries("s", 1970, [1, 2]).values == (1.0, 2.0)


MODEL = ModelSpec(Term("y"), (Term("x"), Term("w")))
RESIDUALS = AnnualSeries("e", 1970, tuple((-1.0) ** k * k for k in range(30)))
SHORT = AnnualSeries("residuals", 2000, (0.1, -0.2, 0.3))


# each spec states its data-free rules once, and names the manifest key a refusal is about
@pytest.mark.parametrize("make, key, message", [
    (lambda: ModelSpec(Term("y"), (), include_constant=False), "regressors", "empty model"),
    (lambda: ModelSpec(Term("y"), (Term("x"), Term("x"))), "regressors", "'x' is repeated"),
    # a term is its series, transform and lag: under another label it is repeated all the same
    (lambda: ModelSpec(Term("y"), (Term("x"), Term("y", label="Y"))), "regressors",
     "the term 'Y' repeats 'y'"),
    (lambda: GrangerSpec(Term("x", "diff"), Term("x", "diff", label="dx")), "y",
     "the term 'dx' repeats 'd_x'"),
    # a label names one column, the dependent's and Granger's x and y included
    (lambda: GrangerSpec(Term("x", label="A"), Term("y", label="A")), "y",
     "the label 'A' is repeated"),
    (lambda: ModelSpec(Term("y"), (Term("x", label="y"),)), "regressors",
     "the label 'y' is repeated"),
    (lambda: ModelSpec(Term("y"), (Term("x", label="const"),)), "regressors",
     "the label 'const' is repeated"),
    (lambda: ModelSpec(Term("y", label="const"), (Term("x"),)), "dependent",
     "the label 'const' is repeated"),
    (lambda: VarSpec((Term("x"), Term("w"), Term("x", label="X"))), "variables",
     "the term 'X' repeats 'x'"),
    (lambda: TslsSpec(MODEL, ("x",), (Term("z"), Term("w", label="w2"))), "instruments",
     "the term 'w2' repeats 'w'"),
    (lambda: AdfSpec("quadratic"), "deterministic", "expected one of none, constant"),
    (lambda: AdfSpec(lag_order=-1), "lag_order", "lag order must be >= 0"),
    (lambda: ArSpec(MODEL, (1,), max_iterations=0), "max_iterations", "iteration limit"),
    (lambda: GrangerSpec(Term("x"), Term("y"), 0), "lags", "Granger lag order must be >= 1"),
    (lambda: VarSpec((Term("x"),), 0), "lags", "VAR lag order must be >= 1"),
    (lambda: VarSpec(()), "variables", "at least one variable"),
    (lambda: TslsSpec(MODEL, ("nope",), (Term("z"),)), "endogenous",
     "expected regressor labels, each one of x, w"),
    (lambda: TslsSpec(MODEL, ("x", "x"), (Term("z"), Term("v"))), "endogenous",
     "the label 'x' is repeated"),
    (lambda: TslsSpec(MODEL, ("x",), ()), "instruments", "order condition violated"),
    (lambda: TslsSpec(MODEL, ("x",), (Term("w"),)), "instruments", "'w' is repeated"),
    (lambda: CapitalScenario("s", {2008: -1.0}), "overrides", "finite rate > -1"),
    (lambda: CapitalScenario("s", {2008: float("nan")}), "overrides", "finite rate > -1"),
    (lambda: response_horizon(-1), "horizon", "0 or more steps"),
    (lambda: relation_size(ModelSpec(Term("y"), tuple(Term(f"x{i}") for i in range(6)))),
     "regressors", "cover at most 6 variables; the long-run relation has 7"),
    (lambda: df_residual_test(RESIDUALS, 1, n_vars=7), "regressors", "cover at most 6"),
    (lambda: df_residual_test(RESIDUALS, 1, surface="bogus"), "deterministic", "expected one of"),
    # a spec refusal comes before the data's: three residuals are too few to regress
    (lambda: df_residual_test(SHORT, 1, n_vars=7), "regressors", "cover at most 6"),
    (lambda: df_residual_test(SHORT, 1, surface="bogus"), "deterministic", "expected one of"),
    (lambda: same_dependent(Term("y", label="Z"), Term("x", label="Z")), "b",
     "requires the same dependent variable"),
    (lambda: ModelSpec(Term("y"), (Term("x"),), sample=(2010, 1976)), "sample",
     "expected the first year <= the last"),
    (lambda: GrangerSpec(Term("x"), Term("y"), sample=(2010, 1976)), "sample",
     "expected the first year <= the last"),
    (lambda: VarSpec((Term("x"),), sample=(2010, 1976)), "sample",
     "expected the first year <= the last"),
    (lambda: CapitalScenario("s", {}).check_window((2010, 2000)), "window",
     "expected the first year <= the last"),
    (lambda: adf_lags(-1, "residual_lag"), "residual_lag", "lag order must be >= 0"),
])
def test_each_spec_refuses_its_rule_naming_its_key(make, key, message):
    with pytest.raises(EstimationError, match=re.escape(message)) as refusal:
        make()
    assert refusal.value.key == key


def test_repr_lists_the_fields_in_order():
    assert repr(Point(1, 2)) == "Point(x=1, y=2)"
    assert repr(Term("GDP", "ln")) == "Term(base='GDP', transform='ln', lag=0, label=None)"
