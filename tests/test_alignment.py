"""The sliced data path against per-year reference constructions.

``apply_term``, ``align`` and ``AnnualSeries.slice`` build every model column.
The references below are the per-year forms they replace (list transforms, a
``value_in`` lookup per year, a row-by-row CSV parser); columns must agree bit
for bit and parse errors word for word.
"""
from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsecon.dataset import (
    AnnualSeries,
    Dataset,
    DatasetError,
    Term,
    TermError,
    _parse_csv,
    align,
    apply_term,
)
from tsecon.dynamics import GrangerSpec, granger_causality
from tsecon.regress import EstimationError, ModelSpec, ols_fit
from tsecon.var import VarSpec, var_fit

from conftest import make_dataset

TRANSFORMS = ("level", "ln", "diff", "diff_ln")


def reference_apply_term(dataset: Dataset, term: Term) -> AnnualSeries:
    base = dataset.get(term.base)
    values = list(base.values)
    start = base.start_year
    if term.transform in ("ln", "diff_ln"):
        bad = [start + i for i, v in enumerate(values) if v <= 0.0]
        if bad:
            raise TermError(f"ln of non-positive value in series {term.base!r} (first at {bad[0]})")
        values = [math.log(v) for v in values]
    if term.transform in ("diff", "diff_ln"):
        values = [b - a for a, b in zip(values, values[1:])]
        start += 1
    return AnnualSeries(term.rendered_label(), start + term.lag, tuple(values))


def reference_columns(dataset, terms, sample):
    evaluated = [reference_apply_term(dataset, t) for t in terms]
    lo = max(s.start_year for s in evaluated)
    hi = min(s.end_year for s in evaluated)
    if sample is not None:
        lo, hi = max(lo, sample[0]), min(hi, sample[1])
    years = range(lo, hi + 1)
    return evaluated, years, [[s.value_in(y) for y in years] for s in evaluated]


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


@st.composite
def panels(draw):
    """Two to four positive series with their own spans, terms over them, a sample."""
    names = [f"s{i}" for i in range(draw(st.integers(2, 4)))]
    series = {}
    for name in names:
        start = draw(st.integers(1960, 1975))
        values = draw(st.lists(st.floats(1e-3, 1e9), min_size=5, max_size=40))
        series[name] = (start, values)
    terms = [
        Term(draw(st.sampled_from(names)), draw(st.sampled_from(TRANSFORMS)), draw(st.integers(0, 3)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    sample = draw(st.none() | st.tuples(st.integers(1955, 2020), st.integers(1955, 2020)))
    return make_dataset(**series), terms, sample


class TestAlignOracle:
    @given(panels())
    @settings(max_examples=300, deadline=None)
    def test_columns_match_per_year_lookup(self, case):
        ds, terms, sample = case
        evaluated, years, columns = align(ds, terms, sample)
        ref_evaluated, ref_years, ref_columns = reference_columns(ds, terms, sample)
        for got, want in zip(evaluated, ref_evaluated):
            assert (got.name, got.start_year) == (want.name, want.start_year)
            assert bits(got.values) == bits(want.values)
        if ref_years:
            assert years == ref_years
            assert [bits(c) for c in columns] == [bits(c) for c in ref_columns]
        else:
            assert not years and columns == [()] * len(terms)

    @pytest.mark.parametrize("transform", TRANSFORMS)
    @pytest.mark.parametrize("lag", [0, 1, 2, 3])
    def test_every_transform_and_lag(self, dataset, transform, lag):
        term = Term("GDP", transform, lag)
        got = apply_term(dataset, term)
        want = reference_apply_term(dataset, term)
        assert got.start_year == want.start_year
        assert bits(got.values) == bits(want.values)

    def test_ln_is_math_log(self):
        # numpy's vectorised log differs from math.log in the last bit on a few
        # inputs on some hosts (297.1857 on an x86-64 one), and the bundle
        # prints repr(float)
        values = [297.1857] * 8 + [50.0]
        got = apply_term(make_dataset(s=(2000, values)), Term("s", "ln"))
        assert bits(got.values) == bits(map(math.log, values))

    def test_slice_outside_the_series_raises(self):
        s = AnnualSeries("s", 2000, (1.0, 2.0, 3.0))
        assert s.slice(2001, 2002) == (2.0, 3.0)
        for lo, hi in ((1999, 2001), (2001, 2003), (2002, 2001)):
            with pytest.raises(DatasetError, match="does not cover"):
                s.slice(lo, hi)


class TestEmptyWindowErrors:
    """An empty window gives a design of zero rows, which the kernel's sample rule refuses."""

    @pytest.fixture
    def ds(self):
        rng = np.random.default_rng(3)
        return make_dataset(a=(1970, rng.normal(size=30)), b=(1970, rng.normal(size=30)))

    def test_regression(self, ds):
        spec = ModelSpec(Term("a"), (Term("b"),), sample=(2050, 2060))
        with pytest.raises(EstimationError, match="^the OLS regression has 0 observations for 2 parameters$"):
            ols_fit(ds, spec)

    def test_granger(self, ds):
        with pytest.raises(EstimationError, match="^the Granger regression has 0 observations for 3 parameters$"):
            granger_causality(ds, GrangerSpec(Term("a"), Term("b"), 1, sample=(1900, 1960)))

    def test_var(self, ds):
        with pytest.raises(EstimationError, match=r"^the VAR\(1\) design has 0 observations for 3 parameters$"):
            var_fit(ds, VarSpec([Term("a"), Term("b")], 1, sample=(2050, 2060)))


class TestAnnualSeriesValidation:
    def test_overflowing_sum_of_finite_values_is_accepted(self):
        assert AnnualSeries("s", 2000, [1e308, 1e308]).values == (1e308, 1e308)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DatasetError) as err:
            AnnualSeries("s", 2000, (1.0, bad, 2.0))
        assert str(err.value) == "series 's' contains non-finite values"

    def test_inf_and_minus_inf_together_rejected(self):
        with pytest.raises(DatasetError, match="non-finite"):
            AnnualSeries("s", 2000, (math.inf, -math.inf))

    def test_ints_and_numpy_floats_stored_as_float(self):
        s = AnnualSeries("s", 2000, (1, np.float64(2.5), 3))
        assert s.values == (1.0, 2.5, 3.0)
        assert all(type(v) is float for v in s.values)

    def test_ln_names_the_first_non_positive_year(self):
        ds = make_dataset(s=(2000, [3.0, 0.0, -1.0, 2.0]))
        with pytest.raises(TermError) as err:
            apply_term(ds, Term("s", "diff_ln"))
        assert str(err.value) == "ln of non-positive value in series 's' (first at 2001)"


def reference_parse(text: str, origin: str) -> AnnualSeries:
    """The row-by-row parser: the first bad row decides the error."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("year,"):
        raise DatasetError(f"{origin}: first row must be 'year,<series-name>'")
    name = lines[0].split(",", 1)[1].strip()
    if not name:
        raise DatasetError(f"{origin}: missing series name in header")
    unit, rows = "", []
    for ln in lines[1:]:
        if ln.startswith("#"):
            m = re.match(r"#\s*unit:\s*(.*)", ln)
            if m:
                unit = m.group(1).strip()
            continue
        parts = ln.split(",")
        if len(parts) != 2:
            raise DatasetError(f"{origin}: malformed row {ln!r}")
        try:
            rows.append((int(parts[0]), float(parts[1])))
        except ValueError:
            raise DatasetError(f"{origin}: non-numeric cell in row {ln!r}") from None
    if not rows:
        raise DatasetError(f"{origin}: series {name!r} has no rows")
    years = [y for y, _ in rows]
    for a, b in zip(years, years[1:]):
        if b != a + 1:
            raise DatasetError(f"{origin}: non-contiguous years {a} -> {b} in series {name!r}")
    return AnnualSeries(name, years[0], tuple(v for _, v in rows), unit)


def parse_series(text: str, origin: str) -> AnnualSeries:
    """The loader's parser on a series file, which holds one series."""
    [series] = _parse_csv(text, origin, wide=False)
    return series


def outcome(parse, text):
    try:
        s = parse(text, "s.csv")
    except DatasetError as exc:
        return str(exc)
    return s.name, s.start_year, bits(s.values), s.unit


class TestParseErrorParity:
    @pytest.mark.parametrize(
        "body, message",
        [
            ("1970,1\n1971,2,3\n", "s.csv: malformed row '1971,2,3'"),
            ("1970,1\n1971\n", "s.csv: malformed row '1971'"),
            ("1970,1\nx1971,2\n", "s.csv: non-numeric cell in row 'x1971,2'"),
            ("1970,1\n1971,abc\n", "s.csv: non-numeric cell in row '1971,abc'"),
            ("1970,1\n1971,2\n1973,3\n", "s.csv: non-contiguous years 1971 -> 1973 in series 's'"),
            ("1970,1\n1971,2,3\n1972,abc\n", "s.csv: malformed row '1971,2,3'"),
            ("1970,1\n1971,abc\n1972,2,3\n", "s.csv: non-numeric cell in row '1971,abc'"),
            ("1970,1\n1972,abc\n", "s.csv: non-numeric cell in row '1972,abc'"),
            ("# unit: kg\n", "s.csv: series 's' has no rows"),
        ],
    )
    def test_error_text(self, body, message):
        text = "year,s\n" + body
        with pytest.raises(DatasetError) as err:
            parse_series(text, "s.csv")
        assert str(err.value) == message
        assert outcome(reference_parse, text) == message

    def test_unit_lines_between_rows(self):
        text = "year,s\n# unit: kg\n1970,1\n# a note\n1971,2.5\n# unit: t\n1972,3\n"
        s = parse_series(text, "s.csv")
        assert (s.start_year, s.values, s.unit) == (1970, (1.0, 2.5, 3.0), "t")
        assert outcome(parse_series, text) == outcome(reference_parse, text)

    @given(
        st.lists(
            st.sampled_from(["{y},{v}", "{y},{v},{v}", "{y}", "{y},", ",{v}", "{y},x", "y{y},{v}",
                             "# unit: u{y}", "# note", "   ", "{y} , {v}"]),
            min_size=1, max_size=12,
        ),
        st.integers(1900, 2000),
        st.lists(st.integers(0, 2), min_size=12, max_size=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_row_by_row_parser(self, shapes, start, steps):
        year, rows = start, []
        for shape, step in zip(shapes, steps):
            rows.append(shape.format(y=year, v=f"{year / 7:.4f}"))
            year += step
        text = "year,s\n" + "\n".join(rows) + "\n"
        assert outcome(parse_series, text) == outcome(reference_parse, text)
