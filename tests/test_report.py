import xml.etree.ElementTree as ET

import numpy as np
import pytest

from tsecon.dataset import Term
from tsecon.dynamics import GrangerSpec, chow_test, granger_causality
from tsecon.regress import ModelSpec, ols_fit
from tsecon.report import _csv, render_irf_plot, render_table, significance_stars
from tsecon.unitroot import AdfSpec, adf_test
from tsecon.var import VarModel, impulse_response

@pytest.fixture
def fit(toy_dataset):
    return ols_fit(toy_dataset, ModelSpec(Term("y"), (Term("x1"), Term("x2"))))


class TestStars:
    @pytest.mark.parametrize("p,stars", [(0.005, "***"), (0.04, "**"), (0.07, "*"), (0.2, "")])
    def test_thresholds(self, p, stars):
        assert significance_stars(p) == stars

    def test_single_star_row_in_table(self, toy_dataset):
        # check the renderer against the fit's own p-values
        fit = ols_fit(toy_dataset, ModelSpec(Term("y"), (Term("x1"), Term("x2"))))
        text, _ = render_table(fit)
        for c in fit.coefficients:
            assert significance_stars(c.p_value) in text or significance_stars(c.p_value) == ""


class TestTableRoundTrip:
    def test_csv_reparse_matches_to_twelve_digits(self, fit):
        _, csv = render_table(fit)
        lines = csv.strip().split("\n")
        header, rows = lines[0], lines[1:]
        assert header == "variable,coefficient,std_error,t_stat,p_value"
        by_label = {c.label: c for c in fit.coefficients}
        for row in rows[: len(fit.coefficients)]:
            parts = row.split(",")
            c = by_label[parts[0]]
            assert float(parts[1]) == pytest.approx(c.estimate, rel=1e-12)
            assert float(parts[2]) == pytest.approx(c.std_error, rel=1e-12)
        # diagnostics block
        diag = dict(r.split(",") for r in rows[len(fit.coefficients):])
        assert float(diag["ssr"]) == pytest.approx(fit.ssr, rel=1e-12)
        assert float(diag["durbin_watson"]) == pytest.approx(fit.durbin_watson, rel=1e-12)

    def test_text_numbers_reparse_within_printed_precision(self, fit):
        text, _ = render_table(fit)
        for c in fit.coefficients:
            printed = f"{c.estimate:.6g}"
            assert printed in text
            assert float(printed) == pytest.approx(c.estimate, rel=1e-5)

    def test_rendering_is_pure(self, fit):
        assert render_table(fit) == render_table(fit)

    def test_other_result_types_render(self, dataset):
        g = granger_causality(dataset, GrangerSpec(
            Term("GDP", "diff_ln"), Term("Industrial Investment", "diff_ln"), 4,
            sample=(1976, 2010),
        ))
        text, csv = render_table(g)
        assert "Granger" in text and "f_stat" in csv
        spec = ModelSpec(
            Term("Industrial Investment", "ln"),
            (Term("Public investment", "ln"), Term("GDP model base", "ln"), Term("Credit", "ln")),
            include_constant=False, sample=(1970, 2010),
        )
        c = chow_test(dataset, spec, 1998)
        text, csv = render_table(c)
        assert "structural change" in text
        a = adf_test(dataset.get("GDP"), AdfSpec("constant_and_trend", 1))
        text, csv = render_table(a)
        assert "tau" in text

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            render_table(object())


def csv_reference(rows):
    """Cell by cell: floats as repr, other cells quoted if they hold , " or newline."""
    def cell(x):
        if isinstance(x, float):
            return repr(float(x))
        s = str(x)
        return '"' + s.replace('"', '""') + '"' if any(c in s for c in ',"\n') else s
    return "\n".join(",".join(cell(c) for c in row) for row in rows) + "\n"


def test_csv_rows_match_the_cell_by_cell_reference():
    rng = np.random.default_rng(11)
    values = rng.standard_normal(200) * 10.0 ** rng.integers(-320, 300, 200)
    rows = [
        [], ["only"], [1.0, -0.0, 1e16, 1e-5, 5e-324, float("nan"), float("-inf")],
        [np.float64(v) for v in values], values.tolist(), [np.float64(0.1), 3, True, "x"],
        ["GDP, log", 1.5], ['say "hi"', 2.0], ["two\nlines", "ok"], [", ,", ",", ""],
        ['"', np.float64(-2.5e-300), "a,b", 7],
    ]
    assert _csv(rows) == csv_reference(rows)


def flat_irf():
    return impulse_response(
        VarModel(
            labels=("a", "b"), p=1, intercepts=np.zeros(2),
            coefficient_matrices=(np.zeros((2, 2)),), residual_cov=np.eye(2),
            sample=(2000, 2010), n_effective=10,
        ),
        horizon=8,
    )


ALLOWED_SVG = {"svg", "polyline", "line", "text", "rect"}


class TestIrfPlot:
    def test_grammar_conformance(self):
        svg = render_irf_plot(flat_irf(), "a", "b")
        root = ET.fromstring(svg)
        tags = {el.tag.split("}")[-1] for el in root.iter()}
        assert tags <= ALLOWED_SVG
        assert root.attrib["width"] == "800" and root.attrib["height"] == "500"

    def test_zero_dynamics_flat_after_impact(self):
        svg = render_irf_plot(flat_irf(), "a", "b")
        root = ET.fromstring(svg)
        poly = next(el for el in root.iter() if el.tag.endswith("polyline"))
        ys = [float(p.split(",")[1]) for p in poly.attrib["points"].split()]
        assert len(set(ys[1:])) == 1  # flat at zero from step 1 on

    def test_deterministic_bytes(self):
        assert render_irf_plot(flat_irf(), "a", "a") == render_irf_plot(flat_irf(), "a", "a")

    def test_unknown_variable_error(self):
        with pytest.raises(KeyError):
            render_irf_plot(flat_irf(), "a", "zzz")

    def test_horizon_requirement(self):
        irf = impulse_response(
            VarModel(("a", "b"), 1, np.zeros(2), (np.zeros((2, 2)),), np.eye(2), (2000, 2010), 10),
            horizon=0,
        )
        with pytest.raises(ValueError, match="horizon"):
            render_irf_plot(irf, "a", "b")
