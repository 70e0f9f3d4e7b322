"""Render fitted results as aligned text tables, CSV, and SVG line plots.

Rendering is pure: identical inputs produce identical bytes.  Text tables use
six significant digits (the precision of the study's printed tables); CSV
carries full precision.  Plots are self-contained SVG 1.1 documents limited to
``svg``, ``polyline``, ``line``, ``text``, and ``rect`` elements.
"""
from __future__ import annotations

import csv
import io
import os
from pathlib import Path

from .cointegration import CointegrationResult
from .dynamics import ArFitResult, ChowResult, GrangerResult, ModelComparison
from .regress import FitResult
from .scenario import ScenarioResult
from .unitroot import AdfBattery, AdfResult
from .var import FevdResult, IrfResult, VarModel

__all__ = ["ReportBundle", "render_irf_plot", "render_table", "significance_stars"]


def significance_stars(p: float) -> str:
    if p <= 0.01:
        return "***"
    if p <= 0.05:
        return "**"
    if p <= 0.10:
        return "*"
    return ""


def _g6(x: float) -> str:
    return f"{x:.6g}"


def _csv(rows: list[list]) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _align(rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    out = []
    for r in rows:
        out.append("  ".join(c.ljust(w) if i == 0 else c.rjust(w) for i, (c, w) in enumerate(zip(r, widths))).rstrip())
    return "\n".join(out) + "\n"


# the diagnostic block of a fit table, in its CSV's row order
_DIAGNOSTICS = ("n_obs", "r_squared", "adj_r_squared", "f_stat", "f_p_value", "ssr",
                "resid_std_error", "dep_mean", "dep_std_error", "log_likelihood",
                "aic", "bic", "hqc", "durbin_watson", "rho1")
# why a fit holds None for a statistic, printed and written in its place
_ABSENT = {"f_stat": "n/a (no regressor)", "f_p_value": "n/a (no regressor)",
           "rho1": "n/a (no lagged residual)"}


def _fit_table(fit: FitResult, title: str) -> tuple[str, str]:
    head = [
        title,
        f"Dependent variable: {fit.model.dependent.rendered_label()}   Method: {fit.method.upper()}",
        f"Sample: {fit.sample[0]}-{fit.sample[1]}   Observations: {fit.n_obs}",
        "",
    ]
    rows = [["Variable", "Coefficient", "Std. Error", "t", "p", ""]]
    for c in fit.coefficients:
        rows.append([c.label, _g6(c.estimate), _g6(c.std_error), _g6(c.t_stat),
                     _g6(c.p_value), significance_stars(c.p_value)])
    cell = {name: getattr(fit, name) for name in _DIAGNOSTICS}
    cell = {name: _ABSENT[name] if v is None else v for name, v in cell.items()}
    d = {name: v if isinstance(v, str) else _g6(v) for name, v in cell.items()}
    diag = [
        "",
        f"R-squared           {d['r_squared']}    Adjusted R-squared  {d['adj_r_squared']}",
        f"F({fit.f_df[0]}, {fit.f_df[1]})             {d['f_stat']}    P(F)                {d['f_p_value']}",
        f"SSR                 {d['ssr']}    S.E. of regression  {d['resid_std_error']}",
        f"Mean dep. var       {d['dep_mean']}    S.D. dep. var       {d['dep_std_error']}",
        f"Log-likelihood      {d['log_likelihood']}    Durbin-Watson       {d['durbin_watson']}",
        f"AIC                 {d['aic']}    BIC                 {d['bic']}",
        f"HQC                 {d['hqc']}    rho1                {d['rho1']}",
    ]
    text = "\n".join(head) + _align(rows) + "\n".join(diag) + "\n"
    csv_rows = [["variable", "coefficient", "std_error", "t_stat", "p_value"]]
    for c in fit.coefficients:
        csv_rows.append([c.label, c.estimate, c.std_error, c.t_stat, c.p_value])
    csv_rows.extend(cell.items())
    return text, _csv(csv_rows)


def render_table(result, title: str = "") -> tuple[str, str]:
    """Render a result as (aligned text, CSV).  Dispatches on the result type."""
    if isinstance(result, FitResult):
        return _fit_table(result, title or "Regression results")
    if isinstance(result, ArFitResult):
        text, csv = _fit_table(result.structural, title or "Iterative AR estimates")
        extra_rows = [[f"u(-{k})", r] for k, r in zip(result.ar_lags, result.rho)]
        tail = "".join(
            f"u(-{k})                {_g6(r)}\n" for k, r in zip(result.ar_lags, result.rho)
        )
        tail += (
            f"iterations          {result.iterations_used}    converged           "
            f"{str(result.converged).lower()}\n"
        )
        if result.divergence_flag:
            tail += "warning: disturbance process outside the stationary region\n"
        return text + tail, csv + _csv(extra_rows + [["iterations", result.iterations_used],
                                                     ["converged", str(result.converged).lower()]])
    if isinstance(result, GrangerResult):
        rows = [["Null hypothesis", "Obs", "F-Statistic", "Prob.", "Decision"]]
        csv_rows = [["cause", "effect", "lags", "n_obs", "f_stat", "p_value", "reject_5pct"]]
        for e in result.pairs:
            rows.append([
                f"{e.cause} does not Granger-cause {e.effect}",
                str(e.n_obs), _g6(e.f_stat), _g6(e.p_value),
                "reject" if e.reject_5pct else "fail to reject",
            ])
            csv_rows.append([e.cause, e.effect, e.lags, e.n_obs, e.f_stat, e.p_value,
                             str(e.reject_5pct).lower()])
        head = (title or "Granger causality tests") + "\n\n"
        return head + _align(rows), _csv(csv_rows)
    if isinstance(result, ChowResult):
        text = (
            f"{title or 'Chow test'}\n\n"
            f"Break at observation {result.break_year}\n"
            f"Null hypothesis: no structural change\n"
            f"F({result.df[0]}, {result.df[1]}) = {_g6(result.f_stat)}\n"
            f"p-value = {_g6(result.p_value)}\n"
            f"Decision at 5%: {'reject' if result.reject_5pct else 'fail to reject'}\n"
        )
        csv = _csv([["break_year", "f_stat", "df1", "df2", "p_value", "reject_5pct"],
                    [result.break_year, result.f_stat, result.df[0], result.df[1],
                     result.p_value, str(result.reject_5pct).lower()]])
        return text, csv
    if isinstance(result, AdfResult):
        det = {"none": "no constant, no trend", "constant": "with constant",
               "constant_and_trend": "with constant and trend"}[result.spec.deterministic]
        text = (
            f"{title or 'Unit-root test'}\n\n"
            f"Series: {result.series_name}   ({det}, lag order {result.spec.lag_order})\n"
            f"Estimated (a - 1) = {_g6(result.alpha_minus_one)}\n"
            f"Test statistic: tau = {_g6(result.t_stat)}\n"
            f"Asymptotic p-value = {_g6(result.p_value)}\n"
            f"Decision at 5%: {result.conclusion}\n"
        )
        csv = _csv([["series", "deterministic", "lag_order", "n_used", "alpha_minus_one",
                     "t_stat", "p_value", "reject_5pct"],
                    [result.series_name, result.spec.deterministic, result.spec.lag_order,
                     result.n_used, result.alpha_minus_one, result.t_stat, result.p_value,
                     str(result.reject_5pct).lower()]])
        return text, csv
    if isinstance(result, CointegrationResult):
        lr_text, lr_csv = _fit_table(result.long_run, (title or "Cointegration") + ": long-run regression")
        rt_text, rt_csv = render_table(result.residual_test, "Dickey-Fuller test on residuals")
        verdict = f"\nCointegrated at 5%: {str(result.cointegrated).lower()}\n"
        return lr_text + "\n" + rt_text + verdict, lr_csv + rt_csv
    if isinstance(result, ModelComparison):
        stats = (("SSR", "ssr", result.ssr), ("S.E. of residuals", "resid_std_error",
                 result.resid_std_error), ("Schwarz criterion", "schwarz", result.schwarz))
        csv_rows = [[label, a, b, str(result.improved[key]).lower()] for label, key, (a, b) in stats]
        rows = [[label, _g6(a), _g6(b), better] for label, a, b, better in csv_rows]
        text = _align([["Statistic", "Model A", "Model B", "B improves"], *rows])
        return ((title or "Model comparison") + "\n\n" + text,
                _csv([["statistic", "model_a", "model_b", "b_improves"], *csv_rows]))
    if isinstance(result, ScenarioResult):
        return _scenario_table(result, title or "Scenario")
    # these layouts carry their own heading
    if isinstance(result, AdfBattery):
        return _battery_table(result)
    if isinstance(result, VarModel):
        return _var_table(result)
    if isinstance(result, IrfResult):
        return _irf_table(result)
    if isinstance(result, FevdResult):
        return _fevd_table(result)
    raise TypeError(f"cannot render a {type(result).__name__}")


def _battery_table(battery: AdfBattery) -> tuple[str, str]:
    rows_text = [["Variable", "tau", "p-value", "Deterministic", "Lags", "Decision at 5%"]]
    csv_rows: list[list] = [["variable", "tau", "p_value", "deterministic", "lag_order", "decision"]]
    for label, det, lag, res in battery.rows:
        if res is None:
            rows_text.append([label, "-", "-", det, str(lag), "SKIPPED: data-unavailable"])
            csv_rows.append([label, "", "", det, lag, "skipped"])
            continue
        rows_text.append([label, f"{res.t_stat:.6g}", f"{res.p_value:.4f}", det, str(lag),
                          "reject" if res.reject_5pct else "fail to reject"])
        csv_rows.append([label, res.t_stat, res.p_value, det, lag,
                         "reject" if res.reject_5pct else "fail_to_reject"])
    widths = [max(len(r[i]) for r in rows_text) for i in range(6)]
    window = f" (window {battery.window[0]}:{battery.window[1]})" if battery.window else ""
    lines = ["Unit-root battery" + window, ""]
    for r in rows_text:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n", _csv(csv_rows)


def _var_table(model: VarModel) -> tuple[str, str]:
    rows = [f"VAR({model.p}) on {', '.join(model.labels)}",
            f"Cholesky ordering: {' -> '.join(model.labels)}",
            f"Sample: {model.sample[0]}-{model.sample[1]}   "
            f"Effective observations: {model.n_effective}", ""]
    csv_rows = [["equation", "term", "coefficient"]]
    for i, lbl in enumerate(model.labels):
        rows.append(f"{lbl}: intercept {model.intercepts[i]:.6g}")
        csv_rows.append([lbl, "intercept", float(model.intercepts[i])])
        for lag, A in enumerate(model.coefficient_matrices, start=1):
            for j, src in enumerate(model.labels):
                rows.append(f"    {src}(-{lag})  {A[i, j]:.6g}")
                csv_rows.append([lbl, f"{src}(-{lag})", float(A[i, j])])
    return "\n".join(rows) + "\n", _csv(csv_rows)


def _irf_table(irf: IrfResult) -> tuple[str, str]:
    csv_rows = [["shock", "response", "step", "value"]]
    text_rows = [f"Orthogonalized impulse responses (ordering: {' -> '.join(irf.ordering)})", ""]
    for shock in irf.ordering:
        for resp in irf.ordering:
            vals = irf.response(shock, resp)
            text_rows.append(f"{resp} <- {shock}: " + " ".join(f"{v:.5g}" for v in vals))
            for h, v in enumerate(vals):
                csv_rows.append([shock, resp, h, float(v)])
    return "\n".join(text_rows) + "\n", _csv(csv_rows)


def _fevd_table(fevd: FevdResult) -> tuple[str, str]:
    csv_rows = [["response", "step", "shock", "share"]]
    text_rows = [f"Forecast-error variance decomposition (ordering: {' -> '.join(fevd.ordering)})", ""]
    for j, resp in enumerate(fevd.ordering):
        for h in range(fevd.horizon + 1):
            shares = fevd.shares[j, h, :]
            text_rows.append(
                f"{resp} step {h:2d}: " + "  ".join(
                    f"{s}={v:.4f}" for s, v in zip(fevd.ordering, shares))
            )
            for i, s in enumerate(fevd.ordering):
                csv_rows.append([resp, h, s, float(shares[i])])
    return "\n".join(text_rows) + "\n", _csv(csv_rows)


def _scenario_table(res: ScenarioResult, title: str) -> tuple[str, str]:
    b, c = res.baseline_path, res.counterfactual_path
    lines = [title, "", "Year  Baseline      Counterfactual"]
    csv_rows = [["year", "baseline", "counterfactual"]]
    for y, bv, cv in zip(b.years, b.values, c.values):
        lines.append(f"{y}  {bv:12.5g}  {cv:14.5g}")
        csv_rows.append([y, bv, cv])
    lines.append("")
    lines.append(f"Terminal delta: {res.terminal_delta:.6g}")
    for k in sorted(res.derived_quantities):
        lines.append(f"{k}: {res.derived_quantities[k]:.6g}")
        csv_rows.append([k, res.derived_quantities[k], ""])
    return "\n".join(lines) + "\n", _csv(csv_rows)


_W, _H = 800, 500
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def render_irf_plot(irf: IrfResult, shock: str, response: str) -> str:
    """A single impulse-response path as a self-contained SVG document."""
    if irf.horizon < 1:
        raise ValueError("plotting requires horizon >= 1")
    if shock not in irf.ordering or response not in irf.ordering:
        raise KeyError(f"unknown variable; ordering is {irf.ordering}")
    values = irf.response(shock, response)
    h = irf.horizon
    vmin, vmax = min(values.min(), 0.0), max(values.max(), 0.0)
    span = (vmax - vmin) or 1.0
    vmin, vmax = vmin - 0.05 * span, vmax + 0.05 * span

    def sx(step: float) -> float:
        return _ML + (_W - _ML - _MR) * step / h

    def sy(v: float) -> float:
        return _MT + (_H - _MT - _MB) * (vmax - v) / (vmax - vmin)

    pts = " ".join(f"{sx(i):.4f},{sy(v):.4f}" for i, v in enumerate(values))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white" stroke="none"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="#888" stroke-width="1"/>',
        f'<line x1="{_ML}" y1="{sy(0.0):.4f}" x2="{_W - _MR}" y2="{sy(0.0):.4f}" '
        'stroke="#444" stroke-width="1"/>',
        f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="2"/>',
        f'<text x="{_W / 2:.1f}" y="24" font-family="sans-serif" font-size="16" '
        f'text-anchor="middle">Response of {response} to a one-s.d. shock in {shock}</text>',
        f'<text x="{_W / 2:.1f}" y="{_H - 14}" font-family="sans-serif" font-size="12" '
        f'text-anchor="middle">steps (years)</text>',
    ]
    for step in range(0, h + 1, max(1, h // 10)):
        parts.append(
            f'<text x="{sx(step):.4f}" y="{_H - _MB + 18}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{step}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        v = vmin + frac * (vmax - vmin)
        parts.append(
            f'<text x="{_ML - 6}" y="{sy(v) + 4:.4f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{v:.4g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


class ReportBundle:
    """Named tables and plots plus the configuration that produced them."""

    def __init__(self, manifest_echo: str = "", dataset_checksum: str = ""):
        self.tables: dict[str, tuple[str, str]] = {}
        self.plots: dict[str, str] = {}
        self.manifest_echo = manifest_echo
        self.dataset_checksum = dataset_checksum

    def write(self, outdir: str | Path) -> None:
        # str paths, not Path objects: pathlib interns every path part, which
        # made the peak RSS of a long-lived process creep with every bundle
        out = os.fspath(outdir)
        os.makedirs(os.path.join(out, "tables"), exist_ok=True)
        if self.plots:
            os.makedirs(os.path.join(out, "plots"), exist_ok=True)
        files = {"manifest.echo.ini": self.manifest_echo, "dataset.checksum": self.dataset_checksum + "\n"}
        for name, (text, csv) in self.tables.items():
            files[f"tables/{name}.txt"] = text
            files[f"tables/{name}.csv"] = csv
        for name, svg in self.plots.items():
            files[f"plots/{name}.svg"] = svg
        for rel, text in files.items():
            with open(os.path.join(out, rel), "wb") as f:
                f.write(text.encode("utf-8"))
