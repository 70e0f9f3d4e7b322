"""Execute a pipeline manifest into a report bundle.

Each step dispatches to one engine operation; results are rendered into the
bundle and kept by name, with the op that made them, so later steps (model
comparisons, impulse responses, scenario simulations) can reference earlier
fits of the right kind.  Steps whose optional data is absent are recorded as
skipped, never silently dropped, and do not fail the run.
"""
from __future__ import annotations

import re

from .cointegration import engle_granger
from .dataset import Dataset, DatasetError, Term, apply_term, load_dataset, parse_term
from .dynamics import ArSpec, chow_test, cochrane_orcutt_fit, compare_models, granger_causality
from .manifest import ManifestError, PipelineManifest, Step
from .regress import ModelSpec, ols_fit
from .report import ReportBundle, _csv, render_irf_plot, render_table
from .scenario import CapitalScenario, simulate_exports, simulate_unemployment
from .tsls import TslsSpec, tsls_fit
from .unitroot import AdfSpec, adf_test
from .var import impulse_response, var_fit, variance_decomposition

__all__ = ["StepError", "run_pipeline", "windowed_series"]


class StepError(Exception):
    def __init__(self, step: str, cause: Exception):
        super().__init__(f"step {step!r} failed: {cause}")
        self.step = step
        self.cause = cause


def _parse_terms(text: str) -> tuple[Term, ...]:
    return tuple(parse_term(part) for part in text.split(",") if part.strip())


def _parse_window(text: str | None) -> tuple[int, int] | None:
    if text is None:
        return None
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise ManifestError(f"bad sample/window {text!r}; expected YYYY:YYYY") from None


def _number(step: Step, key: str, text: str, kind=int, minimum: int | None = None):
    """``text``, a value of ``key``, as an int (or ``kind``); a bad value is a manifest error."""
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or (minimum is not None and value < minimum):
        expected = ("an integer" if kind is int else "a number") + (
            f" >= {minimum}" if minimum is not None else "")
        raise ManifestError(f"step {step.name!r}: bad {key} {text!r}; expected {expected}")
    return value


def _parse_bool(text: str | None, default: bool) -> bool:
    if text is None:
        return default
    if text.lower() in ("true", "yes", "1"):
        return True
    if text.lower() in ("false", "no", "0"):
        return False
    raise ManifestError(f"bad boolean {text!r}")


def _model_spec(step: Step) -> ModelSpec:
    return ModelSpec(
        dependent=parse_term(step.require("dependent")),
        regressors=_parse_terms(step.require("regressors")),
        include_constant=_parse_bool(step.get("constant"), True),
        sample=_parse_window(step.get("sample")),
    )


def _missing_series(step: Step, dataset: Dataset, optional: tuple[str, ...]) -> str | None:
    """The name of a required-but-absent optional series, if any."""
    for name in step.get_all("requires"):
        for part in name.split(","):
            part = part.strip()
            if part and part not in dataset:
                if part not in optional:
                    raise ManifestError(
                        f"step {step.name!r} requires unknown series {part!r} "
                        "that is not declared optional"
                    )
                return part
    return None


def _scenario_from(step: Step) -> CapitalScenario:
    overrides = {}
    for chunk in step.require("overrides").split():
        year, _, rate = chunk.partition(":")
        try:
            overrides[int(year)] = float(rate)
        except ValueError:
            raise ManifestError(f"bad override {chunk!r}; expected YYYY:rate") from None
    return CapitalScenario(step.name, overrides)


def _referenced(step: Step, key: str, results: dict, *ops: str):
    """The result of the earlier step that ``key`` names, which must be one of ``ops``."""
    name = step.require(key)
    if name not in results:
        raise ManifestError(f"step {step.name!r}: {key} = {name} names a step that did not run")
    op, result = results[name]
    if op not in ops:
        raise ManifestError(f"step {step.name!r}: {key} = {name} names a step of op {op!r}; "
                            f"expected op {' or '.join(map(repr, ops))}")
    return result


def run_pipeline(manifest: PipelineManifest, dataset: Dataset | None = None) -> ReportBundle:
    """Execute every step in order and return the rendered bundle."""
    if dataset is None:
        path = None if manifest.dataset_path in ("bundled", "") else manifest.dataset_path
        dataset = load_dataset(path)

    bundle = ReportBundle(manifest_echo=manifest.source_text, dataset_checksum=dataset.checksum)
    results: dict[str, tuple[str, object]] = {}
    summary_rows: list[list[str]] = [["step", "op", "status"]]

    for step in manifest.steps:
        missing = _missing_series(step, dataset, manifest.optional_series)
        if missing is not None:
            summary_rows.append([step.name, step.op, f"SKIPPED: data-unavailable ({missing})"])
            continue
        try:
            _run_step(step, dataset, results, bundle)
        except (ManifestError, DatasetError):
            raise
        except Exception as exc:
            raise StepError(step.name, exc) from exc
        summary_rows.append([step.name, step.op, "ok"])

    text = "Pipeline summary\n\n" + "\n".join(
        f"{r[0]:32s} {r[1]:22s} {r[2]}" for r in summary_rows[1:]
    ) + "\n"
    bundle.add_table("pipeline_summary", (text, _csv(summary_rows)))
    return bundle


def _run_step(step: Step, dataset: Dataset, results: dict, bundle: ReportBundle) -> None:
    op = step.op
    if op == "adf_battery":
        _run_adf_battery(step, dataset, bundle)
    elif op == "adf":
        spec = AdfSpec(step.get("deterministic", "constant"),
                       _number(step, "lag_order", step.get("lag_order", "1"), minimum=0))
        series = windowed_series(dataset, step.require("series"), step.get("window"))
        res = adf_test(series, spec)
        results[step.name] = (op, res)
        bundle.add_table(step.name, render_table(res, f"Unit-root test: {step.name}"))
    elif op == "ols":
        fit = ols_fit(dataset, _model_spec(step))
        results[step.name] = (op, fit)
        bundle.add_table(step.name, render_table(fit, f"OLS estimates: {step.name}"))
    elif op == "tsls":
        spec = TslsSpec(
            model=_model_spec(step),
            endogenous=tuple(s.strip() for s in step.require("endogenous").split(",") if s.strip()),
            instruments=_parse_terms(step.require("instruments")),
        )
        fit = tsls_fit(dataset, spec)
        results[step.name] = (op, fit)
        bundle.add_table(step.name, render_table(fit, f"Two-stage least squares: {step.name}"))
    elif op == "ar":
        spec = ArSpec(
            model=_model_spec(step),
            ar_lags=tuple(_number(step, "ar_lags", v, minimum=1)
                          for v in step.require("ar_lags").replace(",", " ").split()),
            max_iterations=_number(step, "max_iterations", step.get("max_iterations", "20"), minimum=1),
            convergence_rel_tol=_number(step, "tolerance", step.get("tolerance", "5e-5"), float),
        )
        res = cochrane_orcutt_fit(dataset, spec)
        results[step.name] = (op, res)
        bundle.add_table(step.name, render_table(res, f"Iterative AR estimates: {step.name}"))
    elif op == "compare":
        cmp_res = compare_models(_referenced(step, "a", results, "ar"),
                                 _referenced(step, "b", results, "ar"))
        results[step.name] = (op, cmp_res)
        bundle.add_table(step.name, render_table(cmp_res, f"Model comparison: {step.name}"))
    elif op == "coint":
        spec = _model_spec(step)
        orders = None
        if step.get("assume_i1") == "all":
            labels = [spec.dependent.rendered_label()] + [t.rendered_label() for t in spec.regressors]
            orders = {lbl: 1 for lbl in labels}
        residual_lag = _number(step, "residual_lag", step.get("residual_lag", "1"), minimum=0)
        res = engle_granger(dataset, spec, residual_lag, orders)
        results[step.name] = (op, res)
        bundle.add_table(step.name, render_table(res, f"Engle-Granger: {step.name}"))
    elif op == "granger":
        lags = _number(step, "lags", step.get("lags", "4"), minimum=1)
        res = granger_causality(
            dataset,
            parse_term(step.require("x")),
            parse_term(step.require("y")),
            lags,
            sample=_parse_window(step.get("sample")),
        )
        results[step.name] = (op, res)
        bundle.add_table(step.name, render_table(res, f"Granger causality: {step.name}"))
    elif op == "chow":
        spec = _model_spec(step)
        year_texts = step.require("break_years").split()
        years = [_number(step, "break_years", text) for text in year_texts]
        for year_text, year in zip(year_texts, years):
            res = chow_test(dataset, spec, year)
            name = f"{step.name}_{year_text}"
            results[name] = (op, res)
            bundle.add_table(name, render_table(res, f"Chow test at {year_text}"))
    elif op == "var":
        model = var_fit(
            dataset,
            _parse_terms(step.require("variables")),
            _number(step, "lags", step.get("lags", "4"), minimum=1),
            _parse_window(step.get("sample")),
        )
        results[step.name] = (op, model)
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
        bundle.add_table(step.name, ("\n".join(rows) + "\n", _csv(csv_rows)))
    elif op == "irf":
        model = _referenced(step, "var", results, "var")
        irf = impulse_response(model, _number(step, "horizon", step.get("horizon", "10"), minimum=0))
        results[step.name] = (op, irf)
        csv_rows = [["shock", "response", "step", "value"]]
        text_rows = [f"Orthogonalized impulse responses (ordering: {' -> '.join(irf.ordering)})", ""]
        for shock in irf.ordering:
            for resp in irf.ordering:
                vals = irf.response(shock, resp)
                text_rows.append(f"{resp} <- {shock}: " + " ".join(f"{v:.5g}" for v in vals))
                for h, v in enumerate(vals):
                    csv_rows.append([shock, resp, h, float(v)])
        bundle.add_table(step.name, ("\n".join(text_rows) + "\n", _csv(csv_rows)))
        for spec_text in step.get_all("plot"):
            shock_lbl, _, resp_lbl = spec_text.partition("->")
            shock_lbl, resp_lbl = shock_lbl.strip(), resp_lbl.strip()
            svg = render_irf_plot(irf, shock_lbl, resp_lbl)
            bundle.add_plot(f"{step.name}_{_slug(shock_lbl)}_to_{_slug(resp_lbl)}", svg)
    elif op == "fevd":
        model = _referenced(step, "var", results, "var")
        fevd = variance_decomposition(model, _number(step, "horizon", step.get("horizon", "10"),
                                                     minimum=0))
        results[step.name] = (op, fevd)
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
        bundle.add_table(step.name, ("\n".join(text_rows) + "\n", _csv(csv_rows)))
    elif op in ("simulate_unemployment", "simulate_exports"):
        fit = _referenced(step, "fit", results, "ols", "tsls")
        scenario = _scenario_from(step)
        window = _parse_window(step.require("window"))
        growth = _evaluated(dataset, step.require("capital"))
        log_growth = _parse_bool(step.get("log_growth"), True)
        label = step.get("capital_label", "d_Ln(K)")
        if op == "simulate_unemployment":
            res = simulate_unemployment(
                fit, scenario, window, _number(step, "eap", step.require("eap"), float),
                dataset.get(step.require("unemployment")), growth,
                capital_label=label, as_log_growth=log_growth,
            )
        else:
            res = simulate_exports(
                fit, scenario, window,
                _number(step, "terminal_actual_usd", step.require("terminal_actual_usd"), float),
                dataset.get(step.require("exports")), growth,
                capital_label=label, as_log_growth=log_growth,
            )
        results[step.name] = (op, res)
        bundle.add_table(step.name, _scenario_table(res, step.name))
    else:
        raise ManifestError(f"step {step.name!r}: unknown op {op!r}")


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", text).strip("_").lower()


def _evaluated(dataset: Dataset, term_text: str):
    return apply_term(dataset, parse_term(term_text))


def windowed_series(dataset: Dataset, term: Term | str, window_text: str | None):
    """Evaluate a term with the window applied to the base series first.

    ``term`` is a parsed ``Term`` or its text.  Windowing before transforming
    matches subsample-then-transform tool behaviour: a difference over a
    1975-2010 window starts in 1976.
    """
    if isinstance(term, str):
        term = parse_term(term)
    w = _parse_window(window_text)
    if w is None:
        return apply_term(dataset, term)
    base = dataset.get(term.base).window(*w)
    return apply_term(Dataset({base.name: base}), term)


def _run_adf_battery(step: Step, dataset: Dataset, bundle: ReportBundle) -> None:
    window = step.get("window")
    rows_text: list[list[str]] = [["Variable", "tau", "p-value", "Deterministic", "Lags", "Decision at 5%"]]
    csv_rows: list[list] = [["variable", "tau", "p_value", "deterministic", "lag_order", "decision"]]
    for row in step.get_all("row"):
        parts = [p.strip() for p in row.split(";")]
        if len(parts) != 3:
            raise ManifestError(f"bad battery row {row!r}; expected 'term ; deterministic ; lag'")
        term_text, det, lag_text = parts
        term = parse_term(term_text)
        if term.base not in dataset:
            rows_text.append([term.rendered_label(), "-", "-", det, lag_text,
                              "SKIPPED: data-unavailable"])
            csv_rows.append([term.rendered_label(), "", "", det, lag_text, "skipped"])
            continue
        series = windowed_series(dataset, term, window)
        res = adf_test(series, AdfSpec(det, _number(step, "row", lag_text, minimum=0)))
        rows_text.append([
            term.rendered_label(), f"{res.t_stat:.6g}", f"{res.p_value:.4f}", det, lag_text,
            "reject" if res.reject_5pct else "fail to reject",
        ])
        csv_rows.append([term.rendered_label(), res.t_stat, res.p_value, det, lag_text,
                         "reject" if res.reject_5pct else "fail_to_reject"])
    widths = [max(len(r[i]) for r in rows_text) for i in range(6)]
    lines = ["Unit-root battery" + (f" (window {window})" if window else ""), ""]
    for r in rows_text:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    bundle.add_table(step.name, ("\n".join(lines) + "\n", _csv(csv_rows)))


def _scenario_table(res, name: str) -> tuple[str, str]:
    b, c = res.baseline_path, res.counterfactual_path
    lines = [f"Scenario: {name}", "", "Year  Baseline      Counterfactual"]
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
