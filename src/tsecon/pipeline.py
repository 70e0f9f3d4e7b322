"""Execute a pipeline manifest into a report bundle.

``OPS`` maps each op to its parse function and its table title.  A parse
function reads every value of a step by its kind and returns the step's run
function, which calls the engine on the parsed values.  ``run_steps`` parses
every step before it runs any, so a bad value anywhere in a manifest is a
``ManifestError`` naming the step, the key and the value.  Each result is kept
by step name for later steps (model comparisons, impulse responses, scenario
simulations) and rendered into the bundle.  Steps whose optional data is
absent are recorded as skipped, never silently dropped, and do not fail the run.

The run functions look the engine up through this module's global names when
they run, so a tracer that patches those names sees every engine call.
"""
from __future__ import annotations

import math

from .cointegration import engle_granger
from .dataset import Dataset, DatasetError, Term, _slug, apply_term, load_dataset, parse_term
from .dynamics import ArSpec, chow_test, cochrane_orcutt_fit, compare_models, granger_causality
from .manifest import ManifestError, PipelineManifest, Step, StepError
from .regress import ModelSpec, ols_fit
from .report import ReportBundle, _csv, render_irf_plot, render_table
from .scenario import CapitalScenario, simulate_exports, simulate_unemployment
from .tsls import TslsSpec, tsls_fit
from .unitroot import DETERMINISTICS, AdfBattery, AdfSpec, adf_test
from .var import impulse_response, var_fit, variance_decomposition

__all__ = ["OPS", "StepError", "run_pipeline", "run_steps", "windowed_series"]


class _Values:
    """One step being parsed, and what its parse yields.

    ``terms`` caches parsed term texts across the manifest; ``earlier`` maps
    each earlier step's name to that step and its missing series (it holds no
    ``_Values``, so a parse leaves no reference cycle).  ``run`` is the step's
    run function and ``plots`` its shock/response pairs (``irf`` only).
    """

    def __init__(self, step: Step, missing: str | None, terms: dict[str, Term], earlier: dict):
        self.step, self.missing, self._terms, self._earlier = step, missing, terms, earlier
        self.run = None
        self.plots: tuple[tuple[str, str], ...] = ()

    def term(self, key: str) -> Term:
        return self.step.value(key, self.cached_term, "a term such as ln(GDP)@1")

    def terms(self, key: str, step: Step | None = None) -> tuple[Term, ...]:
        """``key`` of this step, or of the earlier ``step``, as comma-separated terms."""
        return (step or self.step).value(
            key, lambda t: tuple(self.cached_term(x) for x in t.split(",") if x.strip()),
            "comma-separated terms such as ln(GDP)@1")

    def cached_term(self, text: str) -> Term:
        text = text.strip()
        if text not in self._terms:
            self._terms[text] = parse_term(text)
        return self._terms[text]

    def model(self) -> ModelSpec:
        return ModelSpec(self.term("dependent"), self.terms("regressors"),
                         self.step.boolean("constant", "true"), self.step.window("sample", None))

    def ref(self, key: str, *ops: str) -> Step:
        """The earlier step that ``key`` names; it must be of one of ``ops`` and have run."""
        name = self.step.require(key)
        other, missing = self._earlier.get(name, (None, None))
        if other is not None and other.op not in ops:
            reason = f"names a step of op {other.op!r}; expected op {' or '.join(map(repr, ops))}"
        elif other is None or (missing and not self.missing):
            reason = "names a step that did not run"
        else:
            return other
        raise ManifestError(f"{key} = {name} {reason}", self.step.name, key, name)


def windowed_series(dataset: Dataset, term: Term, window: tuple[int, int] | None):
    """Evaluate a term with the ``(first, last)`` window applied to the base series first.

    Windowing before transforming matches subsample-then-transform tool
    behaviour: a difference over a 1975-2010 window starts in 1976.
    """
    if window is None:
        return apply_term(dataset, term)
    base = dataset.get(term.base).window(*window)
    return apply_term(Dataset({base.name: base}), term)


def _adf_battery(v: _Values):
    def row(text: str):
        term, det, lag = (part.strip() for part in text.split(";"))
        if det not in DETERMINISTICS or int(lag) < 0:
            raise ValueError(text)
        return v.cached_term(term), det, int(lag)

    expected = f"'term ; deterministic ; lag >= 0' with one of {', '.join(DETERMINISTICS)}"
    rows = [v.step.parse("row", text, row, expected) for text in v.step.get_all("row")]
    window = v.step.window("window", None)

    def run(dataset, results):
        return AdfBattery(window, tuple(
            (term.rendered_label(), det, lag, adf_test(windowed_series(dataset, term, window),
                                                       AdfSpec(det, lag))
             if term.base in dataset else None)
            for term, det, lag in rows))

    return run


def _adf(v: _Values):
    series, window = v.term("series"), v.step.window("window", None)
    spec = AdfSpec(v.step.choice("deterministic", DETERMINISTICS, "constant"),
                   v.step.integer("lag_order", "1", minimum=0))
    return lambda dataset, results: adf_test(windowed_series(dataset, series, window), spec)


def _ols(v: _Values):
    model = v.model()
    return lambda dataset, results: ols_fit(dataset, model)


def _tsls(v: _Values):
    model, instruments = v.model(), v.terms("instruments")
    endogenous = tuple(s.strip() for s in v.step.value("endogenous").split(",") if s.strip())
    return lambda dataset, results: tsls_fit(dataset, TslsSpec(model, endogenous, instruments))


def _ar(v: _Values):
    model, lags = v.model(), v.step.integers("ar_lags", minimum=1)
    iterations = v.step.integer("max_iterations", "20", minimum=1)
    tolerance = v.step.number("tolerance", "5e-5")
    return lambda dataset, results: cochrane_orcutt_fit(
        dataset, ArSpec(model, lags, iterations, tolerance))


def _compare(v: _Values):
    a, b = v.ref("a", "ar").name, v.ref("b", "ar").name
    return lambda dataset, results: compare_models(results[a], results[b])


def _coint(v: _Values):
    model, lag = v.model(), v.step.integer("residual_lag", "1", minimum=0)
    orders = None
    if v.step.value("assume_i1", default=None) == "all":
        orders = {t.rendered_label(): 1 for t in (model.dependent, *model.regressors)}
    return lambda dataset, results: engle_granger(dataset, model, lag, orders)


def _granger(v: _Values):
    x, y, sample = v.term("x"), v.term("y"), v.step.window("sample", None)
    lags = v.step.integer("lags", "4", minimum=1)
    return lambda dataset, results: granger_causality(dataset, x, y, lags, sample=sample)


def _chow(v: _Values):
    model, years = v.model(), v.step.integers("break_years")
    return lambda dataset, results: {year: chow_test(dataset, model, year) for year in years}


def _var(v: _Values):
    variables, sample = v.terms("variables"), v.step.window("sample", None)
    lags = v.step.integer("lags", "4", minimum=1)
    return lambda dataset, results: var_fit(dataset, variables, lags, sample)


def _fevd(v: _Values):
    var, horizon = v.ref("var", "var").name, v.step.integer("horizon", "10", minimum=0)
    return lambda dataset, results: variance_decomposition(results[var], horizon)


def _irf(v: _Values):
    var_step, plots = v.ref("var", "var"), v.step.get_all("plot")
    horizon = v.step.integer("horizon", "10", minimum=1 if plots else 0)  # a plot needs 2 points
    labels = [t.rendered_label() for t in v.terms("variables", var_step)]
    v.plots = tuple(tuple(label.strip() for label in text.partition("->")[::2]) for text in plots)
    for text, pair in zip(plots, v.plots):
        for label in pair:
            if label not in labels:
                raise ManifestError(f"bad plot {text!r}; expected 'shock -> response', each "
                                    f"one of {', '.join(labels)}", v.step.name, "plot", label)
    var = var_step.name
    return lambda dataset, results: impulse_response(results[var], horizon)


def _overrides(text: str) -> dict[int, float]:
    overrides: dict[int, float] = {}
    for year, rate in (chunk.split(":") for chunk in text.split()):
        year, rate = int(year), float(rate)
        if year in overrides or not -1.0 < rate < math.inf:  # NaN fails too
            raise ValueError(text)
        overrides[year] = rate
    return overrides


def _simulate(v: _Values):
    step, kind = v.step, v.step.op.partition("_")[2]  # kind is also the key naming the series
    fit, series = v.ref("fit", "ols", "tsls").name, step.value(kind)
    scenario = CapitalScenario(step.name, step.value("overrides", _overrides, (
        "YYYY:rate pairs, each year once and each rate a finite number > -1")))
    window, capital = step.window("window"), v.term("capital")
    amount = step.number("eap" if kind == "unemployment" else "terminal_actual_usd")
    label = step.value("capital_label", default="d_Ln(K)")
    log_growth = step.boolean("log_growth", "true")

    def run(dataset, results):
        simulate = simulate_unemployment if kind == "unemployment" else simulate_exports
        return simulate(results[fit], scenario, window, amount, dataset.get(series),
                        apply_term(dataset, capital), capital_label=label, as_log_growth=log_growth)

    return run


# op: (parse, table title); a run that returns a dict makes one table per key
OPS = {
    "adf_battery": (_adf_battery, ""),
    "adf": (_adf, "Unit-root test: {name}"),
    "ols": (_ols, "OLS estimates: {name}"),
    "tsls": (_tsls, "Two-stage least squares: {name}"),
    "ar": (_ar, "Iterative AR estimates: {name}"),
    "compare": (_compare, "Model comparison: {name}"),
    "coint": (_coint, "Engle-Granger: {name}"),
    "granger": (_granger, "Granger causality: {name}"),
    "chow": (_chow, "Chow test at {key}"),
    "var": (_var, ""),
    "irf": (_irf, ""),
    "fevd": (_fevd, ""),
    "simulate_unemployment": (_simulate, "Scenario: {name}"),
    "simulate_exports": (_simulate, "Scenario: {name}"),
}


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


class _Read(dict):
    """A step's options that remember which keys a parse looked up."""

    def __init__(self, options: dict[str, list[str]]):
        super().__init__(options)
        self.read: set[str] = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _parse_steps(steps, dataset: Dataset, optional: tuple[str, ...]) -> list[_Values]:
    """Parse every step, in order; the first bad value or unknown key raises ``ManifestError``."""
    terms: dict[str, Term] = {}
    earlier: dict[str, tuple[Step, str | None]] = {}
    plan = []
    for step in steps:
        if step.op not in OPS:
            raise ManifestError(f"unknown op {step.op!r}", step.name, "op", step.op)
        step = Step(step.name, step.op, _Read(step.options))
        values = _Values(step, _missing_series(step, dataset, optional), terms, earlier)
        values.run = OPS[step.op][0](values)
        unknown = [key for key in step.options if key not in step.options.read]
        if unknown:
            raise ManifestError(f"unknown key {unknown[0]!r} for op {step.op!r}", step.name,
                                unknown[0])
        earlier[step.name] = step, values.missing
        plan.append(values)
    return plan


def run_steps(steps, dataset: Dataset, bundle: ReportBundle,
              optional: tuple[str, ...] = ()) -> list[list[str]]:
    """Parse every step, then run each into ``bundle``; return ``[step, op, status]`` rows."""
    results: dict[str, object] = {}
    summary = []
    for v in _parse_steps(steps, dataset, optional):
        name, op = v.step.name, v.step.op
        if v.missing:
            summary.append([name, op, f"SKIPPED: data-unavailable ({v.missing})"])
            continue
        try:
            out = results[name] = v.run(dataset, results)
            for key, result in out.items() if isinstance(out, dict) else [(None, out)]:
                bundle.tables[name if key is None else f"{name}_{key}"] = render_table(
                    result, OPS[op][1].format(name=name, key=key))
            for shock, response in v.plots:
                bundle.plots[f"{name}_{_slug(shock)}_to_{_slug(response)}"] = render_irf_plot(
                    out, shock, response)
        except (ManifestError, DatasetError):
            raise
        except Exception as exc:
            raise StepError(name, exc) from exc
        summary.append([name, op, "ok"])
    return summary


def run_pipeline(manifest: PipelineManifest, dataset: Dataset | None = None) -> ReportBundle:
    """Parse every step of the manifest, then run each in order; return the rendered bundle."""
    if dataset is None:
        dataset = load_dataset(manifest.dataset_location)
    bundle = ReportBundle(manifest_echo=manifest.source_text, dataset_checksum=dataset.checksum)
    rows = run_steps(manifest.steps, dataset, bundle, manifest.optional_series)
    text = "Pipeline summary\n\n" + "\n".join(f"{r[0]:32s} {r[1]:22s} {r[2]}" for r in rows) + "\n"
    bundle.tables["pipeline_summary"] = text, _csv([["step", "op", "status"], *rows])
    return bundle
