"""Execute a pipeline manifest into a report bundle.

``OPS`` maps each op to its parse function and its table title.  A parse
function reads every value of a step through one parse context, by its kind,
builds the spec its engine takes (whose constructor refuses what needs no
data) and returns the step's run function.  ``run_steps`` parses every step
before it runs any, so a bad value anywhere in a manifest is a
``ManifestError`` naming the step, the key and the value.  Each result is kept
by step name for later steps (model comparisons, impulse responses, scenario
simulations) and rendered into the bundle.  A series a step reads that the
dataset lacks is a ``ManifestError`` unless ``[pipeline] optional`` lists it;
then the step (for the unit-root battery, the row), and every step that
references it, is recorded as skipped, never silently dropped.

The run functions look the engine up through this module's global names when
they run, so a tracer that patches those names sees every engine call.
"""
from __future__ import annotations

import math

from .cointegration import engle_granger, relation_size
from .dataset import Dataset, Term, TermError, _slug, apply_term, parse_term
from .dynamics import ArSpec, GrangerSpec, chow_test, cochrane_orcutt_fit, compare_models
from .dynamics import granger_causality, same_dependent
from .manifest import ManifestError, PipelineManifest, Step, StepError, one_value
from .regress import EstimationError, ModelSpec, ols_fit, year_window
from .report import ReportBundle, _csv, render_irf_plot, render_table
from .scenario import CapitalScenario, equation, simulate_exports, simulate_unemployment
from .tsls import TslsSpec, tsls_fit
from .unitroot import DETERMINISTICS, AdfBattery, AdfSpec, adf_lags, adf_test
from .var import VarSpec, impulse_response, response_horizon, var_fit, variance_decomposition

__all__ = ["OPS", "StepError", "run_pipeline", "run_steps", "windowed_series"]


_REQUIRED = object()
_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _number(kind):
    """The parser of a finite ``kind`` (int or float: no NaN or infinity), and what it expects."""
    def parse(text: str):
        value = kind(text)
        if not abs(value) < math.inf:
            raise ValueError(text)
        return value

    return parse, "an integer" if kind is int else "a finite number"


def _window(text: str) -> tuple[int, int]:
    """``YYYY:YYYY`` as a ``(first, last)`` year pair."""
    lo, hi = (int(year) for year in text.split(":"))
    return lo, hi


class _Parse:
    """One step being parsed: every reader of its values, and what its parse yields.

    Each reader notes the key it reads in ``read``, gives a missing key its
    default text (``None`` leaves it to the spec; without one it fails) and
    raises ``ManifestError`` naming the step, the key and the value when a value
    is bad.  Every series the step reads goes through ``present``: ``missing`` is
    the first absent one, or the reason a step this one references was skipped,
    and skips the step.  ``earlier`` maps each earlier step's name to its op,
    missing series and ``shared`` (it holds no ``_Parse``, so a parse leaves no
    reference cycle) and ``writers`` each claimed bundle file to its step and
    value text.  ``run`` is the step's run function, ``shared`` what later steps
    read of it (a fit's ``ModelSpec`` or ``ArSpec``, a VAR's ``VarSpec``),
    ``plots`` maps each plot's file name to its shock and response (``irf``) and
    ``tables`` maps each table name the step writes to the key and value text
    that name it (the step's name, or a Chow break year).
    """

    def __init__(self, step: Step, dataset: Dataset, optional: tuple[str, ...],
                 earlier: dict, writers: dict):
        self.step, self._dataset, self._optional = step, dataset, optional
        self.earlier, self._writers = earlier, writers
        self.read: set[str] = set()
        self.missing: str | None = None
        self.run, self.shared, self.plots = None, None, {}
        self.tables = {step.name: ("name", step.name)}

    def all(self, key: str) -> list[str]:
        self.read.add(key)
        return self.step.options.get(key, [])

    def bad(self, key: str, text: str, reason: str, value: str | None = None):
        return ManifestError(f"{text!r}; {reason}", self.step.name, key,
                             text if value is None else value, f"bad {key} ")

    def parse(self, key: str, text: str, parse, expected: str):
        """``parse(text)`` for a value of ``key``; a value, term or spec error means a bad value."""
        try:
            return parse(text)
        except (ValueError, LookupError, TermError, EstimationError):
            raise self.bad(key, text, f"expected {expected}") from None

    def value(self, key: str, parse=None, expected: str = "", default=_REQUIRED):
        """``key``'s one text through ``parse``; a missing key takes ``default``, parsed too."""
        text = one_value(self.all(key), key, self.step.name, default)
        if text is _REQUIRED:
            raise ManifestError(f"missing required key {key!r}", self.step.name, key)
        return text if text is None or parse is None else self.parse(key, text, parse, expected)

    def items(self, key: str, parse, expected: str, sep: str | None = None) -> tuple:
        """One or more items split at commas and ``sep`` (None: whitespace), each parsed."""
        text = self.value(key)
        items = list(filter(None, map(str.strip, text.replace(",", sep or " ").split(sep))))
        if not items:
            raise self.bad(key, text, f"expected {expected}")
        return tuple(self.parse(key, item, parse, expected) for item in items)

    def checked(self, make, *args, **given):
        """``make(*args, **given)``, each ``None`` given left to ``make``'s default.

        Its ``EstimationError`` makes the value of the key that the error names bad.
        """
        try:
            return make(*args, **{name: x for name, x in given.items() if x is not None})
        except EstimationError as exc:
            raise self.bad(exc.key, self.step.options[exc.key][0], str(exc)) from None

    def claim(self, path: str, key: str, text: str) -> None:
        """Note that the step writes ``path``; a file claimed before makes ``text`` bad."""
        if path in self._writers:
            first, named = self._writers[path]
            where = ("reserved for the pipeline summary" if first is None else
                     f"also written by plot {named!r}" if first == self.step.name else
                     f"also written by step {first!r}")
            raise self.bad(key, text, f"its file {path} is {where}")
        self._writers[path] = self.step.name, text

    def integer(self, key: str, default=_REQUIRED) -> int:
        return self.value(key, *_number(int), default)

    def number(self, key: str, default=_REQUIRED) -> float:
        return self.value(key, *_number(float), default)

    def choice(self, key: str, choices: tuple[str, ...], default=_REQUIRED) -> str:
        return self.value(key, lambda t: choices[choices.index(t)],
                          f"one of {', '.join(choices)}", default)

    def window(self, key: str, default=_REQUIRED) -> tuple[int, int] | None:
        return self.value(key, _window, "YYYY:YYYY", default)

    def present(self, key: str, series: str) -> bool:
        """Whether the dataset holds ``series``; an absent one must be declared optional."""
        if series in self._dataset:
            return True
        if series not in self._optional:
            raise ManifestError(f"unknown series {series!r} that is not declared optional",
                                self.step.name, key, series, f"{key}: ")
        return False

    def need(self, key: str, *series: str) -> None:
        """Skip the step unless the dataset holds each of ``series``."""
        for name in series:
            if not self.present(key, name):
                self.missing = self.missing or name

    def term(self, key: str) -> Term:
        term = self.value(key, parse_term, "a term such as ln(GDP)@1")
        self.need(key, term.base)
        return term

    def terms(self, key: str) -> tuple[Term, ...]:
        terms = self.value(key, lambda text: tuple(
            parse_term(t) for t in text.split(",") if t.strip()),
            "comma-separated terms such as ln(GDP)@1")
        self.need(key, *(t.base for t in terms))
        return terms

    def model(self) -> ModelSpec:
        dependent, regressors = self.term("dependent"), self.terms("regressors")
        constant = self.value("constant", lambda t: _BOOLEANS[t.lower()], "true or false", "true")
        return self.checked(ModelSpec, dependent, regressors, constant, self.window("sample", None))

    def ref(self, key: str, *ops: str) -> str:
        """The earlier step that ``key`` names, of one of ``ops``; if it was skipped, so is this."""
        name = self.value(key)
        op, missing, _ = self.earlier.get(name, (None, None, None))
        if op in ops:
            self.missing = self.missing or missing
            return name
        reason = ("names a step that did not run" if op is None else
                  f"names a step of op {op!r}; expected op {' or '.join(map(repr, ops))}")
        raise ManifestError(reason, self.step.name, key, name, f"{key} = {name} ")


def windowed_series(dataset: Dataset, term: Term, window: tuple[int, int] | None):
    """Evaluate a term with the ``(first, last)`` window applied to the base series first.

    Windowing before transforming matches subsample-then-transform tool
    behaviour: a difference over a 1975-2010 window starts in 1976.
    """
    if window is None:
        return apply_term(dataset, term)
    base = dataset.get(term.base).window(*window)
    return apply_term(Dataset({base.name: base}), term)


def _adf_battery(v: _Parse):
    def row(text: str):  # an absent optional series skips only its row
        term, det, lag = (part.strip() for part in text.split(";"))
        spec = AdfSpec(det, int(lag))
        term = parse_term(term)
        return term, spec, v.present("row", term.base)

    expected = f"'term ; deterministic ; lag >= 0' with one of {', '.join(DETERMINISTICS)}"
    rows = [v.parse("row", text, row, expected) for text in v.all("row")]
    window = v.checked(year_window, v.window("window", None), "window")

    def run(dataset, results):
        return AdfBattery(window, tuple(
            (term.rendered_label(), spec.deterministic, spec.lag_order,
             adf_test(windowed_series(dataset, term, window), spec) if present else None)
            for term, spec, present in rows))

    return run


def _adf(v: _Parse):
    series, window = v.term("series"), v.checked(year_window, v.window("window", None), "window")
    spec = v.checked(AdfSpec, deterministic=v.value("deterministic", default=None),
                     lag_order=v.integer("lag_order", None))
    return lambda dataset, results: adf_test(windowed_series(dataset, series, window), spec)


def _ols(v: _Parse):
    model = v.shared = v.model()
    return lambda dataset, results: ols_fit(dataset, model)


def _tsls(v: _Parse):
    model = v.shared = v.model()
    endogenous = v.items("endogenous", str, "one or more regressor labels", ",")
    spec = v.checked(TslsSpec, model, endogenous, v.terms("instruments"))
    return lambda dataset, results: tsls_fit(dataset, spec)


def _ar(v: _Parse):
    spec = v.shared = v.checked(ArSpec, v.model(), v.items("ar_lags", *_number(int)),
                                max_iterations=v.integer("max_iterations", None),
                                convergence_rel_tol=v.number("tolerance", None))
    return lambda dataset, results: cochrane_orcutt_fit(dataset, spec)


def _compare(v: _Parse):
    a, b = v.ref("a", "ar"), v.ref("b", "ar")
    v.checked(same_dependent, *(v.earlier[s][2].model.dependent for s in (a, b)))
    return lambda dataset, results: compare_models(results[a], results[b])


def _coint(v: _Parse):
    model, lag = v.model(), v.checked(adf_lags, v.integer("residual_lag", "1"), "residual_lag")
    v.checked(relation_size, model)
    v.choice("assume_i1", ("all",), None)  # declares every input I(1), so nothing is left to check
    return lambda dataset, results: engle_granger(dataset, model, lag)


def _granger(v: _Parse):
    spec = v.checked(GrangerSpec, v.term("x"), v.term("y"), lags=v.integer("lags", None),
                     sample=v.window("sample", None))
    return lambda dataset, results: granger_causality(dataset, spec)


def _chow(v: _Parse):
    model, years = v.model(), v.items("break_years", *_number(int))
    if len(set(years)) < len(years):
        raise v.bad("break_years", v.step.options["break_years"][0], "a break year is repeated")
    v.tables = {f"{v.step.name}_{year}": ("break_years", str(year)) for year in years}
    return lambda dataset, results: {year: chow_test(dataset, model, year) for year in years}


def _var(v: _Parse):
    spec = v.shared = v.checked(VarSpec, v.terms("variables"), lags=v.integer("lags", None),
                                sample=v.window("sample", None))
    return lambda dataset, results: var_fit(dataset, spec)


def _fevd(v: _Parse):
    var, horizon = v.ref("var", "var"), v.checked(response_horizon, v.integer("horizon", "10"))
    return lambda dataset, results: variance_decomposition(results[var], horizon)


def _irf(v: _Parse):
    var, plots = v.ref("var", "var"), v.all("plot")
    horizon = v.checked(response_horizon, v.integer("horizon", "10"))
    if plots and horizon < 1:
        raise v.bad("horizon", v.step.options["horizon"][0], "expected 1 or more steps after "
                    "impact: a plot needs 2 points")
    labels = v.earlier[var][2].labels
    for text in plots:
        pair = tuple(label.strip() for label in text.partition("->")[::2])
        for label in pair:
            if label not in labels:
                raise v.bad("plot", text, "expected 'shock -> response', each one of "
                            + ", ".join(labels), label)
        name = f"{v.step.name}_{_slug(pair[0])}_to_{_slug(pair[1])}"
        v.claim(f"plots/{name}.svg", "plot", text)  # labels that slug alike write one file
        v.plots[name] = pair
    return lambda dataset, results: impulse_response(results[var], horizon)


def _overrides(text: str) -> dict[int, float]:
    pairs = [(int(year), float(rate)) for year, rate in (c.split(":") for c in text.split())]
    if len(dict(pairs)) < len(pairs):  # a year given twice
        raise ValueError(text)
    return dict(pairs)


def _simulate(v: _Parse):
    fit, unemployment = v.ref("fit", "ols", "tsls"), v.step.op == "simulate_unemployment"
    model = v.earlier[fit][2]  # the fit's ModelSpec; the op reports a level or a log path
    dependent, kind = model.dependent, ("a series' level" if unemployment else "ln(<series>)")
    if (dependent.transform, dependent.lag) != ("level" if unemployment else "ln", 0):
        raise v.bad("fit", fit, f"expected a step whose dependent is {kind}; its dependent is "
                    + dependent.rendered_label())
    scenario = v.checked(CapitalScenario, v.step.name, v.value(
        "overrides", _overrides, "YYYY:rate pairs, each year once"))
    window = v.window("window")
    capital, _ = v.checked(equation, model, v.value("capital"), f"step {fit!r}")
    v.checked(scenario.check_window, window)
    amount = v.number("eap" if unemployment else "terminal_actual_usd")

    def run(dataset, results):  # the simulated series is the fit's dependent's
        simulate = simulate_unemployment if unemployment else simulate_exports
        return simulate(results[fit], scenario, window, amount,
                        dataset.get(dependent.base), apply_term(dataset, capital))

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


def _parse_steps(steps, dataset: Dataset, optional: tuple[str, ...]) -> list[_Parse]:
    """Parse every step, in order; the first bad value or unknown key raises ``ManifestError``.

    A value naming a table or plot file that another step or plot writes, or
    ``pipeline_summary``, is a bad value too.
    """
    writers: dict[str, tuple[str | None, str]] = {"tables/pipeline_summary.txt": (None, "")}
    earlier: dict[str, tuple[str, str | None, object]] = {}
    plan = []
    for step in steps:
        if step.op not in OPS:
            raise ManifestError(f"unknown op {step.op!r}", step.name, "op", step.op)
        v = _Parse(step, dataset, optional, earlier, writers)
        for text in v.all("requires"):
            v.need("requires", *filter(None, map(str.strip, text.split(","))))
        v.run = OPS[step.op][0](v)
        unknown = [key for key in step.options if key not in v.read]
        if unknown:
            raise ManifestError(f"unknown key {unknown[0]!r} for op {step.op!r}", step.name,
                                unknown[0])
        for table, (key, text) in v.tables.items():
            v.claim(f"tables/{table}.txt", key, text)
        earlier[step.name] = step.op, v.missing, v.shared
        plan.append(v)
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
            items = out.items() if isinstance(out, dict) else [(None, out)]
            for table, (key, result) in zip(v.tables, items, strict=True):
                bundle.tables[table] = render_table(result, OPS[op][1].format(name=name, key=key))
            for plot, (shock, response) in v.plots.items():
                bundle.plots[plot] = render_irf_plot(out, shock, response)
        except Exception as exc:
            raise StepError(name, exc) from exc
        summary.append([name, op, "ok"])
    return summary


def run_pipeline(manifest: PipelineManifest, dataset: Dataset) -> ReportBundle:
    """Parse every step of the manifest, then run each on ``dataset``; return the bundle."""
    bundle = ReportBundle(manifest_echo=manifest.source_text, dataset_checksum=dataset.checksum)
    rows = run_steps(manifest.steps, dataset, bundle, manifest.optional_series)
    text = "Pipeline summary\n\n" + "\n".join(f"{r[0]:32s} {r[1]:22s} {r[2]}" for r in rows) + "\n"
    bundle.tables["pipeline_summary"] = text, _csv([["step", "op", "status"], *rows])
    return bundle
