"""Command-line interface.

``tsecon report`` replays the full bundled reproduction pipeline; the other
subcommands are thin wrappers over single engine operations.  Exit codes:
0 success (skipped optional steps are not errors), 2 manifest, usage or
output error, 3 dataset error, 4 estimation/step error.
"""
from __future__ import annotations

import gc
import os
import sys
from pathlib import Path

import click

from .dataset import DatasetError, load_dataset, parse_term
from .manifest import ManifestError, default_manifest_text, parse_manifest

# Each command imports the engine modules it uses in its own body, so a
# command that needs no estimation (``ingest``) never loads numpy.

EXIT_MANIFEST = 2
EXIT_DATASET = 3
EXIT_STEP = 4


def _load(dataset_path: str | None):
    path = dataset_path or os.environ.get("TSECON_DATASET") or None
    try:
        return load_dataset(path)
    except DatasetError as exc:
        click.echo(f"dataset error: {exc}", err=True)
        sys.exit(EXIT_DATASET)


def _run(fn):
    try:
        return fn()
    except click.ClickException:
        raise
    except ManifestError as exc:
        click.echo(f"manifest error: {exc}", err=True)
        sys.exit(EXIT_MANIFEST)
    except DatasetError as exc:
        click.echo(f"dataset error: {exc}", err=True)
        sys.exit(EXIT_DATASET)
    except Exception as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_STEP)


def _spec_from_flags(dependent, regressors, constant, sample):
    from .regress import ModelSpec

    return ModelSpec(
        dependent=parse_term(dependent),
        regressors=tuple(parse_term(t) for t in regressors.split(",") if t.strip()),
        include_constant=constant,
        sample=sample,
    )


def _window(ctx, param, text):
    """Option callback: parse ``YYYY:YYYY`` into a ``(first, last)`` year pair."""
    if not text:
        return None
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise click.BadParameter(f"{text!r} is not a YYYY:YYYY year window") from None


def _lags(ctx, param, text):
    """Option callback: parse a space- or comma-separated lag list such as ``1 2``."""
    try:
        return tuple(int(v) for v in text.replace(",", " ").split())
    except ValueError:
        raise click.BadParameter(f"{text!r} is not a list of integer lags") from None


def _overrides(ctx, param, text):
    """Option callback: parse ``YYYY:rate`` pairs into a ``{year: rate}`` dict."""
    overrides = {}
    for chunk in text.split():
        year, _, rate = chunk.partition(":")
        try:
            overrides[int(year)] = float(rate)
        except ValueError:
            raise click.BadParameter(f"{chunk!r} is not a YYYY:rate override") from None
    return overrides


@click.group()
def main():
    """Annual time-series econometrics engine and reproduction pipeline."""


@main.command()
@click.option("--dataset", default=None, help="Bundle directory or wide CSV (default: bundled).")
def ingest(dataset):
    """Validate a dataset bundle and print its checksum."""
    ds = _load(dataset)
    click.echo(f"series: {len(ds.series)}")
    for name in ds.names():
        s = ds.get(name)
        click.echo(f"  {name}: {s.start_year}-{s.end_year} ({len(s)} obs) [{s.unit}]")
    click.echo(f"checksum: {ds.checksum}")


@main.command()
@click.option("--dataset", default=None)
@click.option("--series", required=True, help="Term expression, e.g. 'ln(Inflation)'.")
@click.option("--det", default="constant",
              type=click.Choice(["none", "constant", "trend"]),
              help="'trend' means constant and trend.")
@click.option("--lags", default=1, type=click.IntRange(min=0))
@click.option("--window", default=None, callback=_window,
              help="YYYY:YYYY window applied before testing.")
def adf(dataset, series, det, lags, window):
    """Augmented Dickey-Fuller unit-root test."""
    from .pipeline import windowed_series
    from .report import render_table
    from .unitroot import AdfSpec, adf_test

    ds = _load(dataset)
    deterministic = "constant_and_trend" if det == "trend" else det

    def go():
        s = windowed_series(ds, series, window and f"{window[0]}:{window[1]}")
        res = adf_test(s, AdfSpec(deterministic, lags))
        click.echo(render_table(res)[0])

    _run(go)


@main.command("fit-ols")
@click.option("--dataset", default=None)
@click.option("--dependent", required=True)
@click.option("--regressors", required=True, help="Comma-separated term expressions.")
@click.option("--constant/--no-constant", default=True)
@click.option("--sample", default=None, callback=_window)
def fit_ols(dataset, dependent, regressors, constant, sample):
    """Ordinary least squares with the full diagnostic block."""
    from .regress import ols_fit
    from .report import render_table

    ds = _load(dataset)
    _run(lambda: click.echo(render_table(ols_fit(ds, _spec_from_flags(dependent, regressors, constant, sample)))[0]))


@main.command("fit-tsls")
@click.option("--dataset", default=None)
@click.option("--dependent", required=True)
@click.option("--regressors", required=True)
@click.option("--endogenous", required=True, help="Comma-separated regressor labels.")
@click.option("--instruments", required=True, help="Comma-separated term expressions.")
@click.option("--constant/--no-constant", default=True)
@click.option("--sample", default=None, callback=_window)
def fit_tsls(dataset, dependent, regressors, endogenous, instruments, constant, sample):
    """Two-stage least squares with an explicit instrument list."""
    from .report import render_table
    from .tsls import TslsSpec, tsls_fit

    ds = _load(dataset)

    def go():
        spec = TslsSpec(
            model=_spec_from_flags(dependent, regressors, constant, sample),
            endogenous=tuple(s.strip() for s in endogenous.split(",") if s.strip()),
            instruments=tuple(parse_term(t) for t in instruments.split(",") if t.strip()),
        )
        click.echo(render_table(tsls_fit(ds, spec))[0])

    _run(go)


@main.command("fit-ar")
@click.option("--dataset", default=None)
@click.option("--dependent", required=True)
@click.option("--regressors", required=True)
@click.option("--ar-lags", required=True, callback=_lags,
              help="Space- or comma-separated lag list, e.g. '1 2'.")
@click.option("--constant/--no-constant", default=True)
@click.option("--sample", default=None, callback=_window)
def fit_ar(dataset, dependent, regressors, ar_lags, constant, sample):
    """Iterative AR estimation (generalized quasi-differencing)."""
    from .dynamics import ArSpec, cochrane_orcutt_fit
    from .report import render_table

    ds = _load(dataset)

    def go():
        spec = ArSpec(
            model=_spec_from_flags(dependent, regressors, constant, sample),
            ar_lags=ar_lags,
        )
        click.echo(render_table(cochrane_orcutt_fit(ds, spec))[0])

    _run(go)


@main.command()
@click.option("--dataset", default=None)
@click.option("--dependent", required=True)
@click.option("--regressors", required=True)
@click.option("--constant/--no-constant", default=False)
@click.option("--sample", default=None, callback=_window)
@click.option("--residual-lag", default=1, type=click.IntRange(min=0))
def coint(dataset, dependent, regressors, constant, sample, residual_lag):
    """Engle-Granger two-step cointegration (inputs asserted I(1))."""
    from .cointegration import engle_granger
    from .report import render_table

    ds = _load(dataset)

    def go():
        spec = _spec_from_flags(dependent, regressors, constant, sample)
        labels = [spec.dependent.rendered_label()] + [t.rendered_label() for t in spec.regressors]
        res = engle_granger(ds, spec, residual_lag, {lbl: 1 for lbl in labels})
        click.echo(render_table(res)[0])

    _run(go)


@main.command()
@click.option("--dataset", default=None)
@click.option("--x", "x_term", required=True, help="Candidate cause (term expression).")
@click.option("--y", "y_term", required=True, help="Candidate effect (term expression).")
@click.option("--lags", default=4, type=click.IntRange(min=1))
@click.option("--sample", default=None, callback=_window)
def granger(dataset, x_term, y_term, lags, sample):
    """Granger causality F tests, both directions."""
    from .dynamics import granger_causality
    from .report import render_table

    ds = _load(dataset)
    _run(lambda: click.echo(render_table(
        granger_causality(ds, parse_term(x_term), parse_term(y_term), lags, sample=sample)
    )[0]))


@main.command()
@click.option("--dataset", default=None)
@click.option("--break", "break_year", required=True, type=int)
@click.option("--dependent", default="ln(Industrial Investment)")
@click.option("--regressors",
              default="ln(Public investment), ln(GDP model base), ln(Credit)")
@click.option("--constant/--no-constant", default=False)
@click.option("--sample", default="1970:2010", callback=_window)
def chow(dataset, break_year, dependent, regressors, constant, sample):
    """Chow structural-break test (defaults to the bundled 41-obs model)."""
    from .dynamics import chow_test
    from .report import render_table

    ds = _load(dataset)
    _run(lambda: click.echo(render_table(
        chow_test(ds, _spec_from_flags(dependent, regressors, constant, sample), break_year)
    )[0]))


@main.command()
@click.option("--dataset", default=None)
@click.option("--variables", required=True, help="Ordered comma-separated terms (Cholesky order).")
@click.option("--lags", default=4, type=click.IntRange(min=1))
@click.option("--sample", default=None, callback=_window)
def var(dataset, variables, lags, sample):
    """Estimate a VAR(p) and print per-equation coefficients."""
    from .var import var_fit

    ds = _load(dataset)

    def go():
        model = var_fit(ds, tuple(parse_term(t) for t in variables.split(",") if t.strip()),
                        lags, sample)
        click.echo(f"VAR({model.p}) on {', '.join(model.labels)}; sample "
                   f"{model.sample[0]}-{model.sample[1]}; n_eff {model.n_effective}")
        for i, lbl in enumerate(model.labels):
            click.echo(f"{lbl}: intercept {model.intercepts[i]:.6g}")
            for lag, A in enumerate(model.coefficient_matrices, start=1):
                for j, src in enumerate(model.labels):
                    click.echo(f"    {src}(-{lag})  {A[i, j]:.6g}")

    _run(go)


@main.command()
@click.option("--dataset", default=None)
@click.option("--variables", required=True)
@click.option("--lags", default=4, type=click.IntRange(min=1))
@click.option("--sample", default=None, callback=_window)
@click.option("--horizon", default=10, type=click.IntRange(min=0))
@click.option("--shock", required=True, help="Shock variable label.")
@click.option("--response", required=True, help="Responding variable label.")
@click.option("--svg", "svg_path", default=None, help="Write the plot to this SVG file.")
def irf(dataset, variables, lags, sample, horizon, shock, response, svg_path):
    """Orthogonalized impulse responses from a fitted VAR."""
    from .report import render_irf_plot
    from .var import impulse_response, var_fit

    ds = _load(dataset)

    def go():
        model = var_fit(ds, tuple(parse_term(t) for t in variables.split(",") if t.strip()),
                        lags, sample)
        for flag, label in (("--shock", shock), ("--response", response)):
            if label not in model.labels:
                raise click.BadParameter(
                    f"{label!r} is not a VAR variable; choose from {', '.join(model.labels)}",
                    param_hint=f"'{flag}'")
        res = impulse_response(model, horizon)
        vals = res.response(shock, response)
        click.echo(f"{response} <- {shock}: " + " ".join(f"{v:.5g}" for v in vals))
        if svg_path:
            Path(svg_path).write_text(render_irf_plot(res, shock, response), "utf-8")
            click.echo(f"wrote {svg_path}")

    _run(go)


@main.command()
@click.option("--dataset", default=None)
@click.option("--kind", type=click.Choice(["unemployment", "exports"]), required=True)
@click.option("--overrides", required=True, callback=_overrides,
              help="e.g. '2005:0.15 2006:0.10'.")
@click.option("--window", default="2000:2010", callback=_window)
@click.option("--eap", default=1_665_000.0, type=float)
@click.option("--terminal-actual-usd", default=6_762_000_000.0, type=float)
def simulate(dataset, kind, overrides, window, eap, terminal_actual_usd):
    """Capital-growth scenario simulation using the bundled default models."""
    from .dataset import apply_term
    from .regress import ModelSpec
    from .scenario import CapitalScenario, simulate_exports, simulate_unemployment
    from .tsls import TslsSpec, tsls_fit

    ds = _load(dataset)

    def go():
        scenario = CapitalScenario("cli scenario", overrides)
        growth = parse_term("dln(Total investment) as d_Ln(K)")
        g = apply_term(ds, growth)
        if kind == "unemployment":
            spec = TslsSpec(
                model=ModelSpec(
                    dependent=parse_term("Unemployment rate"),
                    regressors=(growth, parse_term("Unemployment rate@1"),
                                parse_term("Unemployment rate@2")),
                    include_constant=True, sample=(1970, 2010),
                ),
                endogenous=("d_Ln(K)",),
                instruments=(parse_term("dln(GDP)"), parse_term("dln(Total investment)@1")),
            )
            fit = tsls_fit(ds, spec)
            res = simulate_unemployment(fit, scenario, window, eap,
                                        ds.get("Unemployment rate"), g)
        else:
            spec = TslsSpec(
                model=ModelSpec(
                    dependent=parse_term("ln(Exports)"),
                    regressors=(growth, parse_term("ln(Exports)@1"), parse_term("ln(Exports)@2")),
                    include_constant=True, sample=(1972, 2010),
                ),
                endogenous=("d_Ln(K)",),
                instruments=(parse_term("dln(GDP)"), parse_term("dln(Total investment)@1")),
            )
            fit = tsls_fit(ds, spec)
            res = simulate_exports(fit, scenario, window, terminal_actual_usd,
                                   ds.get("Exports"), g)
        click.echo(f"terminal delta: {res.terminal_delta:.6g}")
        for k in sorted(res.derived_quantities):
            click.echo(f"{k}: {res.derived_quantities[k]:.6g}")

    _run(go)


@main.command()
@click.option("--manifest", "manifest_path", default="default",
              help="Manifest file, or 'default' for the bundled pipeline.")
@click.option("--dataset", default=None, help="Override the manifest's dataset path.")
@click.option("--output", default=None, help="Override the manifest's output directory.")
def report(manifest_path, dataset, output):
    """Run a full pipeline manifest and write the report bundle."""
    from .pipeline import StepError, run_pipeline

    try:
        text = (default_manifest_text() if manifest_path == "default"
                else Path(manifest_path).read_text("utf-8"))
        manifest = parse_manifest(text)
    except OSError as exc:
        click.echo(f"manifest error: {exc}", err=True)
        sys.exit(EXIT_MANIFEST)
    except ManifestError as exc:
        click.echo(f"manifest error: {exc}", err=True)
        sys.exit(EXIT_MANIFEST)
    ds = _load(dataset if dataset else (None if manifest.dataset_path in ("bundled", "") else manifest.dataset_path))
    try:
        bundle = run_pipeline(manifest, ds)
    except ManifestError as exc:
        click.echo(f"manifest error: {exc}", err=True)
        sys.exit(EXIT_MANIFEST)
    except DatasetError as exc:
        click.echo(f"dataset error: {exc}", err=True)
        sys.exit(EXIT_DATASET)
    except StepError as exc:
        click.echo(f"step error: {exc}", err=True)
        sys.exit(EXIT_STEP)
    outdir = output or manifest.output_dir
    try:
        bundle.write(outdir)
    except OSError as exc:
        click.echo(f"output error: cannot write bundle to {outdir!r}: {exc}", err=True)
        sys.exit(EXIT_MANIFEST)
    click.echo(f"wrote bundle to {outdir} (dataset checksum {bundle.dataset_checksum[:12]}...)")


def entry():
    """Process entry of the ``tsecon`` script and of ``python -m tsecon.cli``.

    Runs the CLI, then freezes the heap on the way out: ``gc.freeze`` moves
    the ~23k objects that numpy and click leave tracked into the permanent
    generation, which the interpreter's final full collection skips.  That
    collection cost a cold ``report`` about 30 ms and frees nothing that the
    end of the process does not.  Only a process that is about to end may freeze, so importing this
    module or calling ``main`` in process (click's ``CliRunner``) never does.
    """
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    entry()
