"""Command-line interface.

``tsecon report`` runs a pipeline manifest into a report bundle.  Every other
estimating subcommand builds a one-step manifest from its flags (two steps for
``irf`` and ``simulate``), runs it through the same op registry and prints the
table its last step adds to a bundle.  An omitted flag keeps the registry's (or
the bundled step's) default; a bad one is a usage error naming it.  ``ingest``
never loads numpy.  Exit codes: 0 success (skipped optional steps are not
errors), 2 manifest, usage or output error, 3 dataset error, 4 step error.
"""
from __future__ import annotations

import gc
import os
import sys
from pathlib import Path

import click

from .dataset import DatasetError, load_dataset
from .manifest import ManifestError, Step, StepError, default_manifest_text, parse_manifest

# Each command imports the engine modules it uses in its own body, so a
# command that needs no estimation (``ingest``) never loads numpy.

EXIT_MANIFEST = 2
EXIT_DATASET = 3
EXIT_STEP = 4


def _fail(kind: str, message, code: int):
    click.echo(f"{kind}: {message}", err=True)
    sys.exit(code)


def _checked(fn):
    """``fn()``, with each documented error mapped to its message and exit code.

    A command's parameters are named after the step keys they set, so a bad
    value of such a key is a usage error naming the flag.
    """
    try:
        return fn()
    except ManifestError as exc:
        ctx = click.get_current_context()
        key = exc.key
        if key == "plot" and "shock" in ctx.params:  # irf: --shock and --response make the plot
            key = "shock" if exc.value == ctx.params["shock"] else "response"
        for param in ctx.command.params:
            if param.name == key:
                raise click.BadParameter(exc.reason, ctx, param) from None
        _fail("manifest error", exc, EXIT_MANIFEST)
    except DatasetError as exc:
        _fail("dataset error", exc, EXIT_DATASET)
    except StepError as exc:
        _fail("step error", exc, EXIT_STEP)


def _write(what: str, path: str, write) -> None:
    try:
        write(path)
    except OSError as exc:
        _fail("output error", f"cannot write {what} to {path!r}: {exc}", EXIT_MANIFEST)


def _load(dataset_path: str | None):
    return load_dataset(dataset_path or os.environ.get("TSECON_DATASET") or None)


def _step(name: str, op: str, base: Step | None = None, **values) -> Step:
    """A step of ``op`` from flag values; a ``None`` value keeps the key of ``base``."""
    options = dict(base.options) if base else {}
    options.update({key: [str(value)] for key, value in values.items() if value is not None})
    return Step(name, op, options)


def _default_step(name: str) -> Step:
    return next(s for s in parse_manifest(default_manifest_text()).steps if s.name == name)


def _print_run(dataset: str | None, *steps: Step):
    """Run ``steps`` on the dataset and print the table of the last; return the bundle."""
    from .pipeline import run_steps
    from .report import ReportBundle

    def go():
        bundle = ReportBundle()
        run_steps(steps, _load(dataset), bundle)
        click.echo(list(bundle.tables.values())[-1][0])
        return bundle

    return _checked(go)


@click.group()
def main():
    """Annual time-series econometrics engine and reproduction pipeline."""


@main.command()
@click.option("--dataset", default=None, help="Bundle directory or wide CSV (default: bundled).")
def ingest(dataset):
    """Validate a dataset bundle and print its checksum."""
    ds = _checked(lambda: _load(dataset))
    click.echo(f"series: {len(ds.series)}")
    for name in ds.names():
        s = ds.get(name)
        click.echo(f"  {name}: {s.start_year}-{s.end_year} ({len(s)} obs) [{s.unit}]")
    click.echo(f"checksum: {ds.checksum}")


@main.command()
@click.option("--dataset", default=None)
@click.option("--series", required=True, help="Term expression, e.g. 'ln(Inflation)'.")
@click.option("--det", "deterministic", type=click.Choice(["none", "constant", "trend"]),
              help="'trend' means constant and trend.")
@click.option("--lags", "lag_order")
@click.option("--window", default=None, help="YYYY:YYYY window applied before testing.")
def adf(dataset, deterministic, **keys):
    """Augmented Dickey-Fuller unit-root test."""
    deterministic = "constant_and_trend" if deterministic == "trend" else deterministic
    _print_run(dataset, _step("adf", "adf", deterministic=deterministic, **keys))


@main.command("fit-ols")
@click.option("--dataset", default=None)
@click.option("--dependent", required=True)
@click.option("--regressors", required=True, help="Comma-separated term expressions.")
@click.option("--constant/--no-constant", default=None)
@click.option("--sample", default=None)
def fit_ols(dataset, **keys):
    """Ordinary least squares with the full diagnostic block."""
    _print_run(dataset, _step("fit-ols", "ols", **keys))


@main.command("fit-tsls")
@click.option("--dataset", default=None)
@click.option("--dependent", required=True)
@click.option("--regressors", required=True)
@click.option("--endogenous", required=True, help="Comma-separated regressor labels.")
@click.option("--instruments", required=True, help="Comma-separated term expressions.")
@click.option("--constant/--no-constant", default=None)
@click.option("--sample", default=None)
def fit_tsls(dataset, **keys):
    """Two-stage least squares with an explicit instrument list."""
    _print_run(dataset, _step("fit-tsls", "tsls", **keys))


@main.command("fit-ar")
@click.option("--dataset", default=None)
@click.option("--dependent", required=True)
@click.option("--regressors", required=True)
@click.option("--ar-lags", required=True, help="Space- or comma-separated lag list, e.g. '1 2'.")
@click.option("--constant/--no-constant", default=None)
@click.option("--sample", default=None)
def fit_ar(dataset, **keys):
    """Iterative AR estimation (generalized quasi-differencing)."""
    _print_run(dataset, _step("fit-ar", "ar", **keys))


@main.command()
@click.option("--dataset", default=None)
@click.option("--dependent", required=True)
@click.option("--regressors", required=True)
@click.option("--constant/--no-constant", default=False)
@click.option("--sample", default=None)
@click.option("--residual-lag")
def coint(dataset, **keys):
    """Engle-Granger two-step cointegration (inputs asserted I(1))."""
    _print_run(dataset, _step("coint", "coint", assume_i1="all", **keys))


@main.command()
@click.option("--dataset", default=None)
@click.option("--x", required=True, help="Candidate cause (term expression).")
@click.option("--y", required=True, help="Candidate effect (term expression).")
@click.option("--lags")
@click.option("--sample", default=None)
def granger(dataset, **keys):
    """Granger causality F tests, both directions."""
    _print_run(dataset, _step("granger", "granger", **keys))


@main.command()
@click.option("--dataset", default=None)
@click.option("--break", "break_years", required=True)
@click.option("--dependent", default=None, help="Default: the bundled chow_breaks model's.")
@click.option("--regressors", default=None, help="Default: the bundled chow_breaks model's.")
@click.option("--constant/--no-constant", default=None,
              help="Default: the bundled chow_breaks model's (no constant).")
@click.option("--sample", default=None, help="Default: the bundled chow_breaks model's.")
def chow(dataset, **keys):
    """Chow structural-break test (defaults to the bundled 41-obs model)."""
    _print_run(dataset, _step("chow", "chow", _default_step("chow_breaks"), **keys))


@main.command()
@click.option("--dataset", default=None)
@click.option("--variables", required=True, help="Ordered comma-separated terms (Cholesky order).")
@click.option("--lags")
@click.option("--sample", default=None)
def var(dataset, **keys):
    """Estimate a VAR(p) and print per-equation coefficients."""
    _print_run(dataset, _step("var", "var", **keys))


@main.command()
@click.option("--dataset", default=None)
@click.option("--variables", required=True)
@click.option("--lags")
@click.option("--sample", default=None)
@click.option("--horizon")
@click.option("--shock", required=True, help="Shock variable label.")
@click.option("--response", required=True, help="Responding variable label.")
@click.option("--svg", "svg_path", default=None, help="Write the plot to this SVG file.")
def irf(dataset, horizon, shock, response, svg_path, **keys):
    """Orthogonalized impulse responses from a fitted VAR."""
    bundle = _print_run(dataset, _step("var", "var", **keys), _step(
        "irf", "irf", var="var", horizon=horizon, plot=f"{shock} -> {response}"))
    if svg_path:
        svg = next(iter(bundle.plots.values()))
        _write("plot", svg_path, lambda path: Path(path).write_text(svg, "utf-8"))
        click.echo(f"wrote {svg_path}")


@main.command()
@click.option("--dataset", default=None)
@click.option("--kind", type=click.Choice(["unemployment", "exports"]), required=True)
@click.option("--overrides", required=True, help="e.g. '2005:0.15 2006:0.10'.")
@click.option("--window", help="Default: the bundled scenario's.")
@click.option("--eap", help="Default: the bundled unemployment scenario's.")
@click.option("--terminal-actual-usd", help="Default: the bundled exports scenario's.")
def simulate(dataset, kind, **keys):
    """Capital-growth scenario simulation using the bundled default models."""
    base = _default_step(f"scenario1_{kind}")  # run its fit step, then it with the flags' values
    fit = _default_step(base.options["fit"][0])
    _print_run(dataset, fit, _step("simulate", base.op, base, **keys))


@main.command()
@click.option("--manifest", "manifest_path", default="default",
              help="Manifest file, or 'default' for the bundled pipeline.")
@click.option("--dataset", default=None, help="Override the manifest's dataset path.")
@click.option("--output", default=None, help="Override the manifest's output directory.")
def report(manifest_path, dataset, output):
    """Run a full pipeline manifest and write the report bundle."""
    from .pipeline import run_pipeline

    def go():
        try:
            text = (default_manifest_text() if manifest_path == "default"
                    else Path(manifest_path).read_text("utf-8"))
        except OSError as exc:
            raise ManifestError(str(exc)) from None
        manifest = parse_manifest(text)
        return manifest, run_pipeline(manifest, _load(dataset or manifest.dataset_location))

    manifest, bundle = _checked(go)
    outdir = output or manifest.output_dir
    _write("bundle", outdir, bundle.write)
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
