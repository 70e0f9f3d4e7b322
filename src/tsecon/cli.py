"""Command-line interface.

``tsecon report`` runs a pipeline manifest into a report bundle.  Every other
estimating subcommand builds a one-step manifest from its flags (two steps for
``irf`` and ``simulate``), runs it through the same op registry and prints the
table its last step adds to a bundle.  ``COMMANDS`` declares every subcommand
once, and its flags are named by the step keys they set: an omitted flag keeps
the registry's (or the bundled step's) default, and a bad one is a usage error
naming it.  ``ingest`` never loads numpy.  Exit codes: 0 success (skipped
optional steps are not errors), 2 manifest, usage or output error, 3 dataset
error, 4 step error.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys
from pathlib import Path

from .dataset import DatasetError, load_dataset
from .manifest import ManifestError, Step, StepError, default_manifest_text, parse_manifest

# Each command imports the engine modules it uses in its own body, so a
# command that needs no estimation (``ingest``) never loads numpy.

EXIT_MANIFEST = 2
EXIT_DATASET = 3
EXIT_STEP = 4

_MODEL = {"--dependent": "dependent!", "--regressors": "regressors!", "--constant": "constant",
          "--sample": "sample"}
_VAR = {"--variables": "variables!", "--lags": "lags", "--sample": "sample"}

# name: (op, help, {flag: the step key it sets, or the argument it names; "!" marks a
# required flag}, the step whose keys an omitted flag keeps: a bundled step's name or a Step).
# ``{kind}`` in an op or a bundled step's name is ``--kind``'s value.
COMMANDS = {
    "ingest": (None, "Validate a dataset bundle and print its checksum.", {}, None),
    "adf": ("adf", "Augmented Dickey-Fuller unit-root test.",
            {"--series": "series!", "--det": "deterministic", "--lags": "lag_order",
             "--window": "window"}, None),
    "fit-ols": ("ols", "Ordinary least squares with the full diagnostic block.", _MODEL, None),
    "fit-tsls": ("tsls", "Two-stage least squares with an explicit instrument list.",
                 {**_MODEL, "--endogenous": "endogenous!", "--instruments": "instruments!"},
                 None),
    "fit-ar": ("ar", "Iterative AR estimation (generalized quasi-differencing).",
               {**_MODEL, "--ar-lags": "ar_lags!"}, None),
    "coint": ("coint", "Engle-Granger two-step cointegration (inputs asserted I(1)).",
              {**_MODEL, "--residual-lag": "residual_lag"},
              Step("coint", "coint", {"constant": ["false"]})),
    "granger": ("granger", "Granger causality F tests, both directions.",
                {"--x": "x!", "--y": "y!", "--lags": "lags", "--sample": "sample"}, None),
    "chow": ("chow", "Chow structural-break test (defaults to the bundled 41-obs model).",
             {"--break": "break_years!", **{f: k.rstrip("!") for f, k in _MODEL.items()}},
             "chow_breaks"),
    "var": ("var", "Estimate a VAR(p) and print per-equation coefficients.", _VAR, None),
    "irf": ("irf", "Orthogonalized impulse responses from a fitted VAR.",
            {**_VAR, "--horizon": "horizon", "--shock": "shock!", "--response": "response!",
             "--svg": "svg"}, None),
    "simulate": ("simulate_{kind}",
                 "Capital-growth scenario simulation using the bundled default models.",
                 {"--kind": "kind!", "--overrides": "overrides!", "--window": "window",
                  "--eap": "eap", "--terminal-actual-usd": "terminal_actual_usd"},
                 "scenario1_{kind}"),
    "report": (None, "Run a full pipeline manifest and write the report bundle.",
               {"--manifest": "manifest", "--output": "output"}, None),
}

_CHOICES = {"--det": ("none", "constant", "trend"), "--kind": ("unemployment", "exports")}
_HELP = {
    "--dataset": "Bundle directory or wide CSV (default: a report manifest's, else "
                 "$TSECON_DATASET, else bundled).",
    "--help": "Show this message and exit.",
    "--series": "Term expression, e.g. 'ln(Inflation)'.",
    "--det": "'trend' means constant and trend.",
    "--window": "YYYY:YYYY window applied before testing or simulating.",
    "--regressors": "Comma-separated term expressions.",
    "--instruments": "Comma-separated term expressions.",
    "--endogenous": "Comma-separated regressor labels.",
    "--ar-lags": "Space- or comma-separated lag list, e.g. '1 2'.",
    "--x": "Candidate cause (term expression).",
    "--y": "Candidate effect (term expression).",
    "--variables": "Ordered comma-separated terms (Cholesky order).",
    "--shock": "Shock variable label.",
    "--response": "Responding variable label.",
    "--svg": "Write the plot to this SVG file.",
    "--overrides": "e.g. '2005:0.15 2006:0.10'.",
    "--manifest": "Manifest file, or 'default' for the bundled pipeline.",
    "--output": "Override the manifest's output directory.",
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsecon", add_help=False, allow_abbrev=False,
        description="Annual time-series econometrics engine and reproduction pipeline.")
    parser.add_argument("--help", action="help", help=_HELP["--help"])
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (_, text, flags, _) in COMMANDS.items():
        sub = commands.add_parser(name, help=text, description=text, add_help=False,
                                  allow_abbrev=False)
        sub.set_defaults(parser=sub)
        sub.add_argument("--help", action="help", help=_HELP["--help"])
        sub.add_argument("--dataset", help=_HELP["--dataset"])
        for flag, key in flags.items():
            extra = ({"action": argparse.BooleanOptionalAction} if flag == "--constant" else
                     {"choices": _CHOICES[flag]} if flag in _CHOICES else {})
            sub.add_argument(flag, dest=key.rstrip("!"), required=key.endswith("!"),
                             help=_HELP.get(flag), **extra)
    return parser


def _fail(kind: str, message, code: int):
    print(f"{kind}: {message}", file=sys.stderr)
    sys.exit(code)


def _checked(args, fn):
    """``fn()``, with each documented error mapped to its message and exit code.

    A bad value of a step key that a flag of the command sets is a usage error
    naming the flag.
    """
    try:
        return fn()
    except ManifestError as exc:
        if args.command != "report":  # whose step keys come from its manifest, not its flags
            key = exc.key
            if key == "plot":  # irf: --shock and --response make the plot
                key = "shock" if exc.value == args.shock else "response"
            for flag, dest in COMMANDS[args.command][2].items():
                if dest.rstrip("!") == key:
                    args.parser.error(f"Invalid value for '{flag}': {exc.reason}")
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


def _steps(name: str, values: dict) -> tuple[Step, ...]:
    """The steps that command ``name`` runs from its flags' ``values``; the last prints."""
    op, _, _, base = COMMANDS[name]
    if name == "irf":  # a VAR, then its responses to --shock, plotted against --response
        plot = f"{values.pop('shock')} -> {values.pop('response')}"
        irf = _step("irf", "irf", var="var", horizon=values.pop("horizon"), plot=plot)
        return _step("var", "var", **values), irf
    if values.get("deterministic") == "trend":
        values["deterministic"] = "constant_and_trend"
    kind = values.pop("kind", None)
    if isinstance(base, str):
        base = _default_step(base.format(kind=kind))
    step = _step(name, op.format(kind=kind), base, **values)
    if base and "fit" in base.options:  # a scenario runs its bundled fit step first
        return _default_step(base.options["fit"][0]), step
    return (step,)


def _estimate(args) -> None:
    """Run the command's steps on the dataset and print the table of the last."""
    from .pipeline import run_steps
    from .report import ReportBundle

    values = {key.rstrip("!"): getattr(args, key.rstrip("!"))
              for key in COMMANDS[args.command][2].values()}
    svg_path = values.pop("svg", None)
    steps = _steps(args.command, values)

    def go():
        bundle = ReportBundle()
        run_steps(steps, _load(args.dataset), bundle)
        print(list(bundle.tables.values())[-1][0])
        return bundle

    bundle = _checked(args, go)
    if svg_path:
        svg = next(iter(bundle.plots.values()))
        _write("plot", svg_path, lambda path: Path(path).write_text(svg, "utf-8"))
        print(f"wrote {svg_path}")


def _ingest(args) -> None:
    ds = _checked(args, lambda: _load(args.dataset))
    print(f"series: {len(ds.series)}")
    for name in ds.names():
        s = ds.get(name)
        print(f"  {name}: {s.start_year}-{s.end_year} ({len(s)} obs) [{s.unit}]")
    print(f"checksum: {ds.checksum}")


def _report(args) -> None:
    from .pipeline import run_pipeline

    path = args.manifest or "default"

    def go():
        try:
            text = default_manifest_text() if path == "default" else Path(path).read_text("utf-8")
        except (OSError, UnicodeDecodeError) as exc:  # missing, unreadable or not UTF-8
            raise ManifestError(f"cannot read {path!r}: {exc}") from None
        manifest = parse_manifest(text)
        return manifest, run_pipeline(manifest, _load(args.dataset or manifest.dataset_location))

    manifest, bundle = _checked(args, go)
    outdir = args.output or manifest.output_dir
    _write("bundle", outdir, bundle.write)
    print(f"wrote bundle to {outdir} (dataset checksum {bundle.dataset_checksum[:12]}...)")


def main(argv: list[str] | None = None) -> int:
    """Run one ``tsecon`` command line (default: ``sys.argv[1:]``); return its exit code."""
    try:
        args = _parser().parse_args(argv)
        {"ingest": _ingest, "report": _report}.get(args.command, _estimate)(args)
    except SystemExit as exc:  # usage errors, --help and _fail
        return exc.code
    return 0


# The click-era call of perfbench/worker.py's in-process ``cli_probe``, its only caller.
main.main = lambda args, prog_name, standalone_mode: main(args)


def entry():
    """Process entry of the ``tsecon`` script and of ``python -m tsecon.cli``.

    Runs the CLI, then freezes the heap on the way out: ``gc.freeze`` moves
    the objects that numpy leaves tracked into the permanent generation,
    which the interpreter's final full collection skips.  That collection
    cost a cold ``report`` about 30 ms and frees nothing that the end of the
    process does not.  Only a process that is about to end may freeze, so
    importing this module or calling ``main`` in process never does.

    A reader that closes stdout early is an output error; stdout then points
    at the null device (the Python docs' note on SIGPIPE), so that the final
    flush of what is still buffered cannot raise again.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        with contextlib.suppress(OSError):
            print(f"output error: cannot write to stdout: {exc}", file=sys.stderr)
        code = EXIT_MANIFEST
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
