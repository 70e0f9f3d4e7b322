"""Inputs and output checks of the benchmark workloads.

Everything here is plain Python with no import of the program, so the parent
process can use it without loading ``tsecon``.  The checks are independent of
the program's own code: a dataset checksum is recomputed from the bundle
files, expected step statuses come from a small reading of the manifest, and
bundles are compared by a digest over the files written.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
import random
import re
from pathlib import Path

PANEL_SERIES = 40
PANEL_YEARS = 200
PANEL_FIRST_YEAR = 1811
PANEL_FACTORS = 4
PANEL_GRANGER_PAIRS = 39
PANEL_BREAKS = "1850 1900 1950 1990"
# a fixed iteration count (the tolerance is never met), so the AR steps cost
# the same on every seed
AR_ITERATIONS = "max_iterations = 4\ntolerance = 1e-300"

CLI_DET = {"constant_and_trend": "trend", "constant": "constant", "none": "none"}


# ---------------------------------------------------------------------------
# long-panel generator
# ---------------------------------------------------------------------------

def _canonical(v: float) -> str:
    """The bundle's canonical cell format, so the written bytes are the checksum input."""
    if float(v).is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def write_panel(directory: Path, seed: int) -> str:
    """Write a seeded bundle of positive annual series; return its manifest text.

    Each log series loads on one of a few shared random-walk factors plus an
    AR(1) disturbance, so the panel holds I(1) series, cointegrated pairs
    (series sharing a factor) and stationary log differences.
    """
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    factors = []
    for _ in range(PANEL_FACTORS):
        f, path = 0.0, []
        for _ in range(PANEL_YEARS):
            f += rng.gauss(0.01, 0.04)
            path.append(f)
        factors.append(path)
    names = [f"P{i + 1:02d}" for i in range(PANEL_SERIES)]
    for i, name in enumerate(names):
        factor = factors[i % PANEL_FACTORS]
        level = math.log(rng.uniform(50.0, 500.0))
        loading = rng.uniform(0.6, 1.4)
        u, rows = 0.0, [f"year,{name}"]
        for t in range(PANEL_YEARS):
            u = 0.5 * u + rng.gauss(0.0, 0.03)
            value = round(math.exp(level + loading * factor[t] + u), 4)
            rows.append(f"{PANEL_FIRST_YEAR + t},{_canonical(value)}")
        (directory / f"{name.lower()}.csv").write_bytes(("\n".join(rows) + "\n").encode("utf-8"))
    return panel_manifest(names)


def panel_manifest(names: list[str]) -> str:
    last = PANEL_FIRST_YEAR + PANEL_YEARS - 1
    sample = f"{PANEL_FIRST_YEAR + 10}:{last}"
    regs = ", ".join(f"ln({n})" for n in names[1:4])
    lines = ["[pipeline]", "dataset = panel", "output = out", "optional =", "",
             "[step adf_battery]", "op = adf_battery"]
    for n in names:
        lines += [f"row = ln({n}) ; constant_and_trend ; 1", f"row = dln({n}) ; constant ; 1"]
    for i in range(PANEL_GRANGER_PAIRS):
        a, b = names[i], names[(i + 1) % len(names)]
        lines += ["", f"[step granger_{a}_{b}]", "op = granger", f"x = dln({a})",
                  f"y = dln({b})", "lags = 4"]
    lines += [
        "", "[step ols_panel]", "op = ols", f"dependent = ln({names[0]})",
        f"regressors = {regs}, dln({names[4]})", "constant = true", f"sample = {sample}",
        "", "[step chow_panel]", "op = chow", f"dependent = ln({names[0]})",
        f"regressors = {regs}, dln({names[4]})", "constant = true", f"sample = {sample}",
        f"break_years = {PANEL_BREAKS}",
        "", "[step ar_wide]", "op = ar", f"dependent = ln({names[0]})",
        f"regressors = {regs}, dln({names[4]})", "constant = true", "ar_lags = 1 2",
        f"sample = {sample}", AR_ITERATIONS,
        "", "[step ar_narrow]", "op = ar", f"dependent = ln({names[0]})",
        f"regressors = {regs}", "constant = true", "ar_lags = 1 2", f"sample = {sample}",
        AR_ITERATIONS,
        "", "[step ar_comparison]", "op = compare", "a = ar_wide", "b = ar_narrow",
        "", "[step coint_panel]", "op = coint", f"dependent = ln({names[0]})",
        f"regressors = ln({names[PANEL_FACTORS]})", "constant = true", f"sample = {sample}",
        "residual_lag = 1", "assume_i1 = all",
        "", "[step var_panel]", "op = var",
        "variables = " + ", ".join(f"dln({n}) as g{n}" for n in names[:4]),
        "lags = 4", f"sample = {sample}",
        "", "[step irf_panel]", "op = irf", "var = var_panel", "horizon = 20",
        f"plot = g{names[0]} -> g{names[1]}",
        "", "[step fevd_panel]", "op = fevd", "var = var_panel", "horizon = 20",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# independent readings of bundles and manifests
# ---------------------------------------------------------------------------

def csv_checksum(data_dir: Path) -> str:
    """SHA-256 over (file name, bytes) of the bundle's CSV files in name order."""
    h = hashlib.sha256()
    for f in sorted(data_dir.glob("*.csv")):
        h.update(f.name.encode("utf-8"))
        h.update(f.read_bytes())
    return h.hexdigest()


def series_names(data_dir: Path) -> set[str]:
    names = set()
    for f in data_dir.glob("*.csv"):
        with open(f, encoding="utf-8") as fh:
            names.add(fh.readline().strip().split(",", 1)[1].strip())
    return names


def input_bytes(data_dir: Path) -> int:
    """Bytes a bundle load reads: the CSV files plus the provenance notes."""
    files = list(data_dir.glob("*.csv")) + list(data_dir.glob("provenance.txt"))
    return sum(f.stat().st_size for f in files)


_SECTION = re.compile(r"^\[(?:pipeline|step\s+(?P<name>\S+))\]\s*$")


def manifest_steps(text: str) -> list[dict[str, list[str]]]:
    """Steps of a manifest as {"name": [..], key: [values]} dicts, in order."""
    steps: list[dict[str, list[str]]] = []
    current: dict[str, list[str]] | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SECTION.match(line)
        if m:
            current = {"name": [m.group("name")]} if m.group("name") else None
            if current is not None:
                steps.append(current)
        elif current is not None and "=" in line:
            key, _, value = line.partition("=")
            current.setdefault(key.strip(), []).append(value.strip())
    return steps


def expected_statuses(text: str, available: set[str]) -> list[tuple[str, str, str]]:
    """(step, op, "ok" | "SKIPPED") for every step, from its ``requires`` keys."""
    out = []
    for step in manifest_steps(text):
        required = [p.strip() for r in step.get("requires", []) for p in r.split(",") if p.strip()]
        status = "ok" if all(r in available for r in required) else "SKIPPED"
        out.append((step["name"][0], step["op"][0], status))
    return out


def tree_digest(root: Path) -> tuple[str, int, int]:
    """(SHA-256 over relative paths and bytes, file count, byte count) of a directory."""
    h = hashlib.sha256()
    files = n_bytes = 0
    for f in sorted(p for p in root.rglob("*") if p.is_file()):
        data = f.read_bytes()
        h.update(f.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(data)
        files += 1
        n_bytes += len(data)
    return h.hexdigest(), files, n_bytes


def read_csv(path: Path) -> list[list[str]]:
    return list(csv.reader(io.StringIO(path.read_text("utf-8"))))


def check_bundle(out: Path, checksum: str, statuses: list[tuple[str, str, str]]) -> list[str]:
    """Problems with a written bundle's checksum file and pipeline summary."""
    problems = []
    try:
        written = (out / "dataset.checksum").read_text("utf-8").strip()
        summary = read_csv(out / "tables" / "pipeline_summary.csv")[1:]
    except OSError as exc:
        return [f"bundle incomplete: {exc}"]
    if written != checksum:
        problems.append(f"dataset checksum {written[:12]} != expected {checksum[:12]}")
    got = [(r[0], r[1], "ok" if r[2] == "ok" else r[2].split(":")[0]) for r in summary if len(r) == 3]
    if got != statuses:
        problems.append(f"pipeline summary statuses differ from the manifest's: {got[:3]}...")
    return problems


# ---------------------------------------------------------------------------
# cold CLI commands and their checks
# ---------------------------------------------------------------------------

def cli_cases(text: str, available: set[str]) -> tuple[list[dict], list[dict]]:
    """ADF and Granger commands that replay computable rows of the default study.

    Each ADF case repeats one unit-root battery row and names its row index in
    the battery CSV; each Granger case repeats one Granger step.
    """
    adf, granger = [], []
    for step in manifest_steps(text):
        if step["op"][0] == "adf_battery":
            window = step.get("window", [None])[0]
            for idx, row in enumerate(step.get("row", [])):
                term, det, lag = (p.strip() for p in row.split(";"))
                base = re.sub(r"^\w+\((.*)\)$", r"\1", term)
                if base not in available:
                    continue
                args = ["adf", "--series", term, "--det", CLI_DET[det], "--lags", lag]
                adf.append({"args": args + (["--window", window] if window else []),
                            "row": idx})
        elif step["op"][0] == "granger" and not step.get("requires"):
            args = ["granger", "--x", step["x"][0], "--y", step["y"][0],
                    "--lags", step.get("lags", ["4"])[0]]
            if step.get("sample"):
                args += ["--sample", step["sample"][0]]
            granger.append({"args": args, "step": step["name"][0]})
    return adf, granger


def _has_number(text: str, value: str) -> bool:
    return re.search(r"(?<![\w.+-])" + re.escape(f"{float(value):.6g}") + r"(?![\w.])", text) is not None


def check_cli(command: str, case: dict, stdout: str, out: Path, refs: dict) -> list[str]:
    """Problems with one CLI command's output against the in-process study bundle."""
    if command == "report":
        problems = check_bundle(out, refs["checksum"], [tuple(s) for s in refs["statuses"]])
        if tree_digest(out)[0] != refs["digest"]:
            problems.append("report bundle differs from the in-process study bundle")
        return problems
    if command == "ingest":
        problems = []
        if f"checksum: {refs['checksum']}" not in stdout:
            problems.append("ingest did not print the expected dataset checksum")
        if f"series: {refs['series']}" not in stdout:
            problems.append("ingest did not print the expected series count")
        return problems
    if command == "adf":
        tau = refs["battery"][case["row"]][1]
        return [] if _has_number(stdout, tau) else [f"adf tau differs from battery value {tau}"]
    if command == "granger":
        problems = []
        for cause, effect, f_stat, p_value in refs["granger"][case["step"]]:
            line = next((ln for ln in stdout.splitlines()
                         if f"{cause} does not Granger-cause {effect}" in ln), "")
            if not (_has_number(line, f_stat) and _has_number(line, p_value)):
                problems.append(f"granger {cause} -> {effect} differs from the study bundle")
        return problems
    raise ValueError(f"unknown command {command!r}")


# ---------------------------------------------------------------------------
# import layer, from ``python -X importtime``
# ---------------------------------------------------------------------------

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s*\|\s*(\d+)\s*\|\s*(\S.*?)\s*$")
IMPORT_GROUPS = ("scipy", "numpy", "tsecon", "click")


def import_metrics(stderr: str) -> dict[str, float]:
    """Total and per-package self import time (ms) and the module count."""
    total, modules = 0.0, 0
    groups = dict.fromkeys(IMPORT_GROUPS, 0.0)
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        ms = int(m.group(1)) / 1000.0
        name = m.group(3)
        total += ms
        modules += 1
        top = name.split(".", 1)[0]
        if top in groups:
            groups[top] += ms
    out = {"import.total_ms": total, "import.modules": modules}
    out.update({f"import.{g}_ms": v for g, v in groups.items()})
    return out
