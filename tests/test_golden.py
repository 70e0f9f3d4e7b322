"""Pinned snapshot of the default report bundle.

``tests/golden/default_bundle`` is the bundle ``tsecon report`` writes for the
bundled study.  Text tables, plots, the manifest echo and the checksum must
match byte for byte; every number in a CSV table must match to 1e-10 relative,
and every other CSV cell exactly.  Refresh the snapshot only for a change that
is meant to alter the bundle, with ``tsecon report --output
tests/golden/default_bundle``, and say so in the change.
"""
from __future__ import annotations

import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tsecon.manifest import default_manifest_text, parse_manifest
from tsecon.pipeline import run_pipeline

GOLDEN = Path(__file__).resolve().parent / "golden" / "default_bundle"
SRC = Path(__file__).resolve().parents[1] / "src"
RTOL = 1e-10
GOLDEN_FILES = sorted(p.relative_to(GOLDEN).as_posix() for p in GOLDEN.rglob("*") if p.is_file())


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _same_cell(got: str, want: str) -> bool:
    g, w = _number(got), _number(want)
    if g is None or w is None:
        return got == want
    if math.isnan(w) or math.isinf(w):
        return got == want
    return abs(g - w) <= RTOL * abs(w)


@pytest.fixture(scope="module")
def bundle(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    run_pipeline(parse_manifest(default_manifest_text()), dataset).write(out)
    return out


def test_same_file_set(bundle):
    written = sorted(p.relative_to(bundle).as_posix() for p in bundle.rglob("*") if p.is_file())
    assert written == GOLDEN_FILES


@pytest.mark.parametrize("name", [n for n in GOLDEN_FILES if not n.endswith(".csv")])
def test_bytes_match(bundle, name):
    assert (bundle / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", [n for n in GOLDEN_FILES if n.endswith(".csv")])
def test_csv_numbers_match(bundle, name):
    assert_csv_matches(bundle, name)


def test_fresh_cli_process_writes_the_golden_bundle(tmp_path):
    # ``python -m tsecon.cli`` exits through the entry that freezes the heap:
    # stdout must still be flushed and every file whole
    out = tmp_path / "bundle"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("TSECON_DATASET", None)
    proc = subprocess.run([sys.executable, "-m", "tsecon.cli", "report", "--output", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"wrote bundle to {out} (dataset checksum ")
    written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert written == GOLDEN_FILES
    for name in GOLDEN_FILES:
        if name.endswith(".csv"):
            assert_csv_matches(out, name)
        else:
            assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def assert_csv_matches(bundle: Path, name: str) -> None:
    got = list(csv.reader(io.StringIO((bundle / name).read_text("utf-8"))))
    want = list(csv.reader(io.StringIO((GOLDEN / name).read_text("utf-8"))))
    assert [len(r) for r in got] == [len(r) for r in want]
    bad = [
        (i, j, g, w)
        for i, (grow, wrow) in enumerate(zip(got, want))
        for j, (g, w) in enumerate(zip(grow, wrow))
        if not _same_cell(g, w)
    ]
    assert not bad, f"{name}: first differing cells (row, col, got, want): {bad[:5]}"


def test_cell_comparison_rules():
    assert _same_cell("1.00000000001", "1.0")
    assert not _same_cell("1.000001", "1.0")
    assert not _same_cell("ok", "SKIPPED")
    assert _same_cell("nan", "nan") and not _same_cell("0.5", "nan")
