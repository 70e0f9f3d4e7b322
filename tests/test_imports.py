"""Import hygiene: what a fresh process loads for each entry point.

Start-up time is dominated by imports, so these checks run each entry point
in a new interpreter and inspect ``sys.modules`` afterwards.
"""
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tsecon

from conftest import run_cli

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC_NAMES = [
    "AdfResult", "AdfSpec", "AnnualSeries", "ArFitResult", "ArSpec", "CapitalScenario",
    "ChowResult", "CointegrationResult", "Dataset", "DatasetError", "EstimationError",
    "FitResult", "GrangerResult", "GrangerSpec", "ModelSpec", "PipelineManifest", "ReportBundle",
    "ScenarioResult", "Term", "TermError", "TslsSpec", "VarModel", "VarSpec", "adf_test",
    "apply_term",
    "chow_test", "cochrane_orcutt_fit", "compare_models", "default_manifest_text",
    "df_residual_test", "engle_granger", "granger_causality", "impulse_response",
    "load_dataset", "ols_fit", "parse_manifest", "parse_term", "render_irf_plot",
    "render_table", "run_pipeline", "simulate_exports", "simulate_unemployment", "tsls_fit",
    "var_fit", "variance_decomposition",
]

REPORT_MODULES = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in {roots!r})))
"""


def loaded_after(code: str, roots: tuple[str, ...] = ("numpy", "scipy")) -> list[str]:
    """Modules under ``roots`` (default numpy/scipy) loaded by ``code`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code + REPORT_MODULES.format(roots=roots)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_ingest_loads_neither_numpy_nor_scipy():
    # the dataset checksum uses CPython's own SHA-256 (hashlib loads OpenSSL), and the CLI
    # parses its flags with argparse
    code = """
import runpy, sys
sys.argv = ["tsecon", "ingest"]
try:
    runpy.run_module("tsecon.cli", run_name="__main__")
except SystemExit as exc:
    assert not exc.code, exc.code
"""
    assert loaded_after(code, ("numpy", "scipy", "hashlib", "_hashlib", "click")) == []


def test_import_tsecon_loads_neither_numpy_nor_scipy():
    assert loaded_after("import tsecon") == []


def test_full_pipeline_never_loads_scipy_stats():
    code = """
import tsecon
manifest = tsecon.parse_manifest(tsecon.default_manifest_text())
bundle = tsecon.run_pipeline(manifest, tsecon.load_dataset())
assert "pipeline_summary" in bundle.tables
"""
    loaded = loaded_after(code)
    assert "numpy" in loaded
    assert not [m for m in loaded if m.split(".")[0] == "scipy"]


def test_report_loads_no_scipy_nor_numpy_tooling(tmp_path):
    # scipy's array-API layer pulls in numpy.f2py and numpy.testing; a cold
    # report needs neither
    code = f"""
import runpy, sys
sys.argv = ["tsecon", "report", "--output", {str(tmp_path / "out")!r}]
try:
    runpy.run_module("tsecon.cli", run_name="__main__")
except SystemExit as exc:
    assert not exc.code, exc.code
"""
    loaded = loaded_after(code, ("numpy", "scipy", "hashlib", "_hashlib", "click"))
    assert (tmp_path / "out" / "tables" / "pipeline_summary.csv").exists()
    assert "numpy.linalg" in loaded
    assert not [m for m in loaded if m.split(".")[0] in ("scipy", "hashlib", "_hashlib", "click")
                or m.startswith(("numpy.f2py", "numpy.testing"))]


def test_report_loads_no_dataclasses(tmp_path):
    # the result types are records built without generated source
    code = f"""
import runpy, sys
sys.argv = ["tsecon", "report", "--output", {str(tmp_path / "out")!r}]
try:
    runpy.run_module("tsecon.cli", run_name="__main__")
except SystemExit as exc:
    assert not exc.code, exc.code
"""
    loaded = loaded_after(code, ("dataclasses", "tsecon"))
    assert "tsecon.pipeline" in loaded and "dataclasses" not in loaded


def test_only_the_process_entry_freezes_the_heap(tmp_path):
    before = gc.get_freeze_count()
    r = run_cli(["report", "--output", str(tmp_path / "out")])
    assert r.exit_code == 0
    assert gc.get_freeze_count() == before == 0


def test_public_names_unchanged():
    assert sorted(tsecon.__all__) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(tsecon))
    for name in PUBLIC_NAMES:
        assert getattr(tsecon, name).__name__ == name


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        tsecon.nope
