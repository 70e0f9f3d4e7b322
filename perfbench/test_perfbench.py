"""Tests of the benchmark itself: checks count failures, traces repeat exactly.

Run with ``python -m pytest perfbench`` from the repository root.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
import tracing
import workloads as wl
from worker import Loop, Panel, Study

ROOT = Path(__file__).resolve().parent.parent


def _loop(workload, tmp_path, tracer=None, ops=2) -> Loop:
    loop = Loop(workload, tmp_path, tracer)
    for _ in range(ops):
        loop.step(timed=True)
    return loop


def test_study_ops_pass_their_checks(tmp_path):
    loop = _loop(Study(tmp_path, 0), tmp_path)
    assert (loop.attempted, loop.failed) == (2, 0), loop.problems


def test_corrupted_input_is_counted_not_raised(tmp_path):
    panel = Panel(tmp_path, seed=3)
    loop = _loop(panel, tmp_path, ops=1)
    assert loop.failed == 0, loop.problems

    # a changed cell still loads, but the checksum and the bundle differ
    first = sorted((tmp_path / "panel").glob("*.csv"))[0]
    lines = first.read_text("utf-8").splitlines()
    year, value = lines[5].split(",")
    lines[5] = f"{year},{float(value) * 1.5!r}"
    first.write_text("\n".join(lines) + "\n", "utf-8")
    loop.step(timed=True)
    assert (loop.attempted, loop.failed) == (2, 1)
    assert any("checksum" in p for p in loop.problems)

    # a cell that does not parse makes the op itself fail
    first.write_text(first.read_text("utf-8").replace(lines[5], f"{year},oops"), "utf-8")
    loop.step(timed=True)
    assert (loop.attempted, loop.failed) == (3, 2)
    assert any("DatasetError" in p for p in loop.problems)


def test_exact_counts_repeat_across_traced_runs(tmp_path):
    counts = []
    for run_no in range(2):
        tracer = tracing.Tracer()
        loop = _loop(Study(tmp_path, 0), tmp_path / str(run_no), tracer, ops=3)
        assert loop.failed == 0, loop.problems
        layers = tracing.layer_metrics(tracer, loop.op_counts)
        counts.append({k: v for k, v in layers.items() if k.endswith("_calls")})
        assert not tracer.absent
    assert counts[0] == counts[1]
    assert counts[0]["dataset.value_in_calls"] > 0
    assert counts[0]["linalg.lstsq_calls"] > 0


def test_tracer_restores_the_program(tmp_path):
    import tsecon.pipeline

    original = tsecon.pipeline.adf_test
    tracer = tracing.Tracer()
    tracer.install()
    assert tsecon.pipeline.adf_test is not original
    tracer.uninstall()
    assert tsecon.pipeline.adf_test is original


def test_missing_wrap_target_is_absent_not_an_error(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("gone.fn", "tsecon.pipeline", "no_such_function", "span"),
        ("gone.mod", "tsecon.no_such_module", "fn", "span"),
    ))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["tsecon.pipeline.no_such_function", "tsecon.no_such_module.fn"]


def test_panel_is_seeded_and_its_checksum_is_the_programs(tmp_path):
    from tsecon.dataset import load_dataset

    text_a = wl.write_panel(tmp_path / "a", 11)
    text_b = wl.write_panel(tmp_path / "b", 11)
    wl.write_panel(tmp_path / "c", 12)
    assert text_a == text_b
    assert wl.csv_checksum(tmp_path / "a") == wl.csv_checksum(tmp_path / "b")
    assert wl.csv_checksum(tmp_path / "a") != wl.csv_checksum(tmp_path / "c")
    assert load_dataset(tmp_path / "a").checksum == wl.csv_checksum(tmp_path / "a")


def test_cli_checks_catch_a_wrong_number(tmp_path):
    refs = {"battery": [["Ln(X)", "-2.5", "0.3"]], "checksum": "ab" * 32, "series": 15}
    case = {"args": ["adf"], "row": 0}
    assert wl.check_cli("adf", case, "Test statistic: tau = -2.5\n", tmp_path, refs) == []
    assert wl.check_cli("adf", case, "Test statistic: tau = -2.51\n", tmp_path, refs)
    ingest = f"series: 15\nchecksum: {'ab' * 32}\n"
    assert wl.check_cli("ingest", {}, ingest, tmp_path, refs) == []
    assert wl.check_cli("ingest", {}, ingest.replace("ab", "cd"), tmp_path, refs)


def test_import_metrics_parse_importtime():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 |   numpy.core\n"
        "import time:      2000 |       5000 | scipy\n"
        "import time:       500 |        500 |     tsecon.cli\n"
    )
    m = wl.import_metrics(text)
    assert m["import.total_ms"] == pytest.approx(2.6)
    assert m["import.scipy_ms"] == pytest.approx(2.0)
    assert m["import.modules"] == 3


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(100)]
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(90.0)
