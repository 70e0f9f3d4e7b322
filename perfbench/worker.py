"""Benchmark worker: the process that imports and runs the program in-process.

``run.py`` starts it; it is not meant to be run by hand.  Roles:

* ``setup``: import, make the inputs, warm up, print ``ready`` and exit;
* ``run``: the same, then the timed closed loop, then one ``result`` line;
* ``reference``: one study replay whose bundle and tables the cold CLI
  commands are checked against;
* ``cli_probe``: in-process click invocations of the cold CLI commands,
  traced, for the ``cli`` layer.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STUDY_DATA = ROOT / "src" / "tsecon" / "data"
WARMUP_OPS = 1
PROBE_CYCLES = 5

sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

import tsecon.dataset  # noqa: E402
import tsecon.manifest  # noqa: E402
import tsecon.pipeline  # noqa: E402


class Workload:
    """One op of a workload plus the checks of its output.

    An op is ``replays`` replays, each writing its bundle to ``<out>/<i>``.
    Calls go through module attributes so that the tracer's wrappers apply.
    """

    replays = 1

    def __init__(self, data_dir: Path, manifest_text: str):
        self.data_dir = data_dir
        self.checksum = wl.csv_checksum(data_dir)
        available = wl.series_names(data_dir)
        self.statuses = wl.expected_statuses(manifest_text, available)
        self.static = {
            "manifest.steps": len(self.statuses),
            "dataset.series": len(available),
            "dataset.load_bytes": wl.input_bytes(data_dir),
        }
        self.reference: str | None = None

    def replay(self, out: Path) -> None:
        raise NotImplementedError

    def op(self, out: Path) -> None:
        for i in range(self.replays):
            self.replay(out / str(i))

    def check(self, out: Path) -> list[str]:
        problems = []
        for i in range(self.replays):
            bundle = out / str(i)
            problems += wl.check_bundle(bundle, self.checksum, self.statuses)
            digest, files, n_bytes = wl.tree_digest(bundle)
            if self.reference is None:
                self.reference = digest
                self.static.update({"report.files": files, "report.bytes": n_bytes})
            elif digest != self.reference:
                problems.append("bundle differs from this run's first bundle")
        return problems


class Study(Workload):
    """pipeline_warm: replay the bundled study from its default manifest."""

    # One replay takes 15-45 ms here; eight make an op long enough that its
    # tail latency no longer swings with sub-second changes in host speed.
    replays = 8

    def __init__(self, workdir: Path, seed: int):
        super().__init__(STUDY_DATA, (STUDY_DATA / "default_manifest.ini").read_text("utf-8"))

    def replay(self, out: Path) -> None:
        m = tsecon.manifest.parse_manifest(tsecon.manifest.default_manifest_text())
        ds = tsecon.dataset.load_dataset()
        tsecon.pipeline.run_pipeline(m, ds).write(out)


class Panel(Workload):
    """long_panel: a seeded 40-series x 200-year bundle and its manifest."""

    def __init__(self, workdir: Path, seed: int):
        data_dir = workdir / "panel"
        manifest_path = workdir / "panel.ini"
        manifest_path.write_text(wl.write_panel(data_dir, seed), "utf-8")
        text = manifest_path.read_text("utf-8")
        super().__init__(data_dir, text)
        self.manifest = tsecon.manifest.parse_manifest(text)

    def replay(self, out: Path) -> None:
        ds = tsecon.dataset.load_dataset(self.data_dir)
        tsecon.pipeline.run_pipeline(self.manifest, ds).write(out)


WORKLOADS = {"pipeline_warm": Study, "long_panel": Panel}


class Loop:
    """Closed loop of checked ops; failures are counted, never raised."""

    def __init__(self, workload: Workload, workdir: Path, tracer: Tracer | None):
        self.workload = workload
        self.out = workdir / "op"
        self.tracer = tracer
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.latencies: list[float] = []
        self.untraced: list[float] = []
        self.op_counts: dict[int, dict[str, int]] = {}

    def step(self, timed: bool) -> None:
        op_id = self.attempted
        traced = self.tracer is not None and timed and op_id % 2 == 0
        if traced:
            self.tracer.install()
            before = self.tracer.begin_op(op_id)
        t0 = time.perf_counter()
        try:
            self.workload.op(self.out)
            error = None
        except Exception as exc:  # counted as a failed op
            error = f"{type(exc).__name__}: {exc}"
        elapsed = (time.perf_counter() - t0) * 1000.0
        if traced:
            self.tracer.uninstall()
            self.op_counts[op_id] = self.tracer.op_counts(before)
        problems = [error] if error else self.workload.check(self.out)
        shutil.rmtree(self.out, ignore_errors=True)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems = (self.problems + problems)[:5]
        if timed:
            (self.latencies if traced or self.tracer is None else self.untraced).append(elapsed)

    def run(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.step(timed=True)


def _emit(tag: str, payload=None) -> None:
    print(tag if payload is None else f"{tag} {json.dumps(payload)}", flush=True)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(args) -> None:
    workdir = Path(args.workdir)
    workload = WORKLOADS[args.workload](workdir, args.seed)
    tracer = Tracer() if args.trace else None
    loop = Loop(workload, workdir, tracer)
    for _ in range(WARMUP_OPS):
        loop.step(timed=False)
    _emit("ready")
    if args.role == "setup":
        return
    loop.run(args.seconds)
    result = {
        "attempted": loop.attempted, "failed": loop.failed, "problems": loop.problems,
        "latencies_ms": loop.latencies, "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        layers = layer_metrics(tracer, loop.op_counts)
        layers.update(workload.static)
        if loop.untraced:
            layers["trace.overhead_ms"] = median(loop.latencies) - median(loop.untraced)
        result.update(layers=layers, absent=tracer.absent)
        tracer.write(args.spans)
    _emit("result", result)


def run_reference(args) -> None:
    """Replay the study once and hand its bundle facts to the cold CLI checks."""
    workdir = Path(args.workdir)
    study = Study(workdir, args.seed)
    out = workdir / "reference"
    study.op(out)
    problems = study.check(out)
    out = out / "0"
    battery = wl.read_csv(out / "tables" / "adf_battery.csv")[1:]
    _, granger = wl.cli_cases(
        (STUDY_DATA / "default_manifest.ini").read_text("utf-8"), wl.series_names(STUDY_DATA))
    tables = {}
    for case in granger:
        rows = wl.read_csv(out / "tables" / f"{case['step']}.csv")[1:]
        tables[case["step"]] = [[r[0], r[1], r[4], r[5]] for r in rows]  # cause, effect, F, p
    shutil.rmtree(out.parent, ignore_errors=True)
    _emit("ready")
    _emit("result", {
        "digest": study.reference, "checksum": study.checksum, "statuses": study.statuses,
        "series": study.static["dataset.series"], "battery": battery, "granger": tables,
        "static": study.static, "problems": problems,
    })


def run_cli_probe(args) -> None:
    """Traced in-process click invocations, one cycle of commands per op."""
    import tsecon.cli

    workdir = Path(args.workdir)
    cases = json.loads(args.cases)
    refs = json.loads(Path(args.refs).read_text("utf-8"))
    out = workdir / "probe"
    tracer = Tracer()
    op_counts: dict[int, dict[str, int]] = {}
    failed = attempted = 0
    problems: list[str] = []

    def invoke(argv: list[str]) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            tsecon.cli.main.main(args=argv, prog_name="tsecon", standalone_mode=False)
        return buf.getvalue()

    for cycle in range(PROBE_CYCLES + 1):
        traced = cycle > 0  # the first cycle warms up
        if traced:
            tracer.install()
            before = tracer.begin_op(cycle)
        for case in cases:
            command = case["args"][0]
            argv = case["args"] + (["--output", str(out)] if command == "report" else [])
            attempted += 1
            try:
                stdout = (tracer.span(f"cli.invoke.{command}", invoke, argv) if traced
                          else invoke(argv))
                found = wl.check_cli(command, case, stdout, out, refs)
            except (Exception, SystemExit) as exc:  # click exits on usage errors
                found = [f"{command}: {type(exc).__name__}: {exc}"]
            shutil.rmtree(out, ignore_errors=True)
            if found:
                failed += 1
                problems.extend(found)
        if traced:
            tracer.uninstall()
            op_counts[cycle] = tracer.op_counts(before)
    tracer.write(args.spans)
    _emit("result", {"layers": layer_metrics(tracer, op_counts), "absent": tracer.absent,
                     "attempted": attempted, "failed": failed, "problems": problems[:5]})


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=["setup", "run", "reference", "cli_probe"], required=True)
    ap.add_argument("--workload", default="pipeline_warm")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--cases", default="[]")
    ap.add_argument("--refs", default="")
    ap.add_argument("--spans", default="spans.jsonl", help="where a traced run writes its spans")
    args = ap.parse_args()
    Path(args.workdir).mkdir(parents=True, exist_ok=True)
    if args.role == "reference":
        run_reference(args)
    elif args.role == "cli_probe":
        run_cli_probe(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
