"""tsecon benchmark: one workload per run, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md):

* ``cli_cold``: fresh ``python -m tsecon.cli`` processes cycling report,
  ingest, adf and granger;
* ``pipeline_warm``: the bundled study replayed in a warm process;
* ``long_panel``: a seeded 40-series x 200-year bundle replayed in a warm
  process.

Every op's output is checked; a failed check counts as a failed op.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines above it repeat the numbers
for people, with the tail percentile, the failure ratio, the host calibration
and the source line count.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracing import metric_names  # noqa: E402

WORKLOADS = ("cli_cold", "pipeline_warm", "long_panel")
SETUP_REPEATS = 5
COLD_OP_TIMEOUT_S = 30.0
SETUP_TIMEOUT_S = 30.0
TAIL_BEYOND = 10

# gated in BENCHMARK.json.  The other latency figures are printed as text only:
# the host's speed drifts enough between runs to move them by more than the
# largest bound allowed (see README.md).
END_TO_END = {"setup_s": "s", "op_tail_ms": "ms", "peak_rss_mb": "MB"}
TEXT_ONLY = {"op_p10_ms": "ms", "op_p50_ms": "ms", "ops_per_s": "1/s"}
STATIC = ("manifest.steps", "dataset.series", "dataset.load_bytes", "report.files", "report.bytes")
PER_LAYER = (
    [f"import.{g}_ms" for g in ("total",) + wl.IMPORT_GROUPS] + ["import.modules"]
    + metric_names() + list(STATIC) + ["trace.overhead_ms", "host.calib_ms", "code.src_lines"]
)


class BenchError(Exception):
    """The benchmark could not measure (as opposed to an op that failed its check)."""


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("bytes"):
        return "B"
    if name == "code.src_lines":
        return "lines"
    return "count"


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for key in ("TSECON_DATASET", "TSECON_BENEF", "PYTHONSTARTUP"):
        env.pop(key, None)
    return env


def python_cmd(trace: bool) -> list[str]:
    return [sys.executable] + (["-X", "importtime"] if trace else [])


class Worker:
    """A worker.py process: time from spawn to its ``ready`` line, then its result."""

    def __init__(self, role: str, workdir: Path, args, trace: bool, **extra):
        workdir.mkdir(parents=True, exist_ok=True)
        cmd = python_cmd(trace) + [
            str(HERE / "worker.py"), "--role", role, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--workdir", str(workdir),
        ]
        for key, value in extra.items():
            cmd += [f"--{key}", str(value)]
        self.err_path = workdir / "stderr.txt"
        with open(self.err_path, "wb") as err:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT,
                                         env=child_env(), text=True)
        limit = args.seconds + 60.0 if role == "run" else SETUP_TIMEOUT_S
        self.watchdog = threading.Timer(limit, self.proc.kill)
        self.watchdog.start()
        try:
            first = self.proc.stdout.readline()
            self.setup_s = time.perf_counter() - t0
            rest = self.proc.stdout.read()
            self.proc.wait()
        finally:
            self.watchdog.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
        self.stderr = self.err_path.read_text("utf-8", errors="replace")
        results = [ln for ln in (first + rest).splitlines() if ln.startswith("result ")]
        if self.proc.returncode != 0 or (role != "cli_probe" and first.strip() != "ready"):
            tail = "\n".join(self.stderr.splitlines()[-15:])
            raise BenchError(f"worker {role} exited {self.proc.returncode}:\n{tail}")
        self.result = json.loads(results[-1][len("result "):]) if results else {}


def run_cold(argv: list[str], workdir: Path, trace: bool) -> tuple[float, float, int, str]:
    """One fresh CLI process: (seconds, peak RSS in MB, exit code, stdout)."""
    out_path, err_path = workdir / "cold.out", workdir / "cold.err"
    cmd = python_cmd(trace) + ["-m", "tsecon.cli"] + argv
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=workdir, env=child_env())
        watchdog = threading.Timer(COLD_OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - t0
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_text("utf-8", errors="replace")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Outcome:
    def __init__(self):
        self.setups: list[float] = []
        self.latencies_ms: list[float] = []
        self.untraced_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_mb = 0.0
        self.layers: dict[str, float] = {}
        self.absent: list[str] = []
        self.extra: dict[str, str] = {}

    def count(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems = (self.problems + problems)[:5]

    def merge(self, result: dict) -> None:
        self.attempted += result.get("attempted", 0)
        self.failed += result.get("failed", 0)
        self.problems = (self.problems + result.get("problems", []))[:5]
        self.layers.update(result.get("layers", {}))
        self.absent += [a for a in result.get("absent", []) if a not in self.absent]


def import_layers(stderr_texts: list[str]) -> dict[str, float]:
    parsed = [wl.import_metrics(t) for t in stderr_texts]
    return {k: median(p[k] for p in parsed) for k in parsed[0]} if parsed else {}


def in_process(args, workdir: Path) -> Outcome:
    res = Outcome()
    trace = bool(args.trace)
    setups = [Worker("setup", workdir / f"setup-{i}", args, trace) for i in range(SETUP_REPEATS - 1)]
    main = Worker("run", workdir / "main", args, trace, spans=workdir.parent / f"spans-{args.workload}.jsonl")
    res.setups = [w.setup_s for w in setups] + [main.setup_s]
    res.merge(main.result)
    res.latencies_ms = main.result["latencies_ms"]
    res.peak_rss_mb = main.result["peak_rss_mb"]
    if trace:
        res.layers.update(import_layers([w.stderr for w in setups + [main]]))
    return res


def cli_cold(args, workdir: Path) -> Outcome:
    res = Outcome()
    trace = bool(args.trace)
    refs_workers = [Worker("reference", workdir / f"ref-{i}", args, False) for i in range(SETUP_REPEATS)]
    res.setups = [w.setup_s for w in refs_workers]
    refs = refs_workers[-1].result
    res.count(refs["problems"])
    refs_path = workdir / "refs.json"
    refs_path.write_text(json.dumps(refs), "utf-8")

    study_data = SRC / "tsecon" / "data"
    adf, granger = wl.cli_cases((study_data / "default_manifest.ini").read_text("utf-8"),
                                wl.series_names(study_data))
    rng = random.Random(args.seed)
    cases = [{"args": ["report"]}, {"args": ["ingest"]}, rng.choice(adf), rng.choice(granger)]
    res.extra["cases"] = " | ".join(" ".join(c["args"]) for c in cases)

    out = workdir / "bundle"
    by_command: dict[str, list[float]] = {}
    imports: list[str] = []
    deadline = time.perf_counter() + args.seconds
    cycle = 0
    while time.perf_counter() < deadline:
        traced = trace and cycle % 2 == 0
        for case in cases:
            command = case["args"][0]
            argv = case["args"] + (["--output", str(out)] if command == "report" else [])
            elapsed, rss, code, stdout = run_cold(argv, workdir, traced)
            if code != 0:
                problems = [f"{command} exited {code}"]
            else:
                problems = wl.check_cli(command, case, stdout, out, refs)
            shutil.rmtree(out, ignore_errors=True)
            res.count(problems)
            res.peak_rss_mb = max(res.peak_rss_mb, rss)
            if traced:
                imports.append((workdir / "cold.err").read_text("utf-8", errors="replace"))
            (res.untraced_ms if trace and not traced else res.latencies_ms).append(elapsed * 1000.0)
            by_command.setdefault(command, []).append(elapsed)
        cycle += 1
    for command in ("report", "ingest"):
        values = by_command.get(command, [])
        if values:
            res.extra[f"{command}_cold_s"] = f"{median(values):.4f} s (median of {len(values)})"
    if trace:
        res.layers.update(import_layers(imports))
        probe = Worker("cli_probe", workdir / "probe", args, False, cases=json.dumps(cases),
                       refs=refs_path,
                       spans=workdir.parent / f"spans-{args.workload}.jsonl")
        res.merge(probe.result)
        res.layers.update(refs["static"])
        if res.untraced_ms:
            res.layers["trace.overhead_ms"] = median(res.latencies_ms) - median(res.untraced_ms)
    return res


# ---------------------------------------------------------------------------
# host record
# ---------------------------------------------------------------------------

def calibrate_ms() -> float:
    """Median of three timings of a fixed pure-Python plus numpy loop."""
    import numpy as np

    a = np.linspace(1.0, 2.0, 240).reshape(40, 6) ** np.arange(1, 7)
    b = np.linspace(0.0, 1.0, 40)

    def once() -> float:
        t0 = time.perf_counter()
        s = 0
        for i in range(200_000):
            s = (s + i * i) % 1_000_003
        for _ in range(300):
            np.linalg.lstsq(a, b, rcond=None)
        return (time.perf_counter() - t0) * 1000.0

    return median(once() for _ in range(3))


def src_lines() -> int:
    return sum(len(p.read_text("utf-8").splitlines()) for p in sorted((SRC / "tsecon").glob("*.py")))


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    idx = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def end_to_end(res: Outcome) -> dict[str, float]:
    """The END_TO_END metrics followed by the TEXT_ONLY figures."""
    lat = res.latencies_ms
    return {
        "setup_s": median(res.setups),
        "op_tail_ms": tail(lat)[0],
        "peak_rss_mb": res.peak_rss_mb,
        "op_p10_ms": quantiles(lat, n=10)[0] if len(lat) > 1 else lat[0],
        "op_p50_ms": median(lat),
        "ops_per_s": 1000.0 * len(lat) / sum(lat),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "tsecon" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'tsecon'} is missing", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        calib_start = calibrate_ms()
        res = (cli_cold if args.workload == "cli_cold" else in_process)(args, workdir)
        calib_end = calibrate_ms()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not res.latencies_ms:
        print("perfbench: no timed op completed", file=sys.stderr)
        return 1

    lines = src_lines()
    e2e = end_to_end(res)
    tail_ms, tail_pct = tail(res.latencies_ms)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}"
          + ("  (timings below are of traced ops)" if args.trace else ""))
    for name, value in e2e.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{tail_pct:.1f}, n={len(res.latencies_ms)})"
        elif name == "setup_s":
            note = "  (median of " + ", ".join(f"{s:.3f}" for s in res.setups) + ")"
        elif name in TEXT_ONLY:
            note = "  (not gated)"
        unit = END_TO_END.get(name) or TEXT_ONLY[name]
        print(f"  {name:24s} {value:12.4f} {unit}{note}")
    print(f"  {'failed_ratio':24s} {res.failed / max(res.attempted, 1):12.4f}  "
          f"({res.failed} of {res.attempted} ops)")
    for key, value in res.extra.items():
        print(f"  {key:24s} {value}")
    print(f"  {'host.calib_ms':24s} start {calib_start:.2f}  end {calib_end:.2f}")
    print(f"  {'code.src_lines':24s} {lines}")
    for problem in res.problems:
        print(f"  check failed: {problem}")
    if args.trace:
        layers = dict(res.layers, **{"host.calib_ms": median([calib_start, calib_end]),
                                     "code.src_lines": lines})
        if res.absent:
            print("  absent wrap targets (metrics read 0): " + ", ".join(res.absent))
        metrics = {n: {"value": layers.get(n, 0), "unit": per_layer_unit(n)} for n in PER_LAYER}
        for name, m in metrics.items():
            print(f"  {name:32s} {m['value']:14.4f} {m['unit']}")
    else:
        metrics = {n: {"value": e2e[n], "unit": unit} for n, unit in END_TO_END.items()}
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
