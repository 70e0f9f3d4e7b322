"""In-memory span tracer that wraps the program's public functions from outside.

The tracer replaces a function by a timing wrapper wherever a ``tsecon``
module binds it (``from .x import f`` copies the name into the importer), and
a method on its class.  Spans are ``(name, start, end, parent, op)`` tuples
kept in memory; counters only count calls.  Nothing inside ``src/`` changes.

A target the program no longer has (a renamed module or function) is listed in
``Tracer.absent`` and its metrics read 0; it never raises.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from statistics import median

# (metric base, module, attribute, kind): kind "span" times and counts the
# call, "count" only counts it.  "Class.method" names a method.
TARGETS = (
    ("manifest.parse", "tsecon.manifest", "parse_manifest", "span"),
    ("dataset.load", "tsecon.dataset", "load_dataset", "span"),
    ("dataset.apply_term", "tsecon.dataset", "apply_term", "span"),
    ("dataset.parse_term", "tsecon.dataset", "parse_term", "count"),
    ("dataset.value_in", "tsecon.dataset", "AnnualSeries.value_in", "count"),
    ("pipeline.self", "tsecon.pipeline", "run_pipeline", "span"),
    ("unitroot.adf", "tsecon.unitroot", "adf_test", "span"),
    ("regress.ols", "tsecon.regress", "ols_fit", "span"),
    ("tsls.fit", "tsecon.tsls", "tsls_fit", "span"),
    ("dynamics.granger", "tsecon.dynamics", "granger_causality", "span"),
    ("dynamics.chow", "tsecon.dynamics", "chow_test", "span"),
    ("dynamics.ar", "tsecon.dynamics", "cochrane_orcutt_fit", "span"),
    ("dynamics.compare", "tsecon.dynamics", "compare_models", "span"),
    ("cointegration.eg", "tsecon.cointegration", "engle_granger", "span"),
    ("var.fit", "tsecon.var", "var_fit", "span"),
    ("var.irf", "tsecon.var", "impulse_response", "span"),
    ("var.fevd", "tsecon.var", "variance_decomposition", "span"),
    ("scenario.simulate", "tsecon.scenario", "simulate_unemployment", "span"),
    ("scenario.simulate", "tsecon.scenario", "simulate_exports", "span"),
    ("report.render", "tsecon.report", "render_table", "span"),
    ("report.render", "tsecon.report", "render_irf_plot", "span"),
    ("report.write", "tsecon.report", "ReportBundle.write", "span"),
    ("linalg.lstsq", "numpy.linalg", "lstsq", "count"),
    ("linalg.qr", "numpy.linalg", "qr", "count"),
    ("linalg.inv", "numpy.linalg", "inv", "count"),
    ("linalg.matrix_rank", "numpy.linalg", "matrix_rank", "count"),
    ("linalg.solve", "numpy.linalg", "solve", "count"),
    ("linalg.cholesky", "numpy.linalg", "cholesky", "count"),
)

CLI_COMMANDS = ("report", "ingest", "adf", "granger")


def metric_names() -> list[str]:
    """Every per-layer metric the tracer can produce, in a stable order."""
    names: list[str] = []
    for base, _, _, kind in TARGETS:
        for n in ([f"{base}_ms"] if kind == "span" else []) + [f"{base}_calls"]:
            if n not in names:
                names.append(n)
    for cmd in CLI_COMMANDS:
        names += [f"cli.invoke.{cmd}_ms"]
    names.append("cli.self_ms")
    return names


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.op = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._resolved = False

    # -- recording ---------------------------------------------------------
    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self.counts[name] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.op)

    def _span_wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- patching ----------------------------------------------------------
    def _resolve(self) -> None:
        for base, modname, attr, kind in TARGETS:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.absent.append(f"{modname}.{attr}")
                continue
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, fn_name, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            wrapper = make(base, original)
            if owner_name:
                self._patches.append((owner, fn_name, original, wrapper))
                continue
            # every tsecon module that bound the function by name
            holders = [mod] + [
                m for n, m in sorted(sys.modules.items())
                if m is not None and m is not mod and (n == "tsecon" or n.startswith("tsecon."))
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original, wrapper))
        self._resolved = True

    def install(self) -> None:
        if not self._resolved:
            self._resolve()
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    # -- results -----------------------------------------------------------
    def begin_op(self, op: int) -> Counter:
        self.op = op
        return Counter(self.counts)

    def op_counts(self, before: Counter) -> dict[str, int]:
        after = self.counts
        return {k: after[k] - before.get(k, 0) for k in after}

    def times_ms(self) -> tuple[dict[int, Counter], dict[int, Counter]]:
        """Per op and span name: (self time, total time) in ms.

        Self time is a span's duration minus the durations of its child spans.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s is not None and s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        own: dict[int, Counter] = {}
        total: dict[int, Counter] = {}
        for i, s in enumerate(self.spans):
            if s is None:
                continue
            own.setdefault(s[4], Counter())[s[0]] += (s[2] - s[1] - child[i]) * 1000.0
            total.setdefault(s[4], Counter())[s[0]] += (s[2] - s[1]) * 1000.0
        return own, total

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                if s is not None:
                    f.write(json.dumps({"name": s[0], "start": s[1], "end": s[2],
                                        "parent": s[3], "op": s[4]}) + "\n")


def layer_metrics(tracer: Tracer, op_counts: dict[int, dict[str, int]]) -> dict[str, float]:
    """Median over traced ops of each layer's time and call count.

    ``*_ms`` is self time, except ``cli.invoke.<command>_ms``, which is the
    whole in-process invocation; the CLI's own share is ``cli.self_ms``.
    """
    own, total = tracer.times_ms()
    cli_self = {op: sum(v for k, v in c.items() if k.startswith("cli.invoke."))
                for op, c in own.items()}
    ops = sorted(op_counts)

    def med(values) -> float:
        values = list(values)
        return median(values) if values else 0

    out: dict[str, float] = {}
    for name in metric_names():
        base, _, unit = name.rpartition("_")
        if name == "cli.self_ms":
            out[name] = med(cli_self.get(op, 0.0) for op in ops)
        elif base.startswith("cli.invoke."):
            out[name] = med(total.get(op, Counter())[base] for op in ops)
        elif unit == "ms":
            out[name] = med(own.get(op, Counter())[base] for op in ops)
        else:
            out[name] = med(op_counts[op].get(base, 0) for op in ops)
    return out
