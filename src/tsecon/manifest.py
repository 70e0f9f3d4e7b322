"""Line-oriented pipeline manifests.

A manifest is a sequence of ``[step <name>]`` sections with ``key = value``
entries, preceded by an optional ``[pipeline]`` section holding the dataset
path, output directory and the list of optional series (other keys there,
such as ``seed``, are accepted and ignored).  The bundled default manifest
encodes the complete reproduction pipeline and doubles as executable
documentation of it.
"""
from __future__ import annotations

import re
from pathlib import Path

from ._record import record

__all__ = [
    "ManifestError", "PipelineManifest", "Step", "StepError", "default_manifest_text",
    "parse_manifest",
]


class ManifestError(Exception):
    """Raised for manifest syntax, reference or step-value errors.

    An error in a step's value names the step, the key and the value.  Its
    message is the step, ``lead`` (the words naming the key) and ``reason``, so
    a caller that set the key from a command-line flag can report ``reason``
    under the flag's name.
    """

    def __init__(self, reason: str, step: str | None = None, key: str | None = None,
                 value: str | None = None, lead: str = ""):
        super().__init__(reason if step is None else f"step {step!r}: {lead}{reason}")
        self.reason, self.step, self.key, self.value = reason, step, key, value


class StepError(Exception):
    """A step whose values parsed failed while it ran; ``cause`` is the engine's error."""

    def __init__(self, step: str, cause: Exception):
        super().__init__(f"step {step!r} failed: {cause}")
        self.step = step
        self.cause = cause


@record
class Step:
    """A ``[step <name>]`` section: its op and each other key's values, in order."""

    name: str
    op: str
    options: dict[str, list[str]]


@record
class PipelineManifest:
    dataset_path: str
    output_dir: str
    optional_series: tuple[str, ...]
    steps: tuple[Step, ...]
    source_text: str = ""

    @property
    def dataset_location(self) -> str | None:
        """The dataset path to load, or ``None`` for the bundled dataset."""
        return None if self.dataset_path in ("bundled", "") else self.dataset_path


_SECTION_RE = re.compile(r"^\[(pipeline|step\s+(?P<name>[A-Za-z0-9_.-]+))\]\s*$")


def parse_manifest(text: str) -> PipelineManifest:
    """Parse manifest text; raises ManifestError on any syntax problem."""
    pipeline_opts: dict[str, list[str]] = {}
    steps: list[Step] = []
    current: dict[str, list[str]] | None = None
    current_name = ""
    current_is_pipeline = False
    seen_names: set[str] = set()

    def close():
        nonlocal current
        if current is not None and not current_is_pipeline:
            op = current.get("op")
            if not op:
                raise ManifestError(f"step {current_name!r}: missing 'op'")
            steps.append(Step(current_name, op[0], {k: v for k, v in current.items() if k != "op"}))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SECTION_RE.match(line)
        if m:
            close()
            if m.group(1) == "pipeline":
                current = pipeline_opts
                current_is_pipeline = True
            else:
                name = m.group("name")
                if name in seen_names:
                    raise ManifestError(f"line {lineno}: duplicate step name {name!r}")
                seen_names.add(name)
                current = {}
                current_name = name
                current_is_pipeline = False
            continue
        if "=" not in line:
            raise ManifestError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ManifestError(f"line {lineno}: entry outside any section")
        key, _, value = line.partition("=")
        current.setdefault(key.strip(), []).append(value.strip())
    close()

    def first(key: str, default: str) -> str:
        vals = pipeline_opts.get(key)
        return vals[0] if vals else default

    optional = tuple(
        s.strip() for s in first("optional", "Tax benefits").split(",") if s.strip()
    )
    return PipelineManifest(
        dataset_path=first("dataset", "bundled"),
        output_dir=first("output", "reproduction"),
        optional_series=optional,
        steps=tuple(steps),
        source_text=text,
    )


def default_manifest_text() -> str:
    """The bundled manifest reproducing the full published analysis."""
    path = Path(__file__).resolve().parent / "data" / "default_manifest.ini"
    return path.read_text("utf-8")
