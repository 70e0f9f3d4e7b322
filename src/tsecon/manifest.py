"""Line-oriented pipeline manifests.

A manifest is a sequence of ``[step <name>]`` sections with ``key = value``
entries, preceded by an optional ``[pipeline]`` section holding the dataset
path, output directory and the list of optional series; any other key there
is a ``ManifestError``, as a key its op does not read is in a step.  Only
``row``, ``plot`` and ``requires`` may be given more than once in a step
(``one_value`` refuses a second value of any other key).  The bundled default
manifest encodes the complete reproduction pipeline and doubles as executable
documentation of it.
"""
from __future__ import annotations

import re
from pathlib import Path

from ._record import record

__all__ = [
    "ManifestError", "PipelineManifest", "Step", "StepError", "default_manifest_text",
    "one_value", "parse_manifest",
]


class ManifestError(Exception):
    """Raised for manifest syntax, reference or step-value errors.

    An error in a key's value names the key's section (its step, or
    ``[pipeline]`` when ``step`` is ``None``), the key and the value.  Its
    message is the section, ``lead`` (the words naming the key) and
    ``reason``, so a caller that set the key from a command-line flag can
    report ``reason`` under the flag's name.
    """

    def __init__(self, reason: str, step: str | None = None, key: str | None = None,
                 value: str | None = None, lead: str = ""):
        where = "[pipeline]" if step is None else f"step {step!r}"
        super().__init__(reason if key is None else f"{where}: {lead}{reason}")
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
# each [pipeline] key and its default
_PIPELINE = {"dataset": "bundled", "output": "reproduction", "optional": "Tax benefits"}


def one_value(values: list[str], key: str, step: str | None, default=None):
    """The one value given for ``key`` in ``step`` (``None``: ``[pipeline]``), or ``default``.

    A second value is a ``ManifestError`` naming it and the first.
    """
    if len(values) > 1:
        raise ManifestError(f"{values[1]!r}; expected one value, and {key} is already "
                            f"{values[0]!r}", step, key, values[1], f"bad {key} ")
    return values[0] if values else default


def parse_manifest(text: str) -> PipelineManifest:
    """Parse manifest text; raises ManifestError on any syntax problem."""
    pipeline: dict[str, list[str]] = {}
    sections: dict[str, dict[str, list[str]]] = {}  # each step's keys, by step name
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SECTION_RE.match(line)
        if m:
            name = m.group("name")
            if name in sections:
                raise ManifestError(f"line {lineno}: duplicate step name {name!r}")
            current = pipeline if name is None else sections.setdefault(name, {})
        elif "=" not in line:
            raise ManifestError(f"line {lineno}: expected 'key = value', got {line!r}")
        elif current is None:
            raise ManifestError(f"line {lineno}: entry outside any section")
        else:
            key, _, value = line.partition("=")
            current.setdefault(key.strip(), []).append(value.strip())

    unknown = [key for key in pipeline if key not in _PIPELINE]
    if unknown:
        raise ManifestError(f"unknown key {unknown[0]!r}", None, unknown[0])
    dataset, output, optional = (one_value(pipeline.get(key, []), key, None, default)
                                 for key, default in _PIPELINE.items())
    steps = []
    for name, options in sections.items():
        op = one_value(options.pop("op", []), "op", name)
        if op is None:
            raise ManifestError("missing 'op'", name, "op")
        steps.append(Step(name, op, options))
    return PipelineManifest(
        dataset_path=dataset,
        output_dir=output,
        optional_series=tuple(s.strip() for s in optional.split(",") if s.strip()),
        steps=tuple(steps),
        source_text=text,
    )


def default_manifest_text() -> str:
    """The bundled manifest reproducing the full published analysis."""
    path = Path(__file__).resolve().parent / "data" / "default_manifest.ini"
    return path.read_text("utf-8")
