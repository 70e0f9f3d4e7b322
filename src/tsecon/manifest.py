"""Line-oriented pipeline manifests.

A manifest is a sequence of ``[step <name>]`` sections with ``key = value``
entries, preceded by an optional ``[pipeline]`` section holding the dataset
path, output directory and the list of optional series (other keys there,
such as ``seed``, are accepted and ignored).  The bundled default manifest
encodes the complete reproduction pipeline and doubles as executable
documentation of it.
"""
from __future__ import annotations

import math
import re
from pathlib import Path

from ._record import record
from .dataset import TermError

__all__ = [
    "ManifestError", "PipelineManifest", "Step", "StepError", "default_manifest_text",
    "parse_manifest",
]


class ManifestError(Exception):
    """Raised for manifest syntax, reference or step-value errors.

    An error in a step's value names the step, the key and the value; its
    ``reason`` leaves out the step, so a caller that set the key from a
    command-line flag can report it under the flag's name instead.
    """

    def __init__(self, reason: str, step: str | None = None, key: str | None = None,
                 value: str | None = None):
        super().__init__(reason if step is None else f"step {step!r}: {reason}")
        self.reason, self.step, self.key, self.value = reason, step, key, value


class StepError(Exception):
    """A step whose values parsed failed while it ran; ``cause`` is the engine's error."""

    def __init__(self, step: str, cause: Exception):
        super().__init__(f"step {step!r} failed: {cause}")
        self.step = step
        self.cause = cause


_REQUIRED = object()


def parse_window(text: str) -> tuple[int, int]:
    """``YYYY:YYYY`` as a ``(first, last)`` year pair; ``ValueError`` unless first <= last."""
    lo, hi = (int(year) for year in text.split(":"))
    if lo > hi:
        raise ValueError(text)
    return lo, hi


def _number(kind, minimum: int | None = None):
    """The parser of a finite ``kind`` (int or float) >= ``minimum``, and what it expects.

    ``None`` sets no minimum; NaN and the infinities are always rejected.
    """
    def parse(text: str):
        value = kind(text)
        if not abs(value) < math.inf or (minimum is not None and value < minimum):
            raise ValueError(text)
        return value

    expected = "an integer" if kind is int else "a finite number"
    return parse, expected + ("" if minimum is None else f" >= {minimum}")


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


@record
class Step:
    """A ``[step <name>]`` section.

    ``get`` returns a value's text; ``value`` and the typed getters parse it
    and raise ``ManifestError`` naming the step, the key and the value when it
    is bad.  A missing key takes the getter's default text, or is an error when
    there is none.
    """

    name: str
    op: str
    options: dict[str, list[str]]

    def get(self, key: str, default: str | None = None) -> str | None:
        vals = self.options.get(key)
        return vals[0] if vals else default

    def get_all(self, key: str) -> list[str]:
        return list(self.options.get(key, []))

    def require(self, key: str) -> str:
        v = self.get(key)
        if v is None:
            raise ManifestError(f"missing required key {key!r}", self.name, key)
        return v

    def parse(self, key: str, text: str, parse, expected: str):
        """``parse(text)`` for a value of ``key``; a ``ValueError`` from it means a bad value."""
        try:
            return parse(text)
        except (ValueError, LookupError, TermError):
            raise ManifestError(f"bad {key} {text!r}; expected {expected}", self.name, key,
                                text) from None

    def value(self, key: str, parse=None, expected: str = "", default=_REQUIRED):
        """``key``'s text through ``parse``; a missing key takes ``default``, parsed too."""
        text = self.require(key) if default is _REQUIRED else self.get(key, default)
        return text if text is None or parse is None else self.parse(key, text, parse, expected)

    def integer(self, key: str, default=_REQUIRED, minimum: int | None = None) -> int:
        return self.value(key, *_number(int, minimum), default)

    def integers(self, key: str, minimum: int | None = None) -> tuple[int, ...]:
        """A space- or comma-separated list; a bad item is named on its own."""
        items = self.require(key).replace(",", " ").split()
        return tuple(self.parse(key, item, *_number(int, minimum)) for item in items)

    def number(self, key: str, default=_REQUIRED) -> float:
        return self.value(key, *_number(float), default)

    def boolean(self, key: str, default: str) -> bool:
        return self.value(key, lambda t: _BOOLEANS[t.lower()], "true or false", default)

    def choice(self, key: str, choices: tuple[str, ...], default=_REQUIRED) -> str:
        return self.value(key, lambda t: choices[choices.index(t)],
                          f"one of {', '.join(choices)}", default)

    def window(self, key: str, default=_REQUIRED) -> tuple[int, int] | None:
        return self.value(key, parse_window, "YYYY:YYYY, the first year <= the last", default)


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
