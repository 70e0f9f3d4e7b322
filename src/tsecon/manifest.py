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

__all__ = ["ManifestError", "PipelineManifest", "Step", "default_manifest_text", "parse_manifest"]


class ManifestError(Exception):
    """Raised for manifest syntax or reference errors."""


@record
class Step:
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
            raise ManifestError(f"step {self.name!r}: missing required key {key!r}")
        return v


@record
class PipelineManifest:
    dataset_path: str
    output_dir: str
    optional_series: tuple[str, ...]
    steps: tuple[Step, ...]
    source_text: str = ""


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
