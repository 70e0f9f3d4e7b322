"""Annual time-series dataset: loading, validation, and variable transforms.

A dataset is a named collection of contiguous year-indexed series loaded from
a CSV bundle (a directory with one ``year,<name>`` file per series, or a single
wide file).  Model variables are expressed as :class:`Term` objects — a base
series name plus a transform (level, ln, first difference, log difference) and
an optional lag — evaluated against the dataset.
"""
from __future__ import annotations

import math
import operator
import re
from collections.abc import Sequence
from itertools import repeat
from pathlib import Path

from ._record import record

try:  # CPython's own SHA-256: hashlib would load OpenSSL for one digest
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:
        from hashlib import sha256

__all__ = [
    "AnnualSeries",
    "Dataset",
    "DatasetError",
    "ProvenanceNote",
    "Term",
    "TermError",
    "align",
    "apply_term",
    "bundled_dataset_path",
    "load_dataset",
    "parse_term",
    "serialize_dataset",
]

_TRANSFORMS = ("level", "ln", "diff", "diff_ln")


class DatasetError(Exception):
    """Raised for malformed bundles, unknown series, or invalid series data."""


class TermError(Exception):
    """Raised when a term cannot be parsed or evaluated."""


@record
class AnnualSeries:
    """A contiguous annual series: value ``values[i]`` belongs to ``start_year + i``."""

    name: str
    start_year: int
    values: tuple[float, ...]
    unit: str = ""

    def __post_init__(self):
        if not self.values:
            raise DatasetError(f"series {self.name!r} is empty")
        # a finite sum proves every value finite; only an overflowing sum of
        # finite values needs the per-value check
        if not math.isfinite(sum(self.values)) and not all(map(math.isfinite, self.values)):
            raise DatasetError(f"series {self.name!r} contains non-finite values")
        object.__setattr__(self, "values", tuple(map(float, self.values)))

    @property
    def end_year(self) -> int:
        return self.start_year + len(self.values) - 1

    @property
    def years(self) -> range:
        return range(self.start_year, self.end_year + 1)

    def __len__(self) -> int:
        return len(self.values)

    def value_in(self, year: int) -> float:
        if not self.start_year <= year <= self.end_year:
            raise DatasetError(f"series {self.name!r} has no value for {year}")
        return self.values[year - self.start_year]

    def slice(self, first_year: int, last_year: int) -> tuple[float, ...]:
        """Values of the years ``first_year``..``last_year``; the series must hold them all."""
        if not self.start_year <= first_year <= last_year <= self.end_year:
            raise DatasetError(f"series {self.name!r} does not cover {first_year}-{last_year}")
        return self.values[first_year - self.start_year : last_year - self.start_year + 1]

    def window(self, first_year: int, last_year: int) -> "AnnualSeries":
        """Restrict to [first_year, last_year]; errors if the window is empty."""
        lo = max(first_year, self.start_year)
        hi = min(last_year, self.end_year)
        if lo > hi:
            raise DatasetError(
                f"series {self.name!r}: window {first_year}-{last_year} does not "
                f"overlap {self.start_year}-{self.end_year}"
            )
        return AnnualSeries(
            self.name, lo, self.values[lo - self.start_year : hi - self.start_year + 1], self.unit
        )


@record
class ProvenanceNote:
    """One curated cell: what the source printed and what the bundle ships."""

    series: str
    year: int
    printed: str
    curated: str
    reason: str


@record
class Dataset:
    """Immutable collection of named series plus curation notes and a checksum."""

    series: dict[str, AnnualSeries]
    provenance: tuple[ProvenanceNote, ...] = ()
    checksum: str = ""

    def get(self, name: str) -> AnnualSeries:
        try:
            return self.series[name]
        except KeyError:
            raise DatasetError(f"unknown series {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.series

    def names(self) -> tuple[str, ...]:
        return tuple(self.series)

    def notes_for(self, name: str) -> tuple[ProvenanceNote, ...]:
        return tuple(n for n in self.provenance if n.series == name)

    def with_series(self, extra: AnnualSeries) -> "Dataset":
        """A new dataset with one series added (used for the optional benefit data)."""
        if extra.name in self.series:
            raise DatasetError(f"duplicate series name {extra.name!r}")
        merged = dict(self.series)
        merged[extra.name] = extra
        return Dataset(merged, self.provenance, _checksum({**self.series, extra.name: extra}))


@record
class Term:
    """A model variable: a transform of a base series, optionally lagged.

    ``transform`` is one of ``level``, ``ln``, ``diff``, ``diff_ln``; ``lag``
    shifts the result ``lag`` years back.  Differences are always first order.
    """

    base: str
    transform: str = "level"
    lag: int = 0
    label: str | None = None

    def __post_init__(self):
        if self.transform not in _TRANSFORMS:
            raise TermError(f"unknown transform {self.transform!r}")
        if self.lag < 0:
            raise TermError("lag order must be >= 1 when present")

    def rendered_label(self) -> str:
        if self.label:
            return self.label
        core = {
            "level": self.base,
            "ln": f"Ln({self.base})",
            "diff": f"d_{self.base}",
            "diff_ln": f"d_Ln({self.base})",
        }[self.transform]
        return f"{core}(-{self.lag})" if self.lag else core


_TERM_RE = re.compile(
    r"^\s*(?:(?P<fn>ln|diff|dln)\s*\(\s*(?P<inner>ln\s*\(\s*(?P<nested>[^()@]+?)\s*\)|[^()@]+?)\s*\)|(?P<plain>[^()@]+?))"
    r"\s*(?:@\s*(?P<lag>\d+))?\s*(?:\bas\s+(?P<label>.+?))?\s*$",
    re.IGNORECASE,
)


def parse_term(text: str) -> Term:
    """Parse the manifest term grammar.

    Examples: ``Exports``, ``ln(Exports)``, ``dln(GDP)``, ``diff(ln(GDP))``,
    ``ln(Exports)@1`` (one-year lag), ``dln(Total investment) as d_Ln(K)``.
    """
    m = _TERM_RE.match(text)
    if not m:
        raise TermError(f"cannot parse term {text!r}")
    lag = int(m.group("lag") or 0)
    label = m.group("label")
    if m.group("plain") is not None:
        return Term(m.group("plain").strip(), "level", lag, label)
    fn = m.group("fn").lower()
    inner = m.group("inner").strip()
    nested = m.group("nested")
    if nested is not None:
        if fn != "diff":
            raise TermError(f"cannot parse term {text!r}: only diff(ln(...)) may nest")
        return Term(nested.strip(), "diff_ln", lag, label)
    transform = {"ln": "ln", "diff": "diff", "dln": "diff_ln"}[fn]
    return Term(inner, transform, lag, label)


def apply_term(dataset: Dataset, term: Term) -> AnnualSeries:
    """Evaluate a term against the dataset.

    The result is re-dated ``term.lag`` years forward, and a difference also
    drops the first year.  ``ln`` requires strictly positive values.
    """
    base = dataset.get(term.base)
    values = base.values
    start = base.start_year
    unit = base.unit
    if term.transform in ("ln", "diff_ln"):
        if min(values) <= 0.0:
            first = next(start + i for i, v in enumerate(values) if v <= 0.0)
            raise TermError(
                f"ln of non-positive value in series {term.base!r} (first at {first})"
            )
        # math.log, not np.log: the two differ in the last bit on some inputs
        values = tuple(map(math.log, values))
        unit = f"ln({unit})" if unit else "ln"
    if term.transform in ("diff", "diff_ln"):
        values = tuple(map(operator.sub, values[1:], values[:-1]))
        start += 1
    # a lag leaves values untouched and re-dates them forward
    start += term.lag
    if not values:
        raise TermError(f"term {term.rendered_label()!r} evaluates to an empty series")
    return AnnualSeries(term.rendered_label(), start, values, unit)


def align(
    dataset: Dataset, terms: Sequence[Term], sample: tuple[int, int] | None = None
) -> tuple[list[AnnualSeries], range, list[tuple[float, ...]]]:
    """Evaluate ``terms`` on their common year window, clipped to ``sample``.

    Returns the evaluated series, the window's years and one column of values
    per series.  When the window is empty the years and the columns are empty,
    and the caller decides how to fail.
    """
    evaluated = [apply_term(dataset, t) for t in terms]
    lo = max(s.start_year for s in evaluated)
    hi = min(s.end_year for s in evaluated)
    if sample is not None:
        lo, hi = max(lo, sample[0]), min(hi, sample[1])
    years = range(lo, hi + 1)
    return evaluated, years, [s.slice(lo, hi) for s in evaluated] if years else []


# ---------------------------------------------------------------------------
# CSV bundle I/O
# ---------------------------------------------------------------------------

def _slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


def _serialize_series(s: AnnualSeries) -> bytes:
    head = f"year,{s.name}\n" + (f"# unit: {s.unit}\n" if s.unit else "")
    rows = "".join(
        f"{year},{int(v) if v.is_integer() and abs(v) < 1e16 else repr(v)}\n"
        for year, v in zip(s.years, s.values)
    )
    return (head + rows).encode("utf-8")


def serialize_dataset(dataset: Dataset) -> dict[str, bytes]:
    """Canonical CSV bytes per series file (the checksum fixed point)."""
    return {f"{_slug(name)}.csv": _serialize_series(s) for name, s in sorted(dataset.series.items())}


def _checksum(series: dict[str, AnnualSeries]) -> str:
    h = sha256()
    for fname, payload in sorted(serialize_dataset(Dataset(dict(series))).items()):
        h.update(fname.encode("utf-8"))
        h.update(payload)
    return h.hexdigest()


_UNIT_RE = re.compile(r"#\s*unit:\s*(.*)")


def _parse_series_csv(text: str, origin: str) -> AnnualSeries:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("year,"):
        raise DatasetError(f"{origin}: first row must be 'year,<series-name>'")
    name = lines[0].split(",", 1)[1].strip()
    if not name:
        raise DatasetError(f"{origin}: missing series name in header")
    rows = [ln for ln in lines[1:] if ln[0] != "#"]
    unit = ""
    if len(rows) < len(lines) - 1:
        for m in filter(None, map(_UNIT_RE.match, lines[1:])):
            unit = m.group(1).strip()
    if not rows:
        raise DatasetError(f"{origin}: series {name!r} has no rows")
    try:
        year_cells, _, value_cells = zip(*map(str.partition, rows, repeat(",")))
        years = list(map(int, year_cells))
        values = tuple(map(float, value_cells))
    except ValueError:
        # a row with other than one comma leaves a comma or nothing in its
        # value cell; re-scan so the first bad row names the error
        for ln in rows:
            parts = ln.split(",")
            if len(parts) != 2:
                raise DatasetError(f"{origin}: malformed row {ln!r}") from None
            try:
                int(parts[0]), float(parts[1])
            except ValueError:
                raise DatasetError(f"{origin}: non-numeric cell in row {ln!r}") from None
        raise
    if years != list(range(years[0], years[0] + len(years))):
        a, b = next((a, b) for a, b in zip(years, years[1:]) if b != a + 1)
        raise DatasetError(f"{origin}: non-contiguous years {a} -> {b} in series {name!r}")
    return AnnualSeries(name, years[0], values, unit)


def _parse_wide_csv(text: str, origin: str) -> list[AnnualSeries]:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    if header[0].strip() != "year" or len(header) < 2:
        raise DatasetError(f"{origin}: wide file must start with a 'year' column")
    names = [h.strip() for h in header[1:]]
    columns: list[list[float]] = [[] for _ in names]
    years = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise DatasetError(f"{origin}: malformed row {ln!r}")
        try:
            years.append(int(parts[0]))
            for col, cell in zip(columns, parts[1:]):
                col.append(float(cell))
        except ValueError:
            raise DatasetError(f"{origin}: non-numeric cell in row {ln!r}") from None
    for a, b in zip(years, years[1:]):
        if b != a + 1:
            raise DatasetError(f"{origin}: non-contiguous years {a} -> {b}")
    if not years:
        raise DatasetError(f"{origin}: no data rows")
    return [AnnualSeries(n, years[0], tuple(col)) for n, col in zip(names, columns)]


def _parse_provenance(text: str, origin: str) -> tuple[ProvenanceNote, ...]:
    notes = []
    for lineno, ln in enumerate(text.splitlines(), start=1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split(",", 4)
        if len(parts) != 5 or not parts[1].strip().isdecimal():
            raise DatasetError(f"{origin}: line {lineno}: {ln!r} is not "
                               "'series,year,printed,curated,reason' with a numeric year")
        notes.append(ProvenanceNote(parts[0], int(parts[1]), parts[2], parts[3], parts[4]))
    return tuple(notes)


def _read(path: Path) -> str:
    """A bundle file's text; an unreadable or non-UTF-8 file is a ``DatasetError``."""
    try:
        data = path.read_bytes()
        return data.decode("utf-8")
    except OSError as exc:
        raise DatasetError(f"{path.name}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DatasetError(f"{path.name}: line {line}: byte {data[exc.start]:#04x} is not "
                           "UTF-8 text") from None


def bundled_dataset_path() -> Path:
    """Directory of the curated data bundle shipped with the package."""
    return Path(__file__).resolve().parent / "data"


def load_dataset(path: str | Path | None = None) -> Dataset:
    """Load and validate a CSV bundle.

    ``path`` may be a bundle directory (one CSV per series, plus an optional
    ``provenance.txt``), a single wide CSV file, or ``None`` for the bundled
    curated dataset.
    """
    p = bundled_dataset_path() if path is None else Path(path)
    if not p.exists():
        raise DatasetError(f"dataset path {p} does not exist")
    series: dict[str, AnnualSeries] = {}
    provenance: tuple[ProvenanceNote, ...] = ()
    if p.is_dir():
        files = sorted(f for f in p.iterdir() if f.suffix == ".csv")
        if not files:
            raise DatasetError(f"no CSV files in bundle {p}")
        for f in files:
            s = _parse_series_csv(_read(f), f.name)
            if s.name in series:
                raise DatasetError(f"duplicate series name {s.name!r}")
            series[s.name] = s
        prov = p / "provenance.txt"
        if prov.exists():
            provenance = _parse_provenance(_read(prov), prov.name)
    else:
        for s in _parse_wide_csv(_read(p), p.name):
            if s.name in series:
                raise DatasetError(f"duplicate series name {s.name!r}")
            series[s.name] = s
    return Dataset(series, provenance, _checksum(series))
