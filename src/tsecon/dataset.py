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
class Dataset:
    """Immutable collection of named series plus a checksum."""

    series: dict[str, AnnualSeries]
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
            raise TermError("lag must be >= 0")

    @property
    def variable(self) -> tuple[str, str, int]:
        """Series, transform and lag: two terms that share them are one variable, whatever
        their labels."""
        return self.base, self.transform, self.lag

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
    r"^\s*(?:(?P<fn>ln|diff|dln)\s*\(\s*(?P<inner>[^()@]+?)\s*\)|(?P<plain>[^()@]+?))"
    r"\s*(?:@\s*(?P<lag>\d+))?\s*(?:\bas\s+(?P<label>.+?))?\s*$",
    re.IGNORECASE,
)


def parse_term(text: str) -> Term:
    """Parse the manifest term grammar.

    Examples: ``Exports``, ``ln(Exports)``, ``diff(GDP)``, ``dln(GDP)``,
    ``ln(Exports)@1`` (one-year lag), ``dln(Total investment) as d_Ln(K)``.
    """
    m = _TERM_RE.match(text)
    if not m:
        raise TermError(f"cannot parse term {text!r}")
    lag = int(m.group("lag") or 0)
    label = m.group("label")
    if m.group("plain") is not None:
        return Term(m.group("plain").strip(), "level", lag, label)
    transform = {"ln": "ln", "diff": "diff", "dln": "diff_ln"}[m.group("fn").lower()]
    return Term(m.group("inner").strip(), transform, lag, label)


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
) -> tuple[range, list[tuple[float, ...]]]:
    """Evaluate ``terms`` on their common year window, clipped to ``sample``.

    Returns the window's years and one column of values per term.  An empty
    window is zero years, and every column then has zero values: a design
    built from them has no rows, which ``least_squares`` refuses.
    """
    evaluated = [apply_term(dataset, t) for t in terms]
    lo = max(s.start_year for s in evaluated)
    hi = min(s.end_year for s in evaluated)
    if sample is not None:
        lo, hi = max(lo, sample[0]), min(hi, sample[1])
    years = range(lo, hi + 1)
    return years, [s.values[lo - s.start_year :][: len(years)] for s in evaluated]


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
    """Canonical CSV bytes per series file (the checksum fixed point).

    Two series whose names slug alike would share one file, so they are refused.
    """
    files, names = {}, {}
    for name, s in sorted(dataset.series.items()):
        fname = f"{_slug(name)}.csv"
        if fname in names:
            raise DatasetError(f"series {names[fname]!r} and {name!r} would both be "
                               f"written to {fname}")
        names[fname], files[fname] = name, _serialize_series(s)
    return files


def _checksum(series: dict[str, AnnualSeries]) -> str:
    h = sha256()
    for fname, payload in sorted(serialize_dataset(Dataset(dict(series))).items()):
        h.update(fname.encode("utf-8"))
        h.update(payload)
    return h.hexdigest()


_UNIT_RE = re.compile(r"#\s*unit:\s*(.*)")


def _parse_csv(text: str, origin: str, wide: bool) -> list[AnnualSeries]:
    """The series of one CSV file: ``year,<name>`` and one series, or, if ``wide``, one per column.

    Blank lines are skipped, a line starting with ``#`` is a comment, and a
    ``# unit: <u>`` comment sets the unit of every series in the file.  A
    series file's name is the whole header after ``year,``, commas included.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    rows = [ln for ln in lines if ln[0] != "#"]
    unit = ""
    if len(rows) < len(lines):
        for m in filter(None, map(_UNIT_RE.match, lines)):
            unit = m.group(1).strip()
    first, comma, rest = (rows.pop(0) if rows else "").partition(",")
    if first.strip() != "year" or not comma:
        raise DatasetError(f"{origin}: first row must be 'year,<series-name>'")
    names = [n.strip() for n in rest.split(",")] if wide else [rest.strip()]
    if not all(names):
        raise DatasetError(f"{origin}: missing series name in header")
    if not rows:
        raise DatasetError(f"{origin}: series {', '.join(map(repr, names))} has no rows")
    try:
        year_cells, _, value_cells = zip(*map(str.partition, rows, repeat(",")))
        years = list(map(int, year_cells))
        columns = [value_cells]
        if wide:  # split the values into one column per name
            cells = list(map(str.split, value_cells, repeat(",")))
            if set(map(len, cells)) != {len(names)}:
                raise ValueError
            columns = zip(*cells)
        columns = [tuple(map(float, col)) for col in columns]
    except ValueError:
        # a row with the wrong number of cells or a non-numeric cell fails
        # above; re-scan so the first bad row names the error
        for ln in rows:
            parts = ln.split(",")
            if len(parts) != 1 + len(names):
                raise DatasetError(f"{origin}: malformed row {ln!r}") from None
            try:
                int(parts[0]), *map(float, parts[1:])
            except ValueError:
                raise DatasetError(f"{origin}: non-numeric cell in row {ln!r}") from None
        raise
    if years != list(range(years[0], years[0] + len(years))):
        a, b = next((a, b) for a, b in zip(years, years[1:]) if b != a + 1)
        raise DatasetError(f"{origin}: non-contiguous years {a} -> {b} in series "
                           + ", ".join(map(repr, names)))
    return [AnnualSeries(n, years[0], col, unit) for n, col in zip(names, columns)]


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

    ``path`` may be a bundle directory (one CSV per series), a single wide CSV
    file, or ``None`` for the bundled curated dataset.
    """
    p = bundled_dataset_path() if path is None else Path(path)
    if not p.exists():
        raise DatasetError(f"dataset path {p} does not exist")
    wide = not p.is_dir()
    files = [p] if wide else sorted(f for f in p.iterdir() if f.suffix == ".csv")
    if not files:
        raise DatasetError(f"no CSV files in bundle {p}")
    series: dict[str, AnnualSeries] = {}
    for f in files:
        for s in _parse_csv(_read(f), f.name, wide):
            if s.name in series:
                raise DatasetError(f"duplicate series name {s.name!r}")
            series[s.name] = s
    return Dataset(series, _checksum(series))
