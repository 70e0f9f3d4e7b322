import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsecon.dataset import (
    AnnualSeries,
    Dataset,
    DatasetError,
    Term,
    TermError,
    apply_term,
    load_dataset,
    parse_term,
    serialize_dataset,
)

BUNDLE_CHECKSUM = "fccf45aedc97353218ed168bc525ba5568167a4c510f5ab7666113dd70865af7"


def one_series_dataset(name, start, values):
    s = AnnualSeries(name, start, tuple(values))
    return Dataset({name: s})


class TestLoad:
    def test_bundled_values(self, dataset):
        assert dataset.get("Industrial Investment").value_in(1970) == 4936.0
        assert dataset.get("Unemployment rate").value_in(1968) == 8.6

    def test_checksum_pinned(self, dataset):
        assert dataset.checksum == BUNDLE_CHECKSUM

    @pytest.mark.parametrize("extended", [False, True])
    def test_checksum_is_sha256_of_the_canonical_files(self, dataset, extended):
        # hashlib is the reference the built-in SHA-256 module must agree with
        if extended:
            dataset = dataset.with_series(AnnualSeries("Extra, unit", 1950, (1.5, -2.0, 1e17)))
        h = hashlib.sha256()
        for fname, payload in sorted(serialize_dataset(dataset).items()):
            h.update(fname.encode("utf-8"))
            h.update(payload)
        assert dataset.checksum == h.hexdigest()

    def test_checksum_without_a_built_in_sha256_module_falls_back_to_hashlib(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        code = ('import sys\nsys.modules["_sha2"] = sys.modules["_sha256"] = None\n'
                "from tsecon.dataset import load_dataset\n"
                'print(load_dataset().checksum, "hashlib" in sys.modules)')
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert proc.stdout.split() == [BUNDLE_CHECKSUM, "True"]

    def test_round_trip_is_fixed_point(self, dataset, tmp_path):
        files = serialize_dataset(dataset)
        for fname, payload in files.items():
            (tmp_path / fname).write_bytes(payload)
        again = load_dataset(tmp_path)
        assert serialize_dataset(again) == files
        assert again.checksum == dataset.checksum

    def test_non_contiguous_years_error(self, tmp_path):
        (tmp_path / "s.csv").write_text("year,s\n1970,1\n1972,2\n")
        with pytest.raises(DatasetError, match="non-contiguous"):
            load_dataset(tmp_path)

    def test_non_numeric_cell_error(self, tmp_path):
        (tmp_path / "s.csv").write_text("year,s\n1970,abc\n")
        with pytest.raises(DatasetError, match="non-numeric"):
            load_dataset(tmp_path)

    def test_duplicate_series_error(self, tmp_path):
        (tmp_path / "a.csv").write_text("year,s\n1970,1\n")
        (tmp_path / "b.csv").write_text("year,s\n1970,2\n")
        with pytest.raises(DatasetError, match="duplicate"):
            load_dataset(tmp_path)

    def test_missing_path_error(self, tmp_path):
        with pytest.raises(DatasetError, match="does not exist"):
            load_dataset(tmp_path / "nope")

    def test_unknown_series_error(self, dataset):
        with pytest.raises(DatasetError, match="unknown series"):
            dataset.get("no such series")

    @pytest.mark.parametrize("name, content, message", [
        ("s.csv", b"year,s\n1970,1\n1971,\xff\n", r"s\.csv: line 3: byte 0xff is not UTF-8 text"),
        ("provenance.txt", b"s,1970,1,2,\xe9\n", r"provenance\.txt: line 1: byte 0xe9 is not UTF-8 text"),
        ("provenance.txt", b"# notes\ns,19x0,1,2,note\n",
         r"provenance\.txt: line 2: 's,19x0,1,2,note' is not .* with a numeric year"),
        ("provenance.txt", b"s,1970,1\n", r"provenance\.txt: line 1: 's,1970,1' is not 'series,year,printed,curated,reason'"),
        ("wide.csv", b"year,a\n1970,1\n# \xff\n", r"wide\.csv: line 3: byte 0xff is not UTF-8 text"),
        ("t.csv", None, r"t\.csv: cannot read: Is a directory"),
        ("provenance.txt", None, r"provenance\.txt: cannot read: Is a directory"),
    ], ids=["series-not-utf-8", "provenance-not-utf-8", "provenance-year", "provenance-fields",
            "wide-not-utf-8", "series-unreadable", "provenance-unreadable"])
    def test_bad_bundle_file_is_dataset_error_naming_it(self, tmp_path, name, content, message):
        (tmp_path / "s.csv").write_text("year,s\n1970,1\n1971,2\n")
        if content is None:  # a directory where a file is expected cannot be read
            (tmp_path / name).mkdir()
        else:
            (tmp_path / name).write_bytes(content)
        with pytest.raises(DatasetError, match=message):
            load_dataset(tmp_path / name if name == "wide.csv" else tmp_path)

    def test_wide_file(self, tmp_path):
        (tmp_path / "wide.csv").write_text("year,a,b\n1970,1,10\n1971,2,20\n")
        ds = load_dataset(tmp_path / "wide.csv")
        assert ds.get("a").values == (1.0, 2.0)
        assert ds.get("b").value_in(1971) == 20.0

    def test_provenance_notes(self, dataset):
        notes = dataset.notes_for("Credit growth")
        assert any(n.year == 1973 and n.curated == "-45" for n in notes)


class TestTerms:
    def test_ln_of_e_constant(self):
        ds = one_series_dataset("s", 2000, [math.e] * 3)
        out = apply_term(ds, Term("s", "ln"))
        assert out.values == pytest.approx((1.0, 1.0, 1.0))

    def test_first_difference(self):
        ds = one_series_dataset("s", 2000, [10, 12, 15])
        out = apply_term(ds, Term("s", "diff"))
        assert out.start_year == 2001
        assert out.values == (2.0, 3.0)

    def test_diff_ln_gdp_first_step(self, dataset):
        # frozen from direct evaluation: ln(223987815113) - ln(224553041044)
        out = apply_term(dataset, Term("GDP", "diff_ln"))
        assert out.value_in(1971) == pytest.approx(-0.0025202887203121804, abs=1e-15)

    def test_lag_redates_forward(self):
        ds = one_series_dataset("s", 2000, [1, 2, 3])
        out = apply_term(ds, Term("s", "level", lag=2))
        assert out.start_year == 2002
        assert out.value_in(2002) == 1.0

    def test_ln_nonpositive_error(self):
        ds = one_series_dataset("s", 2000, [1.0, -1.0])
        with pytest.raises(TermError, match="non-positive"):
            apply_term(ds, Term("s", "ln"))

    @given(
        values=st.lists(st.floats(-100, 100), min_size=4, max_size=12),
        k=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_lag_and_diff_commute(self, values, k):
        ds = one_series_dataset("s", 1900, values)
        a = apply_term(ds, Term("s", "diff", lag=k))
        # lag then diff: rebuild from a lagged series
        lagged = apply_term(ds, Term("s", "level", lag=k))
        ds2 = Dataset({"s": AnnualSeries("s", lagged.start_year, lagged.values)})
        b = apply_term(ds2, Term("s", "diff"))
        assert a.start_year == b.start_year
        assert a.values == pytest.approx(b.values, abs=1e-12)

    @given(values=st.lists(st.floats(0.01, 1e6), min_size=2, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_diff_ln_identity(self, values):
        ds = one_series_dataset("s", 1900, values)
        out = apply_term(ds, Term("s", "diff_ln"))
        for i, v in enumerate(out.values):
            expect = math.log(values[i + 1]) - math.log(values[i])
            assert abs(v - expect) <= 1e-12


class TestParseTerm:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Exports", Term("Exports", "level")),
            ("ln(Exports)", Term("Exports", "ln")),
            ("diff(Exports)", Term("Exports", "diff")),
            ("dln(GDP)", Term("GDP", "diff_ln")),
            ("diff(ln(GDP))", Term("GDP", "diff_ln")),
            ("ln(Exports)@2", Term("Exports", "ln", lag=2)),
            ("dln(Total investment) as d_Ln(K)", Term("Total investment", "diff_ln", label="d_Ln(K)")),
        ],
    )
    def test_grammar(self, text, expected):
        assert parse_term(text) == expected

    def test_bad_terms(self):
        for bad in ("ln()", "sqrt(x)", "ln(ln(x))"):
            with pytest.raises(TermError):
                parse_term(bad)

    def test_rendered_labels(self):
        assert Term("X", "diff_ln").rendered_label() == "d_Ln(X)"
        assert Term("X", "ln", lag=1).rendered_label() == "Ln(X)(-1)"


class TestWindow:
    def test_window_clips_to_overlap(self):
        s = AnnualSeries("s", 2000, (1.0, 2.0, 3.0, 4.0))
        w = s.window(2001, 2050)
        assert w.start_year == 2001 and w.values == (2.0, 3.0, 4.0)

    def test_disjoint_window_error(self):
        s = AnnualSeries("s", 2000, (1.0, 2.0))
        with pytest.raises(DatasetError, match="does not overlap"):
            s.window(2010, 2020)


class TestInvariants:
    def test_values_finite_enforced(self):
        with pytest.raises(DatasetError):
            AnnualSeries("s", 2000, (1.0, float("nan")))

    def test_empty_series_rejected(self):
        with pytest.raises(DatasetError):
            AnnualSeries("s", 2000, ())

    def test_dataset_with_series_rejects_duplicates(self, dataset):
        with pytest.raises(DatasetError, match="duplicate"):
            dataset.with_series(AnnualSeries("GDP", 1970, (1.0,)))
