import contextlib
import csv
import hashlib
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tsecon.manifest import ManifestError, default_manifest_text, parse_manifest
from tsecon.pipeline import run_pipeline

from conftest import run_cli


# every flag of each command but --dataset, which each has
COMMAND_FLAGS = {
    "ingest": [],
    "adf": ["--series", "--det", "--lags", "--window"],
    "fit-ols": ["--dependent", "--regressors", "--constant", "--no-constant", "--sample"],
    "fit-tsls": ["--dependent", "--regressors", "--endogenous", "--instruments", "--constant",
                 "--no-constant", "--sample"],
    "fit-ar": ["--dependent", "--regressors", "--ar-lags", "--constant", "--no-constant",
               "--sample"],
    "coint": ["--dependent", "--regressors", "--constant", "--no-constant", "--sample",
              "--residual-lag"],
    "granger": ["--x", "--y", "--lags", "--sample"],
    "chow": ["--break", "--dependent", "--regressors", "--constant", "--no-constant", "--sample"],
    "var": ["--variables", "--lags", "--sample"],
    "irf": ["--variables", "--lags", "--sample", "--horizon", "--shock", "--response", "--svg"],
    "simulate": ["--kind", "--overrides", "--window", "--eap", "--terminal-actual-usd"],
    "report": ["--manifest", "--output"],
}
SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN_TABLES = Path(__file__).resolve().parent / "golden" / "default_bundle" / "tables"
# fit steps for scenario steps that only need to parse: simulate_unemployment reports a
# level dependent, simulate_exports an ln one
SCENARIO_FIT = "[step m]\nop = ols\ndependent = Unemployment rate\nregressors = ln(GDP)\n"
SCENARIO_LN_FIT = "[step m]\nop = ols\ndependent = ln(Exports)\nregressors = ln(GDP)\n"


def default_step_flags(name: str) -> list[str]:
    """The CLI flags that set the keys of the bundled manifest's step ``name``."""
    step = next(s for s in parse_manifest(default_manifest_text()).steps if s.name == name)
    argv = []
    for key, (value,) in step.options.items():
        if key == "constant":
            argv.append("--constant" if value == "true" else "--no-constant")
        else:
            argv += [f"--{key.replace('_', '-')}", value]
    return argv


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(root.rglob("*")):
        if f.is_file():
            h.update(str(f.relative_to(root)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


class TestManifestParsing:
    def test_default_manifest_parses(self):
        m = parse_manifest(default_manifest_text())
        assert m.dataset_path == "bundled"
        assert m.optional_series == ("Tax benefits",)
        names = [s.name for s in m.steps]
        assert "adf_battery" in names and "scenario2_exports" in names
        assert len(m.steps) == 22

    def test_syntax_errors(self):
        with pytest.raises(ManifestError, match="outside any section"):
            parse_manifest("key = value\n")
        with pytest.raises(ManifestError, match="missing 'op'"):
            parse_manifest("[step x]\nfoo = bar\n")
        with pytest.raises(ManifestError, match="expected 'key = value'"):
            parse_manifest("[step x]\nop ols\n")
        with pytest.raises(ManifestError, match="duplicate step name"):
            parse_manifest("[step x]\nop = ols\n[step x]\nop = ols\n")
        with pytest.raises(ManifestError, match="step 'x': bad op 'adf'; expected one value, "
                                                "and op is already 'ols'"):
            parse_manifest("[step x]\nop = ols\nop = adf\n")

    @pytest.mark.parametrize("key", ["dataset", "output", "optional"])
    def test_pipeline_key_given_twice_is_manifest_error(self, key):
        with pytest.raises(ManifestError, match=rf"\[pipeline\]: bad {key} 'b'; expected one "
                                                rf"value, and {key} is already 'a'"):
            parse_manifest(f"[pipeline]\n{key} = a\n{key} = b\n")

    @pytest.mark.parametrize("header", ["[step a b]", "[Pipeline]", "[step]", "[step x"])
    def test_bad_section_header_is_manifest_error_naming_it(self, header):
        with pytest.raises(ManifestError, match=re.escape(
                f"line 2: bad section header {header!r}; expected [pipeline] or [step <name>]")):
            parse_manifest(f"# a study\n{header}\nop = ols\n")

    def test_pipeline_seed_is_manifest_error(self):
        with pytest.raises(ManifestError, match=r"^\[pipeline\]: unknown key 'seed'$"):
            parse_manifest("[pipeline]\nseed = 20181001\noutput = out\n")

    def test_empty_manifest_runs_to_empty_bundle(self):
        m = parse_manifest("[pipeline]\noutput = out\n")
        bundle = run_pipeline(m)
        assert list(bundle.tables) == ["pipeline_summary"]
        assert bundle.plots == {}


class TestPipeline:
    def test_default_pipeline_emits_skips_not_errors(self, dataset):
        m = parse_manifest(default_manifest_text())
        bundle = run_pipeline(m, dataset)
        summary = bundle.tables["pipeline_summary"][0]
        assert "SKIPPED: data-unavailable" in summary
        for expected in ("ols_41obs", "model1_unemployment", "granger_gdp",
                         "chow_breaks_1998", "irf_main", "scenario1_unemployment"):
            assert expected in bundle.tables
        assert "coint_long_run" not in bundle.tables  # needs the optional series
        assert bundle.dataset_checksum == dataset.checksum

    def test_unknown_series_in_requires_is_manifest_error(self, dataset):
        m = parse_manifest("[step s]\nop = ols\nrequires = Nope\n"
                           "dependent = ln(GDP)\nregressors = ln(Exports)\n")
        with pytest.raises(ManifestError, match="not declared optional"):
            run_pipeline(m, dataset)

    def test_benefit_series_unlocks_all_steps(self, benefit_dataset):
        bundle = run_pipeline(parse_manifest(default_manifest_text()), benefit_dataset)
        summary = bundle.tables["pipeline_summary"][0]
        assert "SKIPPED" not in summary
        for name in ("coint_long_run", "ar_full", "ar_restricted", "ar_comparison",
                     "granger_benefits"):
            assert name in bundle.tables

    # compare matches dependents by term: ar_restricted's under another label is the same
    @pytest.mark.parametrize("label", ["", " as I"], ids=["one-label", "two-labels"])
    def test_comparison_csv_reads_back_at_full_precision(self, benefit_dataset, monkeypatch,
                                                         label):
        import tsecon.pipeline

        compared = []
        compare_models = tsecon.pipeline.compare_models
        monkeypatch.setattr(tsecon.pipeline, "compare_models",
                            lambda *a: compared.append(compare_models(*a)) or compared[-1])
        restricted = "[step ar_restricted]\nop = ar\ndependent = ln(Industrial Investment)"
        bundle = run_pipeline(parse_manifest(default_manifest_text().replace(
            restricted, restricted + label)), benefit_dataset)
        (result,) = compared
        rows = list(csv.reader(bundle.tables["ar_comparison"][1].splitlines()))
        assert rows[0] == ["statistic", "model_a", "model_b", "b_improves"]
        for row, pair, key in zip(rows[1:], (result.ssr, result.resid_std_error, result.schwarz),
                                  ("ssr", "resid_std_error", "schwarz")):
            assert (float(row[1]), float(row[2])) == pair
            assert row[3] == str(result.improved[key]).lower()
        text = bundle.tables["ar_comparison"][0]
        assert f"{result.ssr[0]:.6g}" in text and repr(float(result.ssr[0])) not in text

    @pytest.mark.parametrize("manifest, skipped", [
        ("[step g]\nop = granger\nx = dln(GDP)\ny = dln(Tax benefits)\n", ["g"]),
        ("[step o]\nop = ols\ndependent = ln(GDP)\nregressors = ln(Credit), ln(Tax benefits)\n",
         ["o"]),
        # a step that references a skipped step is skipped with its reason
        ("[step a1]\nop = ar\ndependent = ln(GDP)\nregressors = ln(Tax benefits)\nar_lags = 1\n"
         "[step a2]\nop = ar\ndependent = ln(GDP)\nregressors = ln(Tax benefits), ln(Credit)\n"
         "ar_lags = 1\n[step c]\nop = compare\na = a1\nb = a2\n", ["a1", "a2", "c"]),
        ("[step v]\nop = var\nvariables = dln(GDP), dln(Tax benefits)\nlags = 1\n"
         "[step i]\nop = irf\nvar = v\nplot = d_Ln(GDP) -> d_Ln(Tax benefits)\n"
         "[step f]\nop = fevd\nvar = v\n", ["v", "i", "f"]),
        # a scenario simulates its fit's dependent, so it is skipped with its fit
        ("[step m]\nop = ols\ndependent = ln(Tax benefits)\nregressors = ln(GDP)\n"
         "[step s]\nop = simulate_exports\nfit = m\noverrides = 2005:0.15\n"
         "window = 2000:2010\nterminal_actual_usd = 1\ncapital = Ln(GDP)\n", ["m", "s"]),
    ], ids=["term", "regressors", "compare", "irf-fevd", "scenario-fit"])
    def test_optional_series_read_without_requires_is_skipped(self, dataset, manifest, skipped):
        bundle = run_pipeline(parse_manifest(manifest), dataset)
        rows = list(csv.reader(bundle.tables["pipeline_summary"][1].splitlines()))[1:]
        assert [r[0] for r in rows if r[2] != "ok"] == skipped
        assert {r[2] for r in rows if r[2] != "ok"} == {"SKIPPED: data-unavailable (Tax benefits)"}
        assert not set(skipped) & set(bundle.tables) and bundle.plots == {}


    def test_every_csv_table_reads_back_rectangular(self, tmp_path, dataset):
        # labels holding a comma or a quote must be quoted, not split
        m = parse_manifest(
            "[step battery]\nop = adf_battery\nwindow = 1975:2010\n"
            "row = ln(GDP) as GDP, log ; constant ; 1\n"
            'row = ln(Tax benefits) as "absent", log ; constant ; 1\n'
            "[step v]\nop = var\nvariables = dln(GDP) as \"g\", dln(Exports)\nlags = 1\n"
            "[step i]\nop = irf\nvar = v\nhorizon = 2\n"
            "[step f]\nop = fevd\nvar = v\nhorizon = 2\n"
        )
        run_pipeline(m, dataset).write(tmp_path)
        files = sorted((tmp_path / "tables").glob("*.csv"))
        assert [f.stem for f in files] == ["battery", "f", "i", "pipeline_summary", "v"]
        tables = {}
        for f in files:
            with open(f, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert {len(r) for r in rows} == {len(rows[0])}, f.name
            tables[f.stem] = rows
        assert [r[0] for r in tables["battery"][1:]] == ["GDP, log", '"absent", log']
        assert tables["battery"][2][-1] == "skipped"
        assert {r[0] for r in tables["v"][1:]} == {'"g"', "d_Ln(Exports)"}


class TestCli:
    def test_ingest(self):
        r = run_cli(["ingest"])
        assert r.exit_code == 0
        assert "checksum:" in r.output

    def test_adf_subcommand_reproduces_battery_row(self):
        r = run_cli(["adf", "--series", "ln(Inflation)", "--det", "trend", "--lags", "1",
                     "--window", "1975:2010"])
        assert r.exit_code == 0
        assert "-3.51828" in r.output

    def test_chow_subcommand_default_model(self):
        r = run_cli(["chow", "--break", "1998"])
        assert r.exit_code == 0
        assert "3.08263" in r.output
        # every break's table prints, in the order given
        r = run_cli(["chow", "--break", "1974 1998"])
        assert r.exit_code == 0, r.output
        assert 0 <= r.output.index("Chow test at 1974") < r.output.index("Chow test at 1998")
        assert "3.08263" in r.output

    def test_granger_subcommand(self):
        r = run_cli(["granger", "--x", "dln(GDP)", "--y", "dln(Industrial Investment)",
                     "--lags", "4", "--sample", "1976:2010"])
        assert r.exit_code == 0
        assert "5.40933" in r.output

    @pytest.mark.parametrize("argv", [
        ["ingest"],
        ["adf", "--series", "ln(GDP)"],
        ["granger", "--x", "dln(GDP)", "--y", "dln(Exports)"],
    ])
    def test_closed_stdout_is_output_error(self, argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.Popen([sys.executable, "-m", "tsecon.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()  # long before the child has imported enough to write
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 2, err
        assert err.startswith("output error: cannot write to stdout: ") and err.count("\n") == 1

    def test_unknown_flag_exits_2(self):
        r = run_cli(["adf", "--nope", "x"])
        assert r.exit_code == 2

    @pytest.mark.parametrize("argv, named", [
        # a flag prefix is not the flag
        (["adf", "--series", "ln(GDP)", "--ser", "ln(GDP)"], "unrecognized arguments: --ser"),
        (["adf"], "required: --series"),
        (["adf", "--series", "ln(GDP)", "--det", "quadratic"], "argument --det: invalid choice"),
        (["simulate", "--kind", "imports", "--overrides", "2005:0.1"],
         "argument --kind: invalid choice"),
        (["fit-ols", "--dependent", "ln(GDP)", "--regressors", "ln(Exports)", "--constant=yes"],
         "argument --constant/--no-constant"),
        # --help is the one spelling
        (["adf", "--series", "ln(GDP)", "-h"], "unrecognized arguments: -h"),
    ], ids=["prefix", "missing", "det-choice", "kind-choice", "boolean-value", "short-help"])
    def test_usage_error_exits_2_naming_the_flag(self, argv, named):
        r = run_cli(argv)
        assert r.exit_code == 2, r.output
        assert named in r.output

    @pytest.mark.parametrize("command", [None, *COMMAND_FLAGS])
    def test_help_lists_the_flags_of_each_command(self, command):
        r = run_cli([command, "--help"] if command else ["--help"])
        assert r.exit_code == 0, r.output
        if command is None:
            assert all(name in r.output for name in COMMAND_FLAGS)
        else:
            assert set(re.findall(r"--[a-z][a-z-]*", r.output)) == {"--help", "--dataset",
                                                                     *COMMAND_FLAGS[command]}

    def test_the_benchmark_probes_call_prints_what_main_prints(self):
        import tsecon.cli

        argv = ["granger", "--x", "dln(GDP)", "--y", "dln(Industrial Investment)",
                "--sample", "1976:2010"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):  # as perfbench/worker.py's cli_probe calls it
            tsecon.cli.main.main(args=argv, prog_name="tsecon", standalone_mode=False)
        assert "5.40933" in out.getvalue()
        assert out.getvalue() == run_cli(argv).output

    def test_bad_sample_is_usage_error_naming_the_flag(self):
        r = run_cli(["granger", "--x", "dln(GDP)", "--y", "dln(Industrial Investment)",
                     "--sample", "1970-2010"])
        assert r.exit_code == 2
        assert "Invalid value for '--sample'" in r.output
        assert "YYYY:YYYY" in r.output

    def test_bad_window_is_usage_error_not_manifest_error(self):
        r = run_cli(["adf", "--series", "ln(Inflation)", "--window", "x"])
        assert r.exit_code == 2
        assert "Invalid value for '--window'" in r.output
        assert "manifest error" not in r.output

    def test_unknown_irf_label_is_usage_error_naming_the_flag(self):
        r = run_cli(["irf", "--variables", "dln(GDP), dln(Exports)",
                     "--shock", "nope", "--response", "d_Ln(GDP)"])
        assert r.exit_code == 2
        assert "Invalid value for '--shock'" in r.output
        assert "d_Ln(GDP), d_Ln(Exports)" in r.output

    @pytest.mark.parametrize("lags", ["1 x", "1,,2.5"])
    def test_bad_ar_lags_is_usage_error_naming_the_flag(self, lags):
        r = run_cli(["fit-ar", "--dependent", "ln(Industrial Investment)",
                     "--regressors", "ln(GDP)", "--ar-lags", lags])
        assert r.exit_code == 2
        assert "Invalid value for '--ar-lags'" in r.output
        assert "invalid literal" not in r.output

    @pytest.mark.parametrize("overrides", ["2005:0.15 2006", "2005:x", "y2005:0.1", "2005:-1",
                                           "2005:nan", "2005:inf", "2005:0.15 2005:0.9"])
    def test_bad_overrides_is_usage_error_naming_the_flag(self, overrides):
        r = run_cli(["simulate", "--kind", "unemployment", "--overrides", overrides])
        assert r.exit_code == 2
        assert "Invalid value for '--overrides'" in r.output
        assert "YYYY:rate" in r.output

    def test_good_ar_lags_and_overrides_still_run(self):
        r = run_cli(["fit-ar", "--dependent", "ln(Industrial Investment)",
                     "--regressors", "ln(GDP), ln(Public investment)", "--ar-lags", "1, 2"])
        assert r.exit_code == 0, r.output
        r = run_cli(["simulate", "--kind", "exports", "--overrides", "2005:0.15 2006:0.10"])
        assert r.exit_code == 0, r.output
        assert "Terminal delta:" in r.output

    @pytest.mark.parametrize("argv, flag", [
        (["granger", "--x", "dln(GDP)", "--y", "dln(Exports)", "--lags", "0"], "--lags"),
        (["var", "--variables", "dln(GDP), dln(Exports)", "--lags", "0"], "--lags"),
        (["irf", "--variables", "dln(GDP), dln(Exports)", "--shock", "d_Ln(GDP)",
          "--response", "d_Ln(Exports)", "--lags", "0"], "--lags"),
        (["irf", "--variables", "dln(GDP), dln(Exports)", "--shock", "d_Ln(GDP)",
          "--response", "d_Ln(Exports)", "--horizon", "-1"], "--horizon"),
        (["adf", "--series", "ln(GDP)", "--lags", "-1"], "--lags"),
        (["coint", "--dependent", "ln(GDP)", "--regressors", "ln(Exports)",
          "--residual-lag", "-1"], "--residual-lag"),
    ])
    def test_out_of_range_count_is_usage_error_naming_the_flag(self, argv, flag):
        r = run_cli(argv)
        assert r.exit_code == 2, r.output
        assert f"Invalid value for '{flag}'" in r.output
        assert "division by zero" not in r.output

    def test_dataset_error_exits_3(self):
        r = run_cli(["ingest", "--dataset", "/no/such/path"])
        assert r.exit_code == 3

    def test_env_var_selects_default_dataset(self, tmp_path, monkeypatch):
        (tmp_path / "s.csv").write_text("year,s\n1970,1\n1971,2\n")
        monkeypatch.setenv("TSECON_DATASET", str(tmp_path))
        r = run_cli(["ingest"])
        assert r.exit_code == 0
        assert "s: 1970-1971" in r.output

    def test_estimation_error_exits_4(self):
        # GDP model base is GDP x 0.6091, so its ln is ln(GDP) plus the constant's multiple
        r = run_cli(["fit-ols", "--dependent", "ln(Exports)",
                     "--regressors", "ln(GDP), ln(GDP model base)"])
        assert r.exit_code == 4, r.output
        assert "step 'fit-ols' failed: the OLS regression is rank deficient" in r.output

    @pytest.mark.parametrize("argv, message", [
        (["adf", "--series", "ln(GDP)", "--window", "1900:1910"],
         "step 'adf' failed: series 'GDP': window 1900-1910"),
        # a scenario's capital growth must cover every year from its first override
        (["simulate", "--kind", "unemployment", "--overrides", "2005:0.15",
          "--window", "2000:2011"],
         "step 'simulate' failed: series 'd_Ln(K)' has no value for 2011"),
        (["simulate", "--kind", "exports", "--overrides", "2005:0.15", "--window", "1960:2010"],
         "step 'simulate' failed: series 'Exports' has no value for 1960"),
    ], ids=["adf", "simulate-capital", "simulate-baseline"])
    def test_window_outside_the_data_exits_4(self, argv, message):
        r = run_cli(argv)
        assert r.exit_code == 4, r.output
        assert f"step error: {message}" in r.output

    def test_report_runs_and_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        r1 = run_cli(["report", "--output", str(out1)])
        r2 = run_cli(["report", "--output", str(out2)])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert (out1 / "tables" / "pipeline_summary.txt").exists()
        assert tree_digest(out1) == tree_digest(out2)

    def test_bad_manifest_exits_2(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("key = value outside any section\n")
        r = run_cli(["report", "--manifest", str(bad)])
        assert r.exit_code == 2

    @pytest.mark.parametrize("content", [b"\xff[step o]\nop = ols\n", None],
                             ids=["not-utf-8", "missing"])
    def test_unreadable_manifest_exits_2_naming_the_path(self, tmp_path, content):
        manifest = tmp_path / "m.ini"
        if content is not None:
            manifest.write_bytes(content)
        r = run_cli(["report", "--manifest", str(manifest), "--output", str(tmp_path / "out")])
        assert r.exit_code == 2, r.output
        assert f"manifest error: cannot read {str(manifest)!r}: " in r.output

    def test_manifest_echo_reruns_identically(self, tmp_path):
        out1 = tmp_path / "a"
        run_cli(["report", "--output", str(out1)])
        echoed = out1 / "manifest.echo.ini"
        out2 = tmp_path / "b"
        r = run_cli(["report", "--manifest", str(echoed), "--output", str(out2)])
        assert r.exit_code == 0
        assert tree_digest(out1) == tree_digest(out2)

    @pytest.mark.parametrize("step, key, value", [
        ("[step a]\nop = adf\nseries = ln(GDP)\nlag_order = x\n", "lag_order", "'x'"),
        ("[step c]\nop = chow\ndependent = ln(Industrial Investment)\n"
         "regressors = ln(Public investment), ln(GDP model base), ln(Credit)\n"
         "constant = false\nsample = 1970:2010\nbreak_years = 1974 199x\n", "break_years", "'199x'"),
        ("[step g]\nop = granger\nx = dln(GDP)\ny = dln(Industrial Investment)\nlags = 0\n"
         "sample = 1976:2010\n", "lags", "'0'"),
        ("[step o]\nop = ols\ndependent = ln(GDP)\nregressors = lnx(Exports)\n",
         "regressors", "'lnx(Exports)'"),
        ("[step a]\nop = adf\nseries = diff(ln(GDP))\n", "series", "'diff(ln(GDP))'"),
        # a battery row's deterministic case and lag are checked by AdfSpec
        ("[step b]\nop = adf_battery\nrow = ln(GDP) ; quadratic ; 1\n", "row",
         "'ln(GDP) ; quadratic ; 1'; expected 'term ; deterministic ; lag >= 0' with one of "
         "none, constant, constant_and_trend"),
        ("[step b]\nop = adf_battery\nrow = ln(GDP) ; constant ; -1\n", "row",
         "'ln(GDP) ; constant ; -1'; expected 'term ; deterministic ; lag >= 0'"),
        ("[step a]\nop = adf\nseries = ln(GDP)\ndeterministic = quadratic\n",
         "deterministic", "'quadratic'"),
        ("[step v]\nop = var\nvariables = dln(GDP), dln(Exports)\nlags = 1\n"
         "[step i]\nop = irf\nvar = v\nplot = d_Ln(GDP) -> nope\n", "plot", "'d_Ln(GDP) -> nope'"),
        ("[step v]\nop = var\nvariables = dln(GDP), dln(Exports)\nlags = 1\n"
         "[step i]\nop = irf\nvar = v\nhorizon = 0\nplot = d_Ln(GDP) -> d_Ln(Exports)\n",
         "horizon", "'0'"),
        ("[step o]\nop = ols\ndependent = ln(GDP)\nregressors = ln(Exports)\nconstant = maybe\n",
         "constant", "'maybe'"),
        ("[step o]\nop = ols\ndependent = ln(GDP)\nregressors = ln(Exports)\nsample = 1970-2010\n",
         "sample", "'1970-2010'"),
        ("[step a]\nop = adf\nseries = ln(GDP)\nwindow = 2010:1975\n", "window", "'2010:1975'"),
        ("[step r]\nop = ar\ndependent = ln(GDP)\nregressors = ln(Exports)\nar_lags = 1\n"
         "tolerance = nan\n", "tolerance", "'nan'"),
        (SCENARIO_FIT + "[step s]\nop = simulate_unemployment\nfit = m\noverrides = 2005:0.15\n"
         "window = 2000:2010\neap = nan\ncapital = Ln(GDP)\n", "eap", "'nan'"),
        (SCENARIO_LN_FIT + "[step s]\nop = simulate_exports\nfit = m\noverrides = 2005:0.15\n"
         "window = 2000:2010\nterminal_actual_usd = -inf\ncapital = Ln(GDP)\n",
         "terminal_actual_usd", "'-inf'"),
        (SCENARIO_LN_FIT + "[step s]\nop = simulate_exports\nfit = m\n"
         "overrides = 2005:0.15 2005:0.9\nwindow = 2000:2010\nterminal_actual_usd = 1\n"
         "capital = Ln(GDP)\n",
         "overrides", "'2005:0.15 2005:0.9'"),
        # an empty list or an unknown choice would otherwise change the estimator
        ("[step r]\nop = ar\ndependent = ln(GDP)\nregressors = ln(Exports)\nar_lags =\n",
         "ar_lags", "''"),
        ("[step t]\nop = tsls\ndependent = ln(Exports)\nregressors = dln(GDP), ln(Exports)@1\n"
         "endogenous =\ninstruments = dln(GDP)@1\n", "endogenous", "''"),
        ("[step t]\nop = tsls\ndependent = ln(Exports)\nregressors = dln(GDP), ln(Exports)@1\n"
         "endogenous = d_Ln(GDP), nope\ninstruments = dln(GDP)@1\n", "endogenous",
         "'d_Ln(GDP), nope'; expected regressor labels, each one of d_Ln(GDP), Ln(Exports)(-1)"),
        ("[step c]\nop = coint\ndependent = ln(GDP)\nregressors = ln(Exports)\n"
         "assume_i1 = none\n", "assume_i1", "'none'"),
        ("[step c]\nop = chow\ndependent = ln(GDP)\nregressors = ln(Exports)\nbreak_years =\n",
         "break_years", "''"),
        # a key given twice would otherwise keep its first value
        ("[step g]\nop = granger\nx = dln(GDP)\ny = dln(Exports)\nlags = 1\nlags = 2\n",
         "lags", "'2'; expected one value, and lags is already '1'"),
        # a table name written twice would otherwise keep one table
        ("[step c_1990]\nop = ols\ndependent = ln(GDP)\nregressors = ln(Exports)\n"
         "[step c]\nop = chow\ndependent = ln(GDP)\nregressors = ln(Exports)\n"
         "break_years = 1975 1990\n", "break_years",
         "'1990'; its file tables/c_1990.txt is also written by step 'c_1990'"),
        ("[step c]\nop = chow\ndependent = ln(GDP)\nregressors = ln(Exports)\n"
         "break_years = 1990\n[step c_1990]\nop = ols\ndependent = ln(GDP)\n"
         "regressors = ln(Exports)\n", "name",
         "'c_1990'; its file tables/c_1990.txt is also written by step 'c'"),
        ("[step pipeline_summary]\nop = ols\ndependent = ln(GDP)\nregressors = ln(Exports)\n",
         "name", "'pipeline_summary'; its file tables/pipeline_summary.txt is reserved for the "
         "pipeline summary"),
        # so is a plot file written by two steps
        ("[step v]\nop = var\nvariables = dln(GDP) as a_b, dln(Exports) as c, dln(Credit) as b\n"
         "lags = 1\n[step i]\nop = irf\nvar = v\nplot = a_b -> c\n"
         "[step i_a]\nop = irf\nvar = v\nplot = b -> c\n", "plot",
         "'b -> c'; its file plots/i_a_b_to_c.svg is also written by step 'i'"),
        # a repeated break year would otherwise write one table for both
        ("[step c]\nop = chow\ndependent = ln(GDP)\nregressors = ln(Exports)\n"
         "break_years = 1990 1990\n", "break_years", "'1990 1990'; a break year is repeated"),
        # values that only an engine spec or check refuses are refused before any step runs
        ("[step r]\nop = ar\ndependent = ln(GDP)\nregressors = ln(Exports)\nar_lags = 2 1\n",
         "ar_lags", "'2 1'; AR lag list must be strictly increasing"),
        ("[step t]\nop = tsls\ndependent = ln(Exports)\nregressors = dln(GDP), ln(Exports)@1\n"
         "endogenous = d_Ln(GDP), Ln(Exports)(-1)\ninstruments = dln(GDP)@1\n", "instruments",
         "'dln(GDP)@1'; order condition violated: need at least as many instruments as "
         "endogenous regressors"),
        ("[step c]\nop = coint\ndependent = ln(Industrial Investment)\nregressors = ln(GDP), "
         "ln(Credit), ln(Exports), ln(CPI), ln(Public investment), ln(Total investment)\n",
         "regressors", "'ln(GDP), ln(Credit), ln(Exports), ln(CPI), ln(Public investment), "
         "ln(Total investment)'; the MacKinnon response surfaces cover at most 6 variables; "
         "the long-run relation has 7"),
        (SCENARIO_LN_FIT + "[step s]\nop = simulate_exports\nfit = m\noverrides = 1990:0.1\n"
         "window = 2000:2010\nterminal_actual_usd = 1\ncapital = Ln(GDP)\n",
         "overrides", "'1990:0.1'; override years [1990] lie outside the window 2000-2010"),
        # a scenario reports a level (unemployment) or a log (exports) dependent
        (SCENARIO_FIT + "[step s]\nop = simulate_exports\nfit = m\noverrides = 2005:0.15\n"
         "window = 2000:2010\nterminal_actual_usd = 1\ncapital = Ln(GDP)\n", "fit",
         "'m'; expected a step whose dependent is ln(<series>); its dependent is "
         "Unemployment rate"),
        (SCENARIO_LN_FIT + "[step s]\nop = simulate_unemployment\nfit = m\noverrides = 2005:0.15\n"
         "window = 2000:2010\neap = 1\ncapital = Ln(GDP)\n", "fit",
         "'m'; expected a step whose dependent is a series' level; its dependent is Ln(Exports)"),
        # a scenario's capital term is one of its fit's regressors, named by its label
        (SCENARIO_LN_FIT + "[step s]\nop = simulate_exports\nfit = m\noverrides = 2005:0.15\n"
         "window = 2000:2010\nterminal_actual_usd = 1\ncapital = d_Ln(K)\n", "capital",
         "'d_Ln(K)'; expected a regressor label of step 'm', one of Ln(GDP)"),
        ("[step o]\nop = ols\ndependent = ln(GDP)\nregressors = ln(Exports) as const\n",
         "regressors", "'ln(Exports) as const'; the label 'const' is repeated"),
        ("[step v]\nop = var\nvariables = ln(GDP) as A, ln(Exports) as A\nlags = 1\n",
         "variables", "'ln(GDP) as A, ln(Exports) as A'; the label 'A' is repeated"),
        ("[step v]\nop = var\nvariables = ,\nlags = 1\n",
         "variables", "','; a VAR needs at least one variable"),
    ])
    def test_bad_step_value_is_manifest_error_naming_the_key(self, tmp_path, step, key, value):
        manifest = tmp_path / "m.ini"
        manifest.write_text(step)
        r = run_cli(["report", "--manifest", str(manifest),
                     "--output", str(tmp_path / "out")])
        assert r.exit_code == 2, r.output
        name = step.split("[step ")[-1].split("]")[0]
        assert f"manifest error: step {name!r}: bad {key} {value}" in r.output
        assert not (tmp_path / "out").exists()

    # each data-free rule is its spec's, refused at parse time under the key it is about;
    # an AR step's spec is shared, so a comparison of two dependents is refused there too
    @pytest.mark.parametrize("step, key, reason", [
        ("[step o]\nop = ols\ndependent = ln(GDP)\nregressors =\nconstant = false\n",
         "regressors", "empty model: no regressor and no constant"),
        ("[step o]\nop = ols\ndependent = ln(GDP)\nregressors = ln(Exports), ln(Exports)\n",
         "regressors", "the label 'Ln(Exports)' is repeated"),
        ("[step t]\nop = tsls\ndependent = ln(Exports)\nregressors = dln(GDP), ln(Exports)@1\n"
         "endogenous = nope\ninstruments = dln(GDP)@1\n", "endogenous",
         "expected regressor labels, each one of d_Ln(GDP), Ln(Exports)(-1)"),
        ("[step t]\nop = tsls\ndependent = ln(Exports)\nregressors = dln(GDP), ln(Exports)@1\n"
         "endogenous = d_Ln(GDP), d_Ln(GDP)\ninstruments = dln(GDP)@1, dln(Credit)\n", "endogenous",
         "the label 'd_Ln(GDP)' is repeated"),
        ("[step t]\nop = tsls\ndependent = ln(Exports)\nregressors = dln(GDP), ln(GDP)\n"
         "endogenous = d_Ln(GDP)\ninstruments = ln(GDP)\n", "instruments",
         "the label 'Ln(GDP)' is repeated"),
        # a term is its series, transform and lag, whatever its label
        ("[step o]\nop = ols\ndependent = ln(GDP)\nregressors = ln(Credit), ln(GDP) as G\n",
         "regressors", "the term 'G' repeats 'Ln(GDP)'"),
        ("[step t]\nop = tsls\ndependent = ln(Exports)\nregressors = dln(GDP), ln(GDP)\n"
         "endogenous = d_Ln(GDP)\ninstruments = ln(Exports) as X\n", "instruments",
         "the term 'X' repeats 'Ln(Exports)'"),
        ("[step g]\nop = granger\nx = dln(GDP)\ny = dln(GDP) as G\n", "y",
         "the term 'G' repeats 'd_Ln(GDP)'"),
        ("[step v]\nop = var\nvariables = dln(GDP), dln(Exports) as X, dln(Exports)\n", "variables",
         "the term 'd_Ln(Exports)' repeats 'X'"),
        ("[step r]\nop = ar\ndependent = ln(GDP)\nregressors = ln(Exports)\nar_lags = 0 1\n",
         "ar_lags", "AR lags must be positive"),
        ("[step r]\nop = ar\ndependent = ln(GDP)\nregressors = ln(Exports)\nar_lags = 1\n"
         "max_iterations = 0\n", "max_iterations", "the iteration limit must be >= 1"),
        ("[step r1]\nop = ar\ndependent = ln(GDP)\nregressors = ln(Exports)\nar_lags = 1\n"
         "[step r2]\nop = ar\ndependent = ln(Exports)\nregressors = ln(GDP)\nar_lags = 1\n"
         "[step c]\nop = compare\na = r1\nb = r2\n", "b",
         "model comparison requires the same dependent variable"),
        ("[step r1]\nop = ar\ndependent = ln(GDP) as Z\nregressors = ln(Credit)\nar_lags = 1\n"
         "[step r2]\nop = ar\ndependent = ln(Exports) as Z\nregressors = ln(Credit)\n"
         "ar_lags = 1\n[step c]\nop = compare\na = r1\nb = r2\n", "b",
         "model comparison requires the same dependent variable"),
        ("[step g]\nop = granger\nx = dln(GDP)\ny = dln(Exports)\nlags = 0\n", "lags",
         "Granger lag order must be >= 1"),
        ("[step v]\nop = var\nvariables = dln(GDP), dln(Exports)\nlags = 0\n", "lags",
         "VAR lag order must be >= 1"),
        ("[step v]\nop = var\nvariables = ,\n", "variables", "a VAR needs at least one variable"),
        ("[step v]\nop = var\nvariables = dln(GDP), dln(Exports)\n"
         "[step i]\nop = irf\nvar = v\nhorizon = -1\n", "horizon",
         "expected 0 or more steps after impact"),
        ("[step v]\nop = var\nvariables = dln(GDP), dln(Exports)\n"
         "[step f]\nop = fevd\nvar = v\nhorizon = -1\n", "horizon",
         "expected 0 or more steps after impact"),
        ("[step a]\nop = adf\nseries = ln(GDP)\ndeterministic = trend\n", "deterministic",
         "expected one of none, constant, constant_and_trend"),
        ("[step a]\nop = adf\nseries = ln(GDP)\nlag_order = -1\n", "lag_order",
         "the lag order must be >= 0"),
        ("[step c]\nop = coint\ndependent = ln(Industrial Investment)\nregressors = ln(GDP), "
         "ln(Credit), ln(Exports), ln(CPI), ln(Public investment), ln(Total investment)\n",
         "regressors", "the MacKinnon response surfaces cover at most 6 variables"),
        (SCENARIO_LN_FIT + "[step s]\nop = simulate_exports\nfit = m\noverrides = 2005:-1\n"
         "window = 2000:2010\nterminal_actual_usd = 1\ncapital = Ln(GDP)\n", "overrides",
         "each YYYY:rate override needs a finite rate > -1"),
        (SCENARIO_FIT + "[step s]\nop = simulate_unemployment\nfit = m\noverrides = 2005:nan\n"
         "window = 2000:2010\neap = 1\ncapital = Ln(GDP)\n", "overrides",
         "each YYYY:rate override needs a finite rate > -1"),
        (SCENARIO_LN_FIT + "[step s]\nop = simulate_exports\nfit = m\noverrides = 2011:0.1\n"
         "window = 2000:2010\nterminal_actual_usd = 1\ncapital = Ln(GDP)\n", "overrides",
         "override years [2011] lie outside the window 2000-2010"),
        # "first <= last" is one rule, for every sample and window
        ("[step o]\nop = ols\ndependent = ln(GDP)\nregressors = ln(Exports)\nsample = 2010:1975\n",
         "sample", "expected the first year <= the last"),
        ("[step g]\nop = granger\nx = dln(GDP)\ny = dln(Exports)\nsample = 2010:1976\n", "sample",
         "expected the first year <= the last"),
        ("[step v]\nop = var\nvariables = dln(GDP), dln(Exports)\nsample = 2010:1976\n", "sample",
         "expected the first year <= the last"),
        ("[step a]\nop = adf\nseries = ln(GDP)\nwindow = 2010:1975\n", "window",
         "expected the first year <= the last"),
        ("[step b]\nop = adf_battery\nrow = ln(GDP) ; constant ; 1\nwindow = 2010:1975\n",
         "window", "expected the first year <= the last"),
        (SCENARIO_FIT + "[step s]\nop = simulate_unemployment\nfit = m\noverrides = 2005:0.15\n"
         "window = 2010:2000\neap = 1\ncapital = Ln(GDP)\n", "window",
         "expected the first year <= the last"),
        ("[step c]\nop = coint\ndependent = ln(GDP)\nregressors = ln(Exports)\nresidual_lag = -1\n",
         "residual_lag", "the lag order must be >= 0"),
    ], ids=["empty-model", "model-label-twice", "tsls-endogenous", "tsls-endogenous-twice",
            "tsls-instrument-label", "model-term-twice", "tsls-instrument-term",
            "granger-term-twice", "var-term-twice",
            "ar-lags", "ar-iterations", "compare-dependents", "compare-dependents-one-label",
            "granger-lags", "var-lags",
            "var-variables", "irf-horizon", "fevd-horizon", "adf-deterministic", "adf-lag",
            "coint-reach", "scenario-rate", "scenario-nan-rate", "scenario-window",
            "model-sample", "granger-sample", "var-sample", "adf-window", "battery-window",
            "scenario-reversed-window", "coint-residual-lag"])
    def test_spec_refusal_exits_2_naming_its_key_before_any_engine_runs(
            self, tmp_path, monkeypatch, step, key, reason):
        import tsecon.pipeline

        def engine(*args):
            raise AssertionError("an engine ran")

        for name in ("adf_test", "ols_fit", "tsls_fit", "cochrane_orcutt_fit", "compare_models",
                     "engle_granger", "granger_causality", "chow_test", "var_fit",
                     "impulse_response", "variance_decomposition", "simulate_unemployment",
                     "simulate_exports"):
            monkeypatch.setattr(tsecon.pipeline, name, engine)
        manifest = tmp_path / "m.ini"
        manifest.write_text(step)
        r = run_cli(["report", "--manifest", str(manifest), "--output", str(tmp_path / "out")])
        assert r.exit_code == 2, r.output
        name, *lines = step.split("[step ")[-1].splitlines()
        value = dict(map(str.strip, line.partition("=")[::2]) for line in lines)[key]
        assert f"manifest error: step {name[:-1]!r}: bad {key} {value!r}; {reason}" in r.output
        # a flag that sets the key reports the reason under the flag's name
        assert not re.search(rf"\b{key}\b", reason)
        assert not (tmp_path / "out").exists()

    def test_plots_whose_file_names_collide_are_manifest_error(self, tmp_path):
        manifest = tmp_path / "m.ini"
        manifest.write_text(
            "[step v]\nop = var\nvariables = dln(GDP) as g(1), dln(Exports) as G 1, "
            "dln(Credit) as x\nlags = 1\n[step i]\nop = irf\nvar = v\nplot = g(1) -> x\n"
            "plot = G 1 -> x\n")
        r = run_cli(["report", "--manifest", str(manifest),
                     "--output", str(tmp_path / "out")])
        assert r.exit_code == 2, r.output
        assert ("manifest error: step 'i': bad plot 'G 1 -> x'; its file plots/i_g_1_to_x.svg "
                "is also written by plot 'g(1) -> x'") in r.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("step, key, series", [
        ("[step b]\nop = adf_battery\nrow = ln(GDP) ; constant ; 1\n"
         "row = ln(GDPP) ; constant ; 1\n", "row", "GDPP"),
        ("[step g]\nop = granger\nx = dln(GDP)\ny = dln(Benefits)\n", "y", "Benefits"),
        ("[step o]\nop = ols\ndependent = ln(GDP)\nregressors = ln(Tax benefits), ln(Nope)\n",
         "regressors", "Nope"),
        ("[step o]\nop = ols\nrequires = Nope\ndependent = ln(GDP)\nregressors = ln(Exports)\n",
         "requires", "Nope"),
    ], ids=["battery-row", "term", "after-an-optional-one", "requires"])
    def test_unknown_series_is_manifest_error_naming_the_key(self, tmp_path, step, key, series):
        manifest = tmp_path / "m.ini"
        manifest.write_text("[pipeline]\noptional = Tax benefits\n" + step)
        r = run_cli(["report", "--manifest", str(manifest),
                     "--output", str(tmp_path / "out")])
        assert r.exit_code == 2, r.output
        name = step.split("[step ")[-1].split("]")[0]
        assert (f"manifest error: step {name!r}: {key}: unknown series {series!r} "
                "that is not declared optional") in r.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("step, key, message", [
        ("[step c]\nop = compare\na = o\nb = o\n", "a", "= o names a step of op 'ols'; expected op 'ar'"),
        ("[step i]\nop = irf\nvar = o\n", "var", "= o names a step of op 'ols'; expected op 'var'"),
        ("[step f]\nop = fevd\nvar = nope\n", "var", "= nope names a step that did not run"),
        ("[step s]\nop = simulate_exports\nfit = v\noverrides = 2005:0.15\n"
         "window = 2000:2010\ncapital = d_Ln(K)\n"
         "terminal_actual_usd = 6762000000\n", "fit", "= v names a step of op 'var'; expected op 'ols' or 'tsls'"),
    ])
    def test_reference_to_a_step_of_the_wrong_kind_is_manifest_error(
            self, tmp_path, step, key, message):
        manifest = tmp_path / "m.ini"
        manifest.write_text(
            "[step o]\nop = ols\ndependent = ln(GDP)\nregressors = ln(Exports)\n"
            "[step v]\nop = var\nvariables = dln(GDP), dln(Exports)\nlags = 1\n" + step)
        r = run_cli(["report", "--manifest", str(manifest),
                     "--output", str(tmp_path / "out")])
        assert r.exit_code == 2, r.output
        name = step.split("]")[0].split()[1]
        assert f"manifest error: step {name!r}: {key} {message}" in r.output

    def test_unwritable_output_exits_2_naming_the_path(self, tmp_path):
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        target = blocker / "sub"
        r = run_cli(["report", "--output", str(target)])
        assert r.exit_code == 2
        assert f"output error: cannot write bundle to {str(target)!r}" in r.output

    def test_bad_value_in_the_last_step_exits_before_any_step_runs(self, tmp_path, monkeypatch):
        import tsecon.pipeline

        calls = []
        ols_fit = tsecon.pipeline.ols_fit
        monkeypatch.setattr(tsecon.pipeline, "ols_fit", lambda *a: calls.append(a) or ols_fit(*a))
        manifest = tmp_path / "m.ini"
        manifest.write_text("[step o]\nop = ols\ndependent = ln(GDP)\nregressors = ln(Exports)\n"
                            "[step g]\nop = granger\nx = dln(GDP)\ny = dln(Exports)\nlags = x\n")
        r = run_cli(["report", "--manifest", str(manifest),
                     "--output", str(tmp_path / "out")])
        assert r.exit_code == 2, r.output
        assert "manifest error: step 'g': bad lags 'x'" in r.output
        assert calls == []
        manifest.write_text("[step o]\nop = ols\ndependent = ln(GDP)\nregressors = ln(Exports)\n")
        assert run_cli(["report", "--manifest", str(manifest),
                        "--output", str(tmp_path / "out")]).exit_code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("argv, flag", [
        (["adf", "--series", "lnx(GDP)"], "--series"),
        (["adf", "--series", "ln(GDP)", "--window", "2010:1975"], "--window"),
        (["fit-ols", "--dependent", "ln(GDP)", "--regressors", "ln(Exports)",
          "--sample", "2010:1970"], "--sample"),
        (["chow", "--break", "1998", "--regressors", "ln(Credit), lnx(GDP)"], "--regressors"),
        (["irf", "--variables", "dln(GDP), dln(Exports)", "--shock", "d_Ln(GDP)",
          "--response", "nope"], "--response"),
        (["simulate", "--kind", "exports", "--overrides", "2005:0.1", "--window", "2010:2000"],
         "--window"),
        (["simulate", "--kind", "exports", "--overrides", "2005:nan"], "--overrides"),
        (["simulate", "--kind", "unemployment", "--overrides", "2005:0.1", "--eap", "nan"],
         "--eap"),
        (["simulate", "--kind", "exports", "--overrides", "2005:0.1",
          "--terminal-actual-usd", "inf"], "--terminal-actual-usd"),
        # the exports scenario has no eap, and an unknown key is not ignored
        (["simulate", "--kind", "exports", "--overrides", "2005:0.1", "--eap", "1"], "--eap"),
        (["irf", "--variables", "dln(GDP), dln(Exports)", "--shock", "d_Ln(GDP)",
          "--response", "d_Ln(Exports)", "--horizon", "0"], "--horizon"),
        (["chow", "--break", "1998 199x"], "--break"),
        (["chow", "--break", ""], "--break"),
        (["chow", "--break", "1990 1990"], "--break"),
        (["fit-ar", "--dependent", "ln(GDP)", "--regressors", "ln(Exports)", "--ar-lags", ""],
         "--ar-lags"),
        (["fit-tsls", "--dependent", "ln(Exports)", "--regressors", "dln(GDP), ln(Exports)@1",
          "--endogenous", "", "--instruments", "dln(GDP)@1"], "--endogenous"),
        (["fit-tsls", "--dependent", "ln(Exports)", "--regressors", "dln(GDP), ln(Exports)@1",
          "--endogenous", "nope", "--instruments", "dln(GDP)@1"], "--endogenous"),
        # values that only an engine spec or check refuses are refused before any step runs
        (["fit-ar", "--dependent", "ln(GDP)", "--regressors", "ln(Exports)", "--ar-lags", "1 1"],
         "--ar-lags"),
        (["fit-tsls", "--dependent", "ln(Exports)", "--regressors", "dln(GDP), ln(Exports)@1",
          "--endogenous", "d_Ln(GDP), Ln(Exports)(-1)", "--instruments", "dln(GDP)@1"],
         "--instruments"),
        (["fit-tsls", "--dependent", "ln(Exports)", "--regressors",
          "dln(Total investment) as d_Ln(K), ln(GDP)", "--endogenous", "d_Ln(K)",
          "--instruments", "ln(GDP), dln(GDP)@1"], "--instruments"),
        (["simulate", "--kind", "exports", "--overrides", "1990:0.1"], "--overrides"),
        (["fit-ols", "--dependent", "ln(Exports)", "--regressors", "ln(GDP), ln(GDP)"],
         "--regressors"),
        (["var", "--variables", "ln(GDP) as A, ln(Exports) as A", "--lags", "1"], "--variables"),
        # a term repeated under another label is one variable twice
        (["fit-ols", "--dependent", "ln(Exports)", "--regressors", "ln(GDP), ln(GDP) as G2"],
         "--regressors"),
        (["fit-ols", "--dependent", "ln(GDP)", "--regressors", "ln(Credit), ln(GDP) as G"],
         "--regressors"),
        (["var", "--variables", "dln(GDP), dln(Exports), dln(GDP) as G", "--lags", "1"],
         "--variables"),
        (["granger", "--x", "dln(GDP)", "--y", "dln(GDP) as G"], "--y"),
        # two columns under one label: Granger's x and y, a regressor and the dependent
        (["granger", "--x", "dln(GDP) as A", "--y", "dln(Exports) as A", "--lags", "1"], "--y"),
        (["fit-ols", "--dependent", "ln(GDP)", "--regressors", "ln(Credit) as Ln(GDP)"],
         "--regressors"),
        (["fit-tsls", "--dependent", "ln(Exports)", "--regressors", "dln(GDP), ln(Credit)",
          "--endogenous", "d_Ln(GDP)", "--instruments", "ln(Credit) as C"], "--instruments"),
    ])
    def test_bad_flag_value_is_usage_error_naming_the_flag(self, argv, flag):
        r = run_cli(argv)
        assert r.exit_code == 2, r.output
        assert f"Invalid value for '{flag}'" in r.output

    @pytest.mark.parametrize("argv, flag", [
        (["adf", "--series", "ln(Nope)"], "--series"),
        (["granger", "--x", "dln(GDP)", "--y", "dln(Nope)"], "--y"),
        (["fit-ols", "--dependent", "ln(GDP)", "--regressors", "ln(Exports), ln(Nope)"],
         "--regressors"),
        # the CLI declares no series optional
        (["granger", "--x", "dln(GDP)", "--y", "dln(Tax benefits)"], "--y"),
    ])
    def test_unknown_series_is_usage_error_naming_the_flag(self, argv, flag):
        r = run_cli(argv)
        assert r.exit_code == 2, r.output
        assert f"Invalid value for '{flag}': unknown series " in r.output
        assert "dataset error" not in r.output

    @pytest.mark.parametrize("argv, key", [
        (["adf", "--series", "ln(GDP)", "--lags", "-1"], "lag_order"),
        (["chow", "--break", "1998 199x"], "break_years"),
        (["fit-ar", "--dependent", "ln(GDP)", "--regressors", "ln(Exports)", "--ar-lags", "x"],
         "ar_lags"),
    ])
    def test_flag_error_leaves_out_the_step_key(self, argv, key):
        r = run_cli(argv)
        assert r.exit_code == 2, r.output
        message = r.output.split("Invalid value for ", 1)[1]
        assert key not in message.split(":", 1)[1], message

    def test_empty_model_is_estimation_error_naming_it(self):
        r = run_cli(["fit-ols", "--dependent", "ln(GDP)", "--regressors", "",
                     "--no-constant"])
        assert r.exit_code == 2, r.output
        assert "Invalid value for '--regressors': ''; empty model" in r.output
        assert "concatenate" not in r.output

    # a step key spelt like a flag of report is still the manifest's, not the flag's
    @pytest.mark.parametrize("key", ["lag", "output", "dataset"])
    def test_unknown_step_key_is_manifest_error_naming_it(self, tmp_path, key):
        manifest = tmp_path / "m.ini"
        manifest.write_text(f"[step g]\nop = granger\nx = dln(GDP)\ny = dln(Exports)\n{key} = 2\n")
        r = run_cli(["report", "--manifest", str(manifest),
                     "--output", str(tmp_path / "out")])
        assert r.exit_code == 2, r.output
        assert f"manifest error: step 'g': unknown key {key!r}" in r.output
        assert not (tmp_path / "out").exists()

    def test_misspelled_pipeline_key_is_manifest_error_naming_it(self, tmp_path):
        manifest = tmp_path / "m.ini"
        manifest.write_text("[pipeline]\ndatset = /no/such/dir\n"
                            "[step a]\nop = adf\nseries = ln(GDP)\n")
        r = run_cli(["report", "--manifest", str(manifest),
                     "--output", str(tmp_path / "out")])
        assert r.exit_code == 2, r.output
        assert "manifest error: [pipeline]: unknown key 'datset'" in r.output
        assert not (tmp_path / "out").exists()

    # the capital label names the fit's coefficient, growth is always logged and the
    # simulated series is the fit's dependent's
    @pytest.mark.parametrize("key", ["capital_label = d_Ln(K)", "log_growth = true",
                                     "unemployment = Unemployment rate", "exports = Exports"])
    def test_former_scenario_keys_are_unknown(self, tmp_path, key):
        manifest = tmp_path / "m.ini"
        manifest.write_text(SCENARIO_FIT + "[step s]\nop = simulate_unemployment\nfit = m\n"
                            "overrides = 2005:0.15\nwindow = 2000:2010\neap = 1\n"
                            f"capital = Ln(GDP)\n{key}\n")
        r = run_cli(["report", "--manifest", str(manifest),
                     "--output", str(tmp_path / "out")])
        assert r.exit_code == 2, r.output
        assert (f"manifest error: step 's': unknown key {key.split()[0]!r} "
                "for op 'simulate_unemployment'") in r.output

    # a scenario replays its fit's equation: its capital is a label of the fit's regressors,
    # and the series it simulates is the fit's dependent's (keys naming others are unknown)
    @pytest.mark.parametrize("regressor, scenario", [
        ("dln(Total investment) as d_Ln(K)", "capital = dln(Total investment)\n"),
        ("dln(Private investment) as d_Ln(K)",
         "capital = dln(Total investment) as d_Ln(K)\nunemployment = Inflation\n"),
    ], ids=["no-regressor-label", "another-series-under-the-label"])
    def test_capital_that_is_no_regressor_label_of_the_fit_exits_2(
            self, tmp_path, regressor, scenario):
        manifest = tmp_path / "m.ini"
        manifest.write_text(
            f"[step m]\nop = ols\ndependent = Unemployment rate\nregressors = {regressor}, "
            "Unemployment rate@1, Unemployment rate@2\n"
            "[step s]\nop = simulate_unemployment\nfit = m\noverrides = 2005:0.15\n"
            "window = 2000:2010\neap = 1\n" + scenario)
        r = run_cli(["report", "--manifest", str(manifest),
                     "--output", str(tmp_path / "out")])
        assert r.exit_code == 2, r.output
        capital = scenario.split("\n")[0].partition(" = ")[2]
        assert (f"manifest error: step 's': bad capital {capital!r}; expected a regressor "
                "label of step 'm', one of d_Ln(K)\n") in r.output
        assert not (tmp_path / "out").exists()

    # the recursion reads whichever dependent lags the fit holds, and needs no constant; a lag
    # is a term, so labels move no number: an alias neither hides a dependent lag nor fakes one
    @pytest.mark.parametrize("dependent, lag, constant", [
        ("Unemployment rate", "", "true"),
        ("Unemployment rate", "Unemployment rate@1", "true"),
        ("Unemployment rate", "Unemployment rate@1", "false"),
        ("Unemployment rate", "Unemployment rate@1 as UL1", "true"),
        ("ln(Exports)", "ln(Exports)@1", "true"),
        ("ln(Exports) as LX", "ln(Exports)@1", "true"),
        ("ln(Exports)", "ln(Exports)@1 as X1", "true"),
        ("ln(Exports)", "ln(GDP)@1 as Ln(Exports)(-1)", "true"),
    ], ids=["no-lag", "one-lag", "one-lag-no-constant", "aliased-lag", "exports",
            "exports-aliased-dependent", "exports-aliased-lag", "exports-faked-lag"])
    def test_scenario_runs_its_fit_equation(self, tmp_path, dataset, dependent, lag, constant):
        from tsecon.dataset import apply_term, parse_term
        from tsecon.regress import ModelSpec, ols_fit

        def scenario(dependent, lag, out):
            regressors = ", ".join(filter(None, ("dln(Total investment) as d_Ln(K)", lag)))
            op, amount = (("simulate_exports", "terminal_actual_usd") if "Exports" in dependent
                          else ("simulate_unemployment", "eap"))
            manifest = tmp_path / f"{out}.ini"
            manifest.write_text(
                f"[step m]\nop = ols\ndependent = {dependent}\nregressors = {regressors}\n"
                f"constant = {constant}\n[step s]\nop = {op}\nfit = m\n"
                "overrides = 2005:0.15 2006:0.10\nwindow = 2000:2010\n"
                f"{amount} = 1\ncapital = d_Ln(K)\n")
            r = run_cli(["report", "--manifest", str(manifest), "--output", str(tmp_path / out)])
            assert r.exit_code == 0, r.output
            return (tmp_path / out / "tables" / "s.csv").read_bytes(), regressors

        table, regressors = scenario(dependent, lag, "out")
        unaliased = [term.split(" as ")[0] for term in (dependent, lag)]
        assert table == scenario(*unaliased, "unaliased")[0]
        dep, lag = parse_term(dependent), parse_term(lag) if lag else None
        fit = ols_fit(dataset, ModelSpec(dep, tuple(
            parse_term(t) for t in regressors.split(", ")), constant == "true"))
        beta_k = fit.coefficient("d_Ln(K)").estimate
        a1 = (fit.coefficient(lag.rendered_label()).estimate
              if lag and lag.base == dep.base else 0.0)
        growth = apply_term(dataset, parse_term("dln(Total investment)"))
        dev = {2004: 0.0}
        for y, rate in zip(range(2005, 2011), (0.15, *[0.10] * 5)):
            dev[y] = beta_k * (math.log1p(rate) - growth.value_in(y)) + a1 * dev[y - 1]
        rows = list(csv.reader(table.decode().splitlines()))
        for year, base, cf in rows[1:12]:
            d = dev.get(int(year), 0.0)
            want = float(base) * math.exp(d) if dep.transform == "ln" else float(base) + d
            assert float(cf) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_coint_beyond_the_response_surfaces_is_usage_error_naming_the_flag(self):
        r = run_cli([
            "coint", "--dependent", "ln(Industrial Investment)", "--regressors",
            "ln(GDP),ln(Credit),ln(Exports),ln(CPI),ln(Public investment),ln(Total investment)"])
        assert r.exit_code == 2, r.output
        assert ("Invalid value for '--regressors': 'ln(GDP),ln(Credit),ln(Exports),ln(CPI),"
                "ln(Public investment),ln(Total investment)'; the MacKinnon response surfaces "
                "cover at most 6 variables; the long-run relation has 7") in r.output

    def test_coint_subcommand(self):
        r = run_cli([
            "coint", "--dependent", "ln(Industrial Investment)",
            "--regressors", "ln(Public investment), ln(GDP model base), ln(Credit)",
            "--sample", "1975:2010"])
        assert r.exit_code == 0, r.output
        assert "Cointegrated at 5%:" in r.output

    def test_fit_tsls_prints_the_bundled_equation(self):
        r = run_cli(["fit-tsls", *default_step_flags("model1_unemployment")])
        assert r.exit_code == 0, r.output
        golden = (GOLDEN_TABLES / "model1_unemployment.txt").read_text("utf-8")
        # all but the title line, which names the step
        assert r.output.split("\n", 1)[1] == golden.split("\n", 1)[1] + "\n"

    def test_var_prints_the_bundled_table(self):
        r = run_cli(["var", *default_step_flags("var_main")])
        assert r.exit_code == 0, r.output
        assert r.output == (GOLDEN_TABLES / "var_main.txt").read_text("utf-8") + "\n"

    @pytest.mark.parametrize("argv, old_defaults", [
        (["adf", "--series", "ln(Inflation)"], ["--det", "constant", "--lags", "1"]),
        (["granger", "--x", "dln(GDP)", "--y", "dln(Industrial Investment)"], ["--lags", "4"]),
        (["var", "--variables", "dln(GDP), dln(Exports)"], ["--lags", "4"]),
        (["irf", "--variables", "dln(GDP), dln(Exports)", "--shock", "d_Ln(GDP)",
          "--response", "d_Ln(Exports)"], ["--lags", "4", "--horizon", "10"]),
        (["coint", "--dependent", "ln(GDP)", "--regressors", "ln(Exports)"],
         ["--residual-lag", "1"]),
        (["fit-ols", "--dependent", "ln(GDP)", "--regressors", "ln(Exports)"], ["--constant"]),
        (["fit-tsls", "--dependent", "ln(Exports)", "--regressors", "dln(GDP), ln(Exports)@1",
          "--endogenous", "d_Ln(GDP)", "--instruments", "dln(GDP)@1"], ["--constant"]),
        (["fit-ar", "--dependent", "ln(Industrial Investment)", "--regressors", "ln(GDP)",
          "--ar-lags", "1"], ["--constant"]),
        (["simulate", "--kind", "unemployment", "--overrides", "2005:0.15"],
         ["--window", "2000:2010", "--eap", "1665000.0"]),
        (["simulate", "--kind", "exports", "--overrides", "2005:0.15"],
         ["--window", "2000:2010", "--terminal-actual-usd", "6762000000.0"]),
    ], ids=["adf", "granger", "var", "irf", "coint", "fit-ols", "fit-tsls", "fit-ar",
            "simulate-unemployment", "simulate-exports"])
    def test_a_flag_left_out_takes_its_former_default(self, argv, old_defaults):
        without = run_cli(argv)
        explicit = run_cli(argv + old_defaults)
        assert without.exit_code == 0, without.output
        assert without.output == explicit.output
