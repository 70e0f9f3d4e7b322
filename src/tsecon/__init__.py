"""tsecon: annual time-series econometrics engine and reproduction pipeline.

The public names below load their module on first access (PEP 562), so
``import tsecon`` is cheap and only what a caller touches pulls in numpy.
The engine needs no scipy: its p-value tails use ``math`` alone.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "cointegration": ("CointegrationResult", "engle_granger"),
        "dataset": (
            "AnnualSeries", "Dataset", "DatasetError", "Term", "TermError", "apply_term",
            "load_dataset", "parse_term",
        ),
        "dynamics": (
            "ArFitResult", "ArSpec", "ChowResult", "GrangerResult", "GrangerSpec", "chow_test",
            "cochrane_orcutt_fit", "compare_models", "granger_causality",
        ),
        "manifest": ("PipelineManifest", "default_manifest_text", "parse_manifest"),
        "pipeline": ("run_pipeline",),
        "regress": ("EstimationError", "FitResult", "ModelSpec", "ols_fit"),
        "report": ("ReportBundle", "render_irf_plot", "render_table"),
        "scenario": ("CapitalScenario", "ScenarioResult", "simulate_exports", "simulate_unemployment"),
        "tsls": ("TslsSpec", "tsls_fit"),
        "unitroot": ("AdfResult", "AdfSpec", "adf_test", "df_residual_test"),
        "var": ("VarModel", "VarSpec", "impulse_response", "var_fit", "variance_decomposition"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
