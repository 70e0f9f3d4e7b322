import contextlib
import io
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from tsecon.cli import main
from tsecon.dataset import AnnualSeries, Dataset, load_dataset

# on CI every property test replays the same examples, with no time limit,
# so a slow runner or an unlucky draw cannot make a run flake
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def dataset():
    return load_dataset()


def make_dataset(**series):
    """Build an in-memory dataset from name -> (start_year, values) pairs."""
    out = {}
    for name, (start, values) in series.items():
        out[name] = AnnualSeries(name, start, tuple(float(v) for v in values))
    return Dataset(out)


@pytest.fixture
def toy_dataset():
    rng = np.random.default_rng(7)
    n = 40
    x1 = rng.normal(0, 1, n)
    x2 = rng.normal(0, 1, n)
    y = 1.5 + 2.0 * x1 - 0.7 * x2 + rng.normal(0, 0.3, n)
    return make_dataset(y=(1970, y), x1=(1970, x1), x2=(1970, x2))


def run_cli(argv: list[str]) -> SimpleNamespace:
    """``tsecon argv`` in process: its ``exit_code`` and its stdout and stderr as one ``output``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(argv)
    return SimpleNamespace(exit_code=code, output=out.getvalue())
