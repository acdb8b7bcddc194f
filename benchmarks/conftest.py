"""Shared fixtures for the paper-figure benchmark suite.

The :class:`~repro.bench.harness.ExperimentContext` is session-scoped so
dataset bundles and evaluated universes are built once and shared across
all figures (exactly like one experimental campaign over one set of
graphs). Each benchmark archives its table under ``.bench_out/results/``
(untracked); ``--record-results`` writes the checked-in
``benchmarks/results/`` instead, so only a deliberate run at the default
scale rewrites the recorded tables.
"""

from pathlib import Path

import pytest

from repro.bench import ExperimentContext, bench_settings


@pytest.fixture(scope="session")
def settings():
    return bench_settings()


@pytest.fixture(scope="session")
def ctx(settings):
    return ExperimentContext(settings)


def pytest_addoption(parser):
    parser.addoption(
        "--record-results",
        action="store_true",
        default=False,
        help="Archive tables in the checked-in benchmarks/results/ "
        "instead of .bench_out/results/",
    )


@pytest.fixture(scope="session")
def results_dir(request):
    here = Path(__file__).parent
    if request.config.getoption("--record-results"):
        path = here / "results"
    else:
        path = here.parent / ".bench_out" / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path
