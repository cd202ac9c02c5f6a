import functools

import numpy as np
import pytest

from spinsplit.propagation import run_scenario
from spinsplit.scenario import load_scenario


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260809)


@functools.cache
def _bundled_result(name: str, backend: str):
    return run_scenario(load_scenario(name, backend=backend)[0])


@pytest.fixture(scope="session")
def bundled_run():
    """bundled_run(name, backend): the result of an unmodified bundled
    scenario on a backend, run once per session and shared by every test
    that asks for it, so a test only reads it.  A test that changes the
    scenario makes its own run."""
    return _bundled_result
