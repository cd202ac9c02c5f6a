import functools
import sys
import threading

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


@pytest.fixture(autouse=True)
def no_stray_workers():
    """Fails a test that leaves a process of ``multiprocessing`` (the
    snapshot writer) or a grid factor helper thread running; a stray
    process is then killed, so that the next test starts clean."""
    yield
    mp = sys.modules.get("multiprocessing")     # none can run before its import
    children = mp.active_children() if mp else []
    helpers = [t.name for t in threading.enumerate() if t.name == "spinsplit-factors"]
    for child in children:
        child.kill()
        child.join()
    if children or helpers:
        pytest.fail(f"left running: processes {children}, threads {helpers}")
