import itertools
import math
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, settings


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for outcome in ("passed", "failed"):
        for rep in terminalreporter.stats.get(outcome, []):
            if "test_acceptance" in rep.nodeid and rep.when == "call":
                lines.append((rep.nodeid.split("::")[-1], outcome))
    if lines:
        terminalreporter.write_sep("=", "acceptance summary")
        for name, outcome in sorted(lines):
            mark = "PASS" if outcome == "passed" else "FAIL"
            terminalreporter.write_line(f"{mark}  {name}")

settings.register_profile(
    "ci",
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def lo5_category():
    from ramsey_workbench.catalogs import lo_catalog
    from ramsey_workbench.category import FiniteCategory

    return FiniteCategory.from_structures(lo_catalog(5))


@pytest.fixture(scope="session")
def lo7_category():
    from ramsey_workbench.catalogs import lo_catalog
    from ramsey_workbench.category import FiniteCategory

    return FiniteCategory.from_structures(lo_catalog(7))


@pytest.fixture(scope="session")
def graphs4_category():
    from ramsey_workbench.catalogs import graph_catalog
    from ramsey_workbench.category import FiniteCategory

    return FiniteCategory.from_structures(graph_catalog(4))


@pytest.fixture(scope="session")
def graphs5_category():
    from ramsey_workbench.catalogs import graph_catalog
    from ramsey_workbench.category import FiniteCategory

    return FiniteCategory.from_structures(graph_catalog(5))


@pytest.fixture
def deadline_passes_once_started(monkeypatch):
    """`arrows` reads its clock as -inf twice, then as +inf: any deadline
    holds at the checks before and after the instance is built and has
    passed at every reading in the search."""
    from ramsey_workbench import arrows

    readings = itertools.chain([-math.inf] * 2, itertools.repeat(math.inf))
    monkeypatch.setattr(arrows, "time",
                        SimpleNamespace(monotonic=readings.__next__))
