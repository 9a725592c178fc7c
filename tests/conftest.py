"""Fixtures shared by the test modules: session data that they only
read, the guard against stray child processes, and the one-worker run
of the split checks."""

import os

import pytest
from revalidate import revalidated

from unimaps import checks
from unimaps.bijections import phi
from unimaps.enumeration import gen_colored_unicellular
from unimaps.planar_closure import gen_near_eulerian_trees, gen_plane_maps


# The generators build their trees and maps unchecked; the fixtures
# revalidate every one of them, at the bound of criterion 9.
@pytest.fixture(scope="session")
def trees10():
    """Every near-Eulerian tree with at most 10 slots, revalidated."""
    return list(map(revalidated, gen_near_eulerian_trees(10)))


@pytest.fixture(scope="session")
def plane_maps5():
    """Every plane map with at most 5 edges, revalidated."""
    return list(map(revalidated, gen_plane_maps(5)))


@pytest.fixture(scope="session")
def phi_images4():
    """``(u, phi(u))`` for every coloring ``u`` of every orientable gluing
    with at most 4 edges (8,940 colored maps), in stream order."""
    return [(u, phi(u)) for n in range(1, 5)
            for u in gen_colored_unicellular(n, True)]


@pytest.fixture(autouse=True)
def no_stray_processes():
    """Fail a test that leaves a child process behind, running or not
    reaped: the split checks fork, and must reap every child whether
    they pass, fail or raise."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (waitpid gave "
                f"pid {pid})")


@pytest.fixture
def one_worker(monkeypatch):
    """Run the split checks in this process alone, so that a test that
    counts calls or records objects in the process sees every instance."""
    monkeypatch.setattr(checks, "_workers", lambda units: 1)
