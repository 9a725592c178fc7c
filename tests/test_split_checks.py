"""The exhaustive bijection checks share their instances among forked
workers (``checks._in_order``).  Whatever the worker count, a check must
give the sequential verdict ``(counterexample, instances, reach)``, and
leave no child process whether it passes, fails or raises (the autouse
fixture in ``conftest.py`` checks the last)."""

import os
import subprocess
import sys
import time

import pytest

import unimaps
from unimaps import bijections, checks, enumeration, formulas, planar_closure
from unimaps.checks import CHECKS
from unimaps.enumeration import planar_census

# few workers: enough that each check's instances land in three shares
FORCED = 3


def run_with(monkeypatch, workers, check, bound, census=planar_census):
    """The verdict of ``check`` at ``bound`` with ``workers`` workers
    (capped at the units, as the real count is)."""
    with monkeypatch.context() as patch:
        patch.setattr(checks, "_workers",
                      lambda units: max(1, min(workers, units)))
        return CHECKS[check].run(bound, census)


def same_verdicts(monkeypatch, check, bound, census=planar_census):
    """The one-worker verdict, after checking that three workers give
    it too."""
    alone = run_with(monkeypatch, 1, check, bound, census)
    assert run_with(monkeypatch, FORCED, check, bound, census) == alone
    return alone


def top_level(check, bound) -> list:
    """The instances of the top level of ``check`` at ``bound``, in the
    order of its sequential stream."""
    if check == "gamma-roundtrip":
        return [t for t in planar_closure.gen_near_eulerian_trees(2 * bound)
                if len(t.sigma) == 2 * bound]
    orientable = check == "phi-roundtrip"
    return list(enumeration.gen_colored_unicellular(bound, orientable, True))


def inject(patch, check, targets, fault=None):
    """Make every instance in ``targets`` fail ``check`` through a layer
    function the check calls, which forked workers inherit; with
    ``fault``, raise it instead."""
    def hit(obj):
        if obj in targets:
            if fault is not None:
                raise fault
            return True
        return False

    if check == "phi-roundtrip":
        real = bijections.phi_inverse

        def phi_inverse(t):
            # the round trip misses on a target
            u = real(t)
            return None if hit(u) else u
        patch.setattr(bijections, "phi_inverse", phi_inverse)
    elif check == "psi-fibers":
        real_fiber = bijections.psi_fiber
        patch.setattr(bijections, "psi_fiber",
                      lambda u: () if hit(u) else real_fiber(u))
    else:
        real_opening = planar_closure.opening_delta

        def opening(p):
            t = real_opening(p)
            if hit(t):
                raise ValueError("injected")
            return t
        patch.setattr(planar_closure, "opening_delta", opening)


BOUNDS = {"phi-roundtrip": 3, "psi-fibers": 3, "gamma-roundtrip": 3}
# before the top level: 2 + 11 orbits of phi, 3 + 25 of psi, 3 + 18 trees
BELOW_TOP = {"phi-roundtrip": 13, "psi-fibers": 28, "gamma-roundtrip": 21}


@pytest.mark.parametrize("check", sorted(BOUNDS))
@pytest.mark.parametrize("where", [
    "first", "middle", "last", "middle and last", "second and third"])
def test_instance_fault_gives_the_sequential_verdict(monkeypatch, check,
                                                     where):
    """A fault at the first, a middle or the last instance of the top
    level, or at two of them in different shares: three workers report
    the earliest fault with the sequential instance count and reach."""
    bound = BOUNDS[check]
    stream = top_level(check, bound)
    middle = len(stream) // 2
    positions = {"first": [0], "middle": [middle],
                 "last": [len(stream) - 1],
                 "middle and last": [middle, len(stream) - 1],
                 "second and third": [1, 2]}[where]
    with monkeypatch.context() as patch:
        inject(patch, check, [stream[i] for i in positions])
        counterexample, instances, reach = same_verdicts(monkeypatch, check,
                                                         bound)
    assert counterexample is not None
    assert instances == BELOW_TOP[check] + positions[0] + 1
    assert reach == bound


@pytest.mark.parametrize("check", sorted(BOUNDS))
def test_fault_below_the_top_level(monkeypatch, check):
    """A fault at the last instance of the level below the top reports
    that level as its reach, though other shares examined the top."""
    bound = BOUNDS[check]
    below = top_level(check, bound - 1)
    with monkeypatch.context() as patch:
        inject(patch, check, [below[-1]])
        counterexample, instances, reach = same_verdicts(monkeypatch, check,
                                                         bound)
    assert counterexample is not None
    assert instances == BELOW_TOP[check]
    assert reach == bound - 1


def test_gamma_counts_an_image_once_across_shares(monkeypatch):
    """The distinct images are the union of the shares' keys: when every
    closure has one key, each edge count has one image, however many
    shares closed its trees."""
    with monkeypatch.context() as patch:
        patch.setattr(planar_closure.PlaneMap, "canonical_key",
                      lambda self: ())
        verdict = same_verdicts(monkeypatch, "gamma-roundtrip", 3)
    assert verdict == ({"edges": 1, "trees": 3, "images": 1,
                        "plane_maps": 3}, 156, 3)


def off_by_one_census(max_edges):
    table = planar_census(max_edges)
    table[(2, 2)] += 1
    return table


@pytest.mark.parametrize("check,counterexample,instances,reach", [
    ("phi-roundtrip", {"n": 2, "q": 2, "images": 12, "formula": 13}, 13, 2),
    ("psi-fibers", {"n": 2, "q": 2, "w": 1, "fibers": 10, "term": 12}, 28,
     2),
    ("gamma-roundtrip", {"edges": 2, "trees": 18, "images": 18,
                         "plane_maps": 20}, 156, 3),
])
def test_totals_fault_gives_the_sequential_verdict(
        monkeypatch, check, counterexample, instances, reach):
    """A per-level totals fault (T_2(2), or the planar count P_{2,2},
    off by one) is found after every instance of its level, as the
    sequential loop finds it; gamma compares its totals after every
    tree."""
    real = formulas.t_formula
    with monkeypatch.context() as patch:
        patch.setattr(formulas, "t_formula",
                      lambda n, q: real(n, q) + ((n, q) == (2, 2)))
        verdict = same_verdicts(monkeypatch, check, 3, off_by_one_census)
    assert verdict == (counterexample, instances, reach)


@pytest.mark.parametrize("check", sorted(BOUNDS))
def test_passing_checks_agree(monkeypatch, check):
    bound = BOUNDS[check]
    verdict = same_verdicts(monkeypatch, check, bound)
    assert verdict[0] is None and verdict[2] == bound


@pytest.mark.parametrize("check", sorted(BOUNDS))
def test_a_worker_exception_reaches_the_caller(monkeypatch, check):
    """An instance that raises in a forked worker (a share of 3 other
    than the parent's) raises WorkerError in the caller, with the
    worker's traceback."""
    bound = BOUNDS[check]
    if check == "gamma-roundtrip":
        # the first top-level tree of a shape in share 1
        shapes = list(planar_closure._tree_shapes(2 * bound))
        target = next(t for s in range(1, len(shapes), FORCED)
                      for t in planar_closure._decorate(shapes[s])
                      if len(t.sigma) == 2 * bound)
    else:
        # the second top-level orbit, at position 14 or 29: share 2
        target = top_level(check, bound)[1]
    with monkeypatch.context() as patch:
        inject(patch, check, [target], RuntimeError("injected"))
        with pytest.raises(checks.WorkerError,
                           match="(?s)Traceback.*RuntimeError: injected"):
            run_with(monkeypatch, FORCED, check, bound)


@pytest.mark.parametrize("check", sorted(BOUNDS))
def test_an_exception_in_the_parent_share_propagates(monkeypatch, check):
    """An instance that raises in the parent's own share raises as it is;
    the children are killed and reaped."""
    bound = BOUNDS[check]
    if check == "gamma-roundtrip":
        # the first tree, of the first shape
        target = next(planar_closure.gen_near_eulerian_trees(2))
    else:
        # the first orbit of level 1, the first instance
        target = top_level(check, 1)[0]
    with monkeypatch.context() as patch:
        inject(patch, check, [target], RuntimeError("injected"))
        with pytest.raises(RuntimeError, match="^injected$"):
            run_with(monkeypatch, FORCED, check, bound)


@pytest.mark.parametrize("check", ["phi-roundtrip", "psi-fibers"])
def test_each_orbit_is_built_once_in_the_caller(monkeypatch, check):
    """The caller builds the orbit list and the workers only examine it:
    a worker that calls the orbit generator fails the check."""
    caller = os.getpid()
    real = enumeration.gen_colored_unicellular

    def gen(*args):
        if os.getpid() != caller:
            raise RuntimeError("orbits built in a worker")
        return real(*args)
    monkeypatch.setattr(enumeration, "gen_colored_unicellular", gen)
    verdict = run_with(monkeypatch, FORCED, check, 3)
    assert verdict[0] is None and verdict[2] == 3


def fault_at(positions):
    """An ``examine`` for plain integer items that faults at ``positions``."""
    return lambda x: (x * x, "fault" if x in positions else None)


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_in_order_is_the_sequential_list_cut_at_the_first_fault(
        monkeypatch, workers):
    """On plain items, with no fault, a fault at the first or the last
    item, or two faults in different shares, ``_in_order`` gives the
    sequential list of results, cut after its first fault."""
    monkeypatch.setattr(checks, "_workers",
                        lambda units: max(1, min(workers, units)))
    for length in (0, 1, 2, 5, 7):
        items = list(range(length))
        for positions in ([], [0], [length - 1], [1, 2],
                          [length // 2, length - 1]):
            examine = fault_at(set(positions) & set(items))
            expected = []
            for x in items:
                expected.append(examine(x))
                if expected[-1][-1] is not None:
                    break
            assert checks._in_order(items, examine) == expected


def test_a_parent_exception_kills_the_children(monkeypatch):
    """The parent does not wait for its children's shares when its own
    raises: children that would stall for a minute are killed at once."""
    parent = os.getpid()
    target = top_level("psi-fibers", 2)[0]
    real = bijections.psi_fiber
    stalled = []

    def fiber(u):
        if os.getpid() != parent:
            if not stalled:
                stalled.append(u)
                time.sleep(60)
        elif u == target:
            raise RuntimeError("injected")
        return real(u)
    monkeypatch.setattr(bijections, "psi_fiber", fiber)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="^injected$"):
        run_with(monkeypatch, FORCED, "psi-fibers", 2)
    assert time.monotonic() - start < 30


def test_verify_exits_one_with_the_worker_traceback():
    """``verify`` lets a worker's exception through: exit 1, a traceback
    naming the worker's error on stderr, nothing on stdout."""
    src = os.path.dirname(os.path.dirname(unimaps.__file__))
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from unimaps import bijections, checks, cli, enumeration\n"
        "checks._workers = lambda units: min(3, units)\n"
        "target = list(enumeration.gen_colored_unicellular(2, False, "
        "True))[1]\n"
        "real = bijections.psi_fiber\n"
        "def fiber(u):\n"
        "    if u == target:\n"
        "        raise RuntimeError('injected')\n"
        "    return real(u)\n"
        "bijections.psi_fiber = fiber\n"
        "sys.exit(cli.main(['verify', 'psi-fibers', '--bound', '2']))\n")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 1
    assert result.stdout == ""
    assert "Traceback" in result.stderr
    assert "unimaps.checks.WorkerError" in result.stderr
    assert "RuntimeError: injected" in result.stderr


def test_one_worker_forks_nothing(monkeypatch, one_worker):
    def refuse():
        raise AssertionError("forked with one worker")
    monkeypatch.setattr(os, "fork", refuse)
    for check, bound in BOUNDS.items():
        assert CHECKS[check].run(bound, planar_census)[0] is None


def test_without_fork_one_share_runs_here(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert run_with(monkeypatch, FORCED, "phi-roundtrip", 2) == (
        None, 13, 2)


def test_worker_count(monkeypatch):
    """One worker per usable CPU, at most one per unit, at least one; the
    CPU count stands in where there is no affinity call."""
    usable = len(os.sched_getaffinity(0))
    assert checks._workers(10 ** 6) == usable
    assert checks._workers(1) == checks._workers(0) == 1
    assert checks._workers(-3) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert checks._workers(10 ** 6) == os.cpu_count()
