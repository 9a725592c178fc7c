"""Workload definitions and output validators for the unimaps benchmark.

An op is the argument list of one ``unimaps`` command, without the
``--cache`` option (the runner adds that for workloads that use a cache).
A pass runs every op of a workload once; the seed draws the single-object
literals from the recorded pools in ``pool.json`` and orders each pass.

Validators never trust the program: census totals are checked against
closed forms, verdicts must read "pass", fiber sizes must be ``2^w`` with
the recorded ``w``, bijection images are checked against the recorded
round trip, and every stdout must be byte-identical to the golden output
recorded on the seed commit (``goldens.json``).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shlex
from math import factorial

HERE = os.path.dirname(os.path.abspath(__file__))

# workload -> the ops every pass runs besides the seeded draws
FIXED_OPS = {
    "onecell-profile": [
        ["verify", "ledoux", "--bound", "6"],
        ["verify", "hz", "--bound", "7"],
        ["verify", "t-formula", "--bound", "6"],
        ["verify", "gluing-totals", "--bound", "5"],
        ["census", "unicellular-orientable", "--n", "7", "--threads", "2"],
    ],
    "planar-series": [
        ["verify", "planar-totals", "--bound", "6"],
        ["verify", "algebraic-P", "--bound", "8"],
        ["verify", "q-pde", "--bound", "6"],
        ["verify", "a-combination", "--bound", "6"],
        ["verify", "rec-hP", "--bound", "3"],
        ["verify", "u-hat", "--bound", "6"],
        ["verify", "u-formula", "--bound", "5"],
        ["census", "planar-pqr", "--max-edges", "6", "--format", "csv"],
        ["census", "planar-pqr", "--max-edges", "5"],
    ],
    "closure-roundtrip": [
        ["verify", "gamma-roundtrip", "--bound", "4"],
    ],
    "bijection-fibers": [
        ["verify", "phi-roundtrip", "--bound", "4"],
        ["verify", "psi-fibers", "--bound", "3"],
        ["verify", "jackson", "--bound", "4"],
    ],
}

WORKLOADS = list(FIXED_OPS)
CACHED = {"planar-series"}

# seeded single-object ops per pass
PLANE_MAP_DRAWS = 3      # closure-roundtrip: delta on each, gamma on its tree
FIBER_DRAWS = (2, 2)     # bijection-fibers: psi fibers, upsilon fibers
PHI_DRAWS = 3            # bijection-fibers: phi on orientable gluings


def load_json(name: str):
    with open(os.path.join(HERE, name)) as fh:
        return json.load(fh)


def op_key(argv) -> str:
    return shlex.join(argv)


def plane_map_ops(item) -> list:
    """``bijection delta`` on a pooled plane map and ``bijection gamma`` on
    the tree it opens to.  Each op is ``(argv, expect)``, where ``expect``
    is what the validator knows about the answer besides its golden."""
    return [(["bijection", "delta", item["map"]],
             {"tree": item["tree_payload"]}),
            (["bijection", "gamma", item["tree"]],
             {"map": item["map_payload"]})]


def fiber_op(item, kind: str):
    return (["fiber", item["gluing"], "--kind", kind],
            {"w": item["w"][kind], "orientable": "!" not in item["gluing"]})


def phi_op(item):
    return ["bijection", "phi", item["gluing"]], {"n": item["n"]}


def draw_ops(workload: str, seed: int, pool: dict) -> list:
    """The ops of one pass: the fixed ops plus the seeded draws."""
    rng = random.Random(f"{workload}:{seed}")
    ops = [(argv, {}) for argv in FIXED_OPS[workload]]
    if workload == "closure-roundtrip":
        for item in rng.sample(pool["plane_maps"], PLANE_MAP_DRAWS):
            ops += plane_map_ops(item)
    elif workload == "bijection-fibers":
        n_psi, n_ups = FIBER_DRAWS
        picks = rng.sample(pool["fiber_gluings"], n_psi + n_ups)
        ops += [fiber_op(item, "psi") for item in picks[:n_psi]]
        ops += [fiber_op(item, "upsilon") for item in picks[n_psi:]]
        ops += [phi_op(item)
                for item in rng.sample(pool["phi_gluings"], PHI_DRAWS)]
    return ops


def pass_order(ops: list, seed: int, pass_index: int) -> list:
    rng = random.Random(f"order:{seed}:{pass_index}")
    order = list(ops)
    rng.shuffle(order)
    return order


# ---------------------------------------------------------------------------
# closed forms


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def planar_maps_with_edges(e: int) -> int:
    """Rooted planar maps with ``e`` edges: 2·3^e (2e)! / (e! (e+2)!)."""
    return 2 * 3 ** e * factorial(2 * e) // (factorial(e) * factorial(e + 2))


def _census_entries(argv, text: str):
    """Entries ``[(key tuple, count)]`` of a census output, JSON or CSV."""
    if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
        lines = text.splitlines()
        if not lines or not lines[0].startswith("key0,"):
            raise ValueError("missing CSV header")
        rows = [line.split(",") for line in lines[1:]]
        return [(tuple(int(x) for x in row[:-1]), int(row[-1]))
                for row in rows], None
    payload = json.loads(text)
    entries = [(tuple(k), int(v)) for k, v in payload["entries"]]
    return entries, int(payload["total"])


def _arg(argv, flag):
    return int(argv[argv.index(flag) + 1])


def check_content(argv, text: str, expect: dict):
    """Closed-form and structural checks; returns an error or None."""
    try:
        if argv[0] == "census":
            return _check_census(argv, text)
        payload = json.loads(text)
        if argv[0] == "verify":
            if payload.get("check") != argv[1]:
                return f"report names check {payload.get('check')!r}"
            if list(payload.get("bounds", {}).values()) != [
                    _arg(argv, "--bound")]:
                return f"report bounds {payload.get('bounds')}"
            if payload.get("verdict") != "pass":
                return f"verdict {payload.get('verdict')!r}"
            return None
        if argv[0] == "fiber":
            return _check_fiber(argv, payload, expect)
        return _check_bijection(argv, payload, expect)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def _check_census(argv, text):
    family = argv[1]
    entries, total = _census_entries(argv, text)
    counted = sum(c for _, c in entries)
    if total is not None and total != counted:
        return f"total {total} != sum of entries {counted}"
    if family in ("unicellular-orientable", "unicellular-general"):
        n = _arg(argv, "--n")
        expect = double_factorial(2 * n - 1)
        if family == "unicellular-general":
            expect *= 2 ** n
        if counted != expect:
            return f"total {counted} != closed form {expect}"
        if any(k[0] != n for k, _ in entries):
            return "entry keyed by the wrong n"
        return None
    if family == "planar-pqr":
        max_edges = _arg(argv, "--max-edges")
        by_edges = {}
        for (q, r), c in entries:
            by_edges[q + r - 2] = by_edges.get(q + r - 2, 0) + c
        want = {0: 1}
        want.update({e: planar_maps_with_edges(e)
                     for e in range(1, max_edges + 1)})
        if by_edges != want:
            return f"planar totals by edges {by_edges} != {want}"
        return None
    return f"no closed form for census {family!r}"


def _check_fiber(argv, payload, expect):
    w = payload["w"]
    size = payload["size"]
    if len(payload["elements"]) != size or size != 2 ** w:
        return f"fiber lists {len(payload['elements'])} elements, " \
               f"size {size}, w {w}"
    if w != expect["w"]:
        return f"w {w} != recorded {expect['w']}"
    if any(el["w"] != w for el in payload["elements"]):
        return "element with a different w"
    kind = argv[argv.index("--kind") + 1]
    if kind == "upsilon" and (w == 0) != expect["orientable"]:
        return "w = 0 must hold exactly for orientable gluings"
    if kind == "psi" and not all(el["degree_certificate_ok"]
                                 for el in payload["elements"]):
        return "degree certificate fails"
    return None


def _check_bijection(argv, payload, expect):
    image = payload["image"]
    name = argv[1]
    if name == "delta":
        return None if image == expect["tree"] else "opening differs"
    if name == "gamma":
        return None if image == expect["map"] else \
            "closure does not return the opened map"
    if image["orientation"] or image["w"] != 0:
        return "phi image must have an empty orientation"
    if len(image["edge_labels"]) != expect["n"]:
        return "phi image has the wrong edge count"
    return None


def validate(argv, rc: int, stdout: bytes, expect: dict, goldens: dict):
    """Return None when the op's output is correct, else the reason."""
    if rc != 0:
        return f"exit code {rc}"
    error = check_content(argv, stdout.decode(errors="replace"), expect)
    if error is not None:
        return error
    golden = goldens.get(op_key(argv))
    if golden is None:
        return "no golden output recorded"
    if hashlib.sha256(stdout).hexdigest() != golden:
        return "stdout differs from the golden output"
    return None
