"""Record the benchmark's literal pools and golden outputs.

    python3 perfbench/record.py

Run from the root of a checkout of the commit whose outputs are the
reference.  It writes two files beside this script:

- ``pool.json``: the plane maps (4-5 edges, with the trees they open to)
  and gluings (n = 4-5) that seeded single-object ops draw from, sampled
  with a fixed seed from the package's own enumerators;
- ``goldens.json``: the SHA-256 of the stdout of every op any seed can
  draw, which the runner compares byte for byte.

Outputs are written only when every op passes the validators.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys

import workloads

ROOT = os.path.dirname(workloads.HERE)
POOL_SIZE = 12


def _gluing_literal(g) -> str:
    pairs = ", ".join(f"{a} {b}{'!' if t else ''}"
                      for (a, b), t in zip(g.pairs, g.twists))
    return f"n={g.n}; pairs=({pairs})"


def _tuple(xs) -> str:
    return "(" + ",".join(str(x) for x in xs) + ")"


def _map_literal(p) -> str:
    m = p.m
    return (f"sigma={_tuple(m.sigma)}; alpha={_tuple(m.alpha)}; "
            f"root={m.root}; outer={p.outer}")


def _tree_literal(payload) -> str:
    return (f"sigma={_tuple(payload['sigma'])}; "
            f"mate={_tuple(payload['mate'])}; out={_tuple(payload['out'])}; "
            f"tails={_tuple(payload['tails'])}; root={payload['root']}")


def _cli(argv, env) -> bytes:
    return subprocess.run([sys.executable, "-m", "unimaps.cli"] + argv,
                          env=env, check=True, capture_output=True).stdout


def build_pool(env) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from unimaps.enumeration import gen_unicellular
    from unimaps.planar_closure import gen_plane_maps

    rng = random.Random(2010)
    plane = [p for p in gen_plane_maps(5) if p.m.half_edge_count >= 8]
    pool = {"plane_maps": [], "fiber_gluings": [], "phi_gluings": []}
    for p in rng.sample(plane, POOL_SIZE):
        literal = _map_literal(p)
        tree = json.loads(_cli(["bijection", "delta", literal], env))["image"]
        pool["plane_maps"].append({
            "map": literal,
            "map_payload": {"sigma": list(p.m.sigma),
                            "alpha": list(p.m.alpha), "root": p.m.root,
                            "outer": p.outer},
            "tree": _tree_literal(tree),
            "tree_payload": tree,
        })
    for key, orientable in (("fiber_gluings", False), ("phi_gluings", True)):
        gluings = [g for n in (4, 5) for g in gen_unicellular(n, orientable)
                   if orientable or not g.orientable]
        for g in rng.sample(gluings, POOL_SIZE):
            item = {"gluing": _gluing_literal(g), "n": g.n}
            if not orientable:
                item["w"] = {
                    kind: json.loads(_cli(["fiber", item["gluing"],
                                           "--kind", kind], env))["w"]
                    for kind in ("psi", "upsilon")}
            pool[key].append(item)
    return pool


def all_ops(pool) -> list:
    """Every (argv, expect) any seed can draw, fixed ops included."""
    ops = [(argv, {}) for fixed in workloads.FIXED_OPS.values()
           for argv in fixed]
    for item in pool["plane_maps"]:
        ops += workloads.plane_map_ops(item)
    for item in pool["fiber_gluings"]:
        ops += [workloads.fiber_op(item, kind) for kind in ("psi", "upsilon")]
    ops += [workloads.phi_op(item) for item in pool["phi_gluings"]]
    return ops


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("UNIMAPS_CACHE", None)
    pool = build_pool(env)
    goldens = {}
    for argv, expect in all_ops(pool):
        proc = subprocess.run([sys.executable, "-m", "unimaps.cli"] + argv,
                              env=env, capture_output=True)
        error = workloads.check_content(argv, proc.stdout.decode(), expect) \
            if proc.returncode == 0 else f"exit code {proc.returncode}"
        if error is not None:
            print(f"{workloads.op_key(argv)}: {error}", file=sys.stderr)
            return 1
        goldens[workloads.op_key(argv)] = hashlib.sha256(
            proc.stdout).hexdigest()
        print(f"recorded {workloads.op_key(argv)}", file=sys.stderr)
    for name, data in (("pool.json", pool), ("goldens.json", goldens)):
        with open(os.path.join(workloads.HERE, name), "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
