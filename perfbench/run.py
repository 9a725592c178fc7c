"""The unimaps benchmark: time ``unimaps`` CLI ops from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the package in that
checkout's ``src/``.  Each op is a fresh ``python -m unimaps.cli``
process; ops run one after another (a closed loop with one client).  A
pass runs every op of the workload once, in seeded order.  A run makes two
passes, and more while the whole run, calibration and set-up included, is
expected to end within ``--seconds``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, as
medians over passes: the pass wall time, its slowest op, the CPU time of
all its op processes (pool workers included) and the peak RSS of any op,
plus the median start-up time of fresh interpreters that import
``unimaps.cli``.  Times are in reference seconds: scaled by the ratio of
a reference time to the run's own time for a fixed calibration program,
so that the sandbox's drifting speed cancels out.
``--trace 1`` runs one pass through ``perfbench/trace_op.py``, each op
next to the same op untraced, and reports the per-layer metrics.

Every op's output is validated (see ``workloads.py``).  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when any op fails validation and 2 when
the checkout has no ``src/unimaps``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import trace_op
import workloads

HERE = workloads.HERE
ROOT = os.path.dirname(HERE)
PYTHON = sys.executable
OP_TIMEOUT_S = 150
SETUP_PAIRS = 10  # set-up samples, each with a calibration run
SETUP_CODE = "import unimaps.cli; unimaps.cli.build_parser()"
# A fixed piece of pure-Python work in the style of the package (perfect
# matchings of 12 polygon sides, union-find on their corners), run as a
# fresh interpreter after each set-up sample and after each op.  It shares
# no code with unimaps, so dividing a run's times by its time cancels the
# sandbox's speed, which drifts by a third over tens of minutes.
CALIBRATION_CODE = """
def matchings(sides):
    if not sides:
        yield []
        return
    first, rest = sides[0], sides[1:]
    for i, other in enumerate(rest):
        for sub in matchings(rest[:i] + rest[i + 1:]):
            yield [(first, other)] + sub

def vertex_counts(n):
    nn = 2 * n
    counts = {}
    for pairs in matchings(list(range(nn))):
        parent = list(range(nn))
        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x
        for a, b in pairs:
            for x, y in ((a, (b + 1) % nn), ((a + 1) % nn, b)):
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[ry] = rx
        v = sum(1 for x in range(nn) if find(x) == x)
        counts[v] = counts.get(v, 0) + 1
    return counts

assert sum(vertex_counts(6).values()) == 10395
"""
CALIBRATION_SHARE = 0.25  # of each op's time, right after it
MIN_PASSES = 2
# calibration time that defines one reference second
CALIBRATION_REF_S = 0.15
# environment variables that would change what an op reads or writes:
# UNIMAPS_CACHE is the CLI's --cache default, the others move or disable
# the bytecode cache
DROPPED_ENV = ("UNIMAPS_CACHE", "PYTHONDONTWRITEBYTECODE",
               "PYTHONPYCACHEPREFIX")


class Failure(Exception):
    """The checkout cannot be benchmarked."""


# ---------------------------------------------------------------------------
# child processes


class Op:
    """One finished child process, with its own resource usage."""

    def __init__(self, argv, rc, stdout, stderr, wall_s, cpu_s, rss_kb):
        self.argv, self.rc, self.stdout, self.stderr = argv, rc, stdout, stderr
        self.wall_s, self.cpu_s, self.rss_kb = wall_s, cpu_s, rss_kb
        self.error = None


def run_child(cmd, env) -> Op:
    """Run ``cmd`` to completion and account its resources with wait4,
    which covers the children it waited for (the --threads pool)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    chunks = {}
    readers = [threading.Thread(target=lambda name=name, stream=stream:
                                chunks.__setitem__(name, stream.read()))
               for name, stream in (("out", proc.stdout),
                                    ("err", proc.stderr))]
    for reader in readers:
        reader.start()
    timer = threading.Timer(OP_TIMEOUT_S, os.killpg,
                            (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        # wait for the exit without reaping, so the timer can never signal
        # a reused process group
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        timer.cancel()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for reader in readers:
        reader.join()
    proc.stdout.close()
    proc.stderr.close()
    return Op(cmd, proc.returncode, chunks.get("out", b""),
              chunks.get("err", b""), wall, usage.ru_utime + usage.ru_stime,
              usage.ru_maxrss)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def provenance(env) -> dict:
    """Resolve what is measured.  This is also the untimed start that
    writes the bytecode cache before anything is timed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "unimaps", "cli.py")):
        raise Failure(f"no src/unimaps/cli.py under {ROOT}")
    probe = run_child([PYTHON, "-c", SETUP_CODE + "; import unimaps; "
                       "print(unimaps.__file__)"], env)
    if probe.rc != 0:
        raise Failure("cannot import unimaps.cli: "
                      + probe.stderr.decode(errors="replace"))
    module_file = os.path.realpath(probe.stdout.decode().strip())
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if os.path.commonpath([module_file, src]) != src:
        raise Failure(f"unimaps resolves to {module_file}, not under {src}")
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    # identifies the measured code where the checkout is not a git clone
    digest = hashlib.sha256()
    package = os.path.dirname(module_file)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"unimaps_file": module_file, "git_commit": commit,
            "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


# ---------------------------------------------------------------------------
# passes


def op_command(argv, cache_dir, traced_out=None) -> list:
    cache = ["--cache", cache_dir] if cache_dir else []
    if traced_out is None:
        return [PYTHON, "-m", "unimaps.cli"] + cache + argv
    return [PYTHON, os.path.join(HERE, "trace_op.py"), traced_out] \
        + cache + argv


@contextlib.contextmanager
def pass_cache(workload, path):
    """A new, empty ``--cache`` directory for a cached workload, removed
    afterwards; None for the others."""
    if workload not in workloads.CACHED:
        yield None
        return
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path)


def run_op(argv, expect, env, goldens, cache_dir, traced_out=None) -> Op:
    """Run one op and validate its output.  With ``traced_out`` the op runs
    through trace_op.py, which writes its result and spans there."""
    op = run_child(op_command(argv, cache_dir, traced_out), env)
    op.argv = argv
    if traced_out is not None and op.rc == 0:
        with open(traced_out) as fh:
            op.trace = json.load(fh)
        os.remove(traced_out)
        op.rc = op.trace["rc"]
        op.stdout = op.trace["stdout"].encode()
    op.error = workloads.validate(argv, op.rc, op.stdout, expect, goldens)
    return op


def run_pass(workload, ops, order_seed, env, goldens, scratch,
             after_op=None):
    """Run every op once; returns (wall seconds, [Op]).  ``after_op`` runs
    after each op, and its time is left out of the pass's wall time."""
    done = []
    paused = 0.0
    with pass_cache(workload, os.path.join(
            scratch, f"cache-{order_seed[1]}")) as cache_dir:
        start = time.perf_counter()
        for argv, expect in workloads.pass_order(ops, *order_seed):
            done.append(run_op(argv, expect, env, goldens, cache_dir))
            if after_op is not None:
                pause = time.perf_counter()
                after_op(done[-1])
                paused += time.perf_counter() - pause
        wall = time.perf_counter() - start - paused
    return wall, done


def time_children(code, env, runs) -> list:
    """Wall times of ``runs`` fresh interpreters running ``code``."""
    children = [run_child([PYTHON, "-c", code], env) for _ in range(runs)]
    if any(child.rc != 0 for child in children):
        raise Failure("set-up or calibration interpreter failed: "
                      + children[-1].stderr.decode(errors="replace"))
    return [child.wall_s for child in children]


def end_to_end(workload, ops, seed, deadline, env, goldens, scratch):
    """End-to-end metrics of passes made until ``deadline``, a
    ``time.perf_counter()`` value, and the ops they ran."""
    med = statistics.median

    def setup_pairs(count):
        # (set-up, calibration) wall times of fresh interpreters run back
        # to back: the sandbox's speed swings within seconds, but hardly
        # within a pair
        return [(time_children(SETUP_CODE, env, 1)[0],
                 time_children(CALIBRATION_CODE, env, 1)[0])
                for _ in range(count)]

    # half the set-up samples before the passes and half after, so that
    # they span the run
    setup = setup_pairs(SETUP_PAIRS // 2)
    calibration = [c for _, c in setup]
    owed = [0.0]

    def calibrate(op):
        # right after each op, calibrate for a fixed share of its time
        owed[0] += CALIBRATION_SHARE * op.wall_s
        while owed[0] > 0:
            calibration.extend(time_children(CALIBRATION_CODE, env, 1))
            owed[0] -= calibration[-1]

    passes = []
    spent = []  # elapsed time of each pass, its calibration included
    closing = SETUP_PAIRS - SETUP_PAIRS // 2
    while True:
        begin = time.perf_counter()
        passes.append(run_pass(workload, ops, (seed, len(passes)), env,
                               goldens, scratch, after_op=calibrate))
        spent.append(time.perf_counter() - begin)
        # stop unless another pass as long as the longest so far and the
        # closing set-up samples still fit before the deadline
        left = deadline - time.perf_counter()
        if len(passes) >= MIN_PASSES and \
                max(spent) + closing * max(s + c for s, c in setup) > left:
            break
    setup += setup_pairs(closing)
    calibration += [c for _, c in setup[-closing:]]
    raw = {
        "wall_s": med(wall for wall, _ in passes),
        "slowest_op_s": med(max(op.wall_s for op in done)
                            for _, done in passes),
        "cpu_s": med(sum(op.cpu_s for op in done) for _, done in passes),
    }
    # times in reference seconds: what they would read on a sandbox as fast
    # as it was when CALIBRATION_REF_S was measured
    speed = CALIBRATION_REF_S / med(calibration)
    metrics = {name: value * speed for name, value in raw.items()}
    # each set-up sample is scaled by its own calibration run
    metrics["setup_s"] = CALIBRATION_REF_S * med(s / c for s, c in setup)
    raw["setup_s"] = med(s for s, _ in setup)
    metrics["peak_rss_mb"] = med(max(op.rss_kb for op in done) / 1024
                                 for _, done in passes)
    for k, (wall, done) in enumerate(passes):
        print(f"pass {k}: wall {wall:.4f} s, slowest op "
              f"{max(op.wall_s for op in done):.4f} s, cpu "
              f"{sum(op.cpu_s for op in done):.4f} s, {len(done)} ops")
    print(f"calibration: median {med(calibration):.4f} s of "
          f"{len(calibration)}, reference {CALIBRATION_REF_S} s")
    for name, value in raw.items():
        print(f"measured {name} = {value} s")
    return metrics, [op for _, done in passes for op in done]


# ---------------------------------------------------------------------------
# traced run


def layer_stats(traced_ops) -> dict:
    """Per-layer metrics from the spans of all traced ops."""
    stats = {}  # function -> [calls, total_s, self_s, amount]
    kept = generated = 0
    pass_s = 0.0
    for op in traced_ops:
        spans = op.trace["spans"]
        covered = [0.0] * len(spans)
        built = set()  # censuses that enumerated maps, not cache hits
        for name, _, _, busy, parent, amount in spans:
            if parent < 0:
                pass_s += busy
                continue
            covered[parent] += busy
            if name == "enumeration.gen_rooted_orientable_maps" and \
                    spans[parent][0] == "enumeration.planar_census":
                generated += amount
                built.add(parent)
        kept += sum(spans[i][5] for i in built)
        for i, (name, _, _, busy, parent, amount) in enumerate(spans):
            s = stats.setdefault(name, [0, 0.0, 0.0, 0])
            s[0] += 1
            s[1] += busy
            s[2] += busy - covered[i]
            s[3] += amount
    out = {}
    for name, (calls, total, self_s, amount) in stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.total_s"] = total
        out[f"{name}.self_s"] = self_s
        out[f"{name}.us_per_call"] = total / calls * 1e6
        label = trace_op.AMOUNT.get(name, (None,))[0]
        if label:
            out[f"{name}.{label}"] = amount
            out[f"{name}.{label}_per_s"] = amount / total if total else 0.0
        module = name.split(".")[0]
        out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + self_s
    loads = out.get("cache.load_census.calls")
    if loads:
        out["cache.load_census.hit_ratio"] = \
            out["cache.load_census.hits"] / loads
    if generated:
        out["enumeration.planar_census.planar_ratio"] = kept / generated
    out["trace.pass_s"] = pass_s
    out["trace.self_sum_s"] = sum(s[2] for s in stats.values())
    out["trace.spans"] = sum(len(op.trace["spans"]) for op in traced_ops)
    out["cli.import_s"] = statistics.median(
        op.trace["import_s"] for op in traced_ops)
    return out


def traced(workload, ops, seed, env, goldens, scratch):
    """Replay the ops of pass 0 through trace_op.py.  Each traced op runs
    right next to the same op untraced, first or second in turn, and each
    side has its own cache, so that the overhead compares op pairs that
    met the same sandbox speed."""
    untraced, traced_ops = [], []
    with pass_cache(workload, os.path.join(scratch, "cache-untraced")) \
            as untraced_cache, \
            pass_cache(workload, os.path.join(scratch, "cache-traced")) \
            as traced_cache:
        for k, (argv, expect) in enumerate(workloads.pass_order(ops, seed,
                                                                0)):
            for tracing in ((True, False) if k % 2 else (False, True)):
                if tracing:
                    traced_ops.append(run_op(
                        argv, expect, env, goldens, traced_cache,
                        os.path.join(scratch, f"trace-{k}.json")))
                else:
                    untraced.append(run_op(argv, expect, env, goldens,
                                           untraced_cache))
    good = [op for op in traced_ops if hasattr(op, "trace")]
    stats = layer_stats(good) if good else {}
    stats["trace.wall_s"] = sum(op.wall_s for op in traced_ops)
    stats["trace.untraced_wall_s"] = sum(op.wall_s for op in untraced)
    # printed with the layers but not in BENCHMARK.json: the sandbox's
    # swings within seconds move it as much as the tracing does
    stats["trace.overhead_ratio"] = \
        stats["trace.wall_s"] / stats["trace.untraced_wall_s"] - 1
    for op in good:
        main_s = sum(s[3] for s in op.trace["spans"] if s[4] < 0)
        print(f"traced {main_s:9.4f} s  {workloads.op_key(op.argv)}")
    for name in sorted(stats):
        print(f"layer {name} = {stats[name]}")
    return stats, untraced + traced_ops


# ---------------------------------------------------------------------------
# validator self-test


def self_test() -> list:
    """Inject faults into known-good outputs; returns the problems found
    with the validators (empty when every fault counts as a failure)."""
    goldens = workloads.load_json("goldens.json")
    census = ["census", "unicellular-orientable", "--n", "7", "--threads",
              "2"]
    good_census = (b'{"bounds":{"n":7},"entries":[[[7,2],"56628"],'
                   b'[[7,4],"66066"],[[7,6],"12012"],[[7,8],"429"]],'
                   b'"family":"unicellular-orientable","schema":1,'
                   b'"total":"135135"}\n')
    verify = ["verify", "t-formula", "--bound", "6"]
    good_verify = (b'{"bounds":{"max_n":6},"check":"t-formula",'
                   b'"schema":1,"verdict":"pass"}\n')
    cases = [
        ("good census", census, 0, good_census, True),
        ("good verdict", verify, 0, good_verify, True),
        ("wrong total", census, 0,
         good_census.replace(b'"56628"', b'"56629"').replace(
             b'"135135"', b'"135136"'), False),
        ("verdict fail", verify, 0,
         good_verify.replace(b'"pass"', b'"fail"'), False),
        ("non-zero exit", verify, 1, good_verify, False),
        ("stdout not golden", verify, 0, good_verify + b"\n", False),
    ]
    problems = []
    ops = []
    for label, argv, rc, stdout, ok in cases:
        op = Op(argv, rc, stdout, b"", 0.0, 0.0, 0)
        op.error = workloads.validate(argv, rc, stdout, {}, goldens)
        ops.append(op)
        if (op.error is None) != ok:
            problems.append(f"{label}: validator returned {op.error!r}")
    # the closed form must catch a wrong total on its own, without goldens
    if workloads.check_content(census, cases[2][3].decode(), {}) is None:
        problems.append("wrong total passes the closed-form check")
    if count_failed(ops) != sum(1 for case in cases if not case[4]):
        problems.append("injected faults are not all counted as failed")
    return problems


def count_failed(ops) -> int:
    return sum(1 for op in ops if op.error is not None)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + args.seconds
    # on SIGTERM, unwind so that the running op is killed and reaped and
    # the scratch directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    problems = self_test()
    for problem in problems:
        print(f"validator self-test: {problem}", file=sys.stderr)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    env = child_env()
    try:
        info = provenance(env)
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    info.update(workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace,
                validator_self_test="fail" if problems else "ok")
    print("provenance " + json.dumps(info, sort_keys=True))
    goldens = workloads.load_json("goldens.json")
    ops = workloads.draw_ops(args.workload, args.seed,
                             workloads.load_json("pool.json"))
    scratch = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(scratch)
    try:
        if args.trace:
            stats, done = traced(args.workload, ops, args.seed, env,
                                 goldens, scratch)
            wanted = spec["per_layer"]
        else:
            stats, done = end_to_end(args.workload, ops, args.seed,
                                     deadline, env, goldens, scratch)
            wanted = spec["end_to_end"]
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    failed = count_failed(done)
    for op in done:
        if op.error is not None:
            print(f"FAILED {workloads.op_key(op.argv)}: {op.error}",
                  file=sys.stderr)
    # a layer the workload never reaches did no work: its metrics read 0
    metrics = {m["name"]: {"value": stats.get(m["name"], 0),
                           "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(f"op_fail_ratio = {failed / len(done)} ({failed} of {len(done)})")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": len(done),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
