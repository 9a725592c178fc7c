"""The process entry point ``cli.run``: a fresh ``python -m unimaps.cli``
prints the bytes and exits with the status that ``main`` gives in
process, ends without the interpreter's teardown, and reports a failed
flush or a closed stdout as the interpreter always has."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

import unimaps
from unimaps import cli
from unimaps.checks import CHECKS

SRC = pathlib.Path(unimaps.__file__).parent.parent
PYPROJECT = SRC.parent / "pyproject.toml"

# a psi fiber of 75,250 bytes: more than a pipe holds
TWISTED_8 = "n=8; pairs=(" + ", ".join(f"{2 * i} {2 * i + 1}!"
                                       for i in range(8)) + ")"


def _env() -> dict:
    """This checkout's package first on the path, no census cache and
    block-buffered standard streams, as a plain shell gives them."""
    env = dict(os.environ)
    env.pop("UNIMAPS_CACHE", None)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def _spawn(args, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable] + args, env=_env(), **kwargs)


def _in_process(capsysbinary, argv) -> tuple:
    """``main(argv)``'s status, argparse's ``SystemExit`` included, and
    the bytes it wrote to stdout and stderr."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsysbinary.readouterr()
    return code, captured.out, captured.err


def _untimed(err: bytes) -> bytes:
    """``err`` with the elapsed time of a verdict line blanked."""
    return re.sub(rb" in \d+\.\d\ds, ", b" in -s, ", err)


@pytest.mark.parametrize("argv, status", [
    (["verify", "hz"], 0),
    (["verify", "psi-fibers", "--bound", "2"], 0),
    (["census", "planar-pqr", "--max-edges", "4", "--format", "csv"], 0),
    (["fiber", "n=2; pairs=(0 2!, 1 3)"], 0),
    (["bijection", "delta", "sigma=(1,0); alpha=(1,0); root=0; outer=0"], 0),
    # argparse's SystemExit
    (["verify", "no-such-check"], 2),
    # a ParseError that main turns into a return
    (["bijection", "phi", "n=2; pairs=(0 1, 2 x)"], 2),
], ids=["hz", "psi-fibers", "census-csv", "fiber", "delta",
        "unknown-check", "bad-literal"])
def test_module_run_matches_main(capsysbinary, monkeypatch, argv, status):
    """``python -m unimaps.cli`` writes the same stdout bytes and stderr
    lines as ``main`` in process, and exits with its status."""
    monkeypatch.delenv("UNIMAPS_CACHE", raising=False)
    code, out, err = _in_process(capsysbinary, argv)
    proc = _spawn(["-m", "unimaps.cli"] + argv, capture_output=True)
    assert code == proc.returncode == status
    assert proc.stdout == out
    assert _untimed(proc.stderr) == _untimed(err)


def test_stdout_larger_than_a_pipe_arrives_whole(capsysbinary):
    """A fiber larger than a pipe holds reaches the reader whole, as
    ``main`` writes it, before the process ends with ``os._exit``."""
    code, out, _ = _in_process(capsysbinary, ["fiber", TWISTED_8])
    proc = _spawn(["-m", "unimaps.cli", "fiber", TWISTED_8],
                  capture_output=True)
    assert code == proc.returncode == 0
    assert proc.stdout == out and len(out) == 75_250 > 64 * 1024


def test_run_exits_one_on_a_failed_verification(capsysbinary, monkeypatch):
    """``run`` exits 1 with the report of a failing check, which a probe
    injects before calling it, and the same stdout as ``main``."""
    monkeypatch.setitem(CHECKS, "ledoux", CHECKS["ledoux"]._replace(
        run=lambda bound, census: ({"n": 3}, 5, 3)))
    code, out, _ = _in_process(capsysbinary, ["verify", "ledoux"])
    probe = ("import sys; from unimaps import cli; "
             "from unimaps.checks import CHECKS; "
             "CHECKS['ledoux'] = CHECKS['ledoux']._replace("
             "run=lambda bound, census: ({'n': 3}, 5, 3)); "
             "sys.argv = ['unimaps', 'verify', 'ledoux']; cli.run()")
    proc = _spawn(["-c", probe], capture_output=True)
    assert code == proc.returncode == 1
    assert proc.stdout == out
    assert b'"verdict":"fail"' in out


def test_run_skips_the_interpreter_teardown():
    """An atexit handler registered before ``run`` never runs: the
    process ends in ``os._exit``, after the flush of its output."""
    probe = ("import atexit, sys; from unimaps import cli; "
             "atexit.register(print, 'teardown', file=sys.stderr); "
             "sys.argv = ['unimaps', 'verify', 'hz', '--bound', '2']; "
             "cli.run()")
    proc = _spawn(["-c", probe], capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith(b'{"bounds":{"max_n":2},"check":"hz"')
    assert b"teardown" not in proc.stderr


def test_failed_flush_exits_120():
    """With stdout a pipe whose reader is gone, the flush of the report
    fails and ``run`` leaves it to the interpreter, which reports the
    ``BrokenPipeError`` and exits 120, as without ``run``."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _spawn(["-m", "unimaps.cli", "verify", "hz", "--bound", "2"],
                      stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert proc.returncode == 120
    verdict, ignored, error = _untimed(proc.stderr).decode().splitlines()
    assert verdict == "hz: pass in -s, 5 (n, v) points to max_n = 2"
    assert ignored.startswith("Exception ignored in: <_io.TextIOWrapper "
                              "name='<stdout>'")
    assert error == "BrokenPipeError: [Errno 32] Broken pipe"


def test_closed_stdout_exits_one_with_a_traceback():
    """With stdout closed the interpreter starts with ``sys.stdout`` set
    to None, so the report raises ``AttributeError`` inside ``main`` and
    the process exits 1 with its traceback."""
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m unimaps.cli verify hz --bound 2 >&-',
         sys.executable], env=_env(), stderr=subprocess.PIPE)
    assert proc.returncode == 1
    lines = proc.stderr.decode().splitlines()
    assert lines[0] == "Traceback (most recent call last):"
    assert lines[-1] == ("AttributeError: 'NoneType' object has no "
                         "attribute 'write'")


def test_console_script_is_run():
    """The installed ``unimaps`` command ends the way ``python -m
    unimaps.cli`` does."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"unimaps": "unimaps.cli:run"}
    module, name = scripts["unimaps"].split(":")
    assert module == cli.__name__ and getattr(cli, name) is cli.run
