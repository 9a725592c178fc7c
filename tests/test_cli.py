import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from revalidate import revalidated

import unimaps
from unimaps import bijections, enumeration
from unimaps.bijections import OrientedTreeRootedMap
from unimaps.checks import CHECKS
from unimaps.cli import main, parse_gluing
from unimaps.planar_closure import gen_near_eulerian_trees, gen_plane_maps


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCensus:
    def test_general_two_edges_total(self, capsys):
        code, out, _ = run(capsys, "census", "unicellular-general", "--n", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == "12"
        assert [[2, 1], "5"] in payload["entries"]

    def test_orientable_three_edges_total(self, capsys):
        code, out, _ = run(capsys, "census", "unicellular-orientable",
                           "--n", "3")
        assert code == 0
        assert json.loads(out)["total"] == "15"

    def test_planar_includes_two_two(self, capsys):
        code, out, _ = run(capsys, "census", "planar-pqr", "--max-edges", "2")
        assert code == 0
        assert [[2, 2], "5"] in json.loads(out)["entries"]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "census", "planar-pqr", "--max-edges", "1",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines() == [
            "key0,key1,count", "1,1,1", "1,2,1", "2,1,1"]

    def test_tree_rooted(self, capsys):
        code, out, _ = run(capsys, "census", "tree-rooted", "--n", "2")
        assert code == 0
        payload = json.loads(out)
        # 2^(q-1) binom(2, q-1) (2n-1)!! tree-rooted maps on q vertices
        assert payload["entries"] == [[[2, 1], "3"], [[2, 2], "12"],
                                      [[2, 3], "12"]]

    def test_threads_do_not_change_output(self, capsys):
        _, sequential, _ = run(capsys, "census", "unicellular-general",
                               "--n", "3")
        _, parallel, _ = run(capsys, "census", "unicellular-general",
                             "--n", "3", "--threads", "2")
        assert sequential == parallel

    def test_missing_bound_is_usage_error(self, capsys):
        code, _, err = run(capsys, "census", "unicellular-general")
        assert code == 2
        assert "requires" in err

    @pytest.mark.parametrize("argv", [
        ("unicellular-general", "--n", "0"),
        ("unicellular-general", "--n", "-3"),
        ("unicellular-orientable", "--n", "0"),
        ("tree-rooted", "--n", "0"),
        ("planar-pqr", "--max-edges", "0"),
        ("unicellular-general", "--n", "2", "--threads", "0"),
        ("unicellular-general", "--n", "2", "--threads", "-1"),
    ])
    def test_bad_bound_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "census", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "at least 1" in err

    def test_cache_round_trip(self, capsys, tmp_path):
        args = ("--cache", str(tmp_path), "census", "planar-pqr",
                "--max-edges", "2")
        _, first, _ = run(capsys, *args)
        files = list(tmp_path.iterdir())
        assert files
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_corrupted_cache_is_rebuilt(self, capsys, tmp_path):
        args = ("--cache", str(tmp_path), "census", "unicellular-general",
                "--n", "2")
        _, first, _ = run(capsys, *args)
        for path in tmp_path.iterdir():
            path.write_text("{broken")
        _, second, _ = run(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("text", ["[]", "1", "null", '"x"'])
    def test_cache_holding_no_object_is_recomputed(self, capsys, tmp_path,
                                                   text):
        from unimaps import cache
        args = ("census", "planar-pqr", "--max-edges", "3")
        _, fresh, _ = run(capsys, *args)
        path = cache._path(str(tmp_path), "planar-pqr", {"max_edges": 3})
        with open(path, "w") as fh:
            fh.write(text)
        code, out, err = run(capsys, "--cache", str(tmp_path), *args)
        assert (code, out, err) == (0, fresh, "")
        assert json.loads(out)["total"] == "66"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_entries_sorted_whatever_the_fill_order(self, capsys,
                                                    monkeypatch, fmt):
        from collections import Counter

        from unimaps import enumeration
        real = enumeration.planar_census(2)
        reversed_fill = Counter()
        for key in sorted(real, reverse=True):
            reversed_fill[key] = real[key]
        monkeypatch.setattr(enumeration, "planar_census",
                            lambda max_edges: reversed_fill)
        code, out, _ = run(capsys, "census", "planar-pqr", "--max-edges",
                           "2", "--format", fmt)
        assert code == 0
        if fmt == "json":
            keys = [tuple(k) for k, _ in json.loads(out)["entries"]]
        else:
            keys = [tuple(map(int, line.split(",")[:2]))
                    for line in out.splitlines()[1:]]
        assert keys == sorted(real) != list(reversed_fill)


class TestUnusableCache:
    """A cache path that cannot be written is a usage error: exit 2, one
    ``error:`` line on stderr and nothing on stdout."""

    @staticmethod
    def assert_usage_error(code, out, err):
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("census", "planar-pqr", "--max-edges", "3"),
        ("census", "unicellular-general", "--n", "2"),
        ("verify", "planar-totals", "--bound", "3"),
        ("verify", "u-formula", "--bound", "2"),
    ])
    def test_regular_file(self, capsys, tmp_path, argv):
        path = tmp_path / "table.json"
        path.write_text("{}")
        self.assert_usage_error(*run(capsys, "--cache", str(path), *argv))
        assert path.read_text() == "{}"

    def test_regular_file_from_environment(self, capsys, tmp_path,
                                           monkeypatch):
        path = tmp_path / "table.json"
        path.write_text("{}")
        monkeypatch.setenv("UNIMAPS_CACHE", str(path))
        self.assert_usage_error(*run(capsys, "verify", "planar-totals",
                                     "--bound", "3"))

    def test_unwritable_directory(self, capsys, tmp_path, monkeypatch):
        def deny(*args, **kwargs):
            raise PermissionError(13, "Permission denied", str(tmp_path))
        monkeypatch.setattr(tempfile, "mkstemp", deny)
        self.assert_usage_error(*run(capsys, "--cache", str(tmp_path),
                                     "census", "planar-pqr",
                                     "--max-edges", "2"))
        assert list(tmp_path.iterdir()) == []


class TestVerify:
    def test_pass_exits_zero(self, capsys):
        code, out, err = run(capsys, "verify", "ledoux", "--bound", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "pass"
        assert payload["bounds"] == {"max_n": 4}
        assert "counterexample" not in payload
        assert "pass" in err  # timing goes to stderr only

    def test_gamma_roundtrip(self, capsys):
        code, out, _ = run(capsys, "verify", "gamma-roundtrip",
                           "--bound", "3")
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_gamma_roundtrip_count_off_by_one_fails(self, capsys,
                                                    monkeypatch):
        """The check counts the plane maps with the census: one entry off
        by one, P_{2,2} with two faces, leaves two plane maps with 2 edges
        that no tree closes to."""
        real = enumeration.planar_census

        def off_by_one(max_edges):
            table = real(max_edges)
            table[(2, 2)] += 1
            return table
        monkeypatch.setattr(enumeration, "planar_census", off_by_one)
        code, out, err = run(capsys, "verify", "gamma-roundtrip",
                             "--bound", "3")
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "fail"
        assert payload["counterexample"] == {
            "edges": 2, "trees": 18, "images": 18, "plane_maps": 20}
        assert "Traceback" not in err

    def test_algebraic_p(self, capsys):
        code, out, _ = run(capsys, "verify", "algebraic-P", "--bound", "7")
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setitem(CHECKS, "ledoux", CHECKS["ledoux"]._replace(
            run=lambda bound, census: {"n": 3}))
        code, out, _ = run(capsys, "verify", "ledoux")
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "fail"
        assert payload["counterexample"] == {"n": 3}

    def test_fiber_of_copies_fails(self, capsys, monkeypatch):
        """2^w copies of one element have the right size but not 2^w
        distinct elements."""
        real = bijections.psi_fiber

        def copies(u):
            fiber = real(u)
            return fiber[:1] * len(fiber)
        monkeypatch.setattr(bijections, "psi_fiber", copies)
        code, out, _ = run(capsys, "verify", "psi-fibers", "--bound", "2")
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "fail"
        assert payload["counterexample"]["property"] == "distinct keys"

    def test_broken_phi_image_fails(self, capsys, monkeypatch):
        """A theta_fiber that drops one tree edge builds, unchecked, a
        tree-rooted map that is not valid: revalidation raises, and the
        registry check reports it as a counterexample, not a traceback."""
        real = bijections.theta_fiber

        def drop_tree_edge(graph, tour):
            return tuple(
                OrientedTreeRootedMap._trusted(
                    t.m, t.vertex_labels, t.edge_labels,
                    t.tree - {min(t.tree)}, t.orientation, t.up)
                if t.tree else t for t in real(graph, tour))
        monkeypatch.setattr(bijections, "theta_fiber", drop_tree_edge)
        broken = bijections.phi(parse_gluing("n=1; pairs=(0 1)"))
        with pytest.raises(ValueError, match="wrong number of edges"):
            revalidated(broken)
        code, out, err = run(capsys, "verify", "phi-roundtrip",
                             "--bound", "2")
        assert code == 1
        counterexample = json.loads(out)["counterexample"]
        assert counterexample["property"] == "valid image"
        assert counterexample["detail"] == "tree has the wrong number of edges"
        assert "Traceback" not in err

    def test_empty_fiber_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(bijections, "psi_fiber", lambda u: ())
        code, out, err = run(capsys, "verify", "psi-fibers", "--bound", "2")
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "fail"
        assert payload["counterexample"]["property"] == "empty fiber"
        assert "Traceback" not in err

    # every check's minimum minus 1, plus bounds further below
    @pytest.mark.parametrize("check,bound,minimum", sorted(
        {(name, c.minimum - 1, c.minimum) for name, c in CHECKS.items()}
        | {("rec-hP", -5, 1), ("q-pde", 0, 4), ("algebraic-P", 0, 2)}))
    def test_bound_below_minimum_is_usage_error(self, capsys, check, bound,
                                                minimum):
        code, out, err = run(capsys, "verify", check, "--bound", str(bound))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and f"at least {minimum}" in err
        assert CHECKS[check].default >= minimum

    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_minimum_bound_passes(self, capsys, check):
        code, out, _ = run(capsys, "verify", check, "--bound",
                           str(CHECKS[check].minimum))
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_unknown_check_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "no-such-check"])
        assert info.value.code == 2

    def test_every_registered_check_has_defaults(self):
        for check in CHECKS.values():
            assert check.default >= check.minimum and callable(check.run)
            assert check.bound_name.startswith("max_")


def loaded_modules(code: str) -> set:
    """The modules a fresh interpreter loads while running ``code`` with
    this checkout's package first on its path; those loaded before, by
    the site setup or the probe itself, are left out."""
    src = os.path.dirname(os.path.dirname(unimaps.__file__))
    probe = (f"import json, sys; before = set(sys.modules); "
             f"sys.path.insert(0, {src!r}); {code}; "
             "print(json.dumps(sorted(set(sys.modules) - before)))")
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True, check=True)
    return set(json.loads(result.stdout.splitlines()[-1]))


def package_modules(code: str) -> set:
    """The ``unimaps`` modules a fresh interpreter loads running ``code``."""
    return {m for m in loaded_modules(code) if m.split(".")[0] == "unimaps"}


class TestStartup:
    def test_commands_import_only_their_layers(self):
        """Building the parser loads the command line and the check
        registry alone, so not the census cache, which only the commands
        that use it import; ``verify hz`` loads none of the layers it
        does not run."""
        assert package_modules(
            "import unimaps.cli; unimaps.cli.build_parser()") == {
                "unimaps", "unimaps.cli", "unimaps.checks"}
        hz = package_modules("import unimaps.cli; "
                             "unimaps.cli.main(['verify', 'hz', '--bound', "
                             "'2'])")
        assert "unimaps.formulas" in hz
        assert not hz & {"unimaps.bijections", "unimaps.tours",
                         "unimaps.planar_closure", "unimaps.series",
                         "unimaps.cache"}

    def test_gamma_roundtrip_loads_the_census_alone(self, tmp_path):
        """``verify gamma-roundtrip`` counts the plane maps with the
        planar census, so it loads ``enumeration`` and no layer of the
        one-face bijections or the series; with a cache, the second run
        reads the census there and loads no enumerator."""
        argv = ["verify", "gamma-roundtrip", "--bound", "1"]
        loaded = package_modules(
            f"import unimaps.cli; unimaps.cli.main({argv!r})")
        assert {"unimaps.planar_closure", "unimaps.enumeration"} <= loaded
        assert not loaded & {"unimaps.bijections", "unimaps.tours",
                             "unimaps.series", "unimaps.cache"}
        cached = ["--cache", str(tmp_path)] + argv
        code = (f"import unimaps.cli; "
                f"assert unimaps.cli.main({cached!r}) == 0")
        first, second = package_modules(code), package_modules(code)
        assert {"unimaps.cache", "unimaps.enumeration"} <= first
        assert "unimaps.cache" in second
        assert "unimaps.enumeration" not in second

    def test_commands_load_no_class_generation_machinery(self, tmp_path):
        """The model classes are records built from closures, so no
        command of any layer loads ``dataclasses`` or ``inspect`` (about
        12 ms of start-up together); modules the site setup loaded before
        do not count."""
        for argv in (["verify", "hz", "--bound", "2"],
                     ["--cache", str(tmp_path), "verify", "planar-totals",
                      "--bound", "2"],
                     ["verify", "gamma-roundtrip", "--bound", "1"],
                     ["verify", "phi-roundtrip", "--bound", "1"],
                     ["fiber", "n=2; pairs=(0 2!, 1 3)"]):
            loaded = loaded_modules(
                f"import unimaps.cli; unimaps.cli.main({argv!r})")
            assert "unimaps.cli" in loaded
            assert not loaded & {"dataclasses", "inspect"}, argv

    def test_integer_checks_load_no_fractions(self):
        """Only the rational formulas import ``fractions`` (with
        ``decimal``, about 4 ms of start-up), so the one-face checks that
        stay in the integers do not load it, unless the site setup did;
        ``u-hat``, which does, still passes."""
        for check in ("hz", "ledoux", "t-formula", "gluing-totals"):
            loaded = loaded_modules(
                "import unimaps.cli; unimaps.cli.main(['verify', "
                f"{check!r}, '--bound', '2'])")
            assert "unimaps.formulas" in loaded
            assert "fractions" not in loaded, check
        loaded_modules("import unimaps.cli; code = unimaps.cli.main("
                       "['verify', 'u-hat', '--bound', '2']); "
                       "assert code == 0, code")


class TestFiber:
    def test_orientable_loop_fiber(self, capsys):
        code, out, _ = run(capsys, "fiber", "n=1; pairs=(0 1)")
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 1 and payload["w"] == 0

    def test_twisted_loop_fiber(self, capsys):
        code, out, _ = run(capsys, "fiber", "n=1; pairs=(0 1!)")
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 2 and payload["w"] == 1
        assert all(el["degree_certificate_ok"]
                   for el in payload["elements"])

    def test_upsilon_kind(self, capsys):
        code, out, _ = run(capsys, "fiber", "n=2; pairs=(0 1!, 2 3!)",
                           "--kind", "upsilon")
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 2 ** payload["w"] > 1
        assert all("tree" in el for el in payload["elements"])

    def test_parse_error_exits_two(self, capsys):
        code, _, err = run(capsys, "fiber", "n=1 pairs=(0 1)")
        assert code == 2
        assert "parse error" in err and "character" in err

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, "fiber", "n=2; pairs=(0 2!, 1 3)")
        _, second, _ = run(capsys, "fiber", "n=2; pairs=(0 2!, 1 3)")
        assert first == second


class TestBijection:
    def test_phi_image(self, capsys):
        code, out, _ = run(capsys, "bijection", "phi", "n=2; pairs=(0 1, 2 3)")
        assert code == 0
        image = json.loads(out)["image"]
        assert image["w"] == 0 and len(image["tree"]) == 2

    def test_phi_rejects_twisted(self, capsys):
        code, _, err = run(capsys, "bijection", "phi", "n=1; pairs=(0 1!)")
        assert code == 2
        assert "orientable" in err

    def test_gamma_delta_round_trip(self, capsys):
        literal = "sigma=(1,0); mate=(-1,-1); out=(0)"
        code, out, _ = run(capsys, "bijection", "gamma", literal)
        assert code == 0
        image = json.loads(out)["image"]
        back = "sigma=({}); alpha=({}); root={}; outer={}".format(
            ",".join(map(str, image["sigma"])),
            ",".join(map(str, image["alpha"])),
            image["root"], image["outer"])
        code, out, _ = run(capsys, "bijection", "delta", back)
        assert code == 0
        tree = json.loads(out)["image"]
        assert tree == {"sigma": [1, 0], "mate": [-1, -1], "out": [0],
                        "tails": [], "root": 0}

    def test_delta_requires_outer(self, capsys):
        code, _, err = run(capsys, "bijection", "delta",
                           "sigma=(1,0); alpha=(1,0)")
        assert code == 2
        assert "outer" in err

    @pytest.mark.parametrize("name,literal,field", [
        ("delta", "sigma=(1 0); alpha=(1 0); root=x; outer=0", "root"),
        ("delta", "sigma=(1 0); alpha=(1 0); outer=y", "outer"),
        ("gamma", "sigma=(0); mate=(-1); root=z", "root"),
    ])
    def test_non_integer_field_is_parse_error(self, capsys, name, literal,
                                              field):
        code, out, err = run(capsys, "bijection", name, literal)
        assert code == 2 and out == ""
        assert f"{field} must be an integer" in err

    @pytest.mark.parametrize("name,literal,message", [
        ("phi", "n=2; pairs=(0 1, 2 3); colors=(1,2,3); bogus=1",
         "unknown field 'bogus' (at character 39)"),
        ("phi", "n=2; pairs=(0 1, 2 3); n=3",
         "repeated field 'n' (at character 23)"),
        ("phi", "n=2; pairs=(0 1, 2 3); labels=(1,2); labels=(2,1)",
         "repeated field 'labels' (at character 37)"),
        ("delta", "sigma=(1 0); alpha=(1 0); outer=0; mate=(1 0)",
         "unknown field 'mate' (at character 35)"),
        ("delta", "sigma=(1 0); alpha=(1 0); outer=0; sigma=(1 0)",
         "repeated field 'sigma' (at character 35)"),
        ("gamma", "sigma=(1,0); mate=(-1,-1); out=(0); alpha=(1,0)",
         "unknown field 'alpha' (at character 36)"),
        ("gamma", "sigma=(1,0); mate=(-1,-1); root=0; root=1",
         "repeated field 'root' (at character 35)"),
        ("gamma", "sigma=(1 0); mate=(-1 -1); out=(0); tails=(9)",
         "tails must be tree half-edges (at character 0)"),
        ("gamma", "sigma=(0 1); mate=(1 0); tails=(-1)",
         "tails must be tree half-edges (at character 0)"),
        ("phi", "n=1; pairs=(0 1); colors=(1 2); labels=(5)",
         "edge labels must be a permutation of 1..n (at character 31)"),
        ("phi", "n=1; pairs=(0 1); labels=(5)",
         "edge labels must be a permutation of 1..n (at character 17)"),
        ("phi", "n=1; pairs=(0 1); colors=(1 3); labels=(1)",
         "coloring must use every color in 1..q (at character 17)"),
    ])
    def test_unknown_or_repeated_field_is_parse_error(self, capsys, name,
                                                      literal, message):
        code, out, err = run(capsys, "bijection", name, literal)
        assert code == 2 and out == ""
        assert f"parse error: {message}" in err

    @pytest.mark.parametrize("pairs", ["0 1!!", "0 1!!!", "0 1 ! !",
                                       "0 !1!"])
    def test_more_than_one_twist_mark_is_parse_error(self, capsys, pairs):
        code, out, err = run(capsys, "fiber", f"n=1; pairs=({pairs})")
        assert code == 2 and out == ""
        assert err.startswith("parse error: ")

    def test_colored_gluing_literal(self, capsys):
        code, out, _ = run(capsys, "fiber",
                           "n=2; pairs=(0 1, 2 3); colors=(1,1,2); "
                           "labels=(2,1)")
        assert code == 0
        assert json.loads(out)["input"]["colors"] == [1, 1, 2]


# Small valid objects whose fields the literals below keep or replace.
SMALL_TREES = list(gen_near_eulerian_trees(6))
SMALL_PLANE_MAPS = list(gen_plane_maps(3))
SLOT_LISTS = st.lists(st.integers(-3, 9), max_size=8)
SLOTS = st.integers(-3, 9)


def _literal(fields: dict) -> str:
    return "; ".join(
        f"{key}={value}" if isinstance(value, int)
        else f"{key}=({' '.join(map(str, value))})"
        for key, value in fields.items())


@st.composite
def gamma_literals(draw):
    """A small near-Eulerian tree with any of its fields replaced by
    random slots, negative and out of range ones included."""
    t = draw(st.sampled_from(SMALL_TREES))
    fields = {"sigma": t.sigma, "mate": t.mate, "out": sorted(t.out_buds),
              "tails": sorted(t.tails), "root": t.root}
    for key in draw(st.sets(st.sampled_from(sorted(fields)))):
        fields[key] = draw(SLOTS if key == "root" else SLOT_LISTS)
    return _literal(fields)


@st.composite
def delta_literals(draw):
    """A small plane map with any of its fields replaced by random slots,
    or its outer face left out."""
    p = draw(st.sampled_from(SMALL_PLANE_MAPS))
    fields = {"sigma": p.m.sigma, "alpha": p.m.alpha, "root": p.m.root,
              "outer": p.outer}
    for key in draw(st.sets(st.sampled_from(sorted(fields)))):
        fields[key] = draw(SLOTS if key in ("root", "outer")
                           else SLOT_LISTS)
    if draw(st.booleans()) and draw(st.booleans()):
        del fields["outer"]
    return _literal(fields)


class TestExitCodes:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(gamma_literals().map(lambda lit: ("gamma", lit)),
                     delta_literals().map(lambda lit: ("delta", lit))))
    def test_every_literal_exits_zero_or_two(self, case):
        """Every small ``bijection gamma`` or ``delta`` literal, valid or
        not, exits 0 or 2 in process and raises nothing."""
        name, literal = case
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["bijection", name, literal])
        assert code in (0, 2)
