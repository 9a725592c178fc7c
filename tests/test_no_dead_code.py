"""Every public module-level function, every public method and every
public class of the package feeds the package or the benchmark: code
that only the tests call or build belongs with the tests."""

import ast
import pathlib

import unimaps

SOURCE = pathlib.Path(unimaps.__file__).parent
BENCH = SOURCE.parent.parent / "perfbench"

# functions that no registered check runs yet; the set must name exactly
# the unused functions
WAITING = set()


def _uses(tree, skip=None, strings=False, names=True) -> set:
    """Names that ``tree`` reads as attributes, outside the node
    ``skip``; with ``names``, also the names it loads, and with
    ``strings``, also its string constants."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if names and isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _without_annotations(tree):
    """``tree`` with every annotation dropped, in place: a name that only
    annotates a field, argument or result is not a use."""
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            node.annotation = ast.Constant(None)
        elif isinstance(node, ast.arg):
            node.annotation = None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            node.returns = None
    return tree


def _parsed(names=True) -> tuple:
    """The package's modules as ``{path: tree}``, annotations dropped,
    and the names the benchmark uses, string constants included (bare
    names only with ``names``)."""
    trees = {path: _without_annotations(ast.parse(path.read_text(),
                                                  str(path)))
             for path in sorted(SOURCE.glob("*.py"))}
    bench = set()
    assert (BENCH / "trace_op.py").exists()
    for path in sorted(BENCH.glob("*.py")):
        bench |= _uses(ast.parse(path.read_text(), str(path)), strings=True,
                       names=names)
    assert len(trees) > 5
    return trees, bench


def _unused(trees, bench, definitions, names=True,
            kind=ast.FunctionDef) -> list:
    """``path:name`` of each public definition of ``kind`` (a function
    by default) that ``definitions(tree)`` yields and that no code but
    its own body uses (see :func:`_uses`)."""
    everywhere = {path: _uses(tree, names=names)
                  for path, tree in trees.items()}
    unused = []
    for path, tree in trees.items():
        for node in definitions(tree):
            if not isinstance(node, kind) or node.name.startswith("_"):
                continue
            used = bench | _uses(tree, skip=node, names=names)
            for other, there in everywhere.items():
                if other != path:
                    used |= there
            if node.name not in used:
                unused.append(f"{path.name}:{node.name}")
    return unused


def test_every_public_function_is_used_outside_the_tests():
    trees, bench = _parsed()
    assert set(_unused(trees, bench, lambda tree: tree.body)) == WAITING


def test_every_public_method_is_used_outside_the_tests():
    """The methods of every class, properties included; a method counts
    as used wherever its name is read as an attribute, on any object, so
    that a local variable of the same name does not hide it."""
    trees, bench = _parsed(names=False)

    def methods(tree):
        return [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                for node in cls.body]
    assert len([m for t in trees.values() for m in methods(t)]) > 40
    assert _unused(trees, bench, methods, names=False) == []


def test_every_public_class_is_used_outside_the_tests():
    """A public class counts as used where its name is read outside its
    own body, but not in an annotation: a record that the package no
    longer builds or reads outside the tests fails here."""
    trees, bench = _parsed()
    classes = [node for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)]
    assert len(classes) > 8
    assert _unused(trees, bench, lambda tree: tree.body,
                   kind=ast.ClassDef) == []
