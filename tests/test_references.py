"""The slow references stay out of the package's own paths.

``tbsap_payment``, ``cast_votes``, ``elect_witnesses`` and ``run_round`` are
the plain versions that the fast paths are checked against. No module of
the package uses them outside its own definition: the tests and the
benchmark probe do. Once the probe stops importing them, they can move to
``tests/oracles.py``.

The scalar rules stay in ``model.py`` too: counts, sizes and seeds go
through ``model.as_count``, reals through ``model.as_real`` and ids through
``model.as_id``, so no other module reads ``math.isfinite``, ``np.integer``
or ``operator.index``, or compares a ``type(...)`` with ``int``.

An ``AuctionInstance`` is checked once, by its constructor: no other code
in the package calls ``validate_instance``, and ``auction.py`` names no
validator.

A trading session aborts only with a ``(stage, cause)`` pair: every
``.abort(...)`` call in the package passes exactly two arguments, and
literal ones name a pair of ``trading.FAILURES``, so no site can pass free
text.
"""

import ast
from pathlib import Path

from trafficmarket.trading import FAILURES

REFERENCES = {"tbsap_payment", "cast_votes", "elect_witnesses", "run_round"}
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trafficmarket"


def uses(tree: ast.AST, inside: tuple = ()):
    """(name, line) of every name or attribute in ``REFERENCES`` read
    outside a definition of that name."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from uses(node, (*inside, node.name))
            continue
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in REFERENCES and name not in inside:  # only ast.Attribute has .attr
            yield name, node.lineno
        yield from uses(node, inside)


def test_no_package_module_uses_a_reference():
    paths = sorted(PACKAGE.glob("*.py"))
    assert {p.name for p in paths} >= {"auction.py", "consensus.py", "experiments.py"}
    found = [(p.name, *use) for p in paths for use in uses(ast.parse(p.read_text()))]
    assert found == []


RULE_PARTS = {("math", "isfinite"), ("np", "integer"), ("numpy", "integer"), ("operator", "index")}


def rule_parts(tree: ast.AST):
    """(dotted name, line) of every read or import of a ``RULE_PARTS`` name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            pair = node.value.id, node.attr
        elif isinstance(node, ast.ImportFrom):
            pairs = [(node.module, alias.name) for alias in node.names]
            pair = next((p for p in pairs if p in RULE_PARTS), None)
        else:
            continue
        if pair in RULE_PARTS:
            yield ".".join(pair), node.lineno


def test_only_model_holds_the_scalar_rules():
    paths = {p.name: p for p in sorted(PACKAGE.glob("*.py"))}
    found = {name: list(rule_parts(ast.parse(p.read_text()))) for name, p in paths.items()}
    model = found.pop("model.py")
    assert {name: uses for name, uses in found.items() if uses} == {}
    assert {part for part, _ in model} >= {"math.isfinite", "np.integer"}


def test_the_rule_scan_sees_attributes_and_imports():
    source = "import math\nfrom numpy import integer\nmath.isfinite(1)\noperator.index(2)\n"
    tree = ast.parse(source)
    assert sorted(rule_parts(tree)) == [("math.isfinite", 3), ("numpy.integer", 2),
                                        ("operator.index", 4)]


def int_type_tests(tree: ast.AST):
    """Line of every comparison of a ``type(...)`` call with ``int``, alone
    or in a tuple, list or set."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        if not any(isinstance(s, ast.Call) and getattr(s.func, "id", None) == "type"
                   for s in sides):
            continue
        parts = [e for s in sides for e in getattr(s, "elts", [s])]
        if any(isinstance(e, ast.Name) and e.id == "int" for e in parts):
            yield node.lineno


def test_only_model_holds_the_id_rule():
    paths = {p.name: p for p in sorted(PACKAGE.glob("*.py"))}
    found = {name: list(int_type_tests(ast.parse(p.read_text()))) for name, p in paths.items()}
    assert found.pop("model.py")  # as_id itself
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_id_scan_sees_each_form():
    source = ("type(a) is int\ntype(b) is not int\nint == type(c)\ntype(d) in (float, int)\n"
              "type(e) is str\nisinstance(f, int)\na is int\n")
    assert list(int_type_tests(ast.parse(source))) == [1, 2, 3, 4]


def calls(tree: ast.AST, name: str, inside: tuple = ()):
    """The dotted enclosing definition of every call of ``name``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from calls(node, name, (*inside, node.name))
            continue
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None)):
            yield ".".join(inside)
        yield from calls(node, name, inside)


def test_an_instance_is_checked_only_by_its_constructor():
    paths = sorted(PACKAGE.glob("*.py"))
    found = [(p.name, where) for p in paths
             for where in calls(ast.parse(p.read_text()), "validate_instance")]
    assert found == [("model.py", "AuctionInstance.__post_init__")]
    tree = ast.parse((PACKAGE / "auction.py").read_text())
    named = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(tree)}
    named |= {alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
              for alias in n.names}
    assert named & {"validate_instance", "validate_budget"} == set()


def test_the_call_scan_names_the_enclosing_definition():
    source = "f()\nclass A:\n    def g(self):\n        m.f(1)\ndef h():\n    f\n"
    assert list(calls(ast.parse(source), "f")) == ["", "A.g"]


def _literals(node: ast.AST):
    """The strings a literal argument can be, a conditional choice between
    literals included; None for anything else."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        body, orelse = _literals(node.body), _literals(node.orelse)
        return None if body is None or orelse is None else body | orelse
    return None


def free_aborts(tree: ast.AST):
    """Line of every ``.abort(...)`` call that does not pass exactly a stage
    and a cause: two positional arguments, no keyword or starred one, and,
    where both are literals, only pairs in ``trading.FAILURES``."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "abort"):
            continue
        args = node.args
        if len(args) != 2 or node.keywords or any(isinstance(a, ast.Starred) for a in args):
            yield node.lineno
            continue
        stages, causes = map(_literals, args)
        if stages is not None and causes is not None and any(
            (stage, cause) not in FAILURES for stage in stages for cause in causes
        ):
            yield node.lineno


def test_every_abort_site_passes_a_stage_and_a_cause():
    paths = sorted(PACKAGE.glob("*.py"))
    trees = {p.name: ast.parse(p.read_text()) for p in paths}
    assert {name: list(free_aborts(tree)) for name, tree in trees.items()} == {
        name: [] for name in trees
    }
    sites = [n for n in ast.walk(trees["trading.py"])
             if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "abort"]
    assert len(sites) >= 7  # the round's own sites, so the scan reads them


def test_the_abort_scan_sees_free_text():
    source = (
        's.abort("auction", "lost")\n'
        's.abort(stage, reason)\n'
        's.abort("data", "rejected" if d else "malformed payload")\n'
        's.abort("lost auction")\n'
        's.abort(f"{kind}: {reason}")\n'
        's.abort("auction", cause="lost")\n'
        's.abort(*pair)\n'
        's.abort("auction", "won")\n'
        's.abort("data", "rejected" if d else "gone")\n'
        's.abort("data", "rejected", "late")\n'
    )
    assert list(free_aborts(ast.parse(source))) == [4, 5, 6, 7, 8, 9, 10]
