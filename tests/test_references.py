"""The slow references stay out of the package's own paths.

``tbsap_payment``, ``cast_votes``, ``elect_witnesses`` and ``run_round`` are
the plain versions that the fast paths are checked against. No module of
the package uses them outside its own definition: the tests and the
benchmark probe do. Once the probe stops importing them, they can move to
``tests/oracles.py``.

The scalar rules stay in ``model.py`` too: counts, sizes and seeds go
through ``model.as_count`` and reals through ``model.as_real``, so no other
module reads ``math.isfinite``, ``np.integer`` or ``operator.index``.
"""

import ast
from pathlib import Path

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
