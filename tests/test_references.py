"""The slow references stay out of the package's own paths.

``tbsap_payment``, ``cast_votes``, ``elect_witnesses`` and ``run_round`` are
the plain versions that the fast paths are checked against. No module of
the package uses them outside its own definition: the tests and the
benchmark probe do. Once the probe stops importing them, they can move to
``tests/oracles.py``.
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
