"""The README stays a user's document: short, free of the package's private
names, and with a Python example that prints what its comments say. How the
code works inside is documented in the module docstrings."""

import ast
import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def private_names() -> set[str]:
    """Every ``_``-prefixed name the package defines: functions, classes,
    variables and attributes, dunder names aside."""
    names = set()
    for path in (ROOT / "src" / "trafficmarket").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
    return {n for n in names if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))}


def test_the_readme_is_at_most_300_lines():
    assert len(README.splitlines()) <= 300


def test_the_readme_names_no_private_identifier_in_backticks():
    fence = re.compile(r"^```.*?^```", flags=re.S | re.M)
    spans = fence.findall(README) + re.findall(r"`([^`\n]+)`", fence.sub("", README))
    private = private_names()
    assert "_tally" in private and "_Record" in private
    named = {word for span in spans for word in re.findall(r"\w+", span)} & private
    assert not named


def test_the_python_example_prints_what_its_comments_say():
    (example,) = re.findall(r"^```python\n(.*?)^```", README, flags=re.S | re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert printed == ["(0, 1)", "{0: 2.0, 1: 3.0}"]
    comments = [line.split("#", 1)[1].strip() for line in example.splitlines() if "print(" in line]
    assert [c.startswith(p) for c, p in zip(comments, printed)] == [True, True]
