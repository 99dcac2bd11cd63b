"""One owner for JSON output.

The library returns plain result objects; `cli.py` alone turns them into
schema-1 JSON, with the coefficient and rational text of `parsing.py`.
This guard reads the source with `ast`, so a `to_json` method or a
formatter import added to another module fails here before it ships.
"""

import ast
from pathlib import Path

import polydecomp

SRC = Path(polydecomp.__file__).parent
FORMATTERS = {"format_coeffs", "format_rational"}
OWNERS = {"cli.py", "parsing.py"}


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_no_class_defines_to_json():
    found = [
        f"{name}:{cls.name}"
        for name, tree in _modules()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and item.name == "to_json"
    ]
    assert found == []


def test_only_cli_and_parsing_touch_the_formatters():
    users = set()
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {node.name}
            else:
                continue
            if names & FORMATTERS:
                users.add(name)
    assert users == OWNERS
