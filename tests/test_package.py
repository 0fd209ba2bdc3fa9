"""The package's export list matches what its ``__init__`` imports."""

import ast
from pathlib import Path

import gutheory


def test_all_lists_every_imported_name_and_each_resolves():
    tree = ast.parse(Path(gutheory.__file__).read_text(encoding="utf-8"))
    bound = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(gutheory.__all__) == {name for name in bound if not name.startswith("_")}
    assert len(gutheory.__all__) == len(set(gutheory.__all__))
    assert all(hasattr(gutheory, name) for name in gutheory.__all__)
