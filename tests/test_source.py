import ast
from pathlib import Path

import projquant


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no library check may be one
    root = Path(projquant.__file__).parent
    paths = sorted(root.rglob("*.py"))
    assert paths
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
