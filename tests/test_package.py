"""The package's export list against the names its `__init__` binds."""

import ast
from pathlib import Path

import redraw


def test_all_lists_exactly_the_public_names_bound_in_init():
    tree = ast.parse(Path(redraw.__file__).read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Assign):
            bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    public = sorted(name for name in bound if not name.startswith("_"))
    assert redraw.__all__ == public
    for name in public:
        assert getattr(redraw, name) is not None
