"""The package's lazy namespace against its submodules."""

import ast
from importlib import import_module
from pathlib import Path

import pytest

import redraw

SUBMODULES = {"bounds", "cli", "comb", "drawings", "geometry", "pointsets"}


def test_all_lists_exactly_the_public_names_bound_in_init():
    assert set(redraw._HOMES.values()) <= SUBMODULES
    assert redraw.__all__ == sorted(redraw._HOMES)
    # besides the table's names, only submodules the import system bound
    bound = {name for name in vars(redraw) if not name.startswith("_")}
    assert bound - set(redraw.__all__) <= SUBMODULES


def test_each_name_is_the_object_its_home_submodule_binds():
    for name, home in redraw._HOMES.items():
        value = getattr(import_module(f"redraw.{home}"), name)
        assert getattr(redraw, name) is value
        assert vars(redraw)[name] is value  # kept after the first access


def test_star_import_binds_every_public_name():
    ns: dict = {}
    exec("from redraw import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == redraw.__all__
    assert all(ns[name] is getattr(redraw, name) for name in ns)


def test_unknown_names_raise_attribute_error():
    for name in ("no_such_name", "_HOMES_", "ENUM_POINT_GUARD"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(redraw, name)
    assert not hasattr(redraw, "nope")


@pytest.mark.parametrize("path", sorted(Path(redraw.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used
