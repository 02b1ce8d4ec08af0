"""Counting how many ways triangulations can be drawn on point sets.

Each name in `__all__` is an attribute of the package, yet `import
redraw` loads no submodule: the first access of a name imports its home
submodule (PEP 562) and keeps the value in the package.
"""

__version__ = "0.1.0"

# public name -> home submodule, for the package and the command line alike
_HOMES = {
    "AlphaVector": "bounds",
    "ConstraintKind": "bounds",
    "entropy": "bounds",
    "exponent_rate": "bounds",
    "exponent_rate_gradient": "bounds",
    "growth_objective": "bounds",
    "largest_remainder_parts": "bounds",
    "multinomial_rate_check": "bounds",
    "optimize_growth": "bounds",
    "CombTriangulation": "comb",
    "build_k_nested_double_chain": "comb",
    "build_k_nested_regular": "comb",
    "canonical_code": "comb",
    "enumerate_comb_triangulations": "comb",
    "from_edge_list": "comb",
    "from_rotation_json": "comb",
    "from_straight_line_drawing": "comb",
    "tutte_count": "comb",
    "GeomTriangulation": "drawings",
    "classify_drawings": "drawings",
    "classify_to_csv": "drawings",
    "count_drawings": "drawings",
    "count_geometric_triangulations": "drawings",
    "count_polygonalizations": "drawings",
    "enumerate_geometric_triangulations": "drawings",
    "forced_cycle": "drawings",
    "forced_edges_always_present": "drawings",
    "forced_hamiltonian_cycle": "drawings",
    "is_valid_drawing": "drawings",
    "recursive_layer_count": "drawings",
    "render_svg": "drawings",
    "to_comb": "drawings",
    "Orientation": "geometry",
    "Point": "geometry",
    "convex_hull": "geometry",
    "general_position": "geometry",
    "orient": "geometry",
    "segments_cross": "geometry",
    "DoubleChain": "pointsets",
    "NestedTriangles": "pointsets",
    "PointSet": "pointsets",
    "gen_double_chain": "pointsets",
    "gen_nested_triangles": "pointsets",
    "validate_double_chain": "pointsets",
    "validate_nested_triangles": "pointsets",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str) -> object:
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    return value
