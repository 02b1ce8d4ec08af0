import concurrent.futures
import functools
import gc
import json
import math
import multiprocessing
import pickle
import weakref
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import AD_HOC_SETS, NINE_EDGES_A, NINE_EDGES_B, SQUARE, TRIANGLE, random_set
from redraw.comb import (
    CombTriangulation,
    build_k_nested_double_chain,
    build_k_nested_regular,
    canonical_code,
    from_edge_list,
    from_straight_line_drawing,
)
from redraw.drawings import (
    GeomTriangulation,
    classify_drawings,
    classify_to_csv,
    count_drawings,
    count_geometric_triangulations,
    count_polygonalizations,
    enumerate_geometric_triangulations,
    forced_cycle,
    forced_edges_always_present,
    forced_hamiltonian_cycle,
    is_valid_drawing,
    recursive_layer_count,
    render_svg,
    to_comb,
)
import redraw.drawings as drawings
from redraw.pointsets import PointSet, gen_double_chain, gen_nested_triangles

K4_SET = PointSet(((0, 0), (40, 0), (20, 30), (20, 12)))
K4_EDGES = frozenset([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


@pytest.fixture
def k4_drawing():
    return GeomTriangulation(K4_SET, K4_EDGES)


def test_edges_are_normalized():
    g = GeomTriangulation(K4_SET, [(1, 0), (2, 0), (3, 0), (2, 1), (3, 1), (3, 2)])
    assert g.edges == K4_EDGES
    assert to_comb(g).faces() == [(0, 1, 3), (0, 3, 2), (1, 2, 3)]


def test_construction_rejects_crossing_edges(pentagon):
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (1, 3)]
    with pytest.raises(ValueError, match="cross"):
        GeomTriangulation(pentagon, edges)
    # 3n-3-h edges without some hull edge must cross; the hull check comes first
    two_sides_and_every_diagonal = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]
    with pytest.raises(ValueError, match="hull edge missing"):
        GeomTriangulation(pentagon, two_sides_and_every_diagonal)


def test_construction_rejects_wrong_edge_count(pentagon):
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)]
    with pytest.raises(ValueError, match="edge count"):
        GeomTriangulation(pentagon, edges)


def test_indexed_construction_agrees_with_the_drawing_check():
    # from_straight_line_drawing, which reads no index, is the reference
    # structure of every triangulation.  Enumeration builds each one from
    # its mask unchecked, and to_comb reads its rotations off the index:
    # they must give the reference.  Every fourth triangulation is also
    # built through the public check, and its reference through every
    # structural check, since from_straight_line_drawing runs none.
    sets = [PointSet(tuple((i, i * i) for i in range(k))) for k in range(4, 9)]
    sets += [gen_double_chain(t, l) for t in range(2, 6) for l in range(2, t + 1)]
    sets += [gen_nested_triangles(n) for n in range(6, 10)]
    sets += [random_set(seed, size) for size in (7, 8, 9) for seed in range(3)]
    for ps in sets:
        for i, g in enumerate(enumerate_geometric_triangulations(ps)):
            ref = from_straight_line_drawing(ps.points, g.edges)
            t = to_comb(g)
            assert t == ref and t.faces() == ref.faces()
            if i % 4 == 0:
                assert g == GeomTriangulation(ps, g.edges)  # point set and edges
                assert CombTriangulation(ref.num_vertices, ref.outer_face, ref.rotations) == ref


def test_a_public_drawing_builds_no_index():
    ps = PointSet(K4_SET.points)  # a fresh set, without an index
    g = GeomTriangulation(ps, K4_EDGES)
    again = GeomTriangulation.from_json(g.to_json())
    assert render_svg(again) == render_svg(g)
    assert ps._index is None and again.pointset._index is None
    assert to_comb(g) == from_straight_line_drawing(ps.points, K4_EDGES)
    assert ps._index is not None  # built when the structure is asked for


@pytest.mark.parametrize("bad", [0.5, "3"])
def test_construction_rejects_labels_that_are_not_integers(bad):
    # int() would read both as labels: "3" completes K4, 0.5 repeats (0, 1)
    edges = sorted(K4_EDGES - {(1, 3)}) + [(1, bad)]
    with pytest.raises(ValueError, match="not an integer"):
        GeomTriangulation(K4_SET, edges)
    text = json.dumps({"pointset": json.loads(K4_SET.to_json()), "edges": edges})
    with pytest.raises(ValueError, match="not an integer"):
        GeomTriangulation.from_json(text)


def test_json_round_trip(k4_drawing):
    again = GeomTriangulation.from_json(k4_drawing.to_json())
    assert again == k4_drawing
    assert again.pointset == K4_SET


def test_to_comb_pins_hull_as_outer_face(k4_drawing):
    t = to_comb(k4_drawing)
    assert t.outer_face == (0, 1, 2)
    assert t.edges() == K4_EDGES


def test_counts_follow_catalan_in_convex_position(pentagon, hexagon):
    assert count_geometric_triangulations(PointSet(TRIANGLE)) == 1
    assert count_geometric_triangulations(PointSet(SQUARE)) == 2
    assert count_geometric_triangulations(pentagon) == 5
    assert count_geometric_triangulations(hexagon) == 14
    for n in range(7, 16):
        convex = PointSet(tuple((i, i * i) for i in range(n)))
        catalan = math.comb(2 * n - 4, n - 2) // (n - 1)
        assert count_geometric_triangulations(convex, max_n=15) == catalan


def test_enumeration_is_deterministic(pentagon):
    a = [g.edges for g in enumerate_geometric_triangulations(pentagon)]
    b = [g.edges for g in enumerate_geometric_triangulations(pentagon)]
    assert a == b
    assert len(set(a)) == 5


def _spy_on_pools(monkeypatch) -> list[str]:
    """The names of the functions mapped over worker pools from now on,
    with two cores reported, so that jobs=2 starts a pool on any box."""
    mapped = []

    class Spy(ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            mapped.append(fn.__name__)
            return super().map(fn, *iterables, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    monkeypatch.setattr(drawings.os, "cpu_count", lambda: 2)
    return mapped


def test_parallel_enumeration_agrees(monkeypatch):
    # No other test uses this convex 9-gon, so the jobs=2 run starts from a
    # cold index, and its 429 triangulations are split over the workers.
    # The translated copy has the same labels but an index of its own.
    nonagon = PointSet(tuple((i, i * i + 3) for i in range(9)))
    shifted = PointSet(tuple((x + 1, y) for x, y in nonagon.points))
    mapped = _spy_on_pools(monkeypatch)
    par = classify_drawings(nonagon, jobs=2)
    assert mapped == ["_class_histogram"]
    seq = classify_drawings(shifted)
    assert par == seq and sum(par.values()) == 429


def test_jobs_start_at_most_one_worker_per_core_and_task(monkeypatch):
    started = []

    class InProcess:
        def __init__(self, max_workers):
            started.append(max_workers)

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def shutdown(self):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.shutdown()

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
    monkeypatch.setattr(drawings.os, "cpu_count", lambda: 4)
    heptagon = PointSet(tuple((i, i * i + 5) for i in range(7)))  # cold index
    assert sum(classify_drawings(heptagon, jobs=100_000).values()) == 42  # 14 states
    assert count_polygonalizations(gen_double_chain(4, 4), jobs=100_000) == 162
    assert count_polygonalizations(PointSet(SQUARE), jobs=100_000) == 1
    assert count_polygonalizations(PointSet(SQUARE), jobs=1) == 1
    assert started == [4, 4, 3]


def test_jobs_on_one_cpu_run_in_this_process(monkeypatch):
    # on one CPU, jobs=2 starts no pool: classify runs one unsplit search
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    monkeypatch.setattr(drawings.os, "cpu_count", lambda: 1)
    heptagon = PointSet(tuple((i, i * i + 13) for i in range(7)))
    par = classify_drawings(heptagon, jobs=2)
    assert par == classify_drawings(heptagon) and sum(par.values()) == 42
    chain = gen_double_chain(4, 4)
    assert count_polygonalizations(chain, jobs=2) == count_polygonalizations(chain) == 162


def test_classify_on_one_cpu_keeps_one_memo(monkeypatch):
    # with no pool to feed, jobs=2 does not split the search, so it works
    # out each open edge set's steps once, as jobs=1 does
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    monkeypatch.setattr(drawings.os, "cpu_count", lambda: 1)
    steps = drawings._steps
    calls = []

    def counted(*args):
        calls.append(1)
        return steps(*args)

    monkeypatch.setattr(drawings, "_steps", counted)
    seen = {}
    for jobs in (1, 2):
        calls.clear()
        hist = classify_drawings(gen_double_chain(4, 5), jobs=jobs)  # a cold index
        seen[jobs] = (len(calls), hist)
    assert seen[2] == seen[1] and seen[1][0] > 0


def test_enumeration_guard_and_override():
    para15 = PointSet(tuple((i, i * i) for i in range(15)))
    with pytest.raises(ValueError, match="guard 14"):
        count_geometric_triangulations(para15)
    ps5 = PointSet(tuple((i, i * i) for i in range(5)))
    with pytest.raises(ValueError, match="guard 4"):
        count_geometric_triangulations(ps5, max_n=4)
    assert count_geometric_triangulations(para15, max_n=15) > 0


def test_oracle_guard_comes_before_the_index():
    ps = gen_double_chain(10, 10)
    with pytest.raises(ValueError, match="guard 14"):
        count_drawings(build_k_nested_double_chain(2), ps, backend="oracle")
    assert ps._index is None


def test_a_point_set_keeps_its_own_index_for_as_long_as_it_lives():
    ps = PointSet(tuple((i, i * i + 7) for i in range(5)))
    assert count_geometric_triangulations(ps) == 5
    ix = drawings._index_for(ps)
    assert ps._index is ix and count_polygonalizations(ps) == 1
    assert drawings._index_for(ps) is ix
    twin = PointSet(ps.points)
    assert twin == ps and hash(twin) == hash(ps) and repr(twin) == repr(ps)
    assert drawings._index_for(twin) is not ix
    assert twin.to_json() == ps.to_json()
    gone = weakref.ref(ix)
    del ps, ix
    assert gone() is None


def test_pool_workers_need_nothing_from_the_parent(monkeypatch):
    # Spawned workers start from a fresh interpreter, so they can only
    # count with the index that comes with their tasks.
    spawned = functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn"))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spawned)
    monkeypatch.setattr(drawings.os, "cpu_count", lambda: 2)
    ps = gen_double_chain(3, 4)
    par = classify_drawings(ps, jobs=2), count_polygonalizations(ps, jobs=2)
    assert par == (classify_drawings(ps), count_polygonalizations(ps))
    assert sum(par[0].values()) == 20 and par[1] == 44


def test_pool_workers_build_no_table(monkeypatch):
    # Each task gets a pickled copy of the index, as a worker does; a table
    # that a task had to build would show up among the copy's attributes.
    built = []

    class Pickling:
        def __init__(self, max_workers):
            pass

        def map(self, fn, indexes, *iterables):
            def task(ix, *args):
                copy = pickle.loads(pickle.dumps(ix))
                tables = set(vars(copy))
                out = fn(copy, *args)
                built.extend(set(vars(copy)) - tables)
                return out
            return map(task, indexes, *iterables)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pickling)
    monkeypatch.setattr(drawings.os, "cpu_count", lambda: 2)
    ps = PointSet(tuple((i, i * i + 11) for i in range(8)))  # convex, cold index
    assert sum(classify_drawings(ps, jobs=2).values()) == 132
    assert "step_table" in vars(drawings._index_for(ps))
    assert count_polygonalizations(ps, jobs=2) == 1
    assert built == []


def test_enumeration_cap(five_point_set):
    with pytest.raises(RuntimeError, match="cap"):
        list(enumerate_geometric_triangulations(gen_double_chain(3, 3), cap=3))


def test_convex_classes_are_all_distinct(pentagon):
    hist = classify_drawings(pentagon)
    assert len(hist) == 5
    assert sorted(hist.values()) == [1, 1, 1, 1, 1]


def test_two_triangulation_set(five_point_set):
    assert count_geometric_triangulations(five_point_set) == 2
    hist = classify_drawings(five_point_set)
    assert sorted(hist.values()) == [1, 1]
    for g in enumerate_geometric_triangulations(five_point_set):
        t = to_comb(g)
        assert count_drawings(t, five_point_set)[0] == 1
        assert count_drawings(t, five_point_set, backend="oracle")[0] == 1


def test_realizable_elsewhere_but_not_here(five_point_set):
    # the wheel-like structure with hub 3 needs a different point set
    t = from_edge_list(
        5,
        [(0, 1), (0, 2), (1, 2), (1, 3), (0, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
        (1, 2, 0),
    )
    assert count_drawings(t, five_point_set)[0] == 0
    assert count_drawings(t, five_point_set, backend="oracle")[0] == 0
    codes = {canonical_code(to_comb(g))
             for g in enumerate_geometric_triangulations(five_point_set)}
    assert canonical_code(t) not in codes
    assert len(codes) == 2


def test_same_structure_two_drawings(nine_point_set):
    a = GeomTriangulation(nine_point_set, NINE_EDGES_A)
    b = GeomTriangulation(nine_point_set, NINE_EDGES_B)
    assert a.edges != b.edges
    assert canonical_code(to_comb(a)) == canonical_code(to_comb(b))
    t = to_comb(a)
    assert count_drawings(t, nine_point_set)[0] == 2
    assert count_drawings(t, nine_point_set, backend="oracle")[0] == 2
    assert count_geometric_triangulations(nine_point_set) == 240


def test_band_structure_on_nested_layers():
    # all-degree-4 band structure admits very few drawings here
    assert count_drawings(build_k_nested_regular(6), gen_nested_triangles(6))[0] == 2
    assert count_geometric_triangulations(gen_nested_triangles(6)) == 8
    assert count_drawings(build_k_nested_regular(9), gen_nested_triangles(9))[0] == 4
    assert count_geometric_triangulations(gen_nested_triangles(9)) == 729
    for n in range(12, 46, 3):
        band = build_k_nested_regular(n)
        assert count_drawings(band, gen_nested_triangles(n))[0] == 2 ** (n // 3 - 1)


def test_double_chain_triangulation_totals():
    # Cat(t-2) * Cat(l-2) * C(t+l-2, t-1) triangulations in total
    assert count_geometric_triangulations(gen_double_chain(3, 3)) == 6
    assert count_geometric_triangulations(gen_double_chain(4, 4)) == 80
    assert count_geometric_triangulations(gen_double_chain(5, 5)) == 1750
    assert count_geometric_triangulations(gen_double_chain(6, 6)) == 49392


def test_chain_pair_counts_on_double_chains():
    t1 = build_k_nested_double_chain(1)
    assert count_drawings(t1, gen_double_chain(6, 6))[0] == 3
    assert count_drawings(t1, gen_double_chain(8, 4))[0] == 1
    for k in range(2, 6):
        tk = build_k_nested_double_chain(k)
        ps = gen_double_chain(4 * k + 2, 4 * k + 2)
        assert count_drawings(tk, ps)[0] == recursive_layer_count(k)
    assert [recursive_layer_count(k) for k in range(2, 6)] == [19, 141, 1107, 8953]


def test_witnesses_realize_the_structure():
    for t, ps, drawn in [
        (build_k_nested_double_chain(1), gen_double_chain(6, 6), 3),
        (build_k_nested_double_chain(2), gen_double_chain(10, 10), 19),
        (build_k_nested_double_chain(3), gen_double_chain(14, 14), 141),
        (build_k_nested_regular(18), gen_nested_triangles(18), 32),
    ]:
        cnt, wits = count_drawings(t, ps, witnesses=True)
        assert cnt == len(wits) == drawn
        target = canonical_code(t)
        for w in wits:
            assert w.pointset == ps
            assert canonical_code(to_comb(w)) == target
        assert len({w.edges for w in wits}) == drawn


def test_backends_agree_per_class_on_a_small_set():
    # on every class, so the oracle's degree prune loses no drawing
    for ps in [PointSet(AD_HOC_SETS[2]), gen_double_chain(4, 4), gen_double_chain(3, 5),
               gen_nested_triangles(9), random_set(1, 8)]:
        hist = classify_drawings(ps)
        seen = set()
        for g in enumerate_geometric_triangulations(ps):
            t = to_comb(g)
            code = canonical_code(t)
            if code in seen:
                continue
            seen.add(code)
            assert count_drawings(t, ps)[0] == hist[code]
            assert count_drawings(t, ps, backend="oracle")[0] == hist[code]
        assert len(seen) == len(hist)


def test_oracle_prunes_by_degree(monkeypatch):
    ps = gen_double_chain(8, 4)
    assert count_geometric_triangulations(ps) == 31680
    calls = 0
    steps = drawings._steps

    def counting(*args):
        nonlocal calls
        calls += 1
        return steps(*args)

    monkeypatch.setattr(drawings, "_steps", counting)
    assert count_drawings(build_k_nested_double_chain(1), ps, backend="oracle")[0] == 1
    # one call per open set reached: 426 with an upper degree bound alone,
    # 351 with each point's degree checked as it closes; a lost prune
    # reaches more
    assert 0 < calls <= 351


@pytest.mark.parametrize("n", range(12, 28, 3))
def test_oracle_counts_bands_beyond_the_guard(n):
    # band 24 has 18 interior points of degree 6: the degree counter's
    # fields must hold counts up to n
    band, ps = build_k_nested_regular(n), gen_nested_triangles(n)
    drawn = 2 ** (n // 3 - 1)
    assert count_drawings(band, ps, backend="oracle", max_n=n)[0] == drawn
    assert count_drawings(band, ps)[0] == drawn


@pytest.mark.parametrize("split,drawn", [((8, 4), 1), ((6, 6), 3), ((5, 7), 2)])
def test_oracle_witnesses_equal_direct_witnesses(split, drawn):
    t1 = build_k_nested_double_chain(1)
    ps = gen_double_chain(*split)
    oracle, oracle_wits = count_drawings(t1, ps, backend="oracle", witnesses=True)
    direct, direct_wits = count_drawings(t1, ps, witnesses=True)
    assert oracle == direct == drawn
    assert [w.edges for w in oracle_wits] == [w.edges for w in direct_wits]


def test_trusted_drawings_equal_public_ones():
    # enumeration and both backends' witnesses build drawings from their
    # masks, unchecked; each must be the drawing the public check builds
    built = []
    for t, ps in ((build_k_nested_double_chain(1), gen_double_chain(6, 6)),
                  (build_k_nested_regular(9), gen_nested_triangles(9))):
        for backend in ("direct", "oracle"):
            built += count_drawings(t, ps, backend=backend, witnesses=True)[1]
    assert len(built) == 2 * 3 + 2 * 4
    built += enumerate_geometric_triangulations(gen_double_chain(3, 4))
    for g in built:
        checked = GeomTriangulation(g.pointset, g.edges)
        assert g == checked and to_comb(g) == to_comb(checked)


def test_unknown_backend_rejected(five_point_set):
    t = to_comb(next(enumerate_geometric_triangulations(five_point_set)))
    with pytest.raises(ValueError, match="unknown backend"):
        count_drawings(t, five_point_set, backend="magic")


def test_size_compatibility_is_checked(five_point_set, k4_drawing):
    t4 = to_comb(k4_drawing)
    with pytest.raises(ValueError, match="vertex count"):
        count_drawings(t4, five_point_set)
    with pytest.raises(ValueError, match="outer face size"):
        count_drawings(t4, gen_double_chain(2, 2))


def test_mapping_validity(k4_drawing):
    t = to_comb(k4_drawing)
    # the identity draws t onto the edges it was read from
    assert set(t.edges()) == K4_EDGES
    assert is_valid_drawing(t, K4_SET, (0, 1, 2, 3))
    # hull pinning forbids rotating the boundary labels
    assert not is_valid_drawing(t, K4_SET, (1, 2, 0, 3))
    assert not is_valid_drawing(t, K4_SET, (0, 0, 2, 3))


def test_csv_export():
    hist = classify_drawings(gen_double_chain(3, 3))
    text = classify_to_csv(hist)
    lines = text.strip().split("\n")
    assert lines[0] == "code_hash,multiplicity"
    assert len(lines) == len(hist) + 1
    mults = []
    for row in lines[1:]:
        h, m = row.split(",")
        assert len(h) == 64 and int(h, 16) >= 0
        mults.append(int(m))
    assert mults == sorted(mults, reverse=True)
    assert sum(mults) == 6


def test_polygonalization_counts():
    assert count_polygonalizations(PointSet(TRIANGLE)) == 1
    assert count_polygonalizations(PointSet(SQUARE)) == 1
    assert count_polygonalizations(gen_double_chain(3, 3)) == 13
    assert count_polygonalizations(gen_double_chain(4, 4)) == 162
    assert count_polygonalizations(gen_double_chain(4, 4), jobs=2) == 162


def test_polygonalization_guard_cap_and_tiny_input():
    with pytest.raises(ValueError, match="guard 16"):
        count_polygonalizations(PointSet(tuple((i, i * i) for i in range(17))))
    with pytest.raises(RuntimeError, match="cap"):
        count_polygonalizations(gen_double_chain(3, 3), cap=5)
    with pytest.raises(ValueError, match="at least 3"):
        count_polygonalizations(PointSet(((0, 0), (1, 5))))


def test_recursive_searches_leave_no_cyclic_garbage():
    # The polygon and direct searches recurse through closures, which refer
    # to themselves; a call must leave no cycle behind for the collector.
    ps, t = gen_double_chain(6, 6), build_k_nested_double_chain(1)
    drawings._index_for(ps).dart_cross  # built here, with the index
    gc.collect()
    gc.disable()
    try:
        assert count_polygonalizations(ps) == 33094
        assert gc.collect() == 0
        assert count_drawings(t, ps)[0] == 3
        assert gc.collect() == 0
        try:
            count_polygonalizations(ps, cap=10)
        except RuntimeError:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_forced_structure_on_double_chains():
    ps = gen_double_chain(4, 4)
    forced = forced_cycle(ps)
    assert forced == frozenset(
        [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7),
         (0, 4), (3, 7), (0, 3), (4, 7)]
    )
    ham = forced_hamiltonian_cycle(ps)
    assert ham == forced - {(0, 3), (4, 7)}
    # a Hamiltonian cycle: every point has exactly two incident edges
    seen = {}
    for a, b in ham:
        seen[a] = seen.get(a, 0) + 1
        seen[b] = seen.get(b, 0) + 1
    assert seen == {v: 2 for v in range(8)}


def test_forced_edges_in_every_triangulation():
    assert forced_edges_always_present(gen_double_chain(4, 4))
    assert forced_edges_always_present(gen_double_chain(3, 5))
    forced = forced_cycle(gen_double_chain(3, 3))
    for g in enumerate_geometric_triangulations(gen_double_chain(3, 3)):
        assert forced <= set(g.edges)


def test_forced_edges_are_exactly_the_uncrossed_edges():
    # exhaustive reference: the edges common to every triangulation
    for t in range(2, 6):
        for l in range(t, 11 - t):
            ps = gen_double_chain(t, l)
            ix = drawings._index_for(ps)
            common = ~0
            for mask in drawings._triangulations(ix):
                common &= mask
            uncrossed = {e for i, e in enumerate(ix.pairs) if ix.cross[i] == 0}
            assert {e for i, e in enumerate(ix.pairs) if common >> i & 1} == uncrossed
            assert uncrossed == forced_cycle(ps)
            assert forced_edges_always_present(ps)


def test_forced_structure_needs_a_fat_double_chain(pentagon):
    with pytest.raises(ValueError, match="double chain"):
        forced_cycle(gen_double_chain(1, 4))
    with pytest.raises(ValueError, match="double chain"):
        forced_cycle(pentagon)
    with pytest.raises(ValueError, match="double chain"):
        forced_hamiltonian_cycle(gen_double_chain(1, 4))
    with pytest.raises(ValueError, match="double chain"):
        forced_hamiltonian_cycle(pentagon)


def test_layer_recursion_values():
    assert [recursive_layer_count(k) for k in (1, 2, 3, 4)] == [3, 19, 141, 1107]
    with pytest.raises(ValueError):
        recursive_layer_count(0)


def test_layer_recursion_matches_direct_count_at_one_ring():
    t1 = build_k_nested_double_chain(1)
    assert recursive_layer_count(1) == count_drawings(t1, gen_double_chain(6, 6))[0]


def test_layer_recursion_growth_stays_under_quarter_power_of_three():
    bound = 3 ** 0.25 + 1e-9
    for k in (1, 2, 4, 8, 16, 32):
        assert recursive_layer_count(k) ** (1 / (8 * k)) <= bound


def central_trinomial(m: int) -> int:
    """Coefficient of x^m in (1 + x + x^2)^m: choose the 2j factors that
    do not give x, then which j of them give x^2 (the others give 1)."""
    return sum(math.comb(m, 2 * j) * math.comb(2 * j, j) for j in range(m // 2 + 1))


def test_layer_recursion_is_the_central_trinomial_coefficient():
    # the weights 1, 2, 3, 2, 1 of the layer sizes 2..6 are (1 + x + x^2)^2
    assert [central_trinomial(m) for m in range(7)] == [1, 1, 3, 7, 19, 51, 141]
    for k in range(1, 40):
        assert recursive_layer_count(k) == central_trinomial(2 * k)


def test_layer_recursion_rate_rises_towards_quarter_power_of_three():
    # criterion 6 asks for a rate above 1.31 at k = 8..64; the closed form
    # rises strictly towards 3^(1/4) = 1.31607 and passes 1.31 only at k = 90
    rates = [central_trinomial(2 * k) ** (1 / (8 * k)) for k in range(1, 101)]
    assert all(r < s for r, s in zip(rates, rates[1:]))
    assert rates[-1] < 3 ** 0.25
    assert next(k for k, r in enumerate(rates, 1) if r > 1.31) == 90


def test_render_svg(k4_drawing):
    svg = render_svg(k4_drawing)
    assert svg.startswith("<svg")
    assert 'viewBox="0 0 840 640"' in svg
    assert svg.count("<line") == 6
    assert svg.count("<circle") == 4
    assert svg.count("<text") == 4
    assert render_svg(k4_drawing) == svg


small_sets = st.sampled_from(AD_HOC_SETS[:9])


@settings(max_examples=9)
@given(small_sets)
def test_enumerated_triangulations_are_structurally_sound(raw):
    ps = PointSet(raw)
    n, h = len(ps), len(ps.hull())
    total = 0
    for g in enumerate_geometric_triangulations(ps):
        assert len(g.edges) == 3 * n - 3 - h
        assert len(to_comb(g).faces()) == 2 * n - 2 - h
        assert to_comb(g).outer_face == tuple(ps.hull())
        total += 1
    assert total == count_geometric_triangulations(ps) >= 1
    hist = classify_drawings(ps)
    assert sum(hist.values()) == total


def test_each_call_builds_only_the_tables_it_reads():
    # The lazy tables of the index are built on first use, so each public
    # call leaves on a fresh point set exactly the tables that it reads.
    t = build_k_nested_double_chain(1)
    fixed = set(vars(drawings._Index(gen_double_chain(6, 6).points)))
    count = {"cross", "step_table"}
    calls = [
        (lambda ps: count_drawings(t, ps), set()),
        (count_geometric_triangulations, count),
        (lambda ps: list(enumerate_geometric_triangulations(ps)), count),
        (forced_edges_always_present, {"cross"}),
        (count_polygonalizations, {"cross", "dart_cross"}),
        (classify_drawings, count | {"angular"}),
        (lambda ps: count_drawings(t, ps, backend="oracle"), count | {"angular", "darts"}),
    ]
    for call, tables in calls:
        ps = gen_double_chain(6, 6)
        call(ps)
        assert set(vars(ps._index)) - fixed == tables
