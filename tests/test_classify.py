"""Drawing classes: the cached rotation coder, pinned histograms, and the
band's drawings under the three rotations of its outer face."""

import hashlib
from collections import Counter

import pytest

from conftest import random_set
from redraw.comb import CombTriangulation, build_k_nested_regular, canonical_code
from redraw.drawings import (
    _index_for,
    _mask_coder,
    classify_drawings,
    classify_to_csv,
    count_drawings,
    enumerate_geometric_triangulations,
    to_comb,
)
from redraw.pointsets import PointSet, gen_double_chain, gen_nested_triangles

CODER_SETS = {
    **{f"convex-{k}": PointSet(tuple((i, i * i) for i in range(k))) for k in range(4, 10)},
    **{f"chain-{t}-{l}": gen_double_chain(t, l)
       for t in range(1, 6) for l in range(1, 6) if t + l >= 3},
    **{f"nested-{n}": gen_nested_triangles(n) for n in (6, 9)},
    **{f"random-{size}-{seed}": random_set(seed, size) for size in (7, 8, 9) for seed in range(3)},
}


@pytest.mark.parametrize("name", CODER_SETS)
def test_cached_coder_agrees_with_canonical_code(name):
    ps = CODER_SETS[name]
    # One coder over every triangulation, so that later masks hit the
    # rotations cached for earlier ones.
    ix = _index_for(ps)
    code = _mask_coder(ix)
    codes = []
    for g in enumerate_geometric_triangulations(ps):
        mask = sum(1 << ix.eidm[a][b] for a, b in g.edges)
        codes.append(canonical_code(to_comb(g)))
        assert code(mask) == codes[-1]
    assert classify_drawings(ps) == Counter(codes)


@pytest.mark.parametrize("t, l, digest", [
    (4, 5, "37080c0f0038862a3312b129a4f031dd03d542a5fb0133ba8cad03bce0d98be1"),
    (5, 5, "f54a7de4925c845947dd6d4898bab8c5288443fd99e5ac73d586da6702d22c5c"),
])
def test_csv_digest_pins_the_code_bytes(t, l, digest):
    # The CSV hashes each code, so a changed code format changes the digest.
    text = classify_to_csv(classify_drawings(gen_double_chain(t, l)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("n, classes, largest", [(6, 7, 2), (9, 625, 4)])
def test_no_structure_reaches_the_band_thresholds_on_nested_sets(n, classes, largest):
    # Criterion 3 asks for 4 drawings of one structure on 6 points and 8 on
    # 9.  Counted rooted at the hull, as the program counts, the largest
    # class of any structure is 2 and 4: no structure reaches them.
    hist = classify_drawings(gen_nested_triangles(n))
    assert len(hist) == classes
    assert max(hist.values()) == largest


@pytest.mark.parametrize("n, distinct", [(6, 2), (9, 4), (12, 8)])
def test_band_rotations_share_their_drawings(n, distinct):
    # Pinning the band's outer face to the hull in each of its three
    # rotations gives drawings with the same edge sets: as distinct
    # geometric triangulations the band still has 2, 4 and 8, below
    # criterion 3's 4 and 8.
    band, ps = build_k_nested_regular(n), gen_nested_triangles(n)
    outer = band.outer_face
    edge_sets = set()
    for k in range(3):
        rotated = CombTriangulation(band.num_vertices, outer[k:] + outer[:k], band.rotations)
        edge_sets |= {g.edges for g in count_drawings(rotated, ps, witnesses=True)[1]}
    assert len(edge_sets) == distinct
