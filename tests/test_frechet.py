"""Distance-vector embedding: exact isometry on integer metrics."""

import numpy as np
from hypothesis import given, settings, strategies as st

from spiralpaste import (
    BlockVector,
    PointedMetricSpace,
    SumSpaceSpec,
    SUP,
    distortion,
    frechet_embed,
)
from .conftest import random_integer_space


def as_images(fm):
    spec = SumSpaceSpec(SUP, (fm.dimension,))
    return spec, {pid: BlockVector(spec, {1: fm[pid]}) for pid in fm.images}


def test_anchors_are_the_ids_in_row_order():
    sp = random_integer_space(np.random.default_rng(3), n_max=10)
    fm = frechet_embed(sp)
    assert tuple(fm.images) == sp.ids
    assert fm.dimension == len(sp)
    # coordinate k of x is d(a_k, x) - d(a_k, base) for the k-th row a_k
    D, base = sp.matrix, sp.index(sp.basepoint)
    for x in sp.ids:
        assert fm[x].tolist() == [D[k, sp.index(x)] - D[k, base] for k in range(len(sp))]


def test_basepoint_maps_to_zero():
    sp = random_integer_space(np.random.default_rng(5), n_max=15)
    fm = frechet_embed(sp)
    assert np.array_equal(fm[sp.basepoint], np.zeros(fm.dimension))


def test_anchors_index_rows_of_a_nearly_symmetric_matrix():
    # the matrix kind is symmetric only to tolerance: coordinate k of x is
    # d(a_k, x) - d(a_k, basepoint) with the anchor as row, not its transpose
    D = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
    D[1, 3] += 1e-12
    ids = ("c", "a", "d", "b")
    sp = PointedMetricSpace(ids, "d", "matrix", matrix=D)
    fm = frechet_embed(sp)
    base = sp.index("d")
    for x in ids:
        oracle = [D[sp.index(a), sp.index(x)] - D[sp.index(a), base] for a in sp.ids]
        assert fm[x].tolist() == oracle
    # the perturbed entry tells the map from its transpose
    assert fm["b"].tolist() != [D[sp.index("b"), sp.index(a)] - D[base, sp.index(a)]
                                for a in sp.ids]


def test_norm_equals_rho_exactly():
    sp = random_integer_space(np.random.default_rng(7), n_max=25)
    fm = frechet_embed(sp)
    for pid in sp.ids:
        assert float(np.max(np.abs(fm[pid]))) == sp.dist(pid, sp.basepoint)


def test_exact_isometry_batch():
    rng = np.random.default_rng(2026)
    for _ in range(25):
        sp = random_integer_space(rng, n_max=30)
        fm = frechet_embed(sp)
        spec, images = as_images(fm)
        rep = distortion(sp, images, spec)
        assert rep.distortion == 1.0
        assert rep.scale_r == 1.0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_pairwise_sup_reproduces_distances(seed):
    sp = random_integer_space(np.random.default_rng(seed), n_max=12)
    fm = frechet_embed(sp)
    for u in sp.ids:
        for v in sp.ids:
            if u == v:
                continue
            assert float(np.max(np.abs(fm[u] - fm[v]))) == sp.dist(u, v)


def test_float_space_is_isometric_to_rounding(line):
    # coordinate subtraction rounds at ulp(diameter); the worst pair ratio
    # inflates that by 1 / (min distance)
    fm = frechet_embed(line)
    spec, images = as_images(fm)
    rep = distortion(line, images, spec)
    D = line.matrix
    off = D[np.triu_indices(len(line), 1)]
    allowance = 64.0 * np.finfo(float).eps * float(off.max()) / float(off.min())
    assert rep.distortion <= 1.0 + allowance
