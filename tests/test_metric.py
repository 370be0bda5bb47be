"""Pointed spaces, the brute-force distortion scan, and JSON interchange."""

import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spiralpaste import (
    BlockVector,
    FddModel,
    PointedMetricSpace,
    SchemaError,
    SumSpaceSpec,
    SUP,
    ambient_norm,
    ball,
    distortion,
    line_space,
    load_space,
    norm_a,
    packing_bound,
    paste,
    space_to_doc,
    tree_space,
)
from spiralpaste.fdd import _ambient_aggregator, _norm_a_aggregator
from spiralpaste.sumspace import norm as sum_norm

SPEC = SumSpaceSpec(SUP, (2,))


def tri_space():
    ids = ("a", "b", "c")
    D = np.array([[0, 3, 5], [3, 0, 4], [5, 4, 0]], dtype=float)
    return PointedMetricSpace(ids=ids, basepoint="a", kind="matrix", matrix=D)


def triangle_loop_accepts(D):
    """Reference triangle check: one (n, n) comparison per middle point y."""
    tol = 1e-9 * max(1.0, float(np.max(D)))
    for y in range(len(D)):
        if np.any(D > D[:, y : y + 1] + D[y : y + 1, :] + tol):
            return False
    return True


@st.composite
def perturbed_metrics(draw):
    """A sup metric or tree metric with one symmetric pair moved by delta.

    delta is 0, +-tol/2 (within tolerance), +-2 tol (just beyond it) or
    +-0.1 diameter; sup metrics on integer coordinates and path metrics
    on trees have many triangles that hold with equality.
    """
    n = draw(st.integers(min_value=3, max_value=9))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        rng = np.random.default_rng(seed)
        coords = rng.integers(0, 12, size=(n, draw(st.integers(1, 3)))).astype(float)
        coords = np.unique(coords, axis=0)
        assume(len(coords) >= 3)
        sp = PointedMetricSpace(ids=tuple(range(len(coords))), basepoint=0, kind="linf",
                                coords=coords)
    else:
        sp = tree_space(n, r_max=draw(st.sampled_from([10.0, 1e3, 1e9])), seed=seed)
    D = sp.distance_matrix().copy()
    n = len(D)
    i = draw(st.integers(0, n - 2))
    j = draw(st.integers(i + 1, n - 1))
    diam = float(D.max())
    tol = 1e-9 * max(1.0, diam)
    delta = draw(st.sampled_from([0.0, 0.5 * tol, 2.0 * tol, 0.1 * diam]))
    delta *= draw(st.sampled_from([1.0, -1.0]))
    assume(D[i, j] + delta > 0.0)
    D[i, j] = D[j, i] = D[i, j] + delta
    return D, tuple(f"p{k}" for k in range(n))


class TestValidation:
    def test_duplicate_ids(self):
        with pytest.raises(ValueError):
            PointedMetricSpace(ids=("a", "a"), basepoint="a", kind="linf",
                               coords=np.array([[0.0], [1.0]]))

    def test_missing_basepoint(self):
        with pytest.raises(ValueError):
            PointedMetricSpace(ids=("a", "b"), basepoint="z", kind="linf",
                               coords=np.array([[0.0], [1.0]]))

    def test_asymmetric_matrix(self):
        D = np.array([[0, 1], [2, 0]], dtype=float)
        with pytest.raises(ValueError):
            PointedMetricSpace(ids=("a", "b"), basepoint="a", kind="matrix", matrix=D)

    def test_triangle_violation(self):
        D = np.array([[0, 1, 10], [1, 0, 1], [10, 1, 0]], dtype=float)
        with pytest.raises(ValueError, match="through point 'b'"):
            PointedMetricSpace(ids=("a", "b", "c"), basepoint="a", kind="matrix", matrix=D)

    def test_zero_off_diagonal(self):
        D = np.array([[0, 0], [0, 0]], dtype=float)
        with pytest.raises(ValueError):
            PointedMetricSpace(ids=("a", "b"), basepoint="a", kind="matrix", matrix=D)

    def test_duplicate_coordinates(self):
        with pytest.raises(ValueError):
            PointedMetricSpace(ids=("a", "b"), basepoint="a", kind="linf",
                               coords=np.array([[1.0], [1.0]]))

    @settings(max_examples=200, deadline=None)
    @given(case=perturbed_metrics())
    def test_triangle_check_matches_the_loop(self, case):
        D, ids = case
        try:
            PointedMetricSpace(ids=ids, basepoint=ids[0], kind="matrix", matrix=D)
        except ValueError as exc:
            assert "triangle" in str(exc)
            assert not triangle_loop_accepts(D)
            middle = ids.index(str(exc).split("through point ")[1].strip("'"))
            tol = 1e-9 * max(1.0, float(D.max()))
            assert np.any(D > D[:, middle, None] + D[None, middle, :] + tol)
        else:
            assert triangle_loop_accepts(D)

    def test_tolerance_scales_with_diameter(self):
        # absolute 1e-9 asymmetry is far below double resolution at 1e9
        D = np.array([[0.0, 1e9], [1e9 + 1e-7, 0.0]])
        sp = PointedMetricSpace(ids=("a", "b"), basepoint="a", kind="matrix", matrix=D)
        assert sp.dist("a", "b") > 0


class TestBasics:
    def test_dist_and_rho(self):
        sp = tri_space()
        assert sp.dist("b", "c") == 4.0
        assert np.array_equal(sp.rho(), [0.0, 3.0, 5.0])

    def test_linf_matches_manual(self):
        coords = np.array([[0.0, 0.0], [3.0, -1.0], [1.0, 5.0]])
        sp = PointedMetricSpace(ids=("o", "u", "v"), basepoint="o", kind="linf", coords=coords)
        assert sp.dist("u", "v") == 6.0

    def test_l2_distances_beyond_squared_range(self):
        # the squares of these distances overflow a double, the distances do not
        line = load_space({"basepoint": "o", "metric": "l2", "points": [
            {"id": "o", "coords": [0.0]},
            {"id": "a", "coords": [1.0]},
            {"id": "b", "coords": [1e160]},
        ]})
        assert line.dist("o", "a") == 1.0
        assert line.dist("o", "b") == line.dist("a", "b") == 1e160
        plane = PointedMetricSpace(ids=("o", "c"), basepoint="o", kind="l2",
                                   coords=np.array([[0.0, 0.0], [3e200, 4e200]]))
        assert plane.dist("o", "c") == pytest.approx(5e200, rel=1e-15)

    def test_l2_matches_manual(self):
        coords = np.array([[0.0, 0.0], [3.0, 4.0]])
        sp = PointedMetricSpace(ids=("o", "u"), basepoint="o", kind="l2", coords=coords)
        assert sp.dist("o", "u") == 5.0

    def test_every_read_uses_the_one_matrix(self):
        # at 8 or more coordinates numpy's pairwise sum rounds differently
        # from the kernel's in-order sum, so a second l2 formula would show
        coords = np.random.default_rng(0).uniform(size=(200, 12))
        sp = PointedMetricSpace(ids=tuple(range(200)), basepoint=0, kind="l2", coords=coords)
        tol = sp.rel_tol()
        dists = [[sp.dist(u, v) for v in range(60)] for u in range(60)]
        D = sp.distance_matrix()
        assert np.array_equal(dists, D[:60, :60])
        assert sp.rel_tol() == tol == 1e-9 * max(1.0, float(D.max()))

    def test_ball_membership(self):
        sp = tri_space()
        assert set(ball(sp, 3.0).ids) == {"a", "b"}
        assert set(ball(sp, 5.0).ids) == {"a", "b", "c"}

    @given(st.floats(min_value=0.0, max_value=6.0), st.floats(min_value=0.0, max_value=6.0))
    def test_ball_monotone(self, r1, r2):
        sp = tri_space()
        lo, hi = sorted((r1, r2))
        assert set(ball(sp, lo).ids) <= set(ball(sp, hi).ids)


class TestDistortion:
    def test_hand_oracle(self):
        sp = tri_space()
        images = {
            "a": BlockVector(SPEC, {1: np.array([0.0, 0.0])}),
            "b": BlockVector(SPEC, {1: np.array([3.0, 0.0])}),
            "c": BlockVector(SPEC, {1: np.array([5.0, 2.0])}),
        }
        rep = distortion(sp, images, SPEC)
        assert rep.distortion == 2.0
        assert rep.scale_r == 0.5
        assert rep.max_pair == ("a", "b")
        assert rep.min_pair == ("b", "c")

    def test_exact_isometry_is_one(self):
        coords = np.array([[0.0, 0.0], [2.0, 1.0], [-3.0, 5.0], [7.0, -2.0]])
        sp = PointedMetricSpace(ids=("o", "u", "v", "w"), basepoint="o", kind="linf",
                                coords=coords)
        images = {pid: BlockVector(SPEC, {1: coords[i]}) for i, pid in enumerate(sp.ids)}
        rep = distortion(sp, images, SPEC)
        assert rep.distortion == 1.0 and rep.scale_r == 1.0

    def test_pure_scaling_keeps_distortion_one(self):
        coords = np.array([[0.0, 0.0], [2.0, 1.0], [-3.0, 5.0]])
        sp = PointedMetricSpace(ids=("o", "u", "v"), basepoint="o", kind="linf", coords=coords)
        images = {pid: BlockVector(SPEC, {1: 4.0 * coords[i]}) for i, pid in enumerate(sp.ids)}
        rep = distortion(sp, images, SPEC)
        assert rep.distortion == 1.0 and rep.scale_r == 4.0

    def test_non_injective_map_is_flagged(self):
        sp = tri_space()
        zero = BlockVector(SPEC, {})
        rep = distortion(sp, {pid: zero for pid in sp.ids}, SPEC)
        assert math.isinf(rep.distortion) and not rep.passed

    def test_bound_verdict(self):
        sp = tri_space()
        images = {
            "a": BlockVector(SPEC, {1: np.array([0.0, 0.0])}),
            "b": BlockVector(SPEC, {1: np.array([3.0, 0.0])}),
            "c": BlockVector(SPEC, {1: np.array([5.0, 2.0])}),
        }
        assert distortion(sp, images, SPEC, analytic_bound=2.5).passed
        assert not distortion(sp, images, SPEC, analytic_bound=1.5).passed

    def test_layout_mismatch_rejected(self):
        sp = tri_space()
        other = SumSpaceSpec(SUP, (3,))
        images = {pid: BlockVector(other, {1: np.zeros(3)}) for pid in sp.ids}
        with pytest.raises(ValueError):
            distortion(sp, images, SPEC)

    def test_single_point_rejected(self):
        sp = PointedMetricSpace(ids=("a",), basepoint="a", kind="linf",
                                coords=np.array([[0.0]]))
        with pytest.raises(ValueError):
            distortion(sp, {"a": BlockVector(SPEC, {})}, SPEC)

    def test_scan_memory_is_a_few_pair_matrices(self):
        # guards against (chunk, n, dim) or (blocks, n, n) temporaries
        sp = tree_space(300)
        emb = paste(sp, 2.0, 0.2)
        n = len(sp)
        tracemalloc.start()
        try:
            distortion(sp, emb.images, emb.spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * n * n * 8


# Sparse block images for the pair-by-pair scan check: each point touches
# a random subset of the blocks (possibly none), the last block is never
# touched, and a scale near 1e300 exercises the rescaled streaming sum.
@st.composite
def sparse_images(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))) + (2,)
    scale = draw(st.sampled_from([1.0, 1e300]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    coords = rng.permutation(n)[:, None] * 1.0 + rng.uniform(0.0, 0.5, size=(n, 2))
    blocks = []
    for _ in range(n):
        touched = [b for b in range(1, len(dims)) if rng.random() < 0.5]
        blocks.append({b: scale * rng.uniform(-1.0, 1.0, size=dims[b - 1]) for b in touched})
    ids = tuple(f"x{i}" for i in range(n))
    sp = PointedMetricSpace(ids=ids, basepoint=ids[0], kind="linf", coords=coords)
    eps_list = tuple(rng.uniform(0.0, 0.3, size=len(dims)))
    return sp, dims, blocks, eps_list


def _brute_ratios(sp, images, target_norm):
    ratios = [
        target_norm(images[u] - images[v]) / sp.dist(u, v)
        for i, u in enumerate(sp.ids)
        for v in sp.ids[i + 1:]
    ]
    return max(ratios), min(ratios)


@pytest.mark.parametrize("target", [1.0, 1.5, 2.0, 3.0, SUP, "norm_a", "ambient"])
@settings(max_examples=60, deadline=None)
@given(case=sparse_images())
def test_scan_matches_reference_norms_pair_by_pair(target, case):
    sp, dims, blocks, eps_list = case
    if isinstance(target, str):
        model = FddModel(dims, eps_list)
        spec = model.spec
        if target == "norm_a":
            ref_norm, fold = (lambda v: norm_a(model, v)), _norm_a_aggregator(model)
        else:
            ref_norm, fold = (lambda v: ambient_norm(model, v)), _ambient_aggregator(model)
    else:
        spec, fold = SumSpaceSpec(target, dims), None
        ref_norm = sum_norm
    images = {pid: BlockVector(spec, blocks[i]) for i, pid in enumerate(sp.ids)}
    rep = distortion(sp, images, spec, aggregator=fold)
    hi, lo = _brute_ratios(sp, images, ref_norm)
    if lo == 0.0:
        assert rep.scale_r == 0.0 and math.isinf(rep.distortion)
    else:
        assert rep.scale_r == pytest.approx(lo, rel=1e-12)
        assert rep.distortion == pytest.approx(hi / lo, rel=1e-12)


class TestSeparatedSets:
    def test_packing_bound_oracle(self):
        assert packing_bound(9.0, 3.0, 2, 4.0) == 144.0
        with pytest.raises(ValueError):
            packing_bound(-1.0, 1.0, 1, 4.0)


class TestInterchange:
    def test_round_trip_all_kinds(self, line, tree):
        # r_max = 1e30 pins the coordinate kinds' acceptance rule: its
        # smallest gaps are far below 64 ulp of the diameter
        for sp in (tri_space(), line, tree, line_space(64, r_max=1e30)):
            again = load_space(space_to_doc(sp))
            assert again.ids == sp.ids
            assert again.basepoint == sp.basepoint
            assert np.allclose(again.distance_matrix(), sp.distance_matrix())

    def test_schema_errors(self):
        with pytest.raises(SchemaError):
            load_space([])
        with pytest.raises(SchemaError):
            load_space({"metric": "linf", "points": [{"id": "a", "coords": [0.0]}]})
        with pytest.raises(SchemaError):
            load_space({"basepoint": "a", "metric": "taxicab",
                        "points": [{"id": "a", "coords": [0.0]}]})

    @pytest.mark.parametrize("kind", ["linf", "l2"])
    def test_distance_matrix_independent_of_threads(self, monkeypatch, kind):
        # 150 rows make three row chunks, so two workers really split them
        coords = np.random.default_rng(3).normal(size=(150, 5))
        ids = tuple(f"x{i}" for i in range(150))
        mats = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            sp = PointedMetricSpace(ids=ids, basepoint="x0", kind=kind, coords=coords)
            mats.append(sp.distance_matrix())
        assert np.array_equal(mats[0], mats[1])
        diff = coords[:, None, :] - coords[None, :, :]
        if kind == "linf":
            assert np.array_equal(mats[0], np.max(np.abs(diff), axis=2))
        else:
            assert np.allclose(mats[0], np.sqrt(np.sum(diff**2, axis=2)), rtol=1e-14, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_random_integer_space_is_valid(seed):
    from conftest import random_integer_space

    sp = random_integer_space(np.random.default_rng(seed), n_max=12)
    D = sp.distance_matrix()
    assert np.array_equal(D, D.T)
    assert float(D.max()) == float(int(D.max()))  # distances are whole numbers
