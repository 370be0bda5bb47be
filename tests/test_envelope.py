"""The closed-form pair envelope that prunes the distortion scan.

For a pasted distance-vector map, ``metric._pair_bounds`` gives every pair
an interval that must hold the full scan's ratio, and ``distortion(...,
envelope=...)`` scans only the pairs whose interval can set the max or the
min, so its report must be the full scan's.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spiralpaste import (
    BlockVector,
    FddModel,
    PointedMetricSpace,
    distortion,
    frechet_embed,
    line_space,
    needed_bands,
    paste,
    radii_schedule,
    seam_check,
    tree_space,
)
from spiralpaste.fdd import _norm_a_aggregator
from spiralpaste.metric import _candidates, _pair_bounds
from spiralpaste.sumspace import _pair_distances, _power_fold

P_MENU = (1.0, 1.5, 2.0, 3.0, 10.0)


@st.composite
def scheduled_spaces(draw):
    """Points where the schedule acts, on radii up to about 1e300.

    Each point sits inside a blend window, inside a handover, or within 3
    ulps of a schedule radius R_k, in one dimension or two (then under the
    sup or the Euclidean norm), on either side of the basepoint 0.
    """
    eps = draw(st.floats(min_value=0.05, max_value=0.5))
    radii = radii_schedule(eps, needed_bands(eps, 1e300)).radii
    radii = radii[radii <= 1e300]
    reach = draw(st.integers(min_value=1, max_value=len(radii)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([1, 2]))
    kind = "linf" if dim == 1 else draw(st.sampled_from(["linf", "l2"]))
    points = {(0.0,) * dim}
    for _ in range(draw(st.integers(min_value=2, max_value=24))):
        k = int(rng.integers(reach))
        if rng.random() < 0.5 and k + 1 < len(radii):
            r = radii[k] * (radii[k + 1] / radii[k]) ** rng.uniform(0.0, 1.0)
        else:
            r = float(radii[k])
            for _ in range(abs(int(rng.integers(-3, 4)))):
                r = math.nextafter(r, math.inf if rng.random() < 0.5 else 0.0)
        r *= rng.choice([-1.0, 1.0])
        points.add((r,) if dim == 1 else (r, r * rng.uniform(-1.0, 1.0)))
    coords = np.array(sorted(points))
    ids = tuple(f"x{i:02d}" for i in range(len(coords)))
    base = ids[[tuple(c) for c in coords].index((0.0,) * dim)]
    return PointedMetricSpace(ids, base, kind, coords=coords), eps


@st.composite
def matrix_spaces(draw):
    """Integer sup metrics on a geometric ladder, and float tree metrics."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(min_value=3, max_value=30))
    if draw(st.booleans()):
        top = draw(st.sampled_from([1e3, 1e6, 1e9]))
        mags = np.exp(rng.uniform(0.0, math.log(top), size=(n, 2)))
        coords = np.unique(np.rint(mags * rng.choice([-1.0, 1.0], size=(n, 2))), axis=0)
        coords[0] = 0.0
        coords = np.unique(coords, axis=0)
        D = np.max(np.abs(coords[:, None, :] - coords[None, :, :]), axis=2)
        ids = tuple(f"q{i:02d}" for i in range(len(D)))
        base = ids[int(np.flatnonzero(~coords.any(axis=1))[0])]
        space = PointedMetricSpace(ids, base, "matrix", matrix=D)
    else:
        r_max = draw(st.sampled_from([1e3, 1e6, 1e9]))
        space = tree_space(n, r_max=r_max, seed=int(rng.integers(2**31)))
    return space, draw(st.floats(min_value=0.05, max_value=0.5))


any_space = st.one_of(scheduled_spaces(), matrix_spaces())


def _fold(emb, fdd):
    """The target spec and fold of a p-sum scan, or of fdd's two-norm scan."""
    if fdd:
        model = FddModel(emb.spec.block_dims)
        return model.spec, _norm_a_aggregator(model)
    return emb.spec, _power_fold(emb.spec.p)


def assert_envelope_holds(space, emb, fdd):
    """(a) every pair's scanned ratio lies in its interval; (b) the pruned report is the full one."""
    spec, fold = _fold(emb, fdd)
    n = len(space)
    I, J = np.triu_indices(n, 1)
    folded = fold(I.shape, _pair_distances([emb.images[pid] for pid in space.ids], I, J))
    ratios = []
    for f in folded if fdd else (folded,):
        ratio = np.full((n, n), np.nan)
        ratio[I, J] = f / space.matrix[I, J]
        ratios.append(ratio.reshape(-1))
    seen, ends = [], []
    for pairs, bounds in _pair_bounds(space, emb.envelope(), fold):
        real = pairs >= 0
        seen.append(pairs[real])
        ends.append([(lo[real], hi[real]) for lo, hi in bounds])
        for ratio, (lo, hi) in zip(ratios, bounds):
            got = ratio[pairs]
            out = real & ~((lo <= got) & (got <= hi))
            if out.any():
                x, y = divmod(int(pairs[out][0]), n)
                pytest.fail(f"pair {space.ids[x]}, {space.ids[y]}: ratio {got[out][0]!r} "
                            f"outside [{lo[out][0]!r}, {hi[out][0]!r}]")
    # every pair x < y is in exactly one slab
    seen = np.concatenate(seen)
    assert np.array_equal(np.sort(seen), I * n + J)
    # the candidates are the pairs whose interval reaches the largest lower
    # end or the smallest upper end of some norm
    reach = np.zeros(len(seen), dtype=bool)
    for k in range(len(ends[0])):
        lo = np.concatenate([slab[k][0] for slab in ends])
        hi = np.concatenate([slab[k][1] for slab in ends])
        reach |= ~(hi < np.max(lo)) | ~(lo > np.min(hi))
    x, y = _candidates(space, emb.envelope(), fold)
    assert np.array_equal(x * n + y, np.sort(seen[reach]))
    bound = (None, None) if fdd else None
    full = distortion(space, emb.images, spec, bound, aggregator=fold)
    assert distortion(space, emb.images, spec, bound, aggregator=fold,
                      envelope=emb.envelope()) == full


@pytest.mark.parametrize("p", P_MENU)
@settings(max_examples=40, deadline=None)
@given(case=any_space)
def test_envelope_holds_for_the_p_sum(p, case):
    space, eps = case
    assert_envelope_holds(space, paste(space, p, eps), fdd=False)


@settings(max_examples=40, deadline=None)
@given(case=any_space)
def test_envelope_holds_for_the_renormed_model(case):
    space, eps = case
    assert_envelope_holds(space, paste(space, 1.0, eps), fdd=True)


@pytest.mark.parametrize("p", P_MENU)
@settings(max_examples=40, deadline=None)
@given(case=scheduled_spaces())
def test_paste_holds_on_the_schedule(p, case):
    # blend windows, handovers and points within 3 ulps of a radius: the
    # seams stay exact and every image keeps its point's norm
    space, eps = case
    emb = paste(space, p, eps)
    assert seam_check(emb)[0] == 0.0
    assert emb.norm_preservation_error() <= 1e-9


@pytest.mark.parametrize("p, eps", [(2.0, 0.2), (1.0, 0.5), (3.0, 0.1)])
def test_envelope_on_the_tree(p, eps):
    space = tree_space(150)
    assert_envelope_holds(space, paste(space, p, eps), fdd=False)


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_envelope_of_a_matrix_within_tolerance(p):
    # an asymmetry and a diagonal the tolerance admits: the basepoint's
    # rho is negative, and the scan divides the pair x < y by D[x, y]
    tree = tree_space(40, r_max=1e6, seed=3)
    D = tree.matrix.copy()
    tol = tree.rel_tol()
    rng = np.random.default_rng(0)
    D += np.triu(rng.uniform(0.0, 0.4 * tol, D.shape), 1)
    np.fill_diagonal(D, -0.4 * tol)
    space = PointedMetricSpace(tree.ids, tree.basepoint, "matrix", matrix=D)
    assert space.rho()[0] < 0.0 and not np.array_equal(D, D.T)
    assert_envelope_holds(space, paste(space, p, 0.2), fdd=False)


@pytest.mark.parametrize("fdd", [False, True])
def test_envelope_in_scaled_units(fdd):
    # max D = 1.7e308 > 2^1000: centres and folds are taken in units of 2^24
    coords = np.array([[0.0], [1.0], [1e200], [1e300], [1.7e308]])
    space = PointedMetricSpace(tuple("oabcd"), "o", "linf", coords=coords)
    assert_envelope_holds(space, paste(space, 1.0 if fdd else 2.0, 0.5), fdd)


def test_scaled_provider_gets_no_envelope():
    # 1.5 times the distance vectors in one ball breaks the closed form
    space = line_space(40, r_max=1e6)
    calls = []

    def scaled(ball_space):
        fm = frechet_embed(ball_space)
        calls.append(len(ball_space))
        if len(calls) == 2:
            return {pid: 1.5 * fm[pid] for pid in ball_space.ids}
        return fm

    emb = paste(space, 2.0, 0.2, provider=scaled)
    assert len(calls) >= 2
    assert emb.envelope() is None
    assert paste(space, 2.0, 0.2).envelope() is not None


@pytest.mark.parametrize("p, eps, fdd", [(2.0, 0.2, False), (1.0, 0.5, False), (1.0, 0.2, True)])
def test_envelope_scan_peaks_no_higher_than_the_full_scan(p, eps, fdd):
    space = tree_space(300)
    n = len(space)
    emb = paste(space, p, eps)
    spec, fold = _fold(emb, fdd)
    bound = (None, None) if fdd else None
    envelope = emb.envelope()
    peaks = []
    for extra in ({}, {"envelope": envelope}):
        tracemalloc.start()
        try:
            distortion(space, emb.images, spec, bound, aggregator=fold, **extra)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the envelope pass holds one slab at a time and the scan only the kept
    # pairs; 64 KiB, a tenth of one (n, n) array, covers the interpreter's
    # own bookkeeping between two runs
    assert peaks[1] <= peaks[0] + 64 * 1024
    assert peaks[0] < 16 * n * n * 8


def test_envelope_scan_at_a_mass_tie_peaks_at_three_pair_matrices():
    # at (1, 0.5) thousands of pairs tie near ratio 1, so about half the
    # pairs stay candidates; the scan holds only those, not (n, n) arrays
    space = tree_space(300)
    n = len(space)
    emb = paste(space, 1.0, 0.5)
    envelope = emb.envelope()
    tracemalloc.start()
    try:
        distortion(space, emb.images, emb.spec, envelope=envelope)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * n * n * 8


def test_envelope_skips_a_last_group_of_one_point():
    # the farthest point alone has the last first block, so its slab holds no pair
    coords = np.array([[0.0], [1.0], [3.0], [1e300]])
    space = PointedMetricSpace(tuple("oabc"), "o", "linf", coords=coords)
    emb = paste(space, 2.0, 0.1)
    first = np.argmax(emb.envelope() > 0, axis=0)
    assert np.count_nonzero(first == first.max()) == 1
    slabs = list(_pair_bounds(space, emb.envelope(), _power_fold(2.0)))
    assert len(slabs) == len(np.unique(first)) - 1
    assert_envelope_holds(space, emb, fdd=False)
    assert_envelope_holds(space, paste(space, 1.0, 0.1), fdd=True)


def test_envelope_reads_the_images():
    # one ulp in one image block is no longer fl(w F̂): no envelope
    space = line_space(40, r_max=1e6)
    emb = paste(space, 2.0, 0.2)
    assert emb.envelope() is not None
    pid = space.ids[-1]
    blocks = {k: v.copy() for k, v in emb.images[pid].blocks.items()}
    first = next(iter(blocks.values()))
    first[0] = np.nextafter(first[0], np.inf)
    emb.images[pid] = BlockVector(emb.spec, blocks)
    assert emb.envelope() is None


@pytest.mark.parametrize("p, eps", [(2.0, 0.2), (1.0, 0.5)])
def test_paste_keeps_no_ball_maps(p, eps):
    # what paste leaves allocated is its images and W, not the ball maps
    space = tree_space(300)
    space.rho()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        emb = paste(space, p, eps)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    image_bytes = sum(a.nbytes for img in emb.images.values() for a in img.blocks.values())
    assert held <= 1.25 * image_bytes + emb.coefficients.nbytes
