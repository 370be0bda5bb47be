"""The closed-form pair envelope that prunes the distortion scan.

For a pasted distance-vector map, ``spiral._pair_bounds`` gives every pair
an interval that must hold the full scan's ratio, and ``distortion(...,
candidates=emb.candidates)`` scans only the pairs whose interval can set the
max or the min, so its report must be the full scan's.
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
    analytic_bound,
    distortion,
    embed_no_cotype,
    frechet_embed,
    line_space,
    needed_bands,
    paste,
    radii_schedule,
    seam_check,
    tree_space,
)
from spiralpaste.metric import TOL
from spiralpaste.spiral import _pair_bounds, _pair_centres
from spiralpaste.sumspace import _pair_distances

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
    """The target and its fold: the p-sum's, or fdd's two-norm model's."""
    target = FddModel(emb.spec.block_dims) if fdd else emb.spec
    return target, target.fold


def assert_envelope_holds(space, emb, fdd):
    """(a) every pair's scanned ratio lies in its interval; (b) the pruned report is the full one."""
    target, fold = _fold(emb, fdd)
    n = len(space)
    I, J = np.triu_indices(n, 1)
    folded = fold(I.shape, _pair_distances([emb.images[pid] for pid in space.ids], I, J))
    ratios = []
    for f in folded:
        ratio = np.full((n, n), np.nan)
        ratio[I, J] = f / space.matrix[I, J]
        ratios.append(ratio.reshape(-1))
    chunks, ends = [], []
    for x, y, bounds in _pair_bounds(space, emb.envelope(), fold):
        keys = x * n + y
        chunks.append(keys)
        ends.append(bounds)
        for ratio, (lo, hi) in zip(ratios, bounds):
            got = ratio[keys]
            out = ~((lo <= got) & (got <= hi))
            if out.any():
                x, y = divmod(int(keys[out][0]), n)
                pytest.fail(f"pair {space.ids[x]}, {space.ids[y]}: ratio {got[out][0]!r} "
                            f"outside [{lo[out][0]!r}, {hi[out][0]!r}]")
    # the chunks hold every pair x < y once, in row-major order
    keys = np.concatenate(chunks)
    assert np.array_equal(keys, I * n + J)
    # the candidates are the pairs whose interval reaches the largest lower
    # end or the smallest upper end of some norm
    reach = np.zeros(len(keys), dtype=bool)
    for k in range(len(ends[0])):
        lo = np.concatenate([chunk[k][0] for chunk in ends])
        hi = np.concatenate([chunk[k][1] for chunk in ends])
        reach |= ~(hi < np.max(lo)) | ~(lo > np.min(hi))
    x, y = emb.candidates(fold)
    assert np.array_equal(x * n + y, keys[reach])
    bound = (None, None) if fdd else None
    full = distortion(space, emb.images, target, bound)
    assert distortion(space, emb.images, target, bound, candidates=emb.candidates) == full


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
    tol = TOL * max(1.0, float(np.max(tree.matrix)))
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
    # so its candidates are every pair, in row-major order
    I, J = emb.candidates(emb.spec.fold)
    assert all(map(np.array_equal, (I, J), np.triu_indices(len(space), 1)))
    assert paste(space, 2.0, 0.2).envelope() is not None


@pytest.mark.parametrize("p, eps, fdd", [(2.0, 0.2, False), (1.0, 0.5, False), (1.0, 0.2, True)])
def test_envelope_scan_peaks_no_higher_than_the_full_scan(p, eps, fdd):
    space = tree_space(300)
    n = len(space)
    emb = paste(space, p, eps)
    target, _ = _fold(emb, fdd)
    bound = (None, None) if fdd else None
    peaks = []
    for extra in ({}, {"candidates": emb.candidates}):
        tracemalloc.start()
        try:
            distortion(space, emb.images, target, bound, **extra)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the envelope pass holds one chunk of pairs at a time and the scan
    # only the kept pairs; 64 KiB, a tenth of one (n, n) array, covers the
    # interpreter's own bookkeeping between two runs
    assert peaks[1] <= peaks[0] + 64 * 1024
    assert peaks[0] < 16 * n * n * 8


def test_envelope_scan_at_a_mass_tie_peaks_at_three_pair_matrices():
    # at (1, 0.5) thousands of pairs tie near ratio 1, so about half the
    # pairs stay candidates; the scan holds only those, not (n, n) arrays
    space = tree_space(300)
    n = len(space)
    emb = paste(space, 1.0, 0.5)
    tracemalloc.start()
    try:
        distortion(space, emb.images, emb.spec, candidates=emb.candidates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * n * n * 8


@pytest.mark.parametrize("p, fdd", [(3.0, False), (1.0, True)], ids=["embed", "fdd"])
def test_envelope_scan_on_a_600_point_tree_peaks_at_two_pair_matrices(p, fdd):
    # at eps = 0.1 three points in four share their first block; the pass
    # holds one chunk of pairs at a time, whatever the points' blocks
    space = tree_space(600, seed=1)
    n = len(space)
    emb = paste(space, p, 0.1)
    target, _ = _fold(emb, fdd)
    bound = (None, None) if fdd else None
    tracemalloc.start()
    try:
        distortion(space, emb.images, target, bound, candidates=emb.candidates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n * n * 8


def far_space():
    """Four points on a line, the farthest 1e300 away."""
    coords = np.array([[0.0], [1.0], [3.0], [1e300]])
    return PointedMetricSpace(tuple("oabc"), "o", "linf", coords=coords)


def test_envelope_with_a_lone_farthest_point():
    # the farthest point alone has the last first block
    space = far_space()
    emb = paste(space, 2.0, 0.1)
    first = np.argmax(emb.envelope() > 0, axis=0)
    assert np.count_nonzero(first == first.max()) == 1
    assert_envelope_holds(space, emb, fdd=False)
    assert_envelope_holds(space, paste(space, 1.0, 0.1), fdd=True)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("eps", [0.5, 0.1])
@pytest.mark.parametrize("make", [lambda: tree_space(150), lambda: line_space(64), far_space],
                         ids=["tree", "line", "far"])
def test_every_block_centre_is_within_its_width(make, eps, p):
    # _pair_bounds' per-block claim, before any fold: |K̂_b - C_b| <= 6.5u
    # (w_x rho_x + w_y rho_y) + max(w_x, w_y) delta (1 + 2^-40) + 2^-1072;
    # max D < 2^1000 here, so the pass's unit is 1
    space = make()
    emb = paste(space, p, eps)
    W, n, u = emb.envelope(), len(space), 2.0**-53
    assert W is not None and np.max(space.matrix) < 2.0**1000
    I, J = np.triu_indices(n, 1)
    rho = np.maximum(space.rho(), 0.0)
    centres = {b: C.copy() for b, C in _pair_centres(W, I, J, space.matrix[I, J], rho)}
    images = [emb.images[pid] for pid in space.ids]
    distances = {b: d.copy() for b, d in _pair_distances(images, I, J)}
    for b, w in enumerate(W, 1):
        width = (6.5 * u * (w[I] * rho[I] + w[J] * rho[J])
                 + np.maximum(w[I], w[J]) * space._defect * (1.0 + 2.0**-40) + 2.0**-1072)
        gap = np.abs(distances.get(b, 0.0) - centres.get(b, 0.0))
        out = np.flatnonzero(~(gap <= width))
        if out.size:
            x, y = space.ids[I[out[0]]], space.ids[J[out[0]]]
            pytest.fail(f"block {b}, pair {x}, {y}: gap {gap[out[0]]!r} > width {width[out[0]]!r}")


def test_envelope_in_row_order_not_id_order():
    # ids descending in construction order: each ball's anchors are its rows, in row order
    tree = tree_space(120, seed=3)
    ids = tuple(f"p{i}" for i in reversed(range(len(tree))))
    space = PointedMetricSpace(ids, ids[0], "matrix", matrix=tree.matrix)
    emb = paste(space, 2.0, 0.2)
    assert emb.envelope() is emb.coefficients
    assert_envelope_holds(space, emb, False)


def test_envelope_reads_the_images():
    # one ulp in one image block is no longer fl(w F̂), and a dropped block or
    # an added block of zeros leaves the images more or fewer blocks than W
    # has nonzeros: no envelope
    space = line_space(40, r_max=1e6)
    pid = space.ids[-1]
    for change in ("ulp", "drop", "zeros"):
        emb = paste(space, 2.0, 0.2)
        assert emb.envelope() is not None
        blocks = {k: v.copy() for k, v in emb.images[pid].blocks.items()}
        first = next(iter(blocks))
        if change == "ulp":
            blocks[first][0] = np.nextafter(blocks[first][0], np.inf)
        elif change == "drop":
            del blocks[first]
        else:
            free = min(set(range(1, emb.spec.num_blocks + 1)) - set(blocks))
            blocks[free] = np.zeros(emb.spec.block_dims[free - 1])
        emb.images[pid] = BlockVector(emb.spec, blocks)
        assert emb.envelope() is None, change
        # so its candidates are every pair, in row-major order, and the report is the full scan's
        I, J = emb.candidates(emb.spec.fold)
        assert all(map(np.array_equal, (I, J), np.triu_indices(len(space), 1)))
        full = distortion(space, emb.images, emb.spec)
        assert distortion(space, emb.images, emb.spec, candidates=emb.candidates) == full


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


def _pair_ratio(space, emb, target, pair, k):
    """The ratio of one pair, read through a one-pair ``candidates=``; k picks a tuple fold's report."""
    i, j = sorted(map(space.index, pair))
    rep = distortion(space, emb.images, target, candidates=lambda fold: (np.array([i]), np.array([j])))
    return (rep[k] if isinstance(rep, tuple) else rep).scale_r


@pytest.mark.parametrize("seed", range(6))
def test_verdicts_do_not_depend_on_the_row_order(seed):
    # Only the reported pair may change, where two pairs tie at the max or the
    # min (seen at p = 1 only); the new pair then has exactly the old one's ratio.
    space = tree_space(120, seed=seed)
    perm = np.random.default_rng(seed).permutation(len(space))
    shuffled = PointedMetricSpace(tuple(space.ids[i] for i in perm), space.basepoint, "matrix",
                                  matrix=space.matrix[np.ix_(perm, perm)])
    verdicts = []  # (report, pasted map, target, report index) on the space, then shuffled
    for p, eps in [(2.0, 0.2), (1.0, 0.5), (3.0, 0.1), (1.5, 0.3), (1.0, 0.1)]:
        pair = []
        for sp in (space, shuffled):
            emb = paste(sp, p, eps)
            rep = distortion(sp, emb.images, emb.spec, analytic_bound(p, eps), candidates=emb.candidates)
            pair.append((rep, emb, emb.spec, 0))
        verdicts.append(pair)
        a, b = (rep for rep, *_ in pair)
        assert (a.distortion, a.scale_r, a.analytic_bound) == (b.distortion, b.scale_r, b.analytic_bound)
    for eps in (0.2, 0.1):
        a, b = embed_no_cotype(space, eps), embed_no_cotype(shuffled, eps)
        assert (a.report_a.distortion, a.report_ambient.distortion) == (
            b.report_a.distortion, b.report_ambient.distortion)
        for k, name in enumerate(("report_a", "report_ambient")):
            verdicts.append([(getattr(r, name), r.embedding, r.model, k) for r in (a, b)])
    for (rep, emb, target, k), (rep2, emb2, target2, _) in verdicts:
        for old, new in ((rep.max_pair, rep2.max_pair), (rep.min_pair, rep2.min_pair)):
            if set(old) != set(new):
                assert _pair_ratio(shuffled, emb2, target2, new, k) == _pair_ratio(space, emb, target, old, k)
