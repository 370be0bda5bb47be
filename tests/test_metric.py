"""Pointed spaces, the brute-force distortion scan, and JSON interchange."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from spiralpaste import (
    BlockVector,
    FddModel,
    PointedMetricSpace,
    SchemaError,
    SumSpaceSpec,
    SUP,
    ball,
    distortion,
    line_space,
    load_map,
    load_space,
    packing_bound,
    paste,
    space_to_doc,
    tree_space,
)
from spiralpaste import metric

from .conftest import MAP_SCHEMA_ERRORS, SPACE_SCHEMA_ERRORS
from .norms import ambient_norm, combine, norm_a, sum_norm

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


def oracle_verdict(D, ids):
    """The matrix checks as one full sup_pairwise(D): the message, or None to accept.

    Asymmetry, then the diagonal, then positivity, then the first pair in
    row-major order with S > D + tol; the message names the middle point of
    that pair's worst third point, or, when that point is one of the pair,
    the asymmetry and self-distances.
    """
    n = len(D)
    top = float(np.max(D))
    tol = 1e-9 * max(1.0, top)
    if float(np.max(np.abs(D - D.T))) > tol:
        return "distance matrix asymmetry exceeds tolerance"
    if float(np.max(np.abs(np.diag(D)))) > tol:
        return "self-distances must vanish"
    off = D + np.diag(np.full(n, np.inf))
    if float(np.min(off)) <= 64.0 * np.finfo(float).eps * max(1.0, top):
        return "distinct points must be at positive distance"
    pair = oracle_pair(D)
    if pair is None:
        return None
    x, z = pair
    k = int(np.argmax(np.abs(D[x] - D[z])))
    if k in pair:
        return "distance matrix asymmetry and self-distances together exceed tolerance"
    middle = z if D[x, k] > D[z, k] else x
    return f"triangle inequality fails through point {ids[middle]!r}"


def oracle_pair(D):
    """The first entry in row-major order where S = sup_pairwise(D) exceeds fl(D + tol), or None."""
    tol = 1e-9 * max(1.0, float(np.max(D)))
    broken = np.flatnonzero(metric.sup_pairwise(D) > D + tol)
    return divmod(int(broken[0]), len(D)) if broken.size else None


def verdict(D, ids):
    try:
        PointedMetricSpace(ids=ids, basepoint=ids[0], kind="matrix", matrix=D)
    except ValueError as exc:
        return str(exc)
    return None


def spy_on_the_row_loop(monkeypatch):
    """Record (x0, first failing pair) for each call of the matrix check's row loop.

    The loop asks the predicate it is given once per proof row, from row 0
    on, until the predicate first fails; x0 is that row, or None when every
    row was proven.
    """
    calls = []
    row_loop = metric._triangle_rows

    def spy(D, tol, proven):
        answers = []

        def watched(e):
            answers.append(proven(e))
            return answers[-1]

        worst, pair = row_loop(D, tol, watched)
        calls.append((answers.index(False) if False in answers else None, pair))
        return worst, pair

    monkeypatch.setattr(metric, "_triangle_rows", spy)
    return calls


def proof_excess(D):
    """The proof rows' largest excess, one row at a time: fl(|D[z, k] - D[x, k]|) - D[x, z] over z, k > x."""
    e = -math.inf
    for x in range(len(D) - 1):
        far = np.abs(D[x + 1 :, x + 1 :] - D[x, x + 1 :])
        e = max(e, float(np.max(far.max(axis=1) - D[x, x + 1 :])))
    return e


def defect_formula(D):
    """delta = (max(e+ + 2^-53 (top + g) + 2^-1074 + 3a, a + g) + a + g)(1 + 2^-40), as computed."""
    a = float(np.max(np.abs(D - D.T)))
    g = float(np.max(np.abs(np.diag(D))))
    rounding = 2.0**-53 * (float(np.max(D)) + g) + 2.0**-1074
    bound = max(max(proof_excess(D), 0.0) + rounding + 3.0 * a, a + g)
    return (bound + a + g) * (1.0 + 2.0**-40)


def exact_defect(D):
    """t + a + g over every (x, y, k), in exact rational arithmetic."""
    F = [[Fraction(float(v)) for v in row] for row in D]
    n = len(F)
    t = max(abs(F[k][x] - F[k][y]) - F[x][y] for x in range(n) for y in range(n) for k in range(n))
    a = max(abs(F[i][j] - F[j][i]) for i in range(n) for j in range(n))
    g = max(abs(F[i][i]) for i in range(n))
    return t + a + g


def _ulps(x, k):
    """x moved by k ulps (toward +inf for k > 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


@st.composite
def perturbed_metrics(draw, near=False):
    """A sup metric or tree metric with one symmetric pair moved by delta.

    delta is 0, +-tol/2 (within tolerance), +-2 tol (just beyond it) or
    +-0.1 diameter; sup metrics on integer coordinates and path metrics
    on trees have many triangles that hold with equality.  With ``near``,
    a case may instead move the pair by +-tol and then 1-4 ulps either
    way, on top of which one entry may move alone by 0.1 to 0.9 tol (an
    asymmetry within tolerance) or one self-distance go down to -0.9 tol,
    with tol read from the matrix after its pair moved.
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
    D = sp.matrix.copy()
    n = len(D)
    i = draw(st.integers(0, n - 2))
    j = draw(st.integers(i + 1, n - 1))
    diam = float(D.max())
    tol = 1e-9 * max(1.0, diam)
    sign = draw(st.sampled_from([1.0, -1.0]))
    if near and draw(st.booleans()):
        moved = _ulps(D[i, j] + sign * tol, draw(st.integers(-4, 4)))
    else:
        moved = D[i, j] + sign * draw(st.sampled_from([0.0, 0.5 * tol, 2.0 * tol, 0.1 * diam]))
    assume(moved > 0.0)
    D[i, j] = D[j, i] = moved
    # the move may lower the diameter: the skews are within the moved matrix's tolerance
    tol = 1e-9 * max(1.0, float(D.max()))
    skew = draw(st.sampled_from(["none", "pair", "diagonal"])) if near else "none"
    if skew == "pair":
        D[j, i] += draw(st.sampled_from([-0.9, -0.5, -0.1, 0.1, 0.5, 0.9])) * tol
    elif skew == "diagonal":
        D[i, i] = -draw(st.sampled_from([0.5, 0.9])) * tol
    return D, tuple(f"p{k}" for k in range(n))


def _line3(far):
    """Points 0, 1 and ``far`` on a line, with d(0, far) read as ``far``."""
    return np.array([[0.0, 1.0, far], [1.0, 0.0, far - 1.0], [far, far - 1.0, 0.0]])


def _late_first_pair():
    """Four points on a line whose first failing entry is found after a later one.

    d(b, d) is 2 tol too long, so (b, c) and (c, d) fail.  An asymmetry
    of 0.6 tol at (a, d) and a self-distance of -0.5 tol at d, each within
    tolerance, make (d, a) fail too, and row a finds it first.
    """
    D = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
    tol = 3e-9
    D[1, 3] = D[3, 1] = 2.0 + 2.0 * tol
    D[3, 0] = 3.0 - 0.6 * tol
    D[3, 3] = -0.5 * tol
    return D


def _near_cases():
    """(name, D, oracle verdict) for inputs within a few ulps of the tolerance."""
    cases = []
    tol = 1e-9 * 2.0
    for k in (-4, -1, 0, 1, 4):
        # d(0, 2) = fl(2 + tol) + k ulp breaks 0 -> 1 -> 2 by about tol;
        # the verdict turns between -1 ulp and fl(2 + tol)
        D = _line3(2.0)
        D[0, 2] = D[2, 0] = _ulps(2.0 + tol, k)
        cases.append((f"line{k:+d}ulp", D, None if k < 0 else "triangle inequality fails through point 'b'"))
    # an asymmetry and a self-distance each within tolerance, whose sum is
    # not: S reads |D[a, a] - D[b, a]| against D[a, b], and two points
    # have no triangle
    D = np.array([[-0.9e-9, 1.0], [1.0 + 0.9e-9, 0.0]])
    cases.append(("skewed-pair", D,
                  "distance matrix asymmetry and self-distances together exceed tolerance"))
    D = np.array([[-0.4e-9, 1.0], [1.0 + 0.4e-9, 0.0]])
    cases.append(("skewed-pair-within", D, None))
    cases.append(("late-first-pair", _late_first_pair(), "triangle inequality fails through point 'c'"))
    return cases


NEAR_THRESHOLD = _near_cases()


def _two_lines():
    """40 points under the sup metric: 0-19 on a far vertical line, 20-39 on the x axis.

    A triangle through a pair of x-axis points and a point of the far line
    is slack by at least 1, and the x-axis points form a line, so a pair
    (20, z) moved by about tol is first seen by proof row 20.
    """
    C = np.array([(0.0, 100.0 + i) for i in range(20)] + [(float(i), 0.0) for i in range(20)])
    return metric.sup_pairwise(C)


def _below_diagonal():
    """``_two_lines`` with S[20, 30] = 10 passing against d(20, 30) = 10 - 0.85 tol.

    It fails against d(30, 20) = 10 - 1.15 tol, so the first failing entry
    lies below the diagonal; the asymmetry of 0.3 tol leaves rows 0-19 proven.
    """
    tol = 1e-9 * 119.0
    D = _two_lines()
    D[20, 30], D[30, 20] = 10.0 - 0.85 * tol, 10.0 - 1.15 * tol
    return D


def _mid_cases():
    """(name, D, x0, first failing pair) for inputs whose exact tail starts at row x0."""
    tol = 1e-9 * 119.0
    cases = []
    for k in (-4, -1, 1, 4):
        # d(20, 30) = fl(10 + tol) + k ulp breaks 20 -> 21 -> 30 by about tol,
        # and fl(10 - tol) - k ulp breaks 20 -> 30 -> 31
        for name, sign, broken in (("long", 1.0, (20, 21)), ("short", -1.0, (20, 30))):
            D = _two_lines()
            D[20, 30] = D[30, 20] = _ulps(10.0 + sign * tol, int(sign) * k)
            cases.append((f"{name}{k:+d}ulp", D, 20, None if k < 0 else broken))
    # the tail's row 20 reads its own column k = 20 at a self-distance of -0.9 tol
    for k in (-1, 1):
        D = _two_lines()
        D[20, 30] = D[30, 20] = _ulps(10.0 + tol, k)
        D[20, 20] = -0.9 * tol
        cases.append((f"diagonal{k:+d}ulp", D, 20, None if k < 0 else (20, 21)))
    # row 25, in the tail, reads the larger excess: delta must come from it
    D = _two_lines()
    D[20, 30] = D[30, 20] = _ulps(10.0 + tol, -4)
    D[25, 35] = D[35, 25] = _ulps(10.0 + tol, -1)
    cases.append(("two-pairs", D, 20, None))
    D = _below_diagonal()
    cases.append(("below-diagonal", D, 20, (30, 20)))
    cases.append(("above-diagonal", np.ascontiguousarray(D.T), 20, (20, 30)))
    # a + g = 1.1 tol puts the tail at row 0, whose own column k = 0 fails (0, 1)
    D = _two_lines()
    D[0, 0], D[1, 0] = -0.9 * tol, 1.0 + 0.2 * tol
    cases.append(("own-column", D, 0, (0, 1)))
    return cases


MID_MATRIX = _mid_cases()


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

    def test_non_finite_input_names_its_source(self):
        coords = np.array([[0.0], [1.0], [math.nan], [math.inf]])
        with pytest.raises(ValueError, match="coordinates of point 'c' must be finite"):
            PointedMetricSpace(ids=("o", "a", "c", "d"), basepoint="o", kind="linf", coords=coords)
        D = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, math.inf], [2.0, math.nan, 0.0]])
        with pytest.raises(ValueError, match=r"entry \('a', 'b'\) is NaN or overflows"):
            PointedMetricSpace(ids=("o", "a", "b"), basepoint="o", kind="matrix", matrix=D)

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

    @settings(max_examples=300, deadline=None)
    @given(case=perturbed_metrics(near=True))
    def test_validation_matches_the_oracle(self, case):
        D, ids = case
        assert verdict(D, ids) == oracle_verdict(D, ids)

    @pytest.mark.parametrize("case", NEAR_THRESHOLD, ids=[c[0] for c in NEAR_THRESHOLD])
    def test_near_threshold_inputs_take_the_full_check(self, monkeypatch, case):
        # the proof rows cannot prove these inside the tolerance from row 0
        # on, so every row's S is judged; accepted or not, as the oracle does
        _, D, expected = case
        ids = ("a", "b", "c", "d")[: len(D)]
        calls = spy_on_the_row_loop(monkeypatch)
        assert verdict(D, ids) == expected
        assert calls == [(0, oracle_pair(D))]
        assert expected == oracle_verdict(D, ids)

    @pytest.mark.parametrize("case", MID_MATRIX, ids=[c[0] for c in MID_MATRIX])
    def test_the_tail_starts_at_the_first_unproven_row(self, monkeypatch, case):
        _, D, x0, pair = case
        ids = tuple(f"p{k}" for k in range(len(D)))
        calls = spy_on_the_row_loop(monkeypatch)
        assert verdict(D, ids) == oracle_verdict(D, ids)
        assert calls == [(x0, pair)]
        assert pair == oracle_pair(D)
        if pair is None:
            # the tail's k > x halves feed the excess as the proof rows do
            sp = PointedMetricSpace(ids=ids, basepoint=ids[0], kind="matrix", matrix=D)
            assert sp._defect == defect_formula(D)

    def test_clear_inputs_take_the_row_pass(self, monkeypatch):
        inputs = (tri_space().matrix, tree_space(60).matrix, _line3(2.0))
        calls = spy_on_the_row_loop(monkeypatch)
        for D in inputs:
            PointedMetricSpace(ids=tuple(range(len(D))), basepoint=0, kind="matrix", matrix=D)
        assert calls == [(None, None)] * 3

    @settings(max_examples=300, deadline=None)
    @given(case=perturbed_metrics(near=True), upper=st.booleans())
    @example(case=(_late_first_pair(), tuple("abcd")), upper=False)
    @example(case=(_below_diagonal(), ()), upper=False)
    @example(case=(_below_diagonal(), ()), upper=True)
    def test_exact_check_finds_the_first_failing_pair(self, case, upper):
        # the skew sits below the diagonal; transposed, it sits above it.
        # The loop reads no diagonal entry: the diagonal check runs first.
        D, _ = case
        D = np.ascontiguousarray(D.T) if upper else D
        tol = 1e-9 * max(1.0, float(np.max(D)))
        assert float(np.max(np.abs(np.diag(D)))) <= tol
        with pytest.MonkeyPatch.context() as patch:
            calls = spy_on_the_row_loop(patch)
            verdict(D, tuple(range(len(D))))
        assert [pair for _, pair in calls] == [oracle_pair(D)]

    @settings(max_examples=200, deadline=None)
    @given(case=perturbed_metrics(near=True))
    def test_defect_is_the_proof_rows_formula(self, case):
        D, ids = case
        assume(oracle_verdict(D, ids) is None)
        sp = PointedMetricSpace(ids=ids, basepoint=ids[0], kind="matrix", matrix=D)
        assert sp._defect == defect_formula(D)

    @settings(max_examples=150, deadline=None)
    @given(case=perturbed_metrics(near=True))
    def test_defect_bounds_every_triangle_exactly(self, case):
        D, ids = case
        assume(len(D) <= 8 and oracle_verdict(D, ids) is None)
        sp = PointedMetricSpace(ids=ids, basepoint=ids[0], kind="matrix", matrix=D)
        assert sp._defect >= exact_defect(D)

    @pytest.mark.parametrize("order", [(0, 1, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)])
    def test_defect_covers_a_difference_that_rounds_down(self, order):
        # with d(a, b) = fl(1e9 - 0.1) < 1e9 - 0.1, the triangle a, b, c
        # exceeds by almost half an ulp of 1e9, which no computed
        # difference shows
        far, near = 1e9, 0.1
        assert Fraction(far - near) < Fraction(far) - Fraction(near)
        D = np.array([[0.0, far - near, far], [far - near, 0.0, near], [far, near, 0.0]])
        D = D[np.ix_(order, order)]
        sp = PointedMetricSpace(ids=("a", "b", "c"), basepoint="a", kind="matrix", matrix=D)
        assert sp._defect >= exact_defect(D) > 0

    @pytest.mark.parametrize("seed", range(12))
    def test_defect_bounds_tree_and_integer_metrics(self, seed):
        from .conftest import random_integer_space

        rng = np.random.default_rng(seed)
        spaces = [random_integer_space(rng, n_max=8),
                  tree_space(int(rng.integers(2, 9)), r_max=[10.0, 1e3, 1e9][seed % 3], seed=seed)]
        for sp in spaces:
            again = PointedMetricSpace(ids=sp.ids, basepoint=sp.basepoint, kind="matrix",
                                       matrix=sp.matrix.copy())
            assert again._defect >= exact_defect(sp.matrix)
            assert again._defect == defect_formula(sp.matrix)

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

    def test_l2_distances_of_tiny_coordinates(self):
        # squares of these coordinates underflow a double unless they are scaled up
        plane = PointedMetricSpace(ids=("o", "a", "b"), basepoint="o", kind="l2",
                                   coords=np.array([[0.0, 0.0], [3e-162, 0.0], [0.0, 4e-162]]))
        assert plane.dist("a", "b") == 5e-162
        line = PointedMetricSpace(ids=("o", "a"), basepoint="o", kind="l2",
                                  coords=np.array([[0.0], [1e-170]]))
        assert line.dist("o", "a") == 1e-170

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([-600, -540, 600]))
    def test_l2_scaling_is_exact(self, seed, shift):
        # an input scaled by a power of two out of [2^-500, 2^500) gets the
        # same distances, scaled by that power of two, bit for bit
        V = np.random.default_rng(seed).normal(size=(12, 3))
        assert np.array_equal(metric.sup_pairwise(np.ldexp(V, shift), "l2"),
                              np.ldexp(metric.sup_pairwise(V, "l2"), shift))

    def test_l2_matches_manual(self):
        coords = np.array([[0.0, 0.0], [3.0, 4.0]])
        sp = PointedMetricSpace(ids=("o", "u"), basepoint="o", kind="l2", coords=coords)
        assert sp.dist("o", "u") == 5.0

    def test_every_read_uses_the_one_matrix(self):
        # the kernel sums each slab of squares in its own order, so an l2
        # distance computed by a second formula can differ by an ulp
        coords = np.random.default_rng(0).uniform(size=(200, 12))
        sp = PointedMetricSpace(ids=tuple(range(200)), basepoint=0, kind="l2", coords=coords)
        dists = [[sp.dist(u, v) for v in range(60)] for u in range(60)]
        assert np.array_equal(dists, sp.matrix[:60, :60])

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

    def test_two_norm_target_without_bounds(self):
        # a bare call reads as no bound on either folded norm
        sp = line_space(24)
        emb = paste(sp, 1.0, 0.2)
        model = FddModel(emb.spec.block_dims)
        reps = distortion(sp, emb.images, model)
        assert reps == distortion(sp, emb.images, model, (None, None))
        assert all(r.analytic_bound is None for r in reps)

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

    def test_underflowing_ratio_names_its_pair(self):
        # a uniform scaling by 1e-330: every ratio lies below the subnormals
        spec = SumSpaceSpec(2.0, (1,))
        sp = PointedMetricSpace(ids=("a", "b", "c"), basepoint="a", kind="linf",
                                coords=np.array([[0.0], [1e300], [2e300]]))
        images = {pid: BlockVector(spec, {1: np.array([x])})
                  for pid, x in zip(sp.ids, (0.0, 1e-30, 2e-30))}
        with pytest.raises(ValueError, match=r"pair \('a', 'b'\) has a distance or ratio "
                                             "that is NaN or out of double range"):
            distortion(sp, images, spec)
        # a target distance of exactly 0 stays a non-injective map
        images["b"] = images["a"]
        with pytest.raises(ValueError, match=r"pair \('a', 'c'\)"):
            distortion(sp, images, spec)
        tiny = PointedMetricSpace(ids=("a", "b", "c"), basepoint="a", kind="linf",
                                  coords=np.array([[0.0], [1.0], [2.0]]))
        rep = distortion(tiny, images, spec)
        assert math.isinf(rep.distortion) and rep.scale_r == 0.0 and not rep.passed

    def test_bound_verdict(self):
        sp = tri_space()
        images = {
            "a": BlockVector(SPEC, {1: np.array([0.0, 0.0])}),
            "b": BlockVector(SPEC, {1: np.array([3.0, 0.0])}),
            "c": BlockVector(SPEC, {1: np.array([5.0, 2.0])}),
        }
        assert distortion(sp, images, SPEC, analytic_bound=2.5).passed
        assert not distortion(sp, images, SPEC, analytic_bound=1.5).passed

    def test_candidates_are_the_scanned_pairs(self):
        # on a line, f = (0, 1, 3, 4, 8): the full scan's extremes are (3, 4)
        # at 4 and (0, 1) at 1; the given pairs hold neither, and (0, 2) and
        # (1, 3) tie at the min 1.5, which the first in row-major order takes
        spec = SumSpaceSpec(SUP, (1,))
        sp = PointedMetricSpace(ids=tuple("abcde"), basepoint="a", kind="linf",
                                coords=np.arange(5.0)[:, None])
        images = {pid: BlockVector(spec, {1: np.array([x])})
                  for pid, x in zip(sp.ids, (0.0, 1.0, 3.0, 4.0, 8.0))}
        I, J = np.array([0, 0, 1, 2]), np.array([2, 4, 3, 4])
        seen = []

        def pairs(fold):
            seen.append(fold)
            return I, J

        rep = distortion(sp, images, spec, analytic_bound=2.0, candidates=pairs)
        assert seen == [spec.fold]
        assert (rep.max_pair, rep.min_pair) == (("c", "e"), ("a", "c"))
        assert rep.distortion == 2.5 / 1.5 and rep.scale_r == 1.5 and rep.passed
        full = distortion(sp, images, spec)
        assert (full.distortion, full.max_pair, full.min_pair) == (4.0, ("d", "e"), ("a", "b"))

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

    def test_matrix_validation_holds_one_pair_matrix(self):
        # the space keeps the input itself, and the checks hold a few
        # buffers of _ROW_CHUNK entries besides it
        D = tree_space(400).matrix
        n = len(D)
        tracemalloc.start()
        try:
            sp = PointedMetricSpace(ids=tuple(range(n)), basepoint=0, kind="matrix", matrix=D)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sp.matrix is D
        assert peak < 4 * metric._ROW_CHUNK * 8

    def test_matrix_validation_allocates_no_pair_matrix(self):
        # the checks hold a few buffers of _ROW_CHUNK entries; at n = 800
        # one (n, n) array is more than 4 times that allowance
        allowance = 4 * metric._ROW_CHUNK * 8
        D = tree_space(800).matrix
        n = len(D)
        assert n * n * 8 >= 4 * allowance
        tracemalloc.start()
        try:
            PointedMetricSpace(ids=tuple(range(n)), basepoint=0, kind="matrix", matrix=D)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < allowance

    def test_exact_check_allocates_no_pair_matrix(self, monkeypatch):
        # a short pair moved to one ulp below fl(d + tol) is accepted, but
        # only the exact tail, from row 0, can tell; it stays within the
        # allowance of an accepted input
        allowance = 4 * metric._ROW_CHUNK * 8
        D = tree_space(800).matrix.copy()
        n = len(D)
        tol = 1e-9 * max(1.0, float(np.max(D)))
        D[0, 2] = D[2, 0] = _ulps(D[0, 2] + tol, -1)
        calls = spy_on_the_row_loop(monkeypatch)
        tracemalloc.start()
        try:
            PointedMetricSpace(ids=tuple(range(n)), basepoint=0, kind="matrix", matrix=D)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == [(0, None)]
        assert peak < allowance

    @pytest.mark.parametrize("kind", ["linf", "l2"])
    def test_kernel_memory_without_columns(self, kind):
        # a chunk of _SLAB // max(1, m * k) rows with no cap at m would
        # allocate _SLAB rows of 600 here
        V = np.empty((600, 0))
        tracemalloc.start()
        try:
            D = metric.sup_pairwise(V, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(D, np.zeros((600, 600)))
        assert peak < 2 * D.nbytes

    @pytest.mark.parametrize("kind", ["linf", "l2"])
    def test_kernel_memory_is_flat_in_columns(self, kind):
        V = np.random.default_rng(5).normal(size=(40, 200_000))
        tracemalloc.start()
        try:
            D = metric.sup_pairwise(V, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the margin holds numpy's ufunc iteration buffers, 64 KiB each
        assert peak < D.nbytes + metric._SLAB * 8 + 256 * 1024
        assert D[0, 1] == (np.max(np.abs(V[0] - V[1])) if kind == "linf"
                           else pytest.approx(np.linalg.norm(V[0] - V[1]), rel=1e-14))


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
        target_norm(combine(images[u], images[v], -1.0)) / sp.dist(u, v)
        for i, u in enumerate(sp.ids)
        for v in sp.ids[i + 1:]
    ]
    return max(ratios), min(ratios)


@pytest.mark.parametrize("target", [1.0, 1.5, 2.0, 3.0, SUP, "norm_a", "ambient"])
@settings(max_examples=60, deadline=None)
@given(case=sparse_images())
def test_scan_matches_reference_norms_pair_by_pair(target, case):
    sp, dims, blocks, eps_list = case
    model = FddModel(dims, eps_list)
    spec = SumSpaceSpec(SUP if isinstance(target, str) else target, dims)
    images = {pid: BlockVector(spec, blocks[i]) for i, pid in enumerate(sp.ids)}
    if isinstance(target, str):
        # one scan of the model's fold gives both reports, norm_a first
        reps = distortion(sp, images, model, (None, None))
        rep = reps[("norm_a", "ambient").index(target)]
        ref_norm = lambda v: (norm_a if target == "norm_a" else ambient_norm)(model, v)
    else:
        ref_norm = sum_norm
        rep = distortion(sp, images, spec)
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
            assert np.allclose(again.matrix, sp.matrix)

    def test_schema_errors(self):
        with pytest.raises(SchemaError):
            load_space([])
        with pytest.raises(SchemaError):
            load_space({"metric": "linf", "points": [{"id": "a", "coords": [0.0]}]})
        with pytest.raises(SchemaError):
            load_space({"basepoint": "a", "metric": "taxicab",
                        "points": [{"id": "a", "coords": [0.0]}]})
        for doc, message in SPACE_SCHEMA_ERRORS:
            with pytest.raises(SchemaError) as exc:
                load_space(doc)
            assert str(exc.value) == message

    @pytest.mark.parametrize("doc, message", MAP_SCHEMA_ERRORS.values(), ids=MAP_SCHEMA_ERRORS)
    def test_map_schema_errors(self, doc, message):
        with pytest.raises(SchemaError) as exc:
            load_map(doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize("slab", [None, 460, 620])
    @pytest.mark.parametrize("kind", ["linf", "l2"])
    def test_distance_matrix_across_slabs(self, monkeypatch, kind, slab):
        # at 151 rows of 5 coordinates, 460 entries make 1-column slabs and
        # 2-row chunks (the last of one row), 620 make 2-column slabs
        # (2 + 2 + 1) of one row each; the default takes the input at once
        if slab is not None:
            monkeypatch.setattr(metric, "_SLAB", slab)
        coords = np.random.default_rng(3).normal(size=(151, 5))
        coords[7] *= 2.0**505  # takes the l2 rescale; its squares still fit a double
        D = metric.sup_pairwise(coords, kind)
        diff = coords[:, None, :] - coords[None, :, :]
        if kind == "linf":
            assert np.array_equal(D, np.max(np.abs(diff), axis=2))
        else:
            assert np.allclose(D, np.sqrt(np.sum(diff**2, axis=2)), rtol=1e-14, atol=0.0)


def _tree_by_walks(n, r_max, seed):
    """tree_space's matrix as one stack walk per source (the former build)."""
    rng = np.random.default_rng(seed)
    growth = r_max ** (1.0 / (n - 1))
    adj = [[] for _ in range(n)]
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        weight = float(rng.uniform(0.5, 1.5)) * growth**i
        adj[i].append((parent, weight))
        adj[parent].append((i, weight))
    D = np.zeros((n, n))
    for src in range(n):
        dist = np.full(n, -1.0)
        dist[src] = 0.0
        stack = [src]
        while stack:
            u = stack.pop()
            for v, w in adj[u]:
                if dist[v] < 0.0:
                    dist[v] = dist[u] + w
                    stack.append(v)
        D[src] = dist
    return (D + D.T) / 2.0


@pytest.mark.parametrize("n, r_max, seed", [(2, 1e9, 0), (3, 10.0, 1), (150, 1e9, 7), (300, 1e3, 2),
                                            (600, 1e9, 1)])
def test_tree_space_matches_per_source_walks(n, r_max, seed):
    assert np.array_equal(tree_space(n, r_max=r_max, seed=seed).matrix, _tree_by_walks(n, r_max, seed))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_random_integer_space_is_valid(seed):
    from .conftest import random_integer_space

    sp = random_integer_space(np.random.default_rng(seed), n_max=12)
    D = sp.matrix
    assert np.array_equal(D, D.T)
    assert float(D.max()) == float(int(D.max()))  # distances are whole numbers
