"""Radii schedule, blend coefficients, distortion bound, and the pasted map."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spiralpaste import (
    SUP,
    BlockVector,
    PointedMetricSpace,
    ScheduleTooShort,
    SumSpaceSpec,
    analytic_bound,
    ball,
    blend,
    blend_theta,
    c_constant,
    distortion,
    line_space,
    needed_bands,
    paste,
    radii_schedule,
    seam_check,
    small_norm_ratio,
    spiral,
    spiral_distortion,
    spiral_point,
    tree_space,
)

from .norms import block_profile, sum_norm

P_MENU = (1.0, 1.5, 2.0, 3.0, 4.0)


def _golden(f, a, b, xtol=1e-10):
    """Golden-section minimum of f on [a, b]; returns the best f value."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return min(fc, fd, f(a), f(b))


def sampled_bound(p, eps):
    """The band ratio found by scanning blend positions, max'd with the small-norm ratio.

    A dense grid over c in [0, 1], s = (1 - c^p)^(1/p), refined by golden
    sections around the worst upper and lower envelope values.
    """
    K = 2.0 if p <= 2.0 else c_constant(p)
    up = K * eps
    down = K * eps * (1.0 + eps)

    def s_of(c):
        return (max(1.0 - c**p, 0.0)) ** (1.0 / p)

    def upper(c):
        return (1.0 + eps) * ((c + up) ** p + (s_of(c) + up) ** p) ** (1.0 / p)

    def lower(c):
        return (max(c - down, 0.0) ** p + max(s_of(c) - down, 0.0) ** p) ** (1.0 / p)

    grid = np.linspace(0.0, 1.0, 10_000)
    iu = int(np.argmax([upper(c) for c in grid]))
    il = int(np.argmin([lower(c) for c in grid]))
    u_max = -_golden(lambda c: -upper(c), grid[max(iu - 1, 0)], grid[min(iu + 1, len(grid) - 1)])
    l_min = _golden(lower, grid[max(il - 1, 0)], grid[min(il + 1, len(grid) - 1)])
    if l_min <= 0.0:
        return math.inf
    return max(u_max / l_min, small_norm_ratio(eps))


def exact_bound(p, eps):
    """The closed-form band and small-norm ratios at 60 digits, at the raised epsilons.

    K eps (the turn rate) is read at eps (1 + 2^-46), every other eps (the
    shrink gap) at eps (1 + 2^-43), as ``analytic_bound`` documents.
    """
    with mpmath.workdps(60):
        p, e = mpmath.mpf(p), mpmath.mpf(eps)
        r, g = e * (1 + mpmath.mpf(2) ** -46), e * (1 + mpmath.mpf(2) ** -43)
        K = 2 if p <= 2 else 2 ** (1 - 2 / p) * (1 + 2 ** (1 + (p - 1) * (p - 2) / (2 * p)))
        a = 2 ** (1 / p) * K
        den = 1 - a * r * (1 + g)
        band = (1 + g) * (1 + a * r) / den if den > 0 else mpmath.inf
        small_den = (1 - g) * (1 - g - g * g)
        small = (1 + g) ** 3 / small_den if small_den > 0 else mpmath.inf
        return band, small


class TestSchedule:
    def test_radii_closed_form(self):
        for eps in (0.1, 0.2, 0.5):
            sched = radii_schedule(eps, 4)
            half_turn = math.pi / (2.0 * eps)
            shrink = -math.log(eps)
            for i in range(1, 5):
                want_odd = (i - 1) * (half_turn + shrink)
                want_even = want_odd + half_turn
                assert math.isclose(math.log(sched.radii[2 * i - 2]), want_odd, rel_tol=0, abs_tol=1e-12 * (1 + want_odd))
                assert math.isclose(math.log(sched.radii[2 * i - 1]), want_even, rel_tol=0, abs_tol=1e-12 * (1 + want_even))
        assert radii_schedule(0.2, 3).radii[0] == 1.0

    def test_rates_as_built_within_the_bounds_margins(self):
        # analytic_bound reads eps (1 + 2^-46) as every finite window's turn
        # rate wherever its band ratio is finite, and eps (1 + 2^-43) as the
        # shrink gap R_{2i} / R_{2i+1}
        with mpmath.workdps(40):
            for eps in [*np.geomspace(2.3e-3, 0.277, 40), 0.05, 0.1, 0.2, 0.5, 0.9]:
                r = [mpmath.mpf(float(x)) for x in radii_schedule(eps, needed_bands(eps, 1.7e308)).radii]
                for i in range(1, len(r) // 2 + 1):
                    if eps < 0.277 and mpmath.isfinite(r[2 * i - 1]):
                        assert mpmath.pi / 2 / mpmath.log(r[2 * i - 1] / r[2 * i - 2]) <= eps * (1 + 2.0**-46)
                    if 2 * i < len(r) and mpmath.isfinite(r[2 * i]):
                        assert r[2 * i - 1] / r[2 * i] <= eps * (1 + 2.0**-43)

    def test_window_and_gap_identities(self):
        sched = radii_schedule(0.2, 3)
        r = sched.radii
        for i in range(1, 4):
            assert math.isclose(0.2 * math.log(r[2 * i - 1] / r[2 * i - 2]), math.pi / 2, rel_tol=1e-12)
        for i in range(1, 3):
            assert math.isclose(r[2 * i] / r[2 * i - 1], 1 / 0.2, rel_tol=1e-12)

    def test_band_of_boundaries(self):
        # the classifier compares rho with the odd radii as built; a radius
        # itself belongs to the band below it, the next double to the band above
        sched = radii_schedule(0.2, 3)
        r3, r5 = float(sched.radii[2]), float(sched.radii[4])
        assert sched.band_of(0.5) == 1
        assert sched.band_of(1.0) == 1
        assert sched.band_of(r3) == 1  # band domain is (R_1, R_3]
        assert sched.band_of(r3 * (1.0 + 1e-9)) == 2
        assert sched.band_of(math.nextafter(r3, math.inf)) == 2
        assert sched.band_of(r5) == 2
        with pytest.raises(ScheduleTooShort):
            sched.band_of(r5 * (1.0 + 1e-9))

    def test_band_of_just_above_first_radius(self):
        # the log-domain slack used to push rho in (1, 1 + 1e-12) to band 0
        sched = radii_schedule(0.2, 3)
        for rho in (1.0000000000001, 1.0 + 2.0**-52, math.nextafter(1.0, 2.0)):
            assert sched.band_of(rho) == 1

    def test_radii_past_double_range_are_inf(self):
        # R_2 = e^(pi/0.002) is past double range; no RuntimeWarning (the suite errors on one)
        sched = radii_schedule(0.001, 3)
        assert np.all(sched.radii[1:] == math.inf)

    def test_rejects_bad_epsilon(self):
        for eps in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                radii_schedule(eps, 2)
            # checked before its log step divides by eps
            with pytest.raises(ValueError):
                needed_bands(eps, 1.0)

    @given(st.floats(min_value=1e-6, max_value=0.999), st.floats(min_value=1.0, max_value=1.7e308))
    @settings(max_examples=120, deadline=None)
    # one ulp above R_3 and R_5 at eps = 0.1: only the radii as built, not
    # a count re-derived in log domain, tell these from R_3 and R_5
    @example(0.1, math.nextafter(66356239.99341138, math.inf))
    @example(0.1, math.nextafter(4403150586063176.0, math.inf))
    @example(0.1, 66356239.99341138)  # R_3 itself: two bands cover it, not three
    def test_needed_bands_covers(self, eps, rho):
        k = needed_bands(eps, rho)
        sched = radii_schedule(eps, k)
        assert rho <= sched.radii[-2]  # last odd radius
        assert sched.band_of(rho) <= k
        # minimal: one band fewer leaves rho beyond the last odd radius
        assert k == 1 or radii_schedule(eps, k - 1).radii[-2] < rho
        # shorter schedules are exact prefixes of longer ones
        longer = radii_schedule(eps, 2 * k + 1)
        assert np.array_equal(sched.radii, longer.radii[: 2 * k])


class TestBlend:
    @given(st.sampled_from(P_MENU), st.floats(min_value=0.0, max_value=math.pi / 2))
    # cos^p and sin^p of the symmetric blend both underflow at this p
    @example(3000.0, math.pi / 4)
    @settings(max_examples=300)
    def test_partition_of_unity(self, p, theta):
        c, s = blend_theta(p, theta)
        assert abs(c**p + s**p - 1.0) <= 1e-12
        assert c >= 0.0 and s >= 0.0

    def test_low_exponent_closed_forms(self):
        th = 0.7
        c1, s1 = blend_theta(1.0, th)
        assert math.isclose(c1, math.cos(th) ** 2, rel_tol=1e-15)
        assert math.isclose(s1, math.sin(th) ** 2, rel_tol=1e-15)
        c2, s2 = blend_theta(2.0, th)
        assert math.isclose(c2, math.cos(th), rel_tol=1e-15)
        assert math.isclose(s2, math.sin(th), rel_tol=1e-15)

    def test_p3_midpoint_oracle(self):
        c, s = blend_theta(3.0, math.pi / 4)
        want = 2.0 ** (-1.0 / 3.0)
        assert math.isclose(c, want, rel_tol=1e-15)
        assert math.isclose(s, want, rel_tol=1e-15)

    def test_endpoint_clamps_are_exact(self):
        sched = radii_schedule(0.2, 3)
        for band in (1, 2, 3):
            lo = float(sched.radii[2 * band - 2])
            hi = float(sched.radii[2 * band - 1])
            assert blend(2.0, sched, band, lo) == (1.0, 0.0)
            assert blend(2.0, sched, band, lo * 0.5) == (1.0, 0.0)
            assert blend(2.0, sched, band, hi) == (0.0, 1.0)
            assert blend(2.0, sched, band, hi * 2.0) == (0.0, 1.0)

    def test_blend_monotone_in_rho(self):
        sched = radii_schedule(0.2, 2)
        lo, hi = sched.radii[0], sched.radii[1]
        rhos = np.exp(np.linspace(math.log(lo), math.log(hi), 64))
        pairs = [blend(3.0, sched, 1, float(r)) for r in rhos]
        cs = [c for c, _ in pairs]
        ss = [s for _, s in pairs]
        assert all(a >= b for a, b in zip(cs, cs[1:]))
        assert all(a <= b for a, b in zip(ss, ss[1:]))


class TestBoundFunctions:
    def test_derivative_constant(self):
        assert c_constant(3.0) == 4.434723153831272
        assert c_constant(4.0) == pytest.approx(2.0**0.5 * (1.0 + 2.0**1.75), rel=1e-15)
        assert c_constant(2.0) == 3.0
        with pytest.raises(ValueError):
            c_constant(1.5)

    def test_small_norm_ratio(self):
        assert small_norm_ratio(0.1) == pytest.approx(1.1**3 / (0.9 * 0.89), rel=1e-14)
        assert math.isinf(small_norm_ratio(0.7))  # 1 - eps - eps^2 <= 0

    def test_bound_closed_form_p1(self):
        # at exponent 1 every envelope is piecewise linear in the blend
        for eps in (0.01, 0.05, 0.1, 0.2):
            band = (1 + eps) * (1 + 4 * eps) / (1 - 4 * eps - 4 * eps * eps)
            small = (1 + eps) ** 3 / ((1 - eps) * (1 - eps - eps * eps))
            assert analytic_bound(1.0, eps) == pytest.approx(max(band, small), rel=1e-12)

    def test_bound_closed_form_p2(self):
        for eps in (0.05, 0.1):
            d = 2.0 * math.sqrt(2.0) * eps
            band = (1 + eps) * (1 + d) / (1 - d * (1 + eps))
            small = (1 + eps) ** 3 / ((1 - eps) * (1 - eps - eps * eps))
            assert analytic_bound(2.0, eps) == pytest.approx(max(band, small), rel=1e-12)

    def test_bound_regression_freezes(self):
        assert analytic_bound(1.0, 0.1) == pytest.approx(2.75, rel=1e-12)
        assert analytic_bound(2.0, 0.1) == pytest.approx(2.0484573359348652, rel=1e-12)
        assert analytic_bound(3.0, 0.1) == pytest.approx(4.449083855015291, rel=1e-12)
        assert analytic_bound(4.0, 0.05) == pytest.approx(2.334846061260024, rel=1e-12)

    @given(st.floats(min_value=1.0, max_value=16.0), st.floats(min_value=1e-6, max_value=0.99))
    @settings(max_examples=50, deadline=None)
    def test_bound_is_a_certified_envelope(self, p, eps):
        got = analytic_bound(p, eps)
        band, small = exact_bound(p, eps)
        exact = max(band, small)
        assert got >= exact
        assert got >= sampled_bound(p, eps)
        # outward rounding may reach the pole a few ulps early, where the
        # exact bound is astronomically large anyway
        assert math.isinf(got) == mpmath.isinf(exact) or exact > 1e12
        if exact < 100:
            assert got - exact <= 1e-10 * exact
        assert small_norm_ratio(eps) <= band

    def test_bound_degenerates_to_inf(self):
        assert math.isinf(analytic_bound(2.0, 0.5))
        assert math.isinf(analytic_bound(3.0, 0.2))
        # c_constant(3000) leaves double range
        assert math.isinf(analytic_bound(3000.0, 0.1))
        assert math.isinf(analytic_bound(3000.0, 1e-300))
        # (p - 1)(p - 2) and 2p both overflow here, so c_constant is inf / inf = NaN
        for p in (8.99e307, 1e308, sys.float_info.max):
            assert analytic_bound(p, 0.2) == math.inf
            assert analytic_bound(p, 1e-300) == math.inf

    def test_bound_monotone_in_eps(self):
        for p in (1.0, 2.0):
            assert analytic_bound(p, 0.05) < analytic_bound(p, 0.1) < analytic_bound(p, 0.2)

    def test_bound_rejects_bad_args(self):
        with pytest.raises(ValueError):
            analytic_bound(0.5, 0.1)
        with pytest.raises(ValueError):
            analytic_bound(2.0, 0.0)


@pytest.fixture(scope="module")
def tree600():
    return tree_space(600, seed=1)


@pytest.fixture(scope="module")
def wide5():
    # max D = 1.7e308: the block norms span most of double range
    coords = np.array([[0.0], [1.0], [1e200], [1e300], [1.7e308]])
    return PointedMetricSpace(tuple("oabcd"), "o", "linf", coords=coords)


class TestPaste:
    def test_single_band_is_provider_exact(self):
        # all points inside the unit ball: the map is the provider itself
        coords = np.array([[0.0], [0.25], [-0.5], [1.0]])
        ids = ("o", "u", "v", "w")
        sp = PointedMetricSpace(ids=ids, basepoint="o", kind="linf", coords=coords)
        emb = paste(sp, 2.0, 0.2)
        rep = distortion(sp, emb.images, emb.spec)
        assert rep.distortion == 1.0
        assert emb.layout.schedule.band_count == 1

    def test_ids_need_not_be_mutually_sortable(self):
        # the ball maps read each ball in its row order; no id is compared with another
        sp = PointedMetricSpace((0, "a", 2.5), 0, "linf", coords=[[0], [1], [3]])
        emb = paste(sp, 2.0, 0.2)
        bound = analytic_bound(2.0, 0.2)
        rep = distortion(sp, emb.images, emb.spec, bound, candidates=emb.candidates)
        assert emb.envelope() is not None and rep.passed

    def test_basepoint_image_is_zero(self, line):
        emb = paste(line, 2.0, 0.2)
        assert sum_norm(emb.images[line.basepoint]) == 0.0

    def test_images_touch_two_consecutive_blocks(self, line):
        emb = paste(line, 1.0, 0.2)
        for pid in line.ids:
            touched = sorted(emb.images[pid].blocks)
            assert len(touched) <= 2
            if len(touched) == 2:
                assert touched[1] == touched[0] + 1

    def test_norm_preservation(self, line, grid):
        for sp in (line, grid):
            for p in (1.0, 2.0, 3.0):
                emb = paste(sp, p, 0.2)
                assert emb.norm_preservation_error() <= 1e-9

    @pytest.mark.parametrize("name, p, eps", [
        ("tree600", 2.0, 0.2), ("tree600", 1.0, 0.5), ("tree600", 3.0, 0.1),
        ("line", 1.5, 0.2), ("line", 3.0, 0.1), ("wide5", 2.0, 0.5),
    ])
    def test_norm_preservation_is_the_norm_loop(self, request, name, p, eps):
        # each point folded on (1, 1) is the oracle, to the last bit: this checks the batching
        sp = request.getfixturevalue(name)
        emb = paste(sp, p, eps)
        rho = sp.rho()
        worst = 0.0
        for i, pid in enumerate(sp.ids):
            blocks = enumerate(block_profile(emb.images[pid])[:, None, None], 1)
            worst = max(worst, abs(float(emb.spec.fold((1, 1), blocks)[0, 0]) - rho[i]))
        assert emb.norm_preservation_error() == worst / max(1.0, float(np.max(rho)))

    def test_measured_distortion_under_bound(self, line):
        for p in (1.0, 2.0):
            for eps in (0.2, 0.1):
                emb = paste(line, p, eps)
                rep = distortion(line, emb.images, emb.spec,
                                 analytic_bound=analytic_bound(p, eps))
                assert rep.passed, (p, eps, rep.distortion, rep.analytic_bound)

    def test_distortion_strictly_decreasing_in_eps(self, line):
        vals = []
        for eps in (0.5, 0.2, 0.1):
            emb = paste(line, 2.0, eps)
            vals.append(distortion(line, emb.images, emb.spec).distortion)
        assert vals[0] > vals[1] > vals[2]

    def test_seams_exact(self, line):
        for p in (1.0, 2.0, 3.0):
            emb = paste(line, p, 0.2)
            gap, checked = seam_check(emb)
            assert gap == 0.0
            assert checked >= 1

    def test_seam_mismatch_is_reported(self, monkeypatch):
        # a blend that gives (0, 0.75) on the handover plateau, where branch
        # b + 1 puts the full image: a gap, not an exception.  The seam point
        # lies outside band b's ball, so paste can put no weight in block b.
        line = line_space()
        gap, checked = seam_check(paste(line, 2.0, 0.2))
        assert gap == 0.0 and checked >= 1
        real = spiral.blend

        def off(p, schedule, band, rho):
            c, s = real(p, schedule, band, rho)
            return (0.0, 0.75) if (c, s) == (0.0, 1.0) else (c, s)

        monkeypatch.setattr(spiral, "blend", off)
        bad, bad_checked = seam_check(paste(line, 2.0, 0.2))
        assert bad > 0.0
        assert bad_checked == checked

    def test_seam_check_reads_the_map(self):
        # swapping c and s of one seam point in W, after paste, opens a gap of its rho
        line = line_space()
        emb = paste(line, 2.0, 0.2)
        i = line.index("x025")
        b = emb.band_of["x025"]
        W = emb.coefficients
        W[[b - 1, b], i] = W[[b, b - 1], i]
        gap, checked = seam_check(emb)
        assert gap == float(line.rho()[i]) and math.isclose(gap, 3046.99, rel_tol=1e-5)

    def test_seam_check_reads_block_b_plus_2(self):
        # a weight planted in block b + 2 of a seam point, after paste, opens a gap
        line = line_space()
        emb = paste(line, 2.0, 0.2)
        i = line.index("x025")
        b = emb.band_of["x025"]
        assert b + 1 < len(emb.coefficients) and emb.coefficients[b + 1, i] == 0.0
        emb.coefficients[b + 1, i] = 0.5
        gap, checked = seam_check(emb)
        assert gap == 0.5 * float(line.rho()[i]) and checked == 10

    def test_seam_points_by_construction(self):
        # place points exactly inside the handover plateaus
        sched = radii_schedule(0.25, 3)
        plateau = [math.sqrt(sched.radii[2 * i - 1] * sched.radii[2 * i]) for i in (1, 2)]
        coords = np.array([[0.0]] + [[v] for v in plateau])
        ids = ("o", "s1", "s2")
        sp = PointedMetricSpace(ids=ids, basepoint="o", kind="linf", coords=coords)
        emb = paste(sp, 2.0, 0.25)
        gap, checked = seam_check(emb)
        assert gap == 0.0 and checked == 2

    def test_seam_points_at_handover_ends(self):
        # R_2 and R_3 close band 1's handover [R_2, R_3]; one ulp above R_3
        # starts band 2's blend window, so that point is no seam point
        sched = radii_schedule(0.25, 3)
        r2, r3 = float(sched.radii[1]), float(sched.radii[2])
        coords = np.array([[0.0], [r2], [r3], [math.nextafter(r3, math.inf)]])
        ids = ("o", "r2", "r3", "past")
        sp = PointedMetricSpace(ids=ids, basepoint="o", kind="linf", coords=coords)
        emb = paste(sp, 2.0, 0.25)
        assert emb.layout.schedule.band_count == 3
        assert [emb.band_of[pid] for pid in ids[1:]] == [1, 1, 2]
        gap, checked = seam_check(emb)
        assert checked == 2 and gap == 0.0

    def test_band_occupancy_spans_bands(self, line):
        emb = paste(line, 2.0, 0.2)
        assert len(set(emb.band_of.values())) >= 3

    def test_schedule_too_short(self, line):
        with pytest.raises(ScheduleTooShort):
            paste(line, 2.0, 0.2, bands=1)

    def test_provider_must_fix_basepoint(self):
        coords = np.array([[0.0], [2.0], [5.0]])
        sp = PointedMetricSpace(ids=("o", "u", "v"), basepoint="o", kind="linf", coords=coords)

        def shifted(ball_space):
            ids = ball_space.ids
            return {pid: np.array([1.0 + ball_space.dist(pid, ball_space.basepoint)])
                    for pid in ids}

        with pytest.raises(ValueError):
            paste(sp, 2.0, 0.3, provider=shifted)

    def test_unused_blocks_build_no_ball(self, monkeypatch):
        # points inside radius 1 and one far point leave the middle blocks
        # empty: they keep their ball's point count as dimension, no ball
        rng = np.random.default_rng(3)
        coords = np.concatenate([[[0.0]], rng.uniform(-1.0, 1.0, (300, 1)), [[1e9]]])
        sp = PointedMetricSpace(ids=tuple(range(len(coords))), basepoint=0, kind="linf",
                                coords=coords)
        radii = []
        real = spiral.ball

        def counted(space, radius):
            radii.append(radius)
            return real(space, radius)

        monkeypatch.setattr(spiral, "ball", counted)
        emb = paste(sp, 1.0, 0.9)
        sched = emb.layout.schedule
        rho = sp.rho()
        assert emb.spec.block_dims == tuple(
            int(np.count_nonzero(rho <= sched.radii[2 * n - 1]))
            for n in range(1, sched.band_count + 1))
        used = [n for n in range(1, sched.band_count + 1) if emb.coefficients[n - 1].any()]
        assert len(radii) < sched.band_count
        assert radii == [float(sched.radii[2 * n - 1]) for n in used]

    def test_rejects_bad_exponent(self, line):
        with pytest.raises(ValueError):
            paste(line, 0.5, 0.2)


@settings(max_examples=40, deadline=None)
@given(
    tree=st.booleans(),
    n=st.integers(min_value=3, max_value=40),
    r_max=st.sampled_from([1e3, 1e6, 1e9]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    p=st.sampled_from([1.0, 2.0, 3.0]),
    eps=st.floats(min_value=0.05, max_value=0.5),
)
def test_finite_determination(tree, n, r_max, seed, p, eps):
    # A point of band b reads only the balls B(R_2b) and B(R_2b+2), so
    # pasting the ball B(R_2k) alone gives its points of band < k the
    # images of the full paste, bit for bit.
    space = tree_space(n, r_max=r_max, seed=seed) if tree else line_space(n, r_max=r_max)
    full = paste(space, p, eps)
    radii = full.layout.schedule.radii
    for k in range(2, full.layout.schedule.band_count + 1):
        part = paste(ball(space, float(radii[2 * k - 1])), p, eps)
        for pid, band in full.band_of.items():
            if band < k:
                got, want = part.images[pid].blocks, full.images[pid].blocks
                assert got.keys() == want.keys()
                assert all(np.array_equal(got[b], want[b]) for b in want)


def landmark_provider(scale, ball_distortions):
    """Ball maps of distortion C_b >= 1: distance vectors to a greedy net, not to every point.

    The anchors are the basepoint, then, in row order, each point farther
    than scale * (the ball's smallest pair distance) from every anchor so
    far.  Each C_b, measured by the generic scan, goes to ``ball_distortions``.
    """
    def provider(ball_space):
        D = ball_space.matrix
        n, base = len(ball_space), ball_space.index(ball_space.basepoint)
        anchors = [base]
        if n > 1:
            delta = scale * float(np.min(D[~np.eye(n, dtype=bool)]))
            for x in range(n):
                if np.min(D[x, anchors]) > delta:
                    anchors.append(x)
        images = dict(zip(ball_space.ids, D[:, anchors] - D[base, anchors]))
        if n > 1:
            spec = SumSpaceSpec(SUP, (len(anchors),))
            vectors = {pid: BlockVector(spec, {1: v}) for pid, v in images.items()}
            ball_distortions.append(distortion(ball_space, vectors, spec).distortion)
        return images

    return provider


@pytest.fixture(scope="module")
def tree120():
    return tree_space(120, seed=1)


@pytest.mark.parametrize("name", ["tree120", "line"])
@pytest.mark.parametrize("p, eps", [(2.0, 0.2), (1.0, 0.5), (3.0, 0.1), (1.0, 0.2)])
@pytest.mark.parametrize("scale", [0.5, 2.0, 8.0, 32.0])
def test_ball_maps_with_distortion(request, name, p, eps, scale):
    # Result (1) as the paper states it: ball maps of distortion C paste to
    # a map of distortion at most C times the bound (+inf at (1, 0.5)).
    # The tree at (2, 0.2) and scale 8 gives 2.551 <= 2.469 x 5.850.
    space = request.getfixturevalue(name)
    ball_distortions = []
    emb = paste(space, p, eps, provider=landmark_provider(scale, ball_distortions))
    pasted = distortion(space, emb.images, emb.spec).distortion
    assert pasted <= max(ball_distortions) * analytic_bound(p, eps)


class TestReferenceCurve:
    def test_point_identities(self):
        assert spiral_point(0.3, 1.0) == (1.0, 0.0)
        x, y = spiral_point(0.3, 7.0)
        assert math.isclose(math.hypot(x, y), 7.0, rel_tol=1e-15)
        with pytest.raises(ValueError):
            spiral_point(0.3, 0.0)

    def test_distortion_monotone_and_frozen(self):
        eps_grid = (0.2, 0.1, 0.05, 0.025)
        vals = [spiral_distortion(e).distortion for e in eps_grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[0] == pytest.approx(1.0196720576042377, rel=1e-12)
        assert vals[-1] == pytest.approx(1.0003097646626664, rel=1e-12)

    def test_zero_eps_is_exactly_one(self):
        assert spiral_distortion(0.0).distortion == 1.0

    def test_distortion_at_least_one(self):
        rep = spiral_distortion(0.15, t_max=100.0, samples=128)
        assert rep.distortion >= 1.0

    def test_samples_that_coincide_are_rejected(self):
        # 1 + 2^-52 has no double strictly between it and 1 to hold a middle sample
        with pytest.raises(ValueError, match="the 3 samples .* are not distinct doubles"):
            spiral_distortion(0.1, t_max=1.0000000000000002, samples=3)
