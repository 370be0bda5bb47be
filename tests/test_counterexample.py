"""The sparse integer carrier, its ray family, and the exact witnesses."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spiralpaste import (
    CounterexampleConfig,
    ball,
    ball_point_count,
    counterexample,
    in_carrier,
    linf_distance,
    ray_point,
    separation_witness,
    to_metric_space,
    verify_metric_ray,
    verify_separation_epsilon,
)


def level_oracle(N):
    """The positions of levels 0..T, laid out by walking the axis from 1:
    level 0 is {1}, then N_1, N_2, ... consecutive positions."""
    levels, pos = [[1]], 2
    for n in N:
        levels.append(list(range(pos, pos + n)))
        pos += n
    return levels


def carrier_oracle(levels, pos, val):
    """Whether {pos: val} lies in the carrier, read off the level lists."""
    if val == 0:
        return True
    for level, positions in enumerate(levels):
        if pos in positions:
            return val >= 0 and val % 3**level == 0
    return False


@pytest.fixture(scope="module")
def cfg():
    return CounterexampleConfig()


class TestConfig:
    def test_rejects_non_increasing_widths(self):
        with pytest.raises(ValueError):
            CounterexampleConfig(N=(3, 3, 4), ray_count=8)

    def test_depth_is_width_count(self):
        assert CounterexampleConfig().depth == 6
        assert CounterexampleConfig(N=(2, 3, 4), ray_count=4).depth == 3
        with pytest.raises(ValueError, match="at least one level width"):
            CounterexampleConfig(N=(), ray_count=8)

    def test_rejects_too_few_rays(self):
        with pytest.raises(ValueError, match="need at least 3"):
            CounterexampleConfig(N=(2, 3, 4), ray_count=2)
        with pytest.raises(ValueError, match="need at least 1"):
            CounterexampleConfig(N=(5,), ray_count=0)

    def test_level_positions_partition(self):
        cfg = CounterexampleConfig()
        levels = level_oracle(cfg.N)
        assert levels[:3] == [[1], [2, 3], [4, 5, 6]]
        assert cfg.starts == (2, 4, 7, 11, 16, 22, 29)
        seen = set()
        for t in range(0, cfg.depth + 1):
            pos = set(levels[t])
            assert not (pos & seen)
            seen |= pos
            if t:
                assert list(range(cfg.starts[t - 1], cfg.starts[t])) == levels[t]


class TestFamily:
    def test_round_robin_covers(self, cfg):
        for config in (cfg, CounterexampleConfig(N=(2, 3, 4), ray_count=3),
                       CounterexampleConfig(N=(3, 5, 8, 13), ray_count=8)):
            for t in range(1, config.depth):
                hit = {config.choice(j, t) for j in range(1, config.ray_count + 1)}
                assert hit == set(level_oracle(config.N)[t])


class TestRayPoints:
    def test_first_steps(self, cfg):
        assert ray_point(cfg, 1, 0) == {}
        assert ray_point(cfg, 1, 1) == {1: 1}

    def test_value_formula(self, cfg):
        for j in (1, 4, 8):
            for t in range(2, 7):
                pt = ray_point(cfg, j, t)
                assert pt[1] == (3**t - 1) // 2
                for u in range(1, t):
                    assert pt[cfg.choice(j, u)] == (3**t - 3**u) // 2

    def test_known_point(self, cfg):
        # ray 1 chooses positions 2, 4, 7, ... round robin
        assert ray_point(cfg, 1, 3) == {1: 13, 2: 12, 4: 9}

    def test_membership_in_carrier(self, cfg):
        for j in range(1, 9):
            for t in range(0, 7):
                assert in_carrier(cfg, ray_point(cfg, j, t))

    def test_carrier_rejects_bad_multiples(self, cfg):
        assert not in_carrier(cfg, {2: 1})  # level-1 position needs a multiple of 3
        assert not in_carrier(cfg, {1: -1})
        assert not in_carrier(cfg, {99: 3})

    def test_pairwise_distance_formula(self, cfg):
        for j in (1, 5):
            pts = [ray_point(cfg, j, t) for t in range(0, 7)]
            for s in range(0, 7):
                for t in range(s + 1, 7):
                    assert linf_distance(pts[s], pts[t]) == (3**t - 3**s) // 2

    def test_rays_are_metric_rays(self, cfg):
        for j in range(1, 9):
            pts = [ray_point(cfg, j, t) for t in range(0, 7)]
            assert verify_metric_ray(pts)

    def test_tampered_ray_fails(self, cfg):
        pts = [ray_point(cfg, 2, t) for t in range(0, 5)]
        pts[3] = dict(pts[3])
        pts[3][1] += 1
        assert not verify_metric_ray(pts)


class TestSeparation:
    def test_witnesses_meet_bound(self, cfg):
        frozen = {2: 3, 3: 9, 4: 36, 5: 117, 6: 360}
        for t in range(2, 7):
            w = separation_witness(cfg, t)
            assert w.rays == tuple(range(1, cfg.N[t - 2] + 1))
            assert len(w.points) == cfg.N[t - 2]
            assert w.bound == 3 ** (t - 1)
            assert w.min_distance >= w.bound
            assert w.min_distance == frozen[t]

    def test_epsilon_value_and_exactness(self):
        assert verify_separation_epsilon()

    def test_equality_is_sharp(self):
        # one directly computed instance of the level inequality at eps = 1/9
        eps = Fraction(1, 9)
        t = 5
        assert Fraction(3) ** (t - 1) - 2 * eps * Fraction(3) ** t == Fraction(3) ** (t - 2)


class TestWholeSpace:
    def test_ball_counts(self, cfg):
        assert ball_point_count(cfg, 0) == 1
        assert ball_point_count(cfg, 13) == 10
        assert ball_point_count(cfg, (3**6 - 1) // 2) == 34

    def test_metric_space_agrees_with_sparse_distances(self, cfg):
        sp = to_metric_space(cfg)
        assert len(sp) == 34
        assert sp.basepoint in sp.ids
        # cross-check the ball against the sparse count
        assert len(ball(sp, 13.0)) == ball_point_count(cfg, 13)

    def test_space_distances_are_integers(self, cfg):
        sp = to_metric_space(cfg)
        D = sp.matrix
        assert np.array_equal(D, np.round(D))


@st.composite
def small_config(draw):
    depth = draw(st.integers(min_value=2, max_value=20))
    base = draw(st.integers(min_value=2, max_value=3))
    widths = tuple(base + i for i in range(depth))
    # levels 1..T-1 need a ray per position; the last width needs none
    rays = draw(st.integers(min_value=widths[-2], max_value=widths[-1] + 2))
    return CounterexampleConfig(N=widths, ray_count=rays)


@settings(max_examples=25, deadline=None)
@given(small_config())
def test_any_valid_family_has_exact_witnesses(cfg):
    for j in range(1, cfg.ray_count + 1):
        pts = [ray_point(cfg, j, t) for t in range(0, cfg.depth + 1)]
        assert verify_metric_ray(pts)
    for t in range(2, cfg.depth + 1):
        w = separation_witness(cfg, t)
        assert w.min_distance >= 3 ** (t - 1)


@settings(max_examples=50, deadline=None)
@given(small_config())
def test_level_layout_matches_oracle(cfg):
    levels, T = level_oracle(cfg.N), cfg.depth
    for t in range(1, T + 1):
        assert list(range(cfg.starts[t - 1], cfg.starts[t])) == levels[t]
        assert all(cfg.choice(j, t) in levels[t] for j in range(1, cfg.ray_count + 1))
        if t < T:
            assert {cfg.choice(j, t) for j in range(1, cfg.N[t - 1] + 1)} == set(levels[t])
    for t in (0, T + 1):
        with pytest.raises(IndexError):
            cfg.choice(1, t)
    past = levels[-1][-1] + 1
    for pos in [0, 1, past] + [p for level in levels[1:] for p in (level[0], level[-1])]:
        k = next((t for t, positions in enumerate(levels) if pos in positions), T + 1)
        for val in (0, 3**k, 3**k - 1, 3**k + 1, -3**k):
            assert in_carrier(cfg, {pos: val}) == carrier_oracle(levels, pos, val), (pos, val)


def triple_loop_ray(points) -> bool:
    """The metric-ray conditions read off their definition: distances to
    points[0] strictly increase and d(i,k) = d(i,j) + d(j,k) for i < j < k."""
    m = len(points)
    dist = lambda i, k: linf_distance(points[i], points[k])
    if any(dist(0, i) <= dist(0, i - 1) for i in range(1, m)):
        return False
    return all(dist(i, k) == dist(i, j) + dist(j, k)
               for i in range(m) for j in range(i + 1, m) for k in range(j + 1, m))


sparse_vectors = st.dictionaries(st.integers(0, 3), st.integers(-6, 6), max_size=4)


@st.composite
def monotone_walks(draw):
    """Walks whose coordinates never decrease; when coordinate 0 carries
    every step's largest increment the walk is a metric ray (if no step is 0)."""
    dim = draw(st.integers(1, 3))
    lead = draw(st.booleans())
    pts, cur = [{}], [0] * dim
    for inc in draw(st.lists(st.lists(st.integers(0, 4), min_size=dim, max_size=dim),
                             max_size=7)):
        if lead:
            inc[0] = max(inc)
        cur = [a + b for a, b in zip(cur, inc)]
        pts.append(dict(enumerate(cur)))
    return pts


@st.composite
def tampered_rays(draw):
    """A ray of the default family with one coordinate of one point moved."""
    cfg = CounterexampleConfig()
    j = draw(st.integers(1, cfg.ray_count))
    pts = [ray_point(cfg, j, t) for t in range(cfg.depth + 1)]
    k = draw(st.integers(0, cfg.depth))
    pos = draw(st.integers(1, 8))
    pts[k][pos] = pts[k].get(pos, 0) + draw(st.integers(-5, 5))
    return pts


@st.composite
def repeated_points(draw):
    pts = draw(st.lists(sparse_vectors, min_size=1, max_size=6))
    k = draw(st.integers(0, len(pts) - 1))
    return pts[: k + 1] + [pts[k]] + pts[k + 1:]


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(sparse_vectors, max_size=7),
    monotone_walks(),
    tampered_rays(),
    repeated_points(),
    st.lists(sparse_vectors, max_size=1),
))
def test_ray_check_agrees_with_triple_loop(points):
    assert verify_metric_ray(points) == triple_loop_ray(points)


def test_ray_check_reads_each_step_once(cfg, monkeypatch):
    calls = 0
    real = counterexample.linf_distance

    def counted(a, b):
        nonlocal calls
        calls += 1
        return real(a, b)

    monkeypatch.setattr(counterexample, "linf_distance", counted)
    pts = [ray_point(cfg, 1, t) for t in range(cfg.depth + 1)]
    assert verify_metric_ray(pts)
    assert calls <= 3 * len(pts)
