"""Block-sum space: vectors, the fold as a norm, and the flat-triple classifier."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spiralpaste import (
    FLAT_NOT_PROPORTIONAL,
    FLAT_PROPORTIONAL,
    NOT_FLAT,
    SUP,
    BlockVector,
    DegenerateTriple,
    SumSpaceSpec,
    flat_triple_check,
)
from spiralpaste.sumspace import fold

from .norms import block_profile, combine, sum_norm

SPEC3 = SumSpaceSpec(2.0, (2, 3, 1))


def vec(spec, **blocks):
    return BlockVector(spec, {int(k[1:]): np.array(v, dtype=float) for k, v in blocks.items()})


def norm(v):
    """The target norm of one vector: the block sum's fold on shape (1, 1)."""
    return float(fold(v.spec.p)((1, 1), enumerate(block_profile(v)[:, None, None], 1))[0, 0])


class TestSpecAndVector:
    def test_spec_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            SumSpaceSpec(0.5, (2,))
        with pytest.raises(ValueError):
            SumSpaceSpec(2.0, ())

    def test_sup_spec_allowed(self):
        spec = SumSpaceSpec(SUP, (2, 2))
        assert spec.p == SUP and spec.num_blocks == 2

    def test_vector_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            vec(SPEC3, b1=[1.0, 2.0, 3.0])

    def test_vector_rejects_unknown_block(self):
        with pytest.raises(ValueError):
            BlockVector(SPEC3, {4: np.zeros(1)})


class TestNorm:
    def test_norm_oracles(self):
        v = vec(SPEC3, b1=[3, 0], b2=[0, 4, 0])
        assert norm(v) == 5.0  # p = 2 on profile (3, 4)
        assert norm(BlockVector(SumSpaceSpec(1.0, (2, 3)), v.blocks)) == 7.0
        assert norm(BlockVector(SumSpaceSpec(SUP, (2, 3)), v.blocks)) == 4.0

    def test_huge_profile_no_overflow(self):
        spec = SumSpaceSpec(2.0, (1, 1))
        v = vec(spec, b1=[1e9], b2=[1e9])
        assert math.isclose(norm(v), 1e9 * math.sqrt(2.0), rel_tol=1e-15)

    def test_zero_vector(self):
        assert norm(BlockVector(SPEC3, {})) == 0.0

    @given(st.integers(min_value=-30, max_value=30))
    def test_dyadic_scaling_exact(self, k):
        v = vec(SPEC3, b1=[1.5, -2.25], b2=[0.75, 0, 3.5])
        lam = 2.0**k
        assert norm(combine(vec(SPEC3), v, lam)) == lam * norm(v)

    @given(
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
        st.sampled_from([1.0, 1.5, 2.0, 3.0, SUP]),
    )
    def test_generic_scaling(self, lam, p):
        spec = SumSpaceSpec(p, (2, 3, 1))
        v = vec(spec, b1=[1.5, -2.25], b2=[0.75, 0, 3.5], b3=[-1.0])
        assert math.isclose(norm(combine(vec(spec), v, lam)), lam * norm(v), rel_tol=1e-12)

    @given(
        st.lists(st.floats(-10, 10), min_size=6, max_size=6),
        st.lists(st.floats(-10, 10), min_size=6, max_size=6),
        st.sampled_from([1.0, 1.5, 2.0, 3.0, SUP]),
    )
    @settings(max_examples=200)
    def test_triangle_inequality(self, a, b, p):
        spec = SumSpaceSpec(p, (2, 3, 1))
        u = vec(spec, b1=a[:2], b2=a[2:5], b3=a[5:])
        v = vec(spec, b1=b[:2], b2=b[2:5], b3=b[5:])
        assert norm(combine(u, v)) <= norm(u) + norm(v) + 1e-12 * (1 + norm(u) + norm(v))

    @given(
        st.lists(st.none() | st.floats(min_value=1e-300, max_value=1e300), min_size=1, max_size=8),
        st.sampled_from([1.0, 1.5, 2.0, 3.0, 10.0, SUP]),
    )
    @settings(max_examples=300)
    def test_fold_matches_the_plain_norm(self, block_norms, p):
        # the streamed fold on shape (1, 1) against one max-scaled p-sum; None is an absent block
        spec = SumSpaceSpec(p, (2,) * len(block_norms))
        v = BlockVector(spec, {k: np.array([0.5 * x, -x])
                               for k, x in enumerate(block_norms, 1) if x is not None})
        assert math.isclose(norm(v), sum_norm(v), rel_tol=1e-15)

    @given(st.lists(st.floats(-10, 10), min_size=6, max_size=6))
    def test_exponent_monotonicity(self, a):
        # the block profile is a fixed vector; lp norms shrink as p grows
        vals = []
        for p in (1.0, 1.5, 2.0, 3.0, SUP):
            spec = SumSpaceSpec(p, (2, 3, 1))
            vals.append(norm(vec(spec, b1=a[:2], b2=a[2:5], b3=a[5:])))
        for lo, hi in zip(vals, vals[1:]):
            assert hi <= lo + 1e-12 * (1 + lo)


class TestFlatTriple:
    def test_collinear_is_flat_proportional(self):
        spec = SumSpaceSpec(2.0, (2, 2))
        x = vec(spec, b1=[0, 0], b2=[0, 0])
        z = vec(spec, b1=[2, 1], b2=[-1, 3])
        y = combine(x, combine(z, x, -1.0), 0.25)
        verdict, ratio = flat_triple_check(x, y, z)
        assert verdict == FLAT_PROPORTIONAL
        assert math.isclose(ratio, 0.25 / 0.75, rel_tol=1e-12)

    def test_disjoint_support_p1_flat_not_proportional(self):
        spec = SumSpaceSpec(1.0, (2, 2))
        x = vec(spec)
        y = vec(spec, b1=[3, 1])
        z = vec(spec, b1=[3, 1], b2=[0, 2])
        verdict, ratio = flat_triple_check(x, y, z)
        assert verdict == FLAT_NOT_PROPORTIONAL and ratio is None

    def test_generic_triple_not_flat(self):
        spec = SumSpaceSpec(2.0, (2, 2))
        x = vec(spec, b1=[0, 0])
        y = vec(spec, b1=[1, 0])
        z = vec(spec, b1=[1, 1], b2=[1, 0])
        verdict, ratio = flat_triple_check(x, y, z)
        assert verdict == NOT_FLAT and ratio is None

    def test_degenerate_raises(self):
        spec = SumSpaceSpec(2.0, (2,))
        x = vec(spec, b1=[1, 1])
        with pytest.raises(DegenerateTriple):
            flat_triple_check(x, x, vec(spec, b1=[2, 2]))

    def test_sup_rejected(self):
        spec = SumSpaceSpec(SUP, (2,))
        x = vec(spec, b1=[0, 0])
        y = vec(spec, b1=[1, 0])
        z = vec(spec, b1=[2, 0])
        with pytest.raises(ValueError):
            flat_triple_check(x, y, z)

    def test_mismatched_specs_rejected(self):
        x = vec(SumSpaceSpec(2.0, (2,)), b1=[0, 0])
        y = vec(SumSpaceSpec(1.0, (2,)), b1=[1, 0])
        with pytest.raises(ValueError, match="mismatched specs"):
            flat_triple_check(x, y, x)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.sampled_from([1.5, 2.0, 3.0]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=150)
    def test_random_collinear(self, t, p, seed):
        rng = np.random.default_rng(seed)
        spec = SumSpaceSpec(p, (2, 3, 1))
        x = vec(spec, b1=rng.normal(size=2), b2=rng.normal(size=3), b3=rng.normal(size=1))
        step = vec(spec, b1=rng.normal(size=2), b2=rng.normal(size=3), b3=rng.normal(size=1))
        if sum_norm(step) < 1e-3:
            return
        z = combine(x, step)
        y = combine(x, step, t)
        verdict, ratio = flat_triple_check(x, y, z)
        assert verdict == FLAT_PROPORTIONAL
        assert math.isclose(ratio, t / (1.0 - t), rel_tol=1e-6)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.sampled_from([1.0, 1.5, 2.0, 3.0, 7.0]),
        st.booleans(),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=300)
    def test_verdicts_match_the_plain_norm_rule(self, t, p, collinear, seed):
        # the classifier's rule applied to tests.norms' plain norms of the three differences
        rng = np.random.default_rng(seed)
        spec = SumSpaceSpec(p, (2, 3, 1))
        if collinear:  # test_random_collinear's triples
            x, step = (vec(spec, b1=rng.normal(size=2), b2=rng.normal(size=3),
                           b3=rng.normal(size=1)) for _ in range(2))
            y, z = combine(x, step, t), combine(x, step)
        else:  # each block present with probability 1/2
            x, y, z = (BlockVector(spec, {k: rng.normal(size=d)
                                          for k, d in enumerate(spec.block_dims, 1)
                                          if rng.random() < 0.5}) for _ in range(3))
        tol = 1e-8
        d_xy, d_yz, d_xz = (sum_norm(combine(u, v, -1.0)) for u, v in ((x, y), (y, z), (x, z)))
        scale = max(d_xy, d_yz, d_xz, 1.0)
        if min(d_xy, d_yz, d_xz) <= tol * scale:
            with pytest.raises(DegenerateTriple):
                flat_triple_check(x, y, z, tol)
            return
        verdict, ratio = flat_triple_check(x, y, z, tol)
        if abs(d_xz - (d_xy + d_yz)) > tol * scale:
            assert verdict == NOT_FLAT and ratio is None
            return
        a, b = block_profile(combine(x, y, -1.0)), block_profile(combine(y, z, -1.0))
        r = float(a @ b) / float(b @ b)
        if r > 0 and float(np.max(np.abs(a - r * b))) <= tol * scale:
            assert verdict == FLAT_PROPORTIONAL and math.isclose(ratio, r, rel_tol=1e-12)
        else:
            assert verdict == FLAT_NOT_PROPORTIONAL and ratio is None
