"""Block-sum space: vectors and the fold as a norm."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spiralpaste import SUP, BlockVector, SumSpaceSpec

from .norms import block_profile, combine, sum_norm

SPEC3 = SumSpaceSpec(2.0, (2, 3, 1))


def vec(spec, **blocks):
    return BlockVector(spec, {int(k[1:]): np.array(v, dtype=float) for k, v in blocks.items()})


def norm(v):
    """The target norm of one vector: the block sum's fold on shape (1, 1)."""
    return float(v.spec.fold((1, 1), enumerate(block_profile(v)[:, None, None], 1))[0, 0])


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

