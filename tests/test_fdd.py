"""The renormed block model: weighted ambient norm, pair sums, the no-cotype embedding."""

import math

import numpy as np
import pytest

from spiralpaste import (
    BlockVector,
    FddModel,
    ModelInvalid,
    SUP,
    SumSpaceSpec,
    analytic_bound,
    distortion,
    embed_no_cotype,
    equivalence_ratio,
    pair_isometry_check,
    validate_model,
)

from .norms import block_profile, combine, norm_a

MODEL3 = FddModel((2, 2, 3))


def mv(model, **blocks):
    spec = SumSpaceSpec(SUP, model.block_dims)
    return BlockVector(spec, {int(k[1:]): np.array(v, dtype=float) for k, v in blocks.items()})


def folded(model, v):
    """(norm_a, ambient) of one vector: the model's fold on shape (1, 1)."""
    blocks = zip(range(1, model.num_blocks + 1), block_profile(v)[:, None, None])
    return tuple(float(x[0, 0]) for x in model.fold((1, 1), blocks))


class TestModel:
    def test_defaults_to_zero_eps(self):
        assert MODEL3.eps_list == (0.0, 0.0, 0.0)
        assert np.array_equal(MODEL3.weights(), [1.0, 1.0, 1.0])

    def test_rejects_bad_eps(self):
        with pytest.raises(ModelInvalid):
            FddModel((2, 2), (0.0, 1.0))
        with pytest.raises(ModelInvalid, match="got 1 for 2 blocks"):
            FddModel((2, 2), (0.5,))

    def test_rejects_empty_dims(self):
        with pytest.raises(ValueError):
            FddModel(())


class TestNorms:
    def test_single_block_norms_agree(self):
        v = mv(MODEL3, b2=[3.0, -1.0])
        assert folded(MODEL3, v) == (3.0, 3.0)

    def test_two_block_pair_sum_wins(self):
        v = mv(MODEL3, b1=[3.0, 0.0], b2=[4.0, 1.0])
        assert folded(MODEL3, v) == (7.0, 4.0)

    def test_three_blocks_top_two(self):
        v = mv(MODEL3, b1=[1.0, 0.0], b2=[4.0, 0.0], b3=[2.0, 0.0, 0.0])
        assert folded(MODEL3, v)[0] == 6.0  # 4 + 2, the two largest

    def test_weighted_ambient(self):
        model = FddModel((2, 2), (0.5, 0.0))
        v = mv(model, b1=[4.0, 0.0])
        # the ambient norm is scaled by 1 - eps_1, the pair term is unweighted
        assert folded(model, v) == (4.0, 2.0)

    def test_norm_a_dominates_ambient(self):
        rng = np.random.default_rng(0)
        model = FddModel((2, 3), (0.1, 0.2))
        for _ in range(100):
            v = BlockVector(
                SumSpaceSpec(SUP, model.block_dims),
                {1: rng.normal(size=2), 2: rng.normal(size=3)},
            )
            a, amb = folded(model, v)
            assert a >= amb - 1e-15


class TestValidateAndEquivalence:
    def test_valid_model_passes(self):
        assert validate_model(FddModel((2, 2, 2), (0.01, 0.02, 0.03)), 0.1)

    def test_eps_budget_enforced(self):
        with pytest.raises(ModelInvalid):
            validate_model(FddModel((2, 2, 2), (0.05, 0.05, 0.05)), 0.1)

    def test_unweighted_max_is_exactly_two(self):
        rep = equivalence_ratio(MODEL3, 0.2, seed=0, n=100)
        assert rep.max_ratio == 2.0
        assert rep.bound == pytest.approx(4.0 * 1.2 / 0.8, rel=1e-15)

    def test_weighted_ratio_within_bound(self):
        model = FddModel((2, 2, 2), (0.02, 0.01, 0.03))
        rep = equivalence_ratio(model, 0.1, seed=3, n=300)
        assert 1.0 <= rep.max_ratio <= rep.bound

    def test_pair_isometry_exact_when_unweighted(self):
        for j, k in ((1, 2), (1, 3), (2, 3)):
            assert pair_isometry_check(MODEL3, j, k, samples=200, seed=1) == 0.0

    def test_pair_isometry_rejects_equal_blocks(self):
        with pytest.raises(ValueError):
            pair_isometry_check(MODEL3, 2, 2)
        with pytest.raises(IndexError):
            pair_isometry_check(MODEL3, 1, 9)


class TestEmbedNoCotype:
    def test_reports_within_bounds(self, line):
        for eps in (0.5, 0.2, 0.1):
            res = embed_no_cotype(line, eps)
            amb_bound = 4.0 * (1.0 + eps) ** 2 / (1.0 - eps)
            assert res.report_ambient.distortion <= amb_bound
            assert res.report_a.distortion <= analytic_bound(1.0, eps)
            assert res.report_a.passed and res.report_ambient.passed

    def test_model_matches_embedding_layout(self, line):
        res = embed_no_cotype(line, 0.2)
        assert res.model.block_dims == res.embedding.spec.block_dims

    def test_renormed_measurement_matches_direct_norms(self, line):
        # the vectorised fold must agree with norm_a pair by pair
        res = embed_no_cotype(line, 0.2)
        emb, model = res.embedding, res.model
        ids = line.ids
        worst_hi, worst_lo = 0.0, math.inf
        for i, u in enumerate(ids):
            for v in ids[i + 1:]:
                ratio = norm_a(model, combine(emb.images[u], emb.images[v], -1.0)) / line.dist(u, v)
                worst_hi = max(worst_hi, ratio)
                worst_lo = min(worst_lo, ratio)
        assert res.report_a.distortion == pytest.approx(worst_hi / worst_lo, rel=1e-12)

    def test_ambient_report_is_the_sup_distortion(self, line, tree):
        # with unit weights the fold's ambient array is the sup distance itself
        for space in (line, tree):
            res = embed_no_cotype(space, 0.2)
            direct = distortion(
                space,
                res.embedding.images,
                SumSpaceSpec(SUP, res.model.block_dims),
                analytic_bound=res.report_ambient.analytic_bound,
            )
            assert res.report_ambient == direct

    def test_ambient_within_equivalence_factor(self, line):
        res = embed_no_cotype(line, 0.2)
        assert res.report_ambient.distortion <= 2.0 * res.report_a.distortion + 1e-9

    def test_weighted_variant(self, line):
        res = embed_no_cotype(line, 0.2, eps_list=None)
        k = len(res.model.block_dims)
        small = tuple(0.2 / (10.0 * k) for _ in range(k))
        res2 = embed_no_cotype(line, 0.2, eps_list=small)
        assert res2.report_a.passed and res2.report_ambient.passed

    def test_wrong_eps_list_length(self, line):
        with pytest.raises(ModelInvalid):
            embed_no_cotype(line, 0.2, eps_list=(0.01,))

    def test_overweight_eps_list_invalid(self, line):
        res = embed_no_cotype(line, 0.2)
        k = len(res.model.block_dims)
        with pytest.raises(ModelInvalid):
            embed_no_cotype(line, 0.2, eps_list=tuple(0.15 for _ in range(k)))
