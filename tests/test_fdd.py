"""The renormed block model: weighted ambient norm, pair sums, the no-cotype embedding."""

import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    fdd_report,
    load_space,
    pair_isometry_check,
    read_document,
    validate_model,
)

from .conftest import FDD_DEMO_LINE24, LINE24, pinned_payload
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


@st.composite
def valid_weighted_models(draw):
    """(model, eps): 2-5 blocks of 1-6 coordinates whose weights keep prod(1 - eps_n) > 1 - eps."""
    eps = draw(st.floats(min_value=1e-6, max_value=0.9))
    dims = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=5))
    # each eps_n below 1 - (1 - eps)^(1/B), so the product clears 1 - eps
    cap = 0.999 * -math.expm1(math.log1p(-eps) / len(dims))
    shares = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=len(dims), max_size=len(dims)))
    return FddModel(tuple(dims), tuple(cap * f for f in shares)), eps


class TestValidateAndEquivalence:
    def test_valid_model_passes(self):
        validate_model(FddModel((2, 2, 2), (0.01, 0.02, 0.03)), 0.1)

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

    @settings(max_examples=60, deadline=None)
    @given(valid_weighted_models(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_sampled_checks_are_exact_on_valid_models(self, case, seed):
        # the docstrings' proofs: the pair deviation is exactly 0.0, and the
        # ratio is at most (2 / min(w)) (1 + u) / (1 - u), u = 2^-53, under half the bound
        model, eps = case
        validate_model(model, eps)
        for j, k in combinations(range(1, model.num_blocks + 1), 2):
            assert pair_isometry_check(model, j, k, samples=40, seed=seed) == 0.0
        rep = equivalence_ratio(model, eps, seed=seed, n=40)
        assert rep.max_ratio <= 2.0 / float(np.min(model.weights())) * (1.0 + 2.0**-50)
        assert rep.max_ratio <= rep.bound / 2.0

    def test_pair_isometry_folds_the_per_sample_draws(self, monkeypatch):
        # the one (samples, d_j + d_k) draw reads the stream a per-sample loop
        # reads: v_j's coordinates, then v_k's, sample after sample
        real, folded_blocks = FddModel.fold, []

        def recording(model):
            fold = real.fget(model)

            def record(shape, blocks):
                blocks = [(b, d.copy()) for b, d in blocks]
                folded_blocks.append(blocks)
                return fold(shape, blocks)

            return record

        monkeypatch.setattr(FddModel, "fold", property(recording))
        assert pair_isometry_check(MODEL3, 3, 1, samples=50, seed=7) == 0.0
        rng = np.random.default_rng(7)
        loop = [[np.max(np.abs(rng.uniform(-1.0, 1.0, size=d))) for d in (3, 2)] for _ in range(50)]
        [blocks] = folded_blocks
        assert [b for b, _ in blocks] == [3, 1]
        assert np.array_equal(np.stack([d[0] for _, d in blocks], axis=1), loop)

    def test_pair_isometry_rejects_equal_blocks(self):
        with pytest.raises(ValueError):
            pair_isometry_check(MODEL3, 2, 2, samples=10, seed=0)
        with pytest.raises(IndexError):
            pair_isometry_check(MODEL3, 1, 9, samples=10, seed=0)


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


def test_fdd_report_is_the_pinned_report_less_the_cli_keys():
    payload, passed = fdd_report(load_space(read_document(str(LINE24))), 0.2)
    pinned, pinned_passed = pinned_payload(FDD_DEMO_LINE24)
    assert passed is pinned_passed is True
    assert json.loads(json.dumps(payload)) == pinned
