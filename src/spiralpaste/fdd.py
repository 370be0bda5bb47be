"""Renorming a sup-aggregated block sum so pairs of blocks add like a 1-sum.

The model keeps finitely many sup-norm blocks under max aggregation (the
ambient norm, optionally with per-block (1 - eps_n) weights as a stress
mode) and defines a second norm: the larger of the ambient norm and the
best sum ||v_j|| + ||v_k|| over two distinct blocks.  The two norms are
equivalent, the second restricts exactly to a 1-sum on any pair of
blocks, and pasting ball embeddings at exponent 1 lands the image of a
pointed space inside such pairs; one pair scan measures the pasted map's
distortion in both norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelInvalid
from .metric import DistortionReport, PointedMetricSpace, distortion as measure_distortion
from .spiral import PastedEmbedding, _check_epsilon, analytic_bound, paste
from .sumspace import SUP, Fold, SumSpaceSpec

__all__ = [
    "FddModel",
    "validate_model",
    "equivalence_ratio",
    "EquivalenceReport",
    "pair_isometry_check",
    "NoCotypeReport",
    "embed_no_cotype",
    "fdd_report",
]


@dataclass(frozen=True)
class FddModel:
    """Finitely many sup-norm blocks with optional per-block weights.

    eps_list entry eps_n scales block n of the ambient norm by (1 - eps_n);
    the all-zero default is the plain max aggregation.
    """

    block_dims: tuple[int, ...]
    eps_list: tuple[float, ...] = ()

    def __post_init__(self):
        dims = SumSpaceSpec(SUP, self.block_dims).block_dims
        eps = tuple(float(e) for e in self.eps_list) or (0.0,) * len(dims)
        if len(eps) != len(dims):
            raise ModelInvalid(f"need one eps per block: got {len(eps)} for {len(dims)} blocks")
        if any(not 0.0 <= e < 1.0 for e in eps):
            raise ModelInvalid("block eps values must lie in [0, 1)")
        object.__setattr__(self, "block_dims", dims)
        object.__setattr__(self, "eps_list", eps)

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    def weights(self) -> np.ndarray:
        return 1.0 - np.asarray(self.eps_list)

    @property
    def fold(self) -> Fold:
        """Fold for (norm_a, ambient): max(ambient, running top1 + top2) and the weighted max.

        The ambient norm is max over blocks of (1 - eps_n) ||v_n||_inf, and
        norm_a is the larger of it and the best sum ||v_j||_inf + ||v_k||_inf
        over two distinct blocks: on a vector supported in two blocks exactly
        the sum of the two block norms, on a single block that block's norm.
        """
        w = self.weights()

        def fold(shape: tuple[int, ...], blocks) -> tuple[np.ndarray, np.ndarray]:
            amb, top1, top2, tmp = (np.zeros(shape) for _ in range(4))
            for b, d in blocks:
                np.multiply(d, w[b - 1], out=tmp)
                np.maximum(amb, tmp, out=amb)
                np.minimum(top1, d, out=tmp)
                np.maximum(top2, tmp, out=top2)
                np.maximum(top1, d, out=top1)
            np.add(top1, top2, out=top1)
            return np.maximum(amb, top1, out=top1), amb

        return fold


def _sup(rng: np.random.Generator, dim: int) -> float:
    """Sup norm of a fresh uniform [-1, 1) vector of length ``dim``."""
    return float(np.max(np.abs(rng.uniform(-1.0, 1.0, size=dim))))


def validate_model(model: FddModel, epsilon: float) -> None:
    """Check the model's product condition prod(1 - eps_n) > 1 - epsilon,
    compared as 1 - prod < epsilon: 1 - epsilon rounds to 1 at tiny epsilon.

    The other defining inequality, ||u + v|| >= (1 - eps_n) ||u|| for a
    head u (blocks <= n) and a tail v (blocks > n), holds in every model:
    the blocks are disjoint, so ambient(u + v) >= ambient(u) >=
    (1 - eps_n) ambient(u), also in floating point (the head products are
    the same, the max is exact and the factor is <= 1).  Raises
    ModelInvalid when the product condition fails.
    """
    _check_epsilon(epsilon)
    prod = float(np.prod(model.weights()))
    if not 1.0 - prod < epsilon:
        raise ModelInvalid(f"prod(1 - eps_n) = {prod:.6g} must exceed 1 - eps = 1 - {epsilon:.6g}")


@dataclass(frozen=True)
class EquivalenceReport:
    max_ratio: float
    bound: float
    samples: int


def equivalence_ratio(model: FddModel, epsilon: float, *, seed: int, n: int) -> EquivalenceReport:
    """Largest norm_a / ambient ratio over seeded random and extremal vectors.

    The candidate set always includes every single-block unit and every
    equal two-block pair, so the structural maximum (exactly 2 in the
    unweighted model) is attained, not merely approached.

    Why ``max_ratio <= bound`` needs no slack once ``validate_model`` has
    passed.  Let w be the weights 1 - eps_n, u = 2^-53, and t1 >= t2 a
    candidate's two largest block norms, t1 in block m.  The fold's pair
    term fl(t1 + t2) is at most 2 t1, and the ambient norm is at least
    fl(w_m t1) >= min(w) t1 (1 - u), so the computed ratio is at most
    (2 / min(w)) (1 + u) / (1 - u); on the unit candidates (t1 = 1) it is
    at most fl(2 / min(w)).  The product condition gives min(w) >= prod(w)
    > 1 - eps, and the bound 4 (1 + eps) / (1 - eps) is 2 (1 + eps) times
    2 / (1 - eps): a factor above 2 that a few ulps cannot close.
    """
    rng = np.random.default_rng(seed)
    B = model.num_blocks
    unit = np.eye(B)
    cands = [*unit, *(unit[j] + unit[k] for j in range(B) for k in range(j + 1, B))]
    for _ in range(n):
        prof = np.zeros(B)
        drawn = False
        for b in range(B):
            if rng.random() < 0.6:
                prof[b] = _sup(rng, model.block_dims[b])
                drawn = True
        if not drawn:
            b = int(rng.integers(1, B + 1)) - 1
            prof[b] = _sup(rng, model.block_dims[b])
        cands.append(prof)

    profiles = np.stack(cands, axis=1)[:, None]
    a, amb = model.fold((1, len(cands)), zip(range(1, B + 1), profiles))
    bound = 4.0 * (1.0 + epsilon) / (1.0 - epsilon)
    best = float(np.max(a[amb > 0.0] / amb[amb > 0.0], initial=1.0))
    return EquivalenceReport(best, bound, len(cands))


def pair_isometry_check(model: FddModel, j: int, k: int, *, samples: int, seed: int) -> float:
    """Max |norm_a(v) - (||v_j|| + ||v_k||)| over random two-block vectors.

    It is exactly 0.0 for every model.  With a = ||v_j|| and b = ||v_k||,
    the fold gives top1 + top2 = fl(a + b) and an ambient norm amb =
    max(fl(w_j a), fl(w_k b)) <= max(a, b), since no weight exceeds 1; and
    max(a, b) <= fl(a + b), as rounding is monotone.  So norm_a =
    max(amb, fl(a + b)) is the reference fl(a + b) itself.  Each sample
    draws v_j's coordinates, then v_k's, from one seeded stream.
    """
    if j == k:
        raise ValueError("the pair must use two distinct blocks")
    for b in (j, k):
        if not 1 <= b <= model.num_blocks:
            raise IndexError(f"block {b} outside 1..{model.num_blocks}")
    dj, dk = model.block_dims[j - 1], model.block_dims[k - 1]
    draws = np.abs(np.random.default_rng(seed).uniform(-1.0, 1.0, size=(samples, dj + dk)))
    prof = np.stack([draws[:, :dj].max(axis=1), draws[:, dj:].max(axis=1)])[:, None]
    a, _ = model.fold((1, samples), zip((j, k), prof))
    return float(np.max(np.abs(a - (prof[0] + prof[1])), initial=0.0))


# Embedding through the renormed model ----------------------------------------

@dataclass(frozen=True)
class NoCotypeReport:
    """Distortion of the pasted map measured in both norms of the model."""

    embedding: PastedEmbedding
    model: FddModel
    report_a: DistortionReport
    report_ambient: DistortionReport


def embed_no_cotype(
    space: PointedMetricSpace,
    epsilon: float,
    eps_list: tuple[float, ...] | None = None,
) -> NoCotypeReport:
    """Paste ball embeddings at exponent 1 and measure in the renormed model.

    Each image touches at most two consecutive blocks, where the renormed
    norm is exactly the 1-sum, so the renormed distortion is judged against
    ``analytic_bound(1, eps)`` verbatim.  The ambient (max) distortion is
    judged against result (3)'s formula 4 (1 + eps)^2 / (1 - eps) as the
    paper states it, which is not derived here: the chain this code proves,
    the renormed bound times the equivalence factor 2 of the all-zero
    eps_list, gives 108.0 at eps = 0.2 (formula: 7.2) and 5.5 at eps = 0.1
    (formula: 5.38).  One pair
    scan, pruned by the pasted map's envelope, measures both norms.  Its
    ambient distance is max_n (1 - eps_n) ||x_n - y_n||_inf, the weighted
    max of the difference's block norms; for weights other than 1 it can
    differ by ulps from the sup distance of the weighted images.
    """
    emb = paste(space, 1.0, epsilon)
    model = FddModel(emb.spec.block_dims, tuple(eps_list or ()))
    validate_model(model, epsilon)
    report_a, report_ambient = measure_distortion(
        space,
        emb.images,
        model,
        (analytic_bound(1.0, epsilon), 4.0 * (1.0 + epsilon) ** 2 / (1.0 - epsilon)),
        candidates=emb.candidates,
    )
    return NoCotypeReport(emb, model, report_a, report_ambient)


def fdd_report(
    space: PointedMetricSpace,
    epsilon: float,
    eps_list: tuple[float, ...] | None = None,
    *,
    samples: int = 200,
    seed: int = 0,
) -> tuple[dict, bool]:
    """Result (3)'s report and whether its checks all pass: the pasted map's
    distortion in both norms of the model, the sampled norm equivalence and
    the pair isometry of blocks 1 and 2.  The two sampled checks are judged
    exactly, as ``equivalence_ratio`` and ``pair_isometry_check`` prove."""
    result = embed_no_cotype(space, epsilon, eps_list=eps_list)
    model = result.model
    eq = equivalence_ratio(model, epsilon, seed=seed, n=samples)
    pair_dev = 0.0
    if model.num_blocks >= 2:
        pair_dev = pair_isometry_check(model, 1, 2, samples=samples, seed=seed)
    checks = {
        "pair_isometry": pair_dev == 0.0,
        "equivalence_within_bound": eq.max_ratio <= eq.bound,
        "renormed_within_bound": result.report_a.passed,
        "ambient_within_bound": result.report_ambient.passed,
    }
    payload = {
        "model": {"block_dims": list(model.block_dims), "eps_list": list(model.eps_list)},
        "equivalence": {"max_ratio": eq.max_ratio, "bound": eq.bound, "samples": eq.samples},
        "pair_isometry_deviation": pair_dev,
        "report_renormed": result.report_a.to_doc(),
        "report_ambient": result.report_ambient.to_doc(),
        "checks": checks,
    }
    return payload, all(checks.values())
