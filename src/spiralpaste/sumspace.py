"""p-sums of finite-dimensional sup-norm blocks.

The target spaces throughout the package are direct sums of blocks
R^{m_1}, R^{m_2}, ... where each block carries the sup norm and the block
norms are aggregated either by a p-th power sum (1 <= p < inf) or by a
plain maximum (the c0-style model, written ``SUP``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .errors import DegenerateTriple

__all__ = [
    "SUP",
    "SumSpaceSpec",
    "BlockVector",
    "flat_triple_check",
    "FLAT_PROPORTIONAL",
    "FLAT_NOT_PROPORTIONAL",
    "NOT_FLAT",
]

# Aggregation-by-maximum sentinel.  Stored as the float infinity so that
# p-comparisons stay ordinary comparisons.
SUP = math.inf

FLAT_PROPORTIONAL = "FLAT_PROPORTIONAL"
FLAT_NOT_PROPORTIONAL = "FLAT_NOT_PROPORTIONAL"
NOT_FLAT = "NOT_FLAT"


@dataclass(frozen=True)
class SumSpaceSpec:
    """Shape of a block sum: aggregation exponent and block dimensions.

    ``p`` is a real in [1, inf); ``SUP`` selects max aggregation.  Block
    indices are 1-based everywhere in the package.
    """

    p: float
    block_dims: tuple[int, ...]

    def __post_init__(self):
        if not (self.p == SUP or self.p >= 1.0):
            raise ValueError(f"aggregation exponent must be >= 1 or SUP, got {self.p}")
        if len(self.block_dims) == 0:
            raise ValueError("need at least one block")
        if any(int(d) != d or d < 1 for d in self.block_dims):
            raise ValueError(f"block dims must be positive integers, got {self.block_dims}")
        object.__setattr__(self, "block_dims", tuple(int(d) for d in self.block_dims))

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)


@dataclass(frozen=True)
class BlockVector:
    """Sparse vector of a block sum: only nonzero blocks are stored.

    ``blocks`` maps 1-based block index -> float array of that block's
    dimension.  Absent blocks are zero.
    """

    spec: SumSpaceSpec
    blocks: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for k, arr in self.blocks.items():
            k = int(k)
            if not 1 <= k <= self.spec.num_blocks:
                raise ValueError(f"block index {k} outside 1..{self.spec.num_blocks}")
            arr = np.asarray(arr, dtype=float)
            if arr.shape != (self.spec.block_dims[k - 1],):
                raise ValueError(
                    f"block {k} has shape {arr.shape}, expected ({self.spec.block_dims[k - 1]},)"
                )
            clean[k] = arr
        object.__setattr__(self, "blocks", clean)


# A fold turns a stream of per-block sup norms into norms of the target:
# fold(shape, blocks) -> array of ``shape``, where ``blocks`` yields (block
# index, array of that shape) and may reuse the array, so a fold must use it
# before asking for the next block.  A block that is zero everywhere is an
# exact no-op of every fold here, so it may be left out.  The distortion
# scan folds its m pairs' distances on shape (m,); the flat-triple check folds
# a triple's three differences on shape (1, 3).  A fold that measures several
# norms in one pass returns a tuple of arrays, one per norm.
Fold = Callable[
    [tuple[int, ...], Iterator[tuple[int, np.ndarray]]], np.ndarray | tuple[np.ndarray, ...]
]


def _max_fold(shape: tuple[int, ...], blocks: Iterator[tuple[int, np.ndarray]]) -> np.ndarray:
    """Sup aggregation: the running max over blocks."""
    out = np.zeros(shape)
    for _, d in blocks:
        np.maximum(out, d, out=out)
    return out


def _power_fold(p: float) -> Fold:
    """p-sum aggregation, streamed and overflow-safe.

    Keeps the running max M and S = sum_b (d_b / M)^p; when M grows, S is
    rescaled by (M_old / M_new)^p, so no power ever exceeds 1.  A zero
    block leaves M and S exactly as they were.
    """

    tiny = math.ulp(0.0)

    def fold(shape: tuple[int, ...], blocks: Iterator[tuple[int, np.ndarray]]) -> np.ndarray:
        M, S = np.zeros(shape), np.zeros(shape)
        grown, safe = np.empty(shape), np.empty(shape)
        for _, d in blocks:
            np.maximum(M, d, out=grown)
            # where grown is 0 so are M and d, and 0 / tiny is 0
            np.maximum(grown, tiny, out=safe)
            np.divide(M, safe, out=M)
            np.power(M, p, out=M)
            np.multiply(S, M, out=S)
            np.divide(d, safe, out=safe)
            np.power(safe, p, out=safe)
            np.add(S, safe, out=S)
            M, grown = grown, M
        np.power(S, 1.0 / p, out=S)
        return np.multiply(M, S, out=S)

    return fold


def fold(p: float) -> Fold:
    """The fold of the block sum with exponent ``p``: the max under SUP, else the p-sum."""
    return _max_fold if p == SUP else _power_fold(p)


def flat_triple_check(
    x: BlockVector, y: BlockVector, z: BlockVector, tol: float = 1e-8
) -> tuple[str, float | None]:
    """Classify a triple by the additivity ||x-z|| = ||x-y|| + ||y-z||.

    Returns (verdict, ratio).  A triple is FLAT when the norm identity
    holds to ``tol``; a flat triple is PROPORTIONAL when the per-block
    profile of x - y is a positive multiple of the profile of y - z
    (least-squares multiplier, sup-norm residual <= tol).  For finite
    p strictly between 1 and infinity flatness forces proportionality;
    at p = 1 it need not, which the verdict records.
    """
    if x.spec.p == SUP:
        raise ValueError("flat-triple classification needs a finite aggregation exponent")
    if not x.spec == y.spec == z.spec:
        raise ValueError("mismatched specs")
    # block b's sup norms of x - y, y - z and x - z; an absent block is zero
    prof = np.zeros((x.spec.num_blocks, 1, 3))
    for j, (u, v) in enumerate(((x, y), (y, z), (x, z))):
        for k in u.blocks.keys() | v.blocks.keys():
            prof[k - 1, 0, j] = np.max(np.abs(u.blocks.get(k, 0.0) - v.blocks.get(k, 0.0)))
    d_xy, d_yz, d_xz = map(float, fold(x.spec.p)((1, 3), enumerate(prof, 1))[0])
    scale = max(d_xy, d_yz, d_xz, 1.0)
    if min(d_xy, d_yz, d_xz) <= tol * scale:
        raise DegenerateTriple(f"coincident points in triple: distances {(d_xy, d_yz, d_xz)}")
    if abs(d_xz - (d_xy + d_yz)) > tol * scale:
        return NOT_FLAT, None
    # contiguous copies: a strided a @ b can round differently
    a, b = prof[:, 0, 0].copy(), prof[:, 0, 1].copy()
    denom = float(b @ b)
    ratio = float(a @ b) / denom
    if ratio > 0 and float(np.max(np.abs(a - ratio * b))) <= tol * scale:
        return FLAT_PROPORTIONAL, ratio
    return FLAT_NOT_PROPORTIONAL, None
