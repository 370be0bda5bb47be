"""p-sums of finite-dimensional sup-norm blocks.

The target spaces throughout the package are direct sums of blocks
R^{m_1}, R^{m_2}, ... where each block carries the sup norm and the block
norms are aggregated either by a p-th power sum (1 <= p < inf) or by a
plain maximum (the c0-style model, written ``SUP``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = ["SUP", "SumSpaceSpec", "BlockVector"]

# Aggregation-by-maximum sentinel.  Stored as the float infinity so that
# p-comparisons stay ordinary comparisons.
SUP = math.inf

# Entries of each work buffer of the pair kernel's gathers: 256 KiB of doubles.
# A scan of all the 600-point tree's pairs took 0.37 s at 2^17, not 0.27 s
# (medians of 6, 2-CPU Xeon, numpy 2.4).
_PAIR_CHUNK = 1 << 15


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

    @property
    def fold(self) -> Fold:
        """The fold of the target norm: the max under SUP, else the p-sum."""
        return _max_fold if self.p == SUP else _power_fold(self.p)


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


def _pair_distances(
    vectors: Sequence[BlockVector], I: np.ndarray, J: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (b, d_b) for every block some pair touches, d_b[k] = ||x_I[k],b - x_J[k],b||_inf.

    ``vectors`` is indexed like I and J.  A pair with one vector outside the
    block's support (the vectors that have it) is at the other's block norm,
    a pair with both outside at 0.  Pairs with both inside gather both
    vectors, ``_PAIR_CHUNK`` entries at a time.  Blocks come in index order;
    d_b is one buffer, overwritten for every block.
    """
    support: dict[int, list[tuple[int, np.ndarray]]] = {}
    used = np.zeros(len(vectors), dtype=bool)
    used[I] = used[J] = True
    for i in np.flatnonzero(used):
        for b, arr in vectors[i].blocks.items():
            support.setdefault(b, []).append((i, arr))
    d = np.empty(len(I))
    for b in sorted(support):
        rows, arrays = map(list, zip(*support[b]))
        V = np.stack(arrays)
        at, norm = np.full(len(vectors), -1), np.zeros(len(vectors))
        at[rows] = np.arange(len(rows))
        norm[rows] = np.max(np.abs(V), axis=1)
        step = max(1, _PAIR_CHUNK // V.shape[1])
        for k0 in range(0, len(I), _PAIR_CHUNK):
            i, j = I[k0 : k0 + _PAIR_CHUNK], J[k0 : k0 + _PAIR_CHUNK]
            part = d[k0 : k0 + _PAIR_CHUNK]
            np.maximum(norm[i], norm[j], out=part)
            both = np.flatnonzero((at[i] >= 0) & (at[j] >= 0))
            for s0 in range(0, len(both), step):
                k = both[s0 : s0 + step]
                diff = V[at[i[k]]]
                diff -= V[at[j[k]]]
                part[k] = np.max(np.abs(diff, out=diff), axis=1)
        yield b, d


# A fold turns a stream of per-block sup norms into norms of the target:
# fold(shape, blocks) -> array of ``shape``, where ``blocks`` yields (block
# index, array of that shape) and may reuse the array, so a fold must use it
# before asking for the next block.  A block that is zero everywhere is an
# exact no-op of every fold here, so it may be left out.  The distortion scan
# and the norm check fold m pairs' ``_pair_distances`` on shape (m,).  A fold
# that measures several norms in one pass returns a tuple of arrays, one per
# norm.
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
