"""Plain per-vector target norms, the oracles the folds are checked against.

Each reads one vector's block profile and aggregates it directly, with the
max-scaled arithmetic of a single p-sum: block norms over their max m,
summed as p-th powers, then m * sum^(1/p).  They share no code with the
streamed folds in ``spiralpaste.sumspace`` and ``spiralpaste.fdd``.
``combine`` forms the differences and combinations they are applied to.
"""

import numpy as np

from spiralpaste import SUP, BlockVector


def block_profile(v):
    """Per-block sup norms over the full block range, zeros included."""
    prof = np.zeros(v.spec.num_blocks)
    for k, arr in v.blocks.items():
        prof[k - 1] = np.max(np.abs(arr))
    return prof


def combine(u, v, t=1.0):
    """u + t * v, block by block; a block absent from both stays absent."""
    assert u.spec == v.spec
    blocks = {k: arr.copy() for k, arr in u.blocks.items()}
    for k, arr in v.blocks.items():
        blocks[k] = blocks[k] + t * arr if k in blocks else t * arr
    return BlockVector(u.spec, blocks)


def sum_norm(v):
    """(sum_n ||v_n||_inf^p)^(1/p), or the max under SUP."""
    prof = block_profile(v)
    m = float(np.max(prof))
    if m == 0.0:
        return 0.0
    if v.spec.p == SUP:
        return m
    return m * float(np.sum((prof / m) ** v.spec.p)) ** (1.0 / v.spec.p)


def ambient_norm(model, v):
    """max over blocks of (1 - eps_n) ||v_n||_inf."""
    return float(np.max(model.weights() * block_profile(v)))


def norm_a(model, v):
    """max(ambient norm, max over blocks j != k of ||v_j||_inf + ||v_k||_inf)."""
    prof = block_profile(v)
    top = np.sort(prof)[-2:]
    return max(ambient_norm(model, v), float(np.sum(top)))
