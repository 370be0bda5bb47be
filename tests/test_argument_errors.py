"""Library calls with out-of-range arguments raise a named exception and message."""

import math
import re

import numpy as np
import pytest

from spiralpaste import (
    SUP,
    BlockVector,
    CounterexampleConfig,
    FddModel,
    PointedMetricSpace,
    SumSpaceSpec,
    analytic_bound,
    ball,
    blend,
    blend_theta,
    distortion,
    grid_space,
    line_space,
    paste,
    radii_schedule,
    ray_point,
    separation_witness,
    spiral_distortion,
    tree_space,
    validate_model,
)

PAIR = ("o", "a")
CFG = CounterexampleConfig()  # depth 6, 8 rays
SUP_1 = SumSpaceSpec(SUP, (1,))


def _pair(kind, **arrays):
    return PointedMetricSpace(PAIR, "o", kind, **arrays)


CASES = [
    ("unknown kind", lambda: _pair("cubic"), ValueError,
     "metric kind must be one of ('matrix', 'linf', 'l2'), got 'cubic'"),
    ("no matrix", lambda: _pair("matrix"), ValueError, "matrix metric requires a distance matrix"),
    ("matrix shape", lambda: _pair("matrix", matrix=np.zeros((3, 3))), ValueError,
     "distance matrix shape (3, 3) does not match 2 points"),
    ("no coords", lambda: _pair("l2"), ValueError, "l2 metric requires point coordinates"),
    ("coords rows", lambda: _pair("linf", coords=np.zeros((3, 1))), ValueError,
     "coords shape (3, 1) does not match 2 points"),
    ("coords ndim", lambda: _pair("linf", coords=np.zeros(2)), ValueError,
     "coords shape (2,) does not match 2 points"),
    ("unknown point", lambda: line_space().index("zzz"), KeyError, "unknown point 'zzz'"),
    ("map without an image", lambda: distortion(
        _pair("linf", coords=np.array([[0.0], [1.0]])), {"o": BlockVector(SUP_1, {1: [0.0]})}, SUP_1),
     ValueError, "map has no image for 'a'"),
    ("negative radius", lambda: ball(line_space(), -1.0), ValueError, "radius must be nonnegative"),
    ("short line", lambda: line_space(2), ValueError, "need at least three points"),
    ("small grid", lambda: grid_space(1), ValueError, "need at least a 2 x 2 grid"),
    ("one-node tree", lambda: tree_space(1), ValueError, "need at least two nodes"),
    ("no bands", lambda: radii_schedule(0.2, 0), ValueError, "bands must be >= 1"),
    ("blend p < 1", lambda: blend_theta(0.5, 0.1), ValueError,
     "exponent must be a finite real >= 1, got 0.5"),
    ("paste p inf", lambda: paste(line_space(), math.inf, 0.2), ValueError,
     "exponent must be a finite real >= 1, got inf"),
    ("paste p nan", lambda: paste(line_space(), math.nan, 0.2), ValueError,
     "exponent must be a finite real >= 1, got nan"),
    ("bound p inf", lambda: analytic_bound(math.inf, 0.2), ValueError,
     "exponent must be a finite real >= 1, got inf"),
    ("bound p nan", lambda: analytic_bound(math.nan, 0.2), ValueError,
     "exponent must be a finite real >= 1, got nan"),
    ("band 0", lambda: blend(2.0, radii_schedule(0.2, 2), 0, 1.0), IndexError,
     "band 0 outside 1..2"),
    ("band past the schedule", lambda: blend(2.0, radii_schedule(0.2, 2), 3, 1.0), IndexError,
     "band 3 outside 1..2"),
    ("t_max <= 1", lambda: spiral_distortion(0.1, t_max=1.0), ValueError, "t_max must exceed 1"),
    ("one sample", lambda: spiral_distortion(0.1, samples=1), ValueError,
     "need at least two samples"),
    ("block dim 0", lambda: SumSpaceSpec(2.0, (1, 0)), ValueError,
     "block dims must be positive integers, got (1, 0)"),
    ("ray 0", lambda: ray_point(CFG, 0, 1), IndexError, "ray index 0 outside 1..8"),
    ("ray past the count", lambda: ray_point(CFG, 9, 1), IndexError, "ray index 9 outside 1..8"),
    ("step past the depth", lambda: ray_point(CFG, 1, 7), IndexError, "ray step 7 outside 0..6"),
    ("step below 0", lambda: ray_point(CFG, 1, -1), IndexError, "ray step -1 outside 0..6"),
    ("separation level 1", lambda: separation_witness(CFG, 1), IndexError,
     "separation level 1 outside 2..6"),
    ("separation past the depth", lambda: separation_witness(CFG, 7), IndexError,
     "separation level 7 outside 2..6"),
    ("model block dim 2.5", lambda: FddModel((2.5, 3)), ValueError,
     "block dims must be positive integers, got (2.5, 3)"),
    ("model without blocks", lambda: FddModel(()), ValueError, "need at least one block"),
    ("model eps 0", lambda: validate_model(FddModel((1, 1)), 0.0), ValueError,
     "epsilon must lie in (0, 1), got 0.0"),
    ("model eps 1", lambda: validate_model(FddModel((1, 1)), 1.0), ValueError,
     "epsilon must lie in (0, 1), got 1.0"),
]


@pytest.mark.parametrize("call, exc, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_argument_error(call, exc, message):
    with pytest.raises(exc, match=re.escape(message)) as info:
        call()
    assert type(info.value) is exc
