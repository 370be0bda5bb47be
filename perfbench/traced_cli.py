"""Run one spiralpaste CLI invocation in this process with layer spans recorded.

    python3 perfbench/traced_cli.py SPANS_OUT OP_ID <cli arguments...>

The package is imported inside a ``cli.import`` span and then wrapped
from outside: each layer function the CLI and ``fdd`` call is replaced in
the calling module's namespace by a wrapper that records a span, and
``paste`` is handed a traced ``provider`` so that ``frechet`` shows up
as its own child span.  Nothing in the package is edited.

Spans carry name, start, end, parent, op id and the counts the layer
produced.  The load, paste and distortion spans also carry the
``tracemalloc`` peak of what they allocate (``peak_mb``; null elsewhere).
They are kept in memory and written to SPANS_OUT as JSON once the CLI
returns; the exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from functools import wraps

MB = 1024.0 * 1024.0


class Recorder:
    """Nested spans kept in memory; memory spans also record a tracemalloc peak.

    tracemalloc runs only inside memory spans (which never nest), so the
    Python-heavy layers outside them keep their untraced speed.
    """

    def __init__(self, op: int):
        self.op = op
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def enter(self, name: str, memory: bool = False) -> dict:
        span = {
            "name": name,
            "op": self.op,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "id": len(self.spans),
            "counts": {},
            "peak_mb": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        if memory and not tracemalloc.is_tracing():
            span["_memory"] = True
            tracemalloc.start()
        span["start"] = time.perf_counter()
        return span

    def exit(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        if span.pop("_memory", False):
            span["peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
            tracemalloc.stop()
        self._stack.pop()

    def wrap(self, name: str, fn, counts=None, memory: bool = False):
        """``fn`` recording a span per call; ``counts(args, kwargs, result)`` adds counts."""

        @wraps(fn)
        def traced(*args, **kwargs):
            span = self.enter(name, memory)
            try:
                result = fn(*args, **kwargs)
                if counts is not None:
                    span["counts"] = counts(args, kwargs, result)
                return result
            finally:
                self.exit(span)

        return traced


def _pairs(args, kwargs, result):
    n = len(args[0])
    return {"pairs": n * (n - 1) // 2}


def _paste_counts(args, kwargs, emb):
    support = sum(len(img.blocks) for img in emb.images.values())
    return {
        "bands": emb.layout.schedule.band_count,
        "support_rows": support,
        "block_rows": emb.spec.num_blocks * len(emb.space),
    }


def instrument(rec: Recorder) -> None:
    """Replace the layer entry points the CLI reaches with span-recording wrappers."""
    from spiralpaste import cli, fdd, frechet, metric, spiral

    provider = rec.wrap(
        "frechet.embed", frechet.frechet_embed, lambda a, k, fm: {"anchor_dims": fm.dimension}
    )
    paste = rec.wrap("spiral.paste", spiral.paste, _paste_counts, memory=True)

    def paste_with_traced_provider(space, p, epsilon, provider=provider, bands=None):
        return paste(space, p, epsilon, provider=provider, bands=bands)

    layers = {
        "load_space": rec.wrap(
            "metric.load", metric.load_space, lambda a, k, sp: {"points": len(sp)}, memory=True
        ),
        "measure_distortion": rec.wrap("metric.distortion", metric.distortion, _pairs, memory=True),
        "paste": paste_with_traced_provider,
        "analytic_bound": rec.wrap("spiral.bound", spiral.analytic_bound),
        "seam_check": rec.wrap("spiral.seam", spiral.seam_check),
        "embed_no_cotype": rec.wrap("fdd.embed", fdd.embed_no_cotype),
        "validate_model": rec.wrap("fdd.validate", fdd.validate_model),
        "equivalence_ratio": rec.wrap("fdd.equivalence", fdd.equivalence_ratio),
        "pair_isometry_check": rec.wrap("fdd.pair_isometry", fdd.pair_isometry_check),
    }
    for module in (cli, fdd):
        for attr, traced in layers.items():
            if attr in vars(module):
                setattr(module, attr, traced)
    spiral.PastedEmbedding.norm_preservation_error = rec.wrap(
        "spiral.norm_check", spiral.PastedEmbedding.norm_preservation_error
    )


def main(argv: list[str]) -> int:
    out_path, op = argv[0], int(argv[1])
    rec = Recorder(op)
    span = rec.enter("cli.import")
    import spiralpaste.cli

    rec.exit(span)
    instrument(rec)
    span = rec.enter("cli.main")
    try:
        code = spiralpaste.cli.main(argv[2:])
    finally:
        rec.exit(span)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(rec.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
