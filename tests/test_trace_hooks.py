"""The benchmark's traced CLI still finds the layer functions it wraps.

``perfbench/traced_cli.py`` replaces layer entry points by name in the
``cli`` and ``fdd`` namespaces; a rename or a bypassed call in the
package makes its spans vanish.  This runs it as the benchmark does.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from spiralpaste import line_space, space_to_doc

ROOT = Path(__file__).resolve().parents[1]
PASTE_SPANS = {"metric.load", "spiral.paste", "frechet.embed", "spiral.bound"}


@pytest.mark.parametrize("argv, spans, scans", [
    (["embed", "--p", "2", "--epsilon", "0.2"], PASTE_SPANS, 1),
    (["fdd-demo", "--epsilon", "0.2"], PASTE_SPANS | {"fdd.validate"}, 1),
    (["sweep", "--p", "1,2", "--eps", "0.5,0.2"], PASTE_SPANS | {"spiral.seam", "spiral.norm_check"}, 4),
])
def test_traced_cli_records_layer_spans(tmp_path, argv, spans, scans):
    space = tmp_path / "line.json"
    space.write_text(json.dumps(space_to_doc(line_space(n=24, r_max=1e6))))
    spans_out = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(spans_out), "0",
         *argv, "--input", str(space), "--out", str(tmp_path / "report.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = Counter(span["name"] for span in json.loads(spans_out.read_text()))
    assert spans <= set(names)
    assert names["metric.distortion"] == scans
