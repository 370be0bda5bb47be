"""The set-up a verdict pays before any layer work: import the CLI, load the input.

    python3 perfbench/setup_probe.py INPUT_JSON

Imports ``spiralpaste.cli`` and turns the document into a validated space
with ``load_space``; the caller times the whole process.
"""

import json
import sys


def main(path: str) -> None:
    import spiralpaste.cli  # noqa: F401  (the import is part of what is measured)
    from spiralpaste.metric import load_space

    with open(path, encoding="utf-8") as fh:
        load_space(json.load(fh))


if __name__ == "__main__":
    main(sys.argv[1])
