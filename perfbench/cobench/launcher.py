"""Start ``cosched serve`` with the benchmark's span wrappers installed.

    python3 perfbench/cobench/launcher.py --spans OUT.json -- serve --port 0

Installs :func:`cobench.layers.instrument` (service layers included),
hands the remaining arguments to ``repro.cli.main`` and, once the server
has drained and returned, writes the span aggregates to ``OUT.json``.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from cobench import layers  # noqa: E402
from cobench.spans import Recorder  # noqa: E402


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: launcher.py --spans OUT.json -- <cosched args>",
              file=sys.stderr)
        return 2
    out, rest = argv[1], argv[3:]
    from repro.cli import main as cosched_main

    recorder = Recorder()
    layers.instrument(recorder, service=True)
    try:
        code = cosched_main(rest)
    finally:
        recorder.restore()
        recorder.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
