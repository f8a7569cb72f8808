"""`geodiss` CLI in a fresh process, with reference slices during it.

    python3 perfbench/cli_child.py SLICES_JSON ARGS...

Runs ``geodiss.cli.main(ARGS)`` as ``python -m geodiss ARGS`` does, exits
with its code, and writes the reference slices' totals (count, wall s, CPU
s; see reference.py) to SLICES_JSON.
"""
from __future__ import annotations

import sys

from reference import Sampler


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    sampler = Sampler()
    sampler.start()
    try:
        from geodiss.cli import main as cli_main
        return cli_main(argv)
    finally:
        sampler.stop()
        sampler.dump(path)


if __name__ == "__main__":
    sys.exit(main())
