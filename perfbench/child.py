"""Run one labelforge CLI command from the checkout's ``src`` tree.

Usage: python3 perfbench/child.py [--spans FILE] -- <labelforge arguments>

Without ``--spans`` this is the ``labelforge`` console script. With it, the
layer functions are wrapped first (see spans.py) and the spans are written
to FILE when the command returns.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main() -> int:
    argv = sys.argv[1:]
    span_file = None
    if argv[:1] == ["--spans"]:
        span_file, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, str(SRC))
    recorder = None
    if span_file is not None:
        import spans

        recorder = spans.install()
    from labelforge.cli import cli_main

    code = cli_main(argv)
    if recorder is not None:
        recorder.dump(span_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
