"""Run the wknots command line with tracing on, for traced suite passes.

Usage: python3 perfbench/cli_child.py OUT.json [wknots arguments...]

Prints what the command line prints, writes the collected per-layer
metrics to OUT.json and exits with the command line's exit code.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import wknots.cli  # noqa: E402  (imports every wknots module)
from trace import Tracer  # noqa: E402


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = wknots.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(out_path, "w") as fh:
        json.dump(tracer.collect(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
