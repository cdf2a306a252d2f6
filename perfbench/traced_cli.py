"""Run one ``pendavg`` CLI invocation with the layer tracer installed.

Usage: traced_cli.py DUMP_DIR -- <pendavg arguments>

Writes ``spans.jsonl`` and ``layers.json`` into DUMP_DIR when the CLI
returns, and exits with the CLI's exit code.
"""

from __future__ import annotations

import sys
from pathlib import Path

from tracer import Tracer


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    from pendavg import cli  # the module install() has wrapped

    try:
        return cli.main(argv[2:])
    finally:
        tracer.dump(Path(argv[0]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
