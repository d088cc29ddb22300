"""Run one `di2pc` command with every layer traced; used by traced cli-session runs.

    python3 bench/cli_child.py SPANS.jsonl -- <di2pc arguments>

Behaves as the `di2pc` command (same stdout, stderr and exit code) and
appends the spans it recorded to SPANS.jsonl when the command ends.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import spans  # noqa: E402
from di2pc.cli import main  # noqa: E402


def run(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: cli_child.py SPANS.jsonl -- <di2pc arguments>", file=sys.stderr)
        return 2
    tracer = spans.Tracer()
    tracer.install()
    try:
        return main(argv[2:])
    finally:
        tracer.uninstall()
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
