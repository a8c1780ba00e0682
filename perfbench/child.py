"""One CLI command in its own process, under the span tracer.

    python3 perfbench/child.py SPANS.json ARG...

runs ``semiae.cli.main(ARG...)``, the function behind the ``semiae``
command, with :class:`spans.Tracer` installed, writes the recorded spans to
SPANS.json when the command ends and exits with the command's return code.
``src`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import sys

from spans import Tracer


def main(argv: list[str]) -> int:
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer().install()
    try:
        from semiae import cli
        return cli.main(args)
    finally:
        tracer.restore()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
