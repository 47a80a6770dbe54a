"""``repro serve`` with layer spans: the traced ide-edit server.

Installs the benchmark's layer wrappers, makes every
``ConnectionHandler.handle_line`` call one unit of work, runs the normal
CLI entry point, and after the server shuts down (SIGINT) writes the span
sums to OUT.json::

    python perfbench/serve_child.py OUT.json serve FILE --port 0
"""

from __future__ import annotations

import json
import sys

import repro.cli
import repro.focus.server
import repro.focus.table
import repro.service.cache
import repro.service.invalidate
import repro.service.protocol
import repro.service.server
import repro.service.session
from tracer import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install_unit(repro.service.server.ConnectionHandler, "handle_line")
    tracer.install()
    try:
        code = repro.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.to_json_dict(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
