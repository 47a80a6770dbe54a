"""``repro`` one-shot CLI with layer spans: the traced cli-oneshot child.

Times ``import repro.cli``, installs the benchmark's layer wrappers, runs
the normal CLI entry point as one unit of work, and writes the span sums
to OUT.json; the CLI's own output goes to stdout as usual::

    python perfbench/cli_child.py OUT.json analyze FILE
"""

from __future__ import annotations

import time

# The interpreter has started: the parent's spawn-to-here is `py.startup`.
STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    started = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - started
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.run_unit(repro.cli.main, argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    totals = tracer.to_json_dict()
    totals["import_s"] = import_s
    totals["started"] = STARTED
    # From here to the parent's reap is `py.exit` (interpreter teardown).
    totals["ended"] = time.perf_counter()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(totals, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
