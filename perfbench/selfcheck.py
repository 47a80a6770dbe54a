"""Tiny-size self-test of the benchmark itself.

Runs every workload on tiny inputs and checks that

* every metric BENCHMARK.json names appears with its unit (``--trace 0``
  end-to-end, ``--trace 1`` per-layer), and the layers that run on a
  workload (``report.APPLIES``) read non-zero there;
* the exact counts (``report.EXACT_COUNTS``) repeat across two traced runs
  of the same seed;
* a clean run has no failures, and one tampered answer is counted as a
  failed operation.

Usage: ``python3 perfbench/selfcheck.py`` (about two minutes; exit 1 on a
failed check).
"""

from __future__ import annotations

import json
import sys

import report
from common import ROOT, import_program, require_source
from run import WORKLOADS, run_workload

SEED = 3
SECONDS = 2.0


def main() -> int:
    require_source()
    import_program()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            problems.append(what)

    expect(per_layer == dict(report.per_layer_catalogue()),
           "BENCHMARK.json per_layer matches the report catalogue")
    for name in WORKLOADS:
        clean = run_workload(name, SEED, SECONDS, trace=False, tiny=True)
        units = {key: entry["unit"] for key, entry in clean.metrics.items()}
        expect(units == end_to_end, f"{name}: every end-to-end metric with its unit")
        expect(all(entry["value"] > 0 for entry in clean.metrics.values()),
               f"{name}: end-to-end metrics are non-zero")
        expect(clean.attempted > 0 and clean.failed == 0,
               f"{name}: clean run has no failures ({clean.failed}/{clean.attempted})")
        tampered = run_workload(name, SEED, SECONDS, trace=False, tamper=True, tiny=True)
        expect(tampered.failed == 1,
               f"{name}: one tampered answer is counted ({tampered.failed}/{tampered.attempted})")

        first = run_workload(name, SEED, SECONDS, trace=True, tiny=True)
        second = run_workload(name, SEED, SECONDS, trace=True, tiny=True)
        units = {key: entry["unit"] for key, entry in first.metrics.items()}
        expect(units == per_layer, f"{name}: every per-layer metric with its unit")
        zero = [key for key in report.APPLIES[name] if first.metrics[key]["value"] == 0]
        expect(not zero, f"{name}: layers that run here are non-zero {zero or ''}")
        for key in report.EXACT_COUNTS:
            a, b = first.metrics[key]["value"], second.metrics[key]["value"]
            expect(a == b, f"{name}: {key} repeats for a seed ({a} vs {b})")
        expect(first.failed == 0 and second.failed == 0, f"{name}: traced runs have no failures")
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
