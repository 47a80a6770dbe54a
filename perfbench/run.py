"""Default-path benchmark runner.

Runs one workload against the default configuration (bitset engine,
Modular condition, serial), checks every answer against a reference the
code under test does not produce, prints every metric by name and unit on
stderr, and prints one JSON result line last on stdout::

    python3 perfbench/run.py --workload fig2-batch --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics from untraced runs;
``--trace 1`` runs the workload's fixed traced plan and reports the
per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import signal
import sys

from common import import_program, note, pin_to_one_cpu, require_source, result_line

WORKLOADS = ("fig2-batch", "ide-edit", "cli-oneshot")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tamper: bool = False, tiny: bool = False):
    """Run one workload and return its :class:`common.Outcome`."""
    if name == "fig2-batch":
        import fig2_batch as workload
    elif name == "ide-edit":
        import ide_edit as workload
    elif name == "cli-oneshot":
        import cli_oneshot as workload
    else:
        raise ValueError(f"unknown workload {name!r}")
    return workload.run(seed, seconds, trace, tamper=tamper, tiny=tiny)


def describe(name: str, seed: int, outcome) -> None:
    note(f"perfbench {name} seed={seed}")
    for key, value in sorted(outcome.properties.items()):
        note(f"  input  {key} = {value:g}")
    if outcome.calibration_samples:
        note(f"  calibration: median {outcome.calibration_median_ms:.3f} ms over "
             f"{outcome.calibration_samples} samples; times scaled by {outcome.scale:.4f}")
    for key, entry in outcome.metrics.items():
        samples = outcome.samples.get(key)
        tail = outcome.tails.get(key)
        extra = f"  (n={samples}" + (f", p{tail}" if tail else "") + ")" if samples else ""
        if key in outcome.raw:
            extra += f"  measured {outcome.raw[key]:.6g}"
        note(f"  metric {key} = {entry['value']:.6g} {entry['unit']}{extra}")
    if outcome.rounds:
        note(f"  rounds = {outcome.rounds}")
    note(f"  error_rate = {outcome.failed}/{outcome.attempted} = {outcome.error_rate:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()
    import_program()
    pin_to_one_cpu()
    # A terminated run still stops its children and removes its scratch
    # files: SystemExit unwinds through every `finally`.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    describe(args.workload, args.seed, outcome)
    print(result_line(outcome.failed == 0, outcome.attempted, outcome.failed, outcome.metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
