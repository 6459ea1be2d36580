"""Run one workload of the benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload warm|cold --seed N \\
        --seconds S --trace 0|1

With ``--trace 0`` the run reports the end-to-end metrics, measured
with no instrumentation; with ``--trace 1`` it reports the per-layer
metrics from a separate traced run.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is non-zero when an output check fails or an operation
raises.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
#: Set-up is repeated in this many fresh processes besides the run's own.
SETUP_CHILDREN = 2
SETUP_CHILD_TIMEOUT_S = 120
#: Probe runs right after each set-up, to scale it to the reference host.
SETUP_PROBES = 15
#: Environment variables that would change the program under test; the
#: benchmark clears them so a developer's shell cannot.
SCRUBBED_ENV = ("REPRO_NJOBS", "REPRO_SERVER_MAX_BATCH", "REPRO_SERVER_MAX_DELAY_US")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("warm", "cold"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up, print the set-up time as JSON and exit (used to "
        "repeat set-up in fresh processes)",
    )
    return parser.parse_args(argv)


def _load():
    """Import the program and the workload; fails outside a full checkout."""
    for var in SCRUBBED_ENV:
        os.environ.pop(var, None)
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workload import Workload

    return Workload


def _setup_in_child(args: argparse.Namespace) -> tuple[float, float]:
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--setup-only",
    ]
    done = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"set-up process exited with {done.returncode}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    return float(line["setup_s"]), float(line["probe_s"])


def _check_metrics(ledger, metrics: dict, trace: int) -> None:
    """The run reports exactly the metrics ``BENCHMARK.json`` lists for
    its kind of run, with the units it gives them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    expected = list(units)
    ledger.check(
        "metric-names",
        sorted(metrics) == sorted(expected),
        f"{sorted(set(metrics) ^ set(expected))}",
    )
    wrong = [n for n, (_, unit) in metrics.items() if units.get(n) != unit]
    ledger.check("metric-units", not wrong, f"{wrong}")
    if not trace:
        bad = [n for n, (value, _) in metrics.items() if not math.isfinite(value)]
        ledger.check("metric-values", not bad, f"{bad}")


def _number(value: float) -> float | None:
    return float(value) if math.isfinite(value) else None


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    cls = _load()
    from perfbench.common import Ledger, median, process_age_s, provenance
    from perfbench.hostspeed import at_reference, probe
    from perfbench.tracing import Patcher, SpanLog

    ledger = Ledger()
    workload = cls(args.workload, args.seed, ledger)
    ledger.call("setup", workload.setup)
    setup_s = process_age_s()
    setup_probe_s = median(probe() for _ in range(SETUP_PROBES))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "probe_s": setup_probe_s}))
        return 0 if ledger.correct else 1
    if not ledger.correct:
        print("\n".join(ledger.errors), file=sys.stderr)
        return 1

    workload.warmup()
    if args.trace:
        patcher = Patcher(SpanLog())
        metrics = workload.measure_traced(args.seconds, patcher)
    else:
        metrics = workload.measure(args.seconds)
        setups = [(setup_s, setup_probe_s)] + [
            ledger.call("setup-child", lambda: _setup_in_child(args))
            for _ in range(SETUP_CHILDREN)
        ]
        setups = [s for s in setups if s is not None]
        metrics["setup_s"] = (median(at_reference(*s) for s in setups), "s")
    workload.check()
    _check_metrics(ledger, metrics, args.trace)

    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": _number(value), "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "errors": ledger.errors,
        **result,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        import numpy as np

        spans = patcher.log.merged()
        record["span_names"] = patcher.log.names
        np.savez_compressed(OUT_DIR / f"{stem}-spans.npz", **spans)
    else:
        record["setup_samples_s"] = setups
        record["op_samples_s"] = workload.samples
        record["probe_median_s"] = median(workload.probes)
        record["wall_metrics"] = workload.wall
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in ledger.errors:
        print(line, file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps(result))
    return 0 if ledger.correct else 1


if __name__ == "__main__":
    sys.exit(main())
