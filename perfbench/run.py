"""scdposet benchmark: one workload per run, every metric by name with its unit.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of decompose-stream, random-access, verify-oracle, cli-oneshot,
or `all` to run the four in turn.  With --trace 0 the run reports the
end-to-end metrics with tracing off; with --trace 1 it runs a fixed amount
of the workload once untraced and once with spans at each module boundary
and reports the per-layer metrics.  The second-to-last stdout line is the
full, self-describing record; the last line is
{"correct", "attempted", "failed", "metrics"}.  Outputs are checked after
the timed region; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

from proc import CHILD_ENV, ROOT
from workloads import END_TO_END, PER_LAYER, WORKLOADS, Outcome


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _source_digest() -> str:
    """sha256 over the package sources, for checkouts without git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _result(outcome: Outcome, units: dict[str, str]) -> dict:
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    measure, traced = WORKLOADS[name]
    outcome = traced(seed) if trace else measure(seed, seconds)
    units = PER_LAYER if trace else END_TO_END
    result = _result(outcome, units)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": sys.version,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "child_env": CHILD_ENV,
        "error_rate": outcome.failed / outcome.attempted,
        **result,
        "detail": outcome.record,
    }
    return record, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="scdposet benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "scdposet" / "__init__.py").is_file():
        print(f"error: no scdposet sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        record, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(record))
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
            }
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
