"""Child processes, fresh-interpreter probes and summary statistics."""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.relative_to(ROOT).as_posix()

# Command lines are recorded as typed; "python3" runs as the benchmark's own
# interpreter.  Children run from the checkout root against its sources, one
# worker each (no process pool competes for the cores), with a fixed hash seed.
PYTHON = "python3"
CHILD_ENV = {"PYTHONPATH": "src", "SCD_THREADS": "1", "PYTHONHASHSEED": "0"}

# What the `scdposet` console script runs.
CLI_BOOT = "import sys; from scdposet.cli import main; sys.exit(main())"

IMPORT_PROBE = "import time; t0 = time.perf_counter(); import scdposet.cli; print(time.perf_counter() - t0)"


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and not k.startswith("SCD_")}
    env.update(CHILD_ENV)
    return env


def cli_argv(*args: str) -> list[str]:
    return [PYTHON, "-c", CLI_BOOT, *args]


def traced_cli_argv(*args: str) -> list[str]:
    return [PYTHON, f"{BENCH_DIR}/traced_cli.py", *args]


@dataclass
class ChildRun:
    code: int
    start: float  # time.monotonic() at the spawn, comparable across processes
    wall_s: float
    maxrss_kb: int
    out: bytes
    out_bytes: int
    sha256: str
    err: bytes


def run_child(argv: list[str]) -> ChildRun:
    """Run one child to completion through launch.py, hashing its stdout as it streams.

    Wall time runs from just before the spawn to the reap of the child
    itself, measured by the launcher, as is the child's peak RSS.
    """
    if argv[0] == PYTHON:
        argv = [sys.executable, *argv[1:]]
    digest = hashlib.sha256()
    chunks = []
    size = 0
    rfd, wfd = os.pipe()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "launch.py"), str(wfd), *argv],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            pass_fds=(wfd,),
        )
    finally:
        os.close(wfd)
    with open(rfd, "rb") as report, proc:
        while chunk := proc.stdout.read(1 << 20):
            digest.update(chunk)
            size += len(chunk)
            chunks.append(chunk)
        err = proc.stderr.read()
        fields = report.read().split()
    if len(fields) != 4:
        raise RuntimeError(f"launcher gave no report for {argv}: {err.decode(errors='replace').strip()}")
    start, wall, maxrss, code = float(fields[0]), float(fields[1]), int(fields[2]), int(fields[3])
    return ChildRun(code, start, wall, maxrss, b"".join(chunks), size, digest.hexdigest(), err)


def import_probe() -> tuple[float, float]:
    """A fresh interpreter importing `scdposet.cli`: (wall seconds, in-process import seconds)."""
    run = run_child([PYTHON, "-c", IMPORT_PROBE])
    if run.code != 0:
        raise RuntimeError(f"import probe failed: {run.err.decode(errors='replace').strip()}")
    return run.wall_s, float(run.out)


def floor_probes(count: int) -> list[float]:
    """Wall seconds of a bare `python -c pass`: the start-up no change can remove."""
    return [run_child([PYTHON, "-c", "pass"]).wall_s for _ in range(count)]


def last_json_line(data: bytes) -> dict:
    return json.loads(data.decode().strip().splitlines()[-1])


def _tail_ranks(n: int) -> dict[int, int]:
    """0-based nearest ranks of p90 and p99, for those with ten samples beyond them."""
    return {q: max(1, math.ceil(q / 100 * n)) - 1 for q in (90, 99) if n * (100 - q) / 100 >= 10}


def summarize(samples, scale: float = 1.0) -> dict:
    """Median, and p90 and p99 (nearest rank) where ten samples lie beyond them."""
    ordered = sorted(samples)
    out = {"samples": len(ordered), "p50": statistics.median(ordered) * scale}
    out.update({f"p{q}": ordered[rank] * scale for q, rank in _tail_ranks(len(ordered)).items()})
    return out


def interquartile_mean(samples) -> float:
    """Mean of the middle half: steadier than the median when a run straddles two host speeds."""
    ordered = sorted(samples)
    k = len(ordered) // 4
    return statistics.mean(ordered[k : len(ordered) - k])


class LogHistogram:
    """Sample counts in buckets 1% wide on a log scale, from 0.1 us up.

    Memory is bounded by the number of buckets in use, not by the sample
    count, and a percentile read from it is within 0.5% of the sample's.
    """

    LOWEST = 1e-7
    LOG_RATIO = math.log(1.01)

    def __init__(self, counts: dict[int, int] | None = None) -> None:
        self.counts: dict[int, int] = dict(counts or {})

    def add(self, seconds: float) -> None:
        b = int(math.log(seconds / self.LOWEST) / self.LOG_RATIO) if seconds > self.LOWEST else 0
        self.counts[b] = self.counts.get(b, 0) + 1

    def merge(self, other: "LogHistogram") -> None:
        for b, c in other.counts.items():
            self.counts[b] = self.counts.get(b, 0) + c

    def summarize(self, scale: float = 1.0) -> dict:
        """As `summarize`, with each percentile at its bucket's geometric middle."""
        n = sum(self.counts.values())
        wanted = {50: (n - 1) // 2} | _tail_ranks(n)
        out = {"samples": n}
        seen = 0
        for b in sorted(self.counts):
            seen += self.counts[b]
            for q, rank in wanted.items():
                if f"p{q}" not in out and rank < seen:
                    out[f"p{q}"] = self.LOWEST * math.exp((b + 0.5) * self.LOG_RATIO) * scale
        return out
