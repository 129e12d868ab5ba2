"""The four workloads: each measures, then checks outputs outside the timed region.

Every workload is a closed loop with one client: the next operation starts
only when the previous one has finished.  `measure` returns the end-to-end
metrics (tracing off); `trace` runs a fixed amount of the same work once
untraced and once with spans, and returns the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field

import oracle
from proc import (
    BENCH_DIR,
    IMPORT_PROBE,
    PYTHON,
    ChildRun,
    cli_argv,
    LogHistogram,
    floor_probes,
    import_probe,
    interquartile_mean,
    last_json_line,
    run_child,
    summarize,
    traced_cli_argv,
)

# Set-up is repeated throughout the timed region, between operations, so
# its samples see the same host speeds as the operations do; the run
# reports their interquartile mean.
SETUP_PROBES_PER_OP = 3  # before each decompose or verify run
ONESHOT_OPS_PER_PROBE = 4  # one probe before every fourth one-shot command
RA_SEGMENTS = 10  # random-access runners, each set up afresh
FLOOR_PROBES = 5
ONESHOT_TRACE_ROTATIONS = 3
RA_TRACE_QUERIES = 20_000

# Work completed per second over the whole run: under a host whose speed
# flips between states, the run's total is steadier than a median op time.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "throughput_per_s": "1/s"}

# span key -> name of the count it reports
COUNTED_SPANS = {
    "starts.enumerate": "starts.enumerated",
    "starts.alpha_end": "starts.alpha_end_calls",
    "starts.psi": "starts.psi_calls",
    "core.validate": "core.validated",
    "tableau.chain_elements": "tableau.elements_built",
    "tableau.build_tableau": "tableau.cells_colored",
    "tableau.element_at": "tableau.element_at_calls",
    "locate.locate": "locate.calls",
    "locate.certificate": "locate.certificates",
}
SELF_TIMED_LAYERS = ("core", "starts", "tableau", "locate", "decompose", "render")


def _per_layer_units() -> dict[str, str]:
    units = {}
    for key, count in COUNTED_SPANS.items():
        units[f"{key}_s"] = "s"
        units[f"{key}_self_s"] = "s"
        units[count] = "count"
    for name in oracle.VERIFY_CHECKS:
        units[f"decompose.check_s.{name}"] = "s"
    units.update(
        {
            "cli.encode_write_s": "s",
            "cli.bytes_out": "bytes",
            "cli.import_s": "s",
            "cli.interpreter_floor_ms": "ms",
            "render.ascii_s": "s",
            "render.svg_s": "s",
        }
    )
    for layer in SELF_TIMED_LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({"trace.wall_s": "s", "trace.uncovered_s": "s", "trace.overhead_ratio": "ratio"})
    return units


PER_LAYER = _per_layer_units()


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict[str, float]
    record: dict = field(default_factory=dict)


def _median_ms(walls: list[float]) -> float:
    return statistics.median(walls) * 1000


def _peak_mb(runs: list[ChildRun]) -> float:
    return max(r.maxrss_kb for r in runs) / 1024


def _timed_loop(seconds: float, op, record: dict, probes: int = 1, every: int = 1, min_ops: int = 1) -> tuple[list, float]:
    """Run `op` back to back until `seconds` have elapsed and `min_ops` ran.

    Before every `every`-th op, `probes` fresh interpreters import the CLI:
    the set-up a user pays before the first operation.  Returns the ops'
    results and the probes' interquartile mean wall seconds.
    """
    results, setup = [], []
    start = time.perf_counter()
    while len(results) < min_ops or time.perf_counter() - start < seconds:
        if len(results) % every == 0:
            setup.extend(import_probe()[0] for _ in range(probes))
        results.append(op())
    record["setup"] = {"argv": [PYTHON, "-c", IMPORT_PROBE], "samples": len(setup), "wall_s": setup}
    return results, interquartile_mean(setup)


def _spans_of(runs: list[ChildRun]) -> dict:
    """Span totals summed over traced children: key -> (count, seconds, self seconds)."""
    spans: dict = {}
    for run in runs:
        for key, (count, total, self_s) in last_json_line(run.err)["spans"].items():
            c, t, s = spans.get(key, (0, 0.0, 0.0))
            spans[key] = (c + count, t + total, s + self_s)
    return spans


def _abba(args: tuple[str, ...]) -> tuple[list[ChildRun], list[ChildRun]]:
    """Untraced, traced, traced, untraced: summed per side, a steady drift in
    host speed cancels out of the overhead ratio."""
    plain, traced = [], []
    for side, argv in ((plain, cli_argv), (traced, traced_cli_argv), (traced, traced_cli_argv), (plain, cli_argv)):
        side.append(run_child(argv(*args)))
    return plain, traced


def _wall(runs: list[ChildRun]) -> float:
    return sum(r.wall_s for r in runs)


def _layer_metrics(spans: dict, traced_wall: float, untraced_wall: float, record: dict) -> dict[str, float]:
    """Per-layer metrics from span totals, plus the interpreter probes every traced run takes."""
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for key, count in COUNTED_SPANS.items():
        c, total, self_s = spans.get(key, (0, 0.0, 0.0))
        metrics[f"{key}_s"] = total
        metrics[f"{key}_self_s"] = self_s
        metrics[count] = c
    for layer in SELF_TIMED_LAYERS:
        metrics[f"{layer}.self_s"] = sum(s for k, (_, _, s) in spans.items() if k.split(".")[0] == layer)
    metrics["cli.encode_write_s"] = spans.get("cli.main", (0, 0.0, 0.0))[2]
    metrics["render.ascii_s"] = spans.get("render.ascii", (0, 0.0, 0.0))[1]
    metrics["render.svg_s"] = spans.get("render.svg", (0, 0.0, 0.0))[1]
    covered = sum(s for _, _, s in spans.values())
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.uncovered_s"] = traced_wall - covered
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    imports = [import_probe()[1] for _ in range(FLOOR_PROBES)]
    floors = floor_probes(FLOOR_PROBES)
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["cli.interpreter_floor_ms"] = _median_ms(floors)
    record["spans"] = {k: list(v) for k, v in sorted(spans.items())}
    record["self_time_share"] = {
        layer: metrics[f"{layer}.self_s"] / traced_wall for layer in SELF_TIMED_LAYERS
    } | {"cli": metrics["cli.encode_write_s"] / traced_wall, "uncovered": metrics["trace.uncovered_s"] / traced_wall}
    record["probes"] = {"import_s": imports, "floor_s": floors}
    return metrics


# --- decompose-stream ------------------------------------------------------


def _decompose_failures(runs: list[ChildRun], m: int, n: int, record: dict, fault=None) -> int:
    """Ops whose exit code or stdout digest is wrong, plus one if the last
    captured stream fails the structural check."""
    last = runs[-1]
    if fault is not None:
        last.out = fault(last.out)
        last.sha256 = hashlib.sha256(last.out).hexdigest()
    want = oracle.DECOMPOSE_DIGESTS[(m, n)]
    bad = sum(1 for r in runs if r.code != 0 or r.sha256 != want)
    problems = oracle.check_decompose(last.out, m, n)
    record["checks"] = {"digest_expected": want, "digest_mismatches": bad, "structure_problems": problems}
    return min(len(runs), bad + (1 if problems else 0))


def decompose_stream(seed: int, seconds: float, shape=(8, 4), fault=None) -> Outcome:
    m, n = shape
    record: dict = {"shape": [m, n]}
    argv = cli_argv("decompose", "-m", str(m), "-n", str(n))
    runs: list[ChildRun] = []

    def op():
        if runs:
            runs[-1].out = b""  # only the last stream is kept for the structural check
        runs.append(run_child(argv))

    _, setup = _timed_loop(seconds, op, record, probes=SETUP_PROBES_PER_OP)
    failed = _decompose_failures(runs, m, n, record, fault)
    walls = [r.wall_s for r in runs]
    elements = (n + 1) ** m
    record |= {
        "command": argv,
        "ops": summarize(walls, 1000) | {"unit": "ms"},
        "elements_per_s": elements * len(walls) / sum(walls),
        "stdout_bytes": runs[-1].out_bytes,
    }
    metrics = {
        "setup_s": setup,
        "peak_rss_mb": _peak_mb(runs),
        "throughput_per_s": record["elements_per_s"],
    }
    return Outcome(len(runs), failed, metrics, record)


def decompose_stream_trace(seed: int, shape=(8, 4)) -> Outcome:
    m, n = shape
    args = ("decompose", "-m", str(m), "-n", str(n))
    plain, traced = _abba(args)
    record: dict = {"commands": [cli_argv(*args), traced_cli_argv(*args)]}
    failed = _decompose_failures(traced + plain, m, n, record)
    metrics = _layer_metrics(_spans_of(traced), _wall(traced), _wall(plain), record)
    metrics["cli.bytes_out"] = sum(r.out_bytes for r in traced)
    return Outcome(4, failed, metrics, record)


# --- verify-oracle ---------------------------------------------------------


def _verify_failures(runs: list[ChildRun], m: int, n: int, record: dict, fault=None) -> int:
    if fault is not None:
        runs[-1].out = fault(runs[-1].out)
    problems = [(i, p) for i, r in enumerate(runs) for p in oracle.check_verify(r.out, m, n)]
    problems += [(i, f"exit code {r.code}") for i, r in enumerate(runs) if r.code != 0]
    record["checks"] = {"problems": problems[:10]}
    return len({i for i, _ in problems})


def _check_seconds(runs: list[ChildRun]) -> dict[str, float]:
    """Median per-check seconds over the reports that parsed."""
    per: dict[str, list[float]] = {}
    for r in runs:
        try:
            for c in json.loads(r.out)["checks"]:
                per.setdefault(c["name"], []).append(c["seconds"])
        except (ValueError, KeyError, TypeError, IndexError):
            continue
    return {k: statistics.median(v) for k, v in per.items()}


def verify_oracle(seed: int, seconds: float, shape=(8, 3), fault=None) -> Outcome:
    m, n = shape
    record: dict = {"shape": [m, n]}
    argv = cli_argv("verify", "-m", str(m), "-n", str(n), "--oracle")
    runs, setup = _timed_loop(seconds, lambda: run_child(argv), record, probes=SETUP_PROBES_PER_OP)
    failed = _verify_failures(runs, m, n, record, fault)
    walls = [r.wall_s for r in runs]
    record |= {
        "command": argv,
        "ops": summarize(walls, 1000) | {"unit": "ms"},
        "verify_s": statistics.median(walls),
        "check_s": _check_seconds(runs),
    }
    metrics = {
        "setup_s": setup,
        "peak_rss_mb": _peak_mb(runs),
        "throughput_per_s": (n + 1) ** m * len(walls) / sum(walls),  # elements verified per second
    }
    return Outcome(len(runs), failed, metrics, record)


def verify_oracle_trace(seed: int, shape=(8, 3)) -> Outcome:
    m, n = shape
    args = ("verify", "-m", str(m), "-n", str(n), "--oracle")
    plain, traced = _abba(args)
    record: dict = {"commands": [cli_argv(*args), traced_cli_argv(*args)]}
    failed = _verify_failures(plain + traced, m, n, record)
    metrics = _layer_metrics(_spans_of(traced), _wall(traced), _wall(plain), record)
    metrics["cli.bytes_out"] = sum(r.out_bytes for r in traced)
    for name, secs in _check_seconds(plain).items():
        metrics[f"decompose.check_s.{name}"] = secs
    return Outcome(4, failed, metrics, record)


# --- cli-oneshot -----------------------------------------------------------


def _rotation(seed: int) -> list[tuple[list[str], str]]:
    commands = oracle.oneshot_commands()
    k = seed % len(commands)
    return commands[k:] + commands[:k]


def _oneshot_failures(runs: list[tuple[list[str], str, ChildRun]], record: dict, fault=None) -> int:
    if fault is not None:
        runs[0][2].out = fault(runs[0][2].out)
    bad = [args for args, want, r in runs if r.code != 0 or not oracle.output_matches(r.out, want)]
    record["checks"] = {"mismatched_commands": bad[:10]}
    return len(bad)


def cli_oneshot(seed: int, seconds: float, fault=None) -> Outcome:
    record: dict = {}
    rotation = _rotation(seed)
    runs = []

    def op():
        args, want = rotation[len(runs) % len(rotation)]
        runs.append((args, want, run_child(cli_argv(*args))))

    _, setup = _timed_loop(seconds, op, record, every=ONESHOT_OPS_PER_PROBE, min_ops=len(rotation))
    failed = _oneshot_failures(runs, record, fault)
    walls = [r.wall_s for _, _, r in runs]
    ops = summarize(walls, 1000)
    record |= {
        "commands": [cli_argv(*args) for args, _ in rotation],
        "ops": ops | {"unit": "ms"},
        "command_p50_ms": ops["p50"],
        "command_p90_ms": ops.get("p90"),
        "per_command_p50_ms": {
            " ".join(args): _median_ms([r.wall_s for a, _, r in runs if a == args])
            for args, _ in rotation
        },
    }
    metrics = {
        "setup_s": setup,
        "peak_rss_mb": _peak_mb([r for _, _, r in runs]),
        "throughput_per_s": len(walls) / sum(walls),  # commands per second of command time
    }
    return Outcome(len(runs), failed, metrics, record)


def cli_oneshot_trace(seed: int) -> Outcome:
    rotation = _rotation(seed) * ONESHOT_TRACE_ROTATIONS
    plain, traced = [], []
    for i, (args, want) in enumerate(rotation):
        order = ((plain, cli_argv), (traced, traced_cli_argv))
        for side, argv in order if i % 2 == 0 else order[::-1]:  # alternate which side runs first
            side.append((args, want, run_child(argv(*args))))
    record: dict = {"commands": [traced_cli_argv(*args) for args, _ in _rotation(seed)]}
    failed = _oneshot_failures(plain + traced, record)
    traced_runs = [r for _, _, r in traced]
    metrics = _layer_metrics(_spans_of(traced_runs), _wall(traced_runs), _wall([r for _, _, r in plain]), record)
    metrics["cli.bytes_out"] = sum(r.out_bytes for r in traced_runs)
    return Outcome(len(rotation) * 2, failed, metrics, record)


# --- random-access ---------------------------------------------------------


def _ra_argv(seed: int, *mode: str) -> list[str]:
    return [PYTHON, f"{BENCH_DIR}/ra_runner.py", "--seed", str(seed), *mode]


def _run_runner(argv: list[str]) -> tuple[ChildRun, dict]:
    run = run_child(argv)
    if run.code != 0:
        raise RuntimeError(f"random-access runner failed: {run.err.decode(errors='replace')}")
    return run, last_json_line(run.out)


def random_access(seed: int, seconds: float) -> Outcome:
    """`RA_SEGMENTS` fresh runners in turn, each timing its share of `seconds`.

    A runner's set-up runs from its spawn to the end of its warm-up; the
    queries, latencies and checks of all runners are pooled.
    """
    argv = _ra_argv(seed, "--seconds", repr(seconds / RA_SEGMENTS))
    runs, outs = zip(*(_run_runner(argv) for _ in range(RA_SEGMENTS)))
    setups = [out["ready"] - run.start for run, out in zip(runs, outs)]
    latencies = LogHistogram()
    for out in outs:
        latencies.merge(LogHistogram({int(b): c for b, c in out["latency_s"].items()}))
    lat = latencies.summarize(1e6)
    attempted = sum(out["attempted"] for out in outs)
    record = {
        "setup": {"samples": len(setups), "wall_s": setups},
        "command": argv,
        "segments": RA_SEGMENTS,
        "queries_per_s": attempted / sum(out["wall_s"] for out in outs),
        "query_p50_us": lat["p50"],
        "query_p99_us": lat.get("p99"),
        "latency_us": lat,
        "checks": {k: sum(out[k] for out in outs) for k in ("roundtrip_failed", "checked", "independent_failed")},
    }
    metrics = {
        "setup_s": interquartile_mean(setups),
        "peak_rss_mb": max(run.maxrss_kb for run in runs) / 1024,
        "throughput_per_s": record["queries_per_s"],
    }
    return Outcome(attempted, sum(out["failed"] for out in outs), metrics, record)


def random_access_trace(seed: int) -> Outcome:
    argv = _ra_argv(seed, "--trace-queries", str(RA_TRACE_QUERIES))
    _, out = _run_runner(argv)
    record: dict = {"command": argv}
    spans = {k: tuple(v) for k, v in out["spans"].items()}
    metrics = _layer_metrics(spans, out["traced_wall_s"], out["untraced_wall_s"], record)
    return Outcome(out["attempted"], out["failed"], metrics, record)


WORKLOADS = {
    "decompose-stream": (decompose_stream, decompose_stream_trace),
    "random-access": (random_access, random_access_trace),
    "verify-oracle": (verify_oracle, verify_oracle_trace),
    "cli-oneshot": (cli_oneshot, cli_oneshot_trace),
}
