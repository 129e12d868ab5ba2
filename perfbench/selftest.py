"""Self-test of the benchmark: toy-size runs pass, planted faults are caught.

Usage: python3 perfbench/selftest.py

Each workload runs briefly at toy size and must report no failures; then
each correctness check is fed one planted fault (a corrupted JSONL line, a
wrong located start, a flipped `passed` field, one changed byte of a
one-shot output) and must report a failure, so no check passes without
examining anything.  Exits 1 if any case does not hold.
"""

from __future__ import annotations

import json
import sys

import oracle
import ra_runner
import workloads
from proc import ROOT

sys.path.insert(0, str(ROOT / "src"))  # random-access also runs in this process

from scdposet import StartVector  # noqa: E402

TOY = (4, 3)
SECONDS = 0.5
SEED = 7


def corrupt_jsonl_line(data: bytes) -> bytes:
    """Repeat the first element of the first chain in place of its second."""
    lines = data.split(b"\n")
    chain = json.loads(lines[0])
    chain["elements"][1] = chain["elements"][0]
    lines[0] = json.dumps(chain, separators=(",", ":")).encode()
    return b"\n".join(lines)


def flip_passed(data: bytes) -> bytes:
    report = json.loads(data)
    report["passed"] = not report["passed"]
    return json.dumps(report, indent=2).encode() + b"\n"


def change_one_byte(data: bytes) -> bytes:
    return data[:-2] + bytes([data[-2] ^ 1]) + data[-1:]


def plant_wrong_start(results) -> None:
    k = min(results)
    sv, extra = results[k]
    m, n = sv.shape.m, sv.shape.n
    other = (0,) * m if any(sv.parts) else (1,) + (0,) * (m - 1)
    results[k] = (StartVector.of(other, n), extra)


def check_against_exhaustive_index() -> str | None:
    """At toy size every random-access answer must equal the exhaustive chain index."""
    index = oracle.chain_index(*TOY)
    seen = {}

    def capture(results):
        seen.update({k: r[0].parts for k, r in results.items()})

    comps, _ = ra_runner.make_inputs(SEED, *TOY, pool=64)
    out = ra_runner.measure(SEED, SECONDS, *TOY, pool=64, fault=capture)
    wrong = [comps[k] for k, a in seen.items() if index[comps[k]] != a]
    if out["failed"] or wrong or len(seen) != 64:
        return f"failed={out['failed']} answered={len(seen)} disagreeing={wrong[:3]}"
    return None


def main() -> int:
    cases = []

    def case(name, outcome, want_failures):
        ok = (outcome.failed > 0) == want_failures and outcome.attempted > 0
        rate = outcome.failed / outcome.attempted if outcome.attempted else float("nan")
        cases.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name}: attempted={outcome.attempted} failed={outcome.failed} error_rate={rate:.2g}")

    case("decompose-stream toy", workloads.decompose_stream(SEED, SECONDS, TOY), False)
    case("decompose-stream corrupted JSONL line", workloads.decompose_stream(SEED, SECONDS, TOY, fault=corrupt_jsonl_line), True)
    case("verify-oracle toy", workloads.verify_oracle(SEED, SECONDS, TOY), False)
    case("verify-oracle flipped passed", workloads.verify_oracle(SEED, SECONDS, TOY, fault=flip_passed), True)
    case("cli-oneshot", workloads.cli_oneshot(SEED, SECONDS), False)
    case("cli-oneshot changed output byte", workloads.cli_oneshot(SEED, SECONDS, fault=change_one_byte), True)

    out = ra_runner.measure(SEED, SECONDS, *TOY, pool=64)
    case("random-access toy", workloads.Outcome(out["attempted"], out["failed"], {}), False)
    out = ra_runner.measure(SEED, SECONDS, *TOY, pool=64, fault=plant_wrong_start)
    case("random-access wrong located start", workloads.Outcome(out["attempted"], out["failed"], {}), True)
    problem = check_against_exhaustive_index()
    cases.append(problem is None)
    print(f"{'PASS' if problem is None else 'FAIL'} random-access answers match the exhaustive chain index" + (f": {problem}" if problem else ""))

    for name, run in (("decompose-stream", workloads.decompose_stream_trace), ("verify-oracle", workloads.verify_oracle_trace)):
        traced = run(SEED, TOY)
        complete = set(traced.metrics) == set(workloads.PER_LAYER)
        ok = complete and traced.failed == 0 and traced.metrics["trace.uncovered_s"] >= 0
        cases.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name} traced toy: uncovered={traced.metrics['trace.uncovered_s']:.4f} s")

    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        ok = (
            [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
            and {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
            and {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
        )
        cases.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} BENCHMARK.json names the workloads and metrics the harness reports")

    print(f"{sum(cases)}/{len(cases)} cases hold")
    return 0 if all(cases) else 1


if __name__ == "__main__":
    sys.exit(main())
