"""The CLI contract: the one place each command the CI workflow runs is
written, with what it must print, refuse or stay under.

* `STDOUT_DIGESTS` pins a command's stdout by sha256.
* `REPORT_DIGESTS` pins a verify report by `report_digest`: `seconds`
  removed from every check, then the JSON re-encoded with sorted keys, so
  the key order of each report is checked through
  `test_report_keys_keep_their_order`.
* `REFUSALS` maps a command to the one stderr line it exits 1 with, with
  nothing on stdout, under `run_limited`: 256 MiB of address space and the
  10 s timeout.
* `RSS_CEILINGS_MB` holds the peak RSS, in MB, each command stays under.

Tier-1 runs the two digest tables through `cli.main` in-process, and each
refusal in a child `python -m scdposet.cli`.  The CI workflow imports every
table and runs each row through the installed `scdposet` script, each
digest and refusal under the same timeout, and each RSS row, which tier-1
does not run, in a child measured on its own.
"""

import hashlib
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import scdposet
from scdposet import cli

from conftest import bracket_locate

TIMEOUT_S = 10


def seeded_parts(seed: int) -> list[int]:
    """2,000 parts in [0, 3] from `random.Random(seed)`."""
    rng = random.Random(seed)
    return [rng.randint(0, 3) for _ in range(2000)]


def joined(parts) -> str:
    return ",".join(map(str, parts))


STDOUT_DIGESTS = {
    # benchmark scale: the command the decompose-stream workload runs
    "decompose -m 8 -n 4": "972e5f60c11fd9e43f6f9cd445ae8832d39a7429e95b861d65cbee445ba481f1",
    # a 6,001-element chain, written past its first 4,096-element slice
    "chain --alpha 0,0 -n 3000": "b52a939cbcef947d021f73bb0d25ab757e5cdc8f03ecc54e40ee96139ea4345b",
    # one-part decompose: a single chain through the whole poset
    "decompose -m 1 -n 5": "3a5ebf9e7f811e469f7c79aa897d1b12ed2597231215c2759d244e5493584aff",
    # the starting set, one start per line
    "starts -m 8 -n 4": "38bf6a60657999f3a243ccedb50a3ba6b13c368531d7ab6d4bdec6c18569383a",
    # multi-digit parts in decompose: up to two digits (n = 12, 10), up to three (n = 150, 100)
    "decompose -m 3 -n 12": "c0bd495eda334fbcb9d237bc36b7f9123be9188bcf2ab6fd9978794923bca69f",
    "decompose -m 2 -n 150": "f4123783eba72eaea8aaf7f55eeca2eeea9d62956a68c9ab17ee967e42b477ea",
    "decompose -m 2 -n 100": "d7aeaa49046c60546b1d1fce54c7cb92e50d0df355164a89e13ead29749b3052",
    "decompose -m 4 -n 10": "76fa0a32966a0024a1376196675e2fd641482a7436e74bcdca8bd75645992449",
    # multi-digit parts in a 400,001-element chain, written in many slices
    "chain --alpha 0,0 -n 200000": "9185bdf73d8401ce9af11c4265f3deae380676d1e78ff6339d36bdf2fdad3042",
    # a grid whose rows mix forbidden sources, in each render format
    "render --alpha 2,4,2,2,3,0 -n 5": "080ebef17d6a3f4acddd4d6b0c7229b9bae4ab48c868e17e9af7b0a3aa8ffa4a",
    "render --alpha 2,4,2,2,3,0 -n 5 --format json": "4a2e18e571548d8b41adbb1cfa23f79484c5f5df7bcdc929f894aea7b797d3de",
    "render --alpha 2,4,2,2,3,0 -n 5 --format svg": "86678d3052d7c56827b3dcbfc386c71435871e9bf9e8eaff37849ec2612d2250",
    # locate certifies a seeded 2,000-part composition
    f"locate --c {joined(seeded_parts(1))} -n 3": "b1a85d5a88d615995ee7f075ad8a152213d3a7a493d9a552cff50e06aa7e6884",
    # psi on the bracket start of a seeded 2,000-part composition
    f"psi --alpha {joined(bracket_locate(seeded_parts(2), 3))} -n 3": (
        "aefb343cc4669792a44e9198eecd8dbc896d948630396280714afe2eefbd25a8"
    ),
}

REPORT_DIGESTS = {
    # full mode at the verify-oracle workload's shape, partition oracle included
    "verify -m 8 -n 3 --oracle": "a6a1e368603a6243f67cf8caf24ae2a0c0b597a17d31986d37ee5d7a27d0ef29",
    # sampled mode past the cap, whose middle rank of 39,581,170,420 is past the cap too
    "verify -m 12 -n 9": "939f613a4c22ee53ee2636d0f3a64e998fabc61f3afaf8f641ae5d85a598814d",
    # sampled on a 400,000-cell grid, no per-chain check skipped
    "verify -m 2 -n 200000": "2e7217ce85582d0d4a738694951dac98e3a8e952920c8dd92e4c42a45c10158a",
    # sampled on a 2,000-row grid, its starts enumerated without recursion; here
    # and below the work bound cuts the sample to SAMPLE_WORK // m chains
    "verify -m 2000 -n 1": "d0005789d5c081769734804f69a8a28fda010e960a51d29f51de3c96565319c2",
    # past the decimal limit and past 22 rows only partition and middle-rank-count are skipped
    "verify -m 1000 -n 30000": "2a2e83e1da86a9c5412e322d415e9b87f733255a2b7f4b682e78d4a3c5c6da3f",
    "verify -m 4400 -n 9": "1b9524829508d0c16a091942657a66f64fdb7c3f4b0765ba145da03070545a46",
    # sampled past the cap, the middle rank counted along its one enumeration
    "verify -m 8 -n 5": "cca2bb0e1ac95e184d0bdddd3bd5080a9e362d36d942b5ee0998424b6e9f6cf5",
    # the partition oracle runs without --oracle
    "verify -m 4 -n 4": "e70c84ee7d7b7bccc06abc0cd117caf6668c726b5fdb4ea8c6421c92fc10a8f9",
    # full mode, every check run and passed
    "verify -m 4 -n 3 --oracle": "8d51e9995e5901c46bbf0d1ae2f6245a259a68c42b7c3ff27ff1553d6fc2c9fd",
}

REFUSALS = {
    # verify takes only a shape
    "verify -m 2 -n 1 --cap 5": "error: unrecognized arguments: --cap 5",
    "verify -m 2 -n 1 --sample 5": "error: unrecognized arguments: --sample 5",
    "render --alpha 0,0 -n 100000000": "error: grid of 200000000 cells exceeds the render limit of 100000",
    "stats -m 2 -n 1000000000": "error: m*m*n = 4000000000 exceeds the stats limit of 1000000",
    "starts -m 2 -n 1073741825": "error: grid shape too large: 2*1073741825 cells exceeds 2147483648",
    # a start that fails only a middle suffix inequality
    "chain --alpha 0,1,2,0 -n 2": "error: (0, 1, 2, 0) is not a start vector for n=2",
    # a part past the 4,300 digits the interpreter converts to int
    f"chain --alpha {'1' * 5000},0 -n 1": "error: part 1 has 5000 digits, more than the limit of 4300",
    # a part out of range is named by its position, and by its digit count past 20 digits
    f"locate --c {'1' * 4300} -n 1": "error: part 1 (a 4300-digit number) is outside [0, 1]",
    f"locate --c {joined([1] * 3000 + [2])} -n 1": "error: part 3001 (2) is outside [0, 1]",
}

RSS_CEILINGS_MB = {
    # chain output holds no table of part values
    "chain --alpha 199990,0 -n 200000": 20,
    "chain --alpha 0,0 -n 200000": 48,
    # the partition oracle at the default cap
    "verify -m 6 -n 9 --oracle": 64,
}

REPORT_KEYS = ["m", "n", "passed", "chain_count", "element_count", "checks"]
CHECK_KEYS = ["name", "passed", "skipped", "seconds", "message", "counterexample"]


def report_digest(text: str) -> str:
    """sha256 of a verify report with `seconds` removed from every check,
    re-encoded with sorted keys."""
    report = json.loads(text)
    for check in report["checks"]:
        del check["seconds"]
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))


def run_limited(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    """Run `argv` in a child with 256 MiB of address space, under the
    timeout, and capture its output as text."""
    return subprocess.run(
        argv, capture_output=True, text=True, timeout=TIMEOUT_S, preexec_fn=_limit_address_space, **kwargs
    )


# Runs argv[1:] with stdout discarded, and prints its exit code and peak RSS
# in kB.  On Linux a child's peak RSS counts the high-water RSS of the
# address space it execs from, which for a child of a large process is that
# process's, so each measured command is started from this bare interpreter.
_RSS_PROBE = (
    "import os, subprocess, sys; child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
    "_, status, usage = os.wait4(child.pid, 0); print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
)


def peak_rss(argv: list[str]) -> tuple[int, float]:
    """The exit code of `argv` and its peak RSS in MB, measured on its own."""
    probe = subprocess.run([sys.executable, "-c", _RSS_PROBE, *argv], capture_output=True, text=True, check=True)
    code, kb = map(int, probe.stdout.split())
    return code, kb / 1024


def short(command: str) -> str:
    """`command`, cut to 60 characters when it runs past 80."""
    return command if len(command) <= 80 else f"{command[:60]}... ({len(command)} characters)"


def test_workflow_reads_the_tables_and_pins_no_digest_of_its_own():
    workflow = (Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml").read_text()
    tables = {
        "STDOUT_DIGESTS": STDOUT_DIGESTS,
        "REPORT_DIGESTS": REPORT_DIGESTS,
        "REFUSALS": REFUSALS,
        "RSS_CEILINGS_MB": RSS_CEILINGS_MB,
    }
    subcommands = "|".join({command.split()[0] for table in tables.values() for command in table})
    assert all(name in workflow for name in tables)
    assert not re.search(r"\b[0-9a-f]{64}\b", workflow)
    assert not re.search(rf"scdposet\W+({subcommands})\b", workflow)
    assert "error:" not in workflow
    # named steps: install, tier-1, these rows through the installed script, the benchmark's oracles and self-test
    assert len(re.findall(r"^ +- name: ", workflow, re.M)) == 5
    assert len(workflow.splitlines()) <= 90


@pytest.mark.parametrize("command", list(STDOUT_DIGESTS), ids=short)
def test_stdout_digest(capsys, command):
    assert cli.main(command.split()) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_DIGESTS[command]


@pytest.fixture(scope="module", params=list(REPORT_DIGESTS))
def report_text(request):
    # one run per command serves both report tests; capsys is per test
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert cli.main(request.param.split()) == 0
    assert err.getvalue() == ""
    return request.param, out.getvalue()


def test_report_digest(report_text):
    command, text = report_text
    assert report_digest(text) == REPORT_DIGESTS[command]


def test_report_keys_keep_their_order(report_text):
    _, text = report_text
    report = json.loads(text)
    assert list(report) == REPORT_KEYS
    assert all(list(check) == CHECK_KEYS for check in report["checks"])


@pytest.mark.parametrize("command", list(REFUSALS), ids=short)
def test_refusal(command):
    src = str(Path(scdposet.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "scdposet.cli", *command.split()]
    proc = run_limited(argv, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", REFUSALS[command] + "\n")


def test_refusal_lines_are_short():
    # a refusal names the offending value, never the whole input
    assert all(len(line) < 200 for line in REFUSALS.values())


def test_peak_rss_counts_the_child_alone():
    ballast = b"x" * (64 << 20)  # this process's high-water RSS passes 64 MB
    code, peak_mb = peak_rss([sys.executable, "-c", "import sys; sys.exit(3)"])
    assert code == 3 and peak_mb < 32 < len(ballast) >> 20
