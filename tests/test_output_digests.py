"""The byte-level output contract, run in-process.

Each command below is one whose stdout the CI workflow pins by sha256; here
it runs through `cli.main` with stdout captured, so tier-1 checks the same
digests without a subprocess.  A verify report is hashed as the workflow
hashes it: `seconds` removed from every check, then the JSON re-encoded
with sorted keys, so the key order of each report is checked through
`test_report_keys_keep_their_order`.
"""

import hashlib
import io
import json
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from scdposet import cli

STDOUT_DIGESTS = {
    "decompose -m 8 -n 4": "972e5f60c11fd9e43f6f9cd445ae8832d39a7429e95b861d65cbee445ba481f1",
    "chain --alpha 0,0 -n 3000": "b52a939cbcef947d021f73bb0d25ab757e5cdc8f03ecc54e40ee96139ea4345b",
    "decompose -m 1 -n 5": "3a5ebf9e7f811e469f7c79aa897d1b12ed2597231215c2759d244e5493584aff",
    "starts -m 8 -n 4": "38bf6a60657999f3a243ccedb50a3ba6b13c368531d7ab6d4bdec6c18569383a",
    "decompose -m 3 -n 12": "c0bd495eda334fbcb9d237bc36b7f9123be9188bcf2ab6fd9978794923bca69f",
    "decompose -m 2 -n 150": "f4123783eba72eaea8aaf7f55eeca2eeea9d62956a68c9ab17ee967e42b477ea",
    "decompose -m 2 -n 100": "d7aeaa49046c60546b1d1fce54c7cb92e50d0df355164a89e13ead29749b3052",
    "decompose -m 4 -n 10": "76fa0a32966a0024a1376196675e2fd641482a7436e74bcdca8bd75645992449",
    "chain --alpha 0,0 -n 200000": "9185bdf73d8401ce9af11c4265f3deae380676d1e78ff6339d36bdf2fdad3042",
    "render --alpha 2,4,2,2,3,0 -n 5": "080ebef17d6a3f4acddd4d6b0c7229b9bae4ab48c868e17e9af7b0a3aa8ffa4a",
    "render --alpha 2,4,2,2,3,0 -n 5 --format json": "4a2e18e571548d8b41adbb1cfa23f79484c5f5df7bcdc929f894aea7b797d3de",
    "render --alpha 2,4,2,2,3,0 -n 5 --format svg": "86678d3052d7c56827b3dcbfc386c71435871e9bf9e8eaff37849ec2612d2250",
}

REPORT_DIGESTS = {
    "verify -m 8 -n 3 --oracle": "a6a1e368603a6243f67cf8caf24ae2a0c0b597a17d31986d37ee5d7a27d0ef29",
    "verify -m 12 -n 9 --sample 64": "a3187b44891ff50a898d5c6986e4ee5286fe86ce6fe666b7e11626cb1ecb049a",
}

REPORT_KEYS = ["m", "n", "passed", "chain_count", "element_count", "checks"]
CHECK_KEYS = ["name", "passed", "skipped", "seconds", "message", "counterexample"]


def test_every_pinned_digest_is_checked():
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
    pinned = set(re.findall(r"\b[0-9a-f]{64}\b", workflow.read_text()))
    assert pinned == {*STDOUT_DIGESTS.values(), *REPORT_DIGESTS.values()}


@pytest.mark.parametrize("command", list(STDOUT_DIGESTS))
def test_stdout_digest(capsys, command):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_DIGESTS[command]


@pytest.fixture(scope="module", params=list(REPORT_DIGESTS))
def report_text(request):
    # one run per command serves both report tests; capsys is per test
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(request.param.split()) == 0
    return request.param, out.getvalue()


def test_report_digest(report_text):
    command, text = report_text
    report = json.loads(text)
    for check in report["checks"]:
        del check["seconds"]
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == REPORT_DIGESTS[command]


def test_report_keys_keep_their_order(report_text):
    _, text = report_text
    report = json.loads(text)
    assert list(report) == REPORT_KEYS
    assert all(list(check) == CHECK_KEYS for check in report["checks"])
