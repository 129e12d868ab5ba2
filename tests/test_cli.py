import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import scdposet
from scdposet import cli
from scdposet.decompose import CheckResult, VerificationReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChainCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "chain", "--alpha", "2,0,5,0", "-n", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["m"] == 4 and payload["n"] == 6
        assert payload["alpha"] == [2, 0, 5, 0]
        assert payload["alpha_end"] == [0, 2, 0, 5]
        assert payload["start"] == [2, 0, 5, 0]
        assert payload["end"] == [6, 4, 6, 1]
        assert len(payload["elements"]) == 11

    def test_rejects_non_start(self, capsys):
        code, _, err = run(capsys, "chain", "--alpha", "2,2,0", "-n", "2")
        assert code == 1
        assert err.startswith("error:")

    def test_rejects_malformed_vector(self, capsys):
        code, _, err = run(capsys, "chain", "--alpha", "2,zz,0", "-n", "2")
        assert code == 1
        assert err.startswith("error:")

    def test_rejects_out_of_range_part(self, capsys):
        code, _, err = run(capsys, "chain", "--alpha", "9,0", "-n", "2")
        assert code == 1
        assert err.startswith("error:")


class TestStartsCommand:
    def test_text_stream(self, capsys):
        code, out, _ = run(capsys, "starts", "-m", "3", "-n", "2")
        assert code == 0
        assert out.splitlines() == ["0,0,0", "0,1,0", "0,2,0", "1,0,0", "1,1,0", "2,0,0", "2,1,0"]


class TestDecomposeCommand:
    def test_jsonl_stream_sorted_and_complete(self, capsys):
        code, out, _ = run(capsys, "decompose", "-m", "3", "-n", "2")
        assert code == 0
        chains = [json.loads(line) for line in out.splitlines()]
        assert len(chains) == 7
        alphas = [tuple(ch["alpha"]) for ch in chains]
        assert alphas == sorted(alphas)
        assert sum(len(ch["elements"]) for ch in chains) == 27

    def test_json_array(self, capsys):
        code, out, _ = run(capsys, "decompose", "-m", "2", "-n", "1")
        assert code == 0
        chains = [json.loads(line) for line in out.splitlines()]
        assert [ch["elements"] for ch in chains] == [[[0, 0], [0, 1], [1, 1]], [[1, 0]]]

    def test_output_bytes_pinned(self, capsys):
        # stdout is a contract; the digest pins the exact JSONL bytes for N(4,3)
        code, out, _ = run(capsys, "decompose", "-m", "4", "-n", "3")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "1bb468229a8b8790b419c7b7ff17582e0b942b852f9cb4d3b471ed3a91ab9a62"

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "decompose", "-m", "2", "-n", "3")
        _, second, _ = run(capsys, "decompose", "-m", "2", "-n", "3")
        assert first == second


class TestLocateCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "locate", "--c", "5,2,3,6,4,1,5,3", "-n", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == [5, 2, 1, 6, 4, 1, 4, 0]
        assert payload["fill_vector"] == [0, 0, 2, 0, 0, 0, 1, 3]
        assert payload["positive_set"] == [3, 7, 8]

    def test_rejects_bad_vector(self, capsys):
        code, _, err = run(capsys, "locate", "--c", "1,2,", "-n", "7")
        assert code == 1
        assert err.startswith("error:")

    def test_rejects_non_ascii_decimal_parts(self, capsys):
        code, out, err = run(capsys, "locate", "--c", "1_0,+2, 3,\u0663", "-n", "10")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestPsiCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "psi", "--alpha", "2,0,5,0", "-n", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["psi"] == [5, 0, 2, 0]
        assert payload["involution_ok"] is True


class TestVerifyCommand:
    def test_oracle_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "-m", "3", "-n", "2", "--oracle")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["chain_count"] == 7
        assert payload["element_count"] == 27
        names = {c["name"]: c for c in payload["checks"]}
        assert names["partition"]["passed"] and not names["partition"]["skipped"]

    def test_without_oracle_flag_partition_skipped(self, capsys):
        code, out, _ = run(capsys, "verify", "-m", "2", "-n", "2")
        assert code == 0
        payload = json.loads(out)
        names = {c["name"]: c for c in payload["checks"]}
        assert names["partition"]["skipped"]

    def test_failing_report_exits_2(self, capsys, monkeypatch):
        def fake_verify(shape, **kwargs):
            report = VerificationReport(shape)
            report.checks.append(CheckResult("partition", False, 0.0, {"element": [0]}))
            return report

        monkeypatch.setattr(cli, "verify", fake_verify)
        code, out, _ = run(capsys, "verify", "-m", "2", "-n", "2", "--oracle")
        assert code == 2
        assert json.loads(out)["passed"] is False

    def test_sample_zero_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "-m", "40", "-n", "40", "--sample", "0")
        assert code == 1
        assert out == ""
        assert err == "error: sample must be at least 1, got 0\n"

    def test_negative_sample_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "-m", "40", "-n", "40", "--sample", "-3")
        assert code == 1
        assert out == ""
        assert err == "error: sample must be at least 1, got -3\n"

    @staticmethod
    def _without_seconds(out):
        payload = json.loads(out)
        for check in payload["checks"]:
            del check["seconds"]
        return payload

    @staticmethod
    def _check(name, message="", skipped=False):
        return {"name": name, "passed": True, "skipped": skipped, "message": message, "counterexample": None}

    def test_oracle_report_pinned(self, capsys):
        code, out, _ = run(capsys, "verify", "-m", "4", "-n", "3", "--oracle")
        assert code == 0
        names = ["partition", "symmetric", "saturated", "disjoint", "involution",
                 "corollary-vs-simulation", "middle-rank-count"]
        assert self._without_seconds(out) == {
            "m": 4, "n": 3, "passed": True, "chain_count": 44, "element_count": 256,
            "checks": [self._check(name) for name in names],
        }

    def test_sampled_report_pinned(self, capsys):
        code, out, _ = run(capsys, "verify", "-m", "6", "-n", "6", "--cap", "50", "--sample", "16")
        assert code == 0
        sampled = "sampled 16 chains"
        assert self._without_seconds(out) == {
            "m": 6, "n": 6, "passed": True, "chain_count": None, "element_count": None,
            "checks": [
                self._check("partition", "oracle disabled by caller", skipped=True),
                self._check("symmetric", sampled),
                self._check("saturated", sampled),
                self._check("disjoint", sampled + "; 16 random round trips"),
                self._check("involution", sampled),
                self._check("corollary-vs-simulation", sampled),
                self._check("middle-rank-count", "middle rank size 9331 exceeds cap 50", skipped=True),
            ],
        }


class TestRenderCommand:
    def test_ascii(self, capsys):
        code, out, _ = run(capsys, "render", "--alpha", "1,3,2,0", "-n", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "alpha=1,3,2,0 alphaE=0,1,2,3"
        assert lines[4] == "  1   X   X   X"

    def test_svg(self, capsys):
        code, out, _ = run(capsys, "render", "--alpha", "1,0", "-n", "2", "--format", "svg")
        assert code == 0
        assert out.startswith("<svg")
        assert 'fill="#7bc043"' in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "render", "--alpha", "1,3,2,0", "-n", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha_end"] == [0, 1, 2, 3]
        assert payload["cells"][3][0] == {"state": "fillable", "order": 1}


class TestStatsCommand:
    def test_3x2(self, capsys):
        code, out, _ = run(capsys, "stats", "-m", "3", "-n", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["level_sizes"] == [1, 3, 6, 7, 6, 3, 1]
        assert payload["chain_count"] == 7
        assert payload["chain_length_histogram"] == {"7": 1, "5": 2, "3": 3, "1": 1}


class TestArgumentErrors:
    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "chain", "--alpha", "1,0")
        assert code == 1
        assert "error:" in err

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "scdposet" in out

    def test_shape_bound_rejected(self, capsys):
        code, _, err = run(capsys, "stats", "-m", "100000", "-n", "100000")
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["render", "--alpha", "1,0", "-n", "2", "--fixed-glyph", "1"],
            ["render", "--alpha", "1,0", "-n", "2", "--forbidden-glyph", " "],
            ["render", "--alpha", "1,0", "-n", "2", "--format", "svg", "--fixed-color", '"/><script>x</script>'],
            ["render", "--alpha", "1,0", "-n", "2", "--format", "svg", "--forbidden-color", "#000000"],
            ["starts", "-m", "2", "-n", "1", "--format", "jsonl"],
        ],
    )
    def test_removed_style_options_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


def test_readme_commands_run(capsys):
    # the README must not advertise a command or flag the CLI refuses
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [
        shlex.split(line, comments=True)
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.splitlines()
        if line.startswith("scdposet ")
    ]
    assert commands
    for argv in commands:
        code, _, err = run(capsys, *argv[1:])
        assert code == 0, (argv, err)


def test_import_loads_no_process_machinery():
    # every command pays for what `import scdposet.cli` pulls in
    src = str(Path(scdposet.__file__).resolve().parents[1])
    probe = (
        "import sys, scdposet.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"
