import ast
import hashlib
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import scdposet
import scdposet.starts
from scdposet import Composition, GridShape, StartVector, chain_elements, cli, decompose
from scdposet.core import format_parts
from scdposet.decompose import CheckResult, VerificationReport
from scdposet.starts import iter_start_parts

from conftest import (
    FAULTS,
    SMALL_SHAPES,
    dbtk_chains,
    literal_end_vector,
    plant,
    record_checks,
    shift_one_forbidden_cell,
)
from test_output_digests import REFUSALS


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_refused(capsys, row, argv=None):
    """`argv`, by default the `REFUSALS` row itself, exits 1 with nothing on
    stdout and that row's line on stderr."""
    assert run(capsys, *(argv or row).split()) == (1, "", REFUSALS[row] + "\n")


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

    def test_chain_holds_no_table_of_part_values(self, capsys):
        # a 21-element chain of N(2, 200000); a table of all 200,001 part
        # strings would take about 12 MB
        tracemalloc.start()
        try:
            code = cli.main(["chain", "--alpha", "199990,0", "-n", "200000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)["elements"]) == 21
        assert peak < 1 << 20, peak


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


def json_line(ch):
    """The chain's line as the standard library encodes it, compact."""
    payload = {
        "m": ch.alpha.shape.m,
        "n": ch.alpha.shape.n,
        "alpha": list(ch.alpha.parts),
        "alpha_end": list(ch.alpha.end),
        "start": list(ch.elements[0]),
        "end": list(ch.elements[-1]),
        "elements": [list(el) for el in ch.elements],
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


class TestChainLineBytes:
    """`chain`, `decompose` and `starts` format their lines by hand, a chain
    of at most `cli._CHUNK` elements in one write and a longer one in slices
    of `cli._CHUNK`; the bytes must be those of `json.dumps` and
    `format_parts`."""

    # the last four have parts at n = 9, 10, 99 and 100, next to and across a digit width
    @pytest.mark.parametrize("m, n", SMALL_SHAPES + [(1, 5), (4, 9), (4, 10), (2, 99), (2, 100)])
    def test_decompose_matches_json_dumps(self, capsys, m, n):
        code, out, _ = run(capsys, "decompose", "-m", str(m), "-n", str(n))
        assert code == 0
        assert out == "".join(map(json_line, decompose(GridShape(m, n))))

    @pytest.mark.parametrize(
        "argv, writes",
        [
            (["decompose", "-m", "4", "-n", "3"], "one per line"),
            (["chain", "--alpha", "0,0,0", "-n", "1365"], 1),
            (["chain", "--alpha", "0,0", "-n", "2048"], 2),
            (["chain", "--alpha", "0,0", "-n", "3000"], 2),
        ],
        ids=["decompose", "one-full-slice", "one-past-a-slice", "two-slices-and-a-part"],
    )
    def test_one_write_per_slice_and_a_short_line_in_one(self, monkeypatch, argv, writes):
        chunks = []
        monkeypatch.setattr(sys, "stdout", type("Out", (), {"write": staticmethod(chunks.append)})())
        assert cli.main(argv) == 0
        lines = "".join(chunks).splitlines(keepends=True)
        if writes == "one per line":
            assert chunks == lines and len(lines) == 44
        else:
            assert len(lines) == 1 and len(chunks) == writes

    @pytest.mark.parametrize(
        "alpha, n, length",
        [((0, 0, 0), 1365, 4096), ((0, 0), 2048, 4097), ((0, 0), 3000, 6001)],
        ids=["one-full-slice", "one-past-a-slice", "two-slices-and-a-part"],
    )
    def test_chain_matches_json_dumps_at_slice_boundaries(self, capsys, alpha, n, length):
        ch = chain_elements(StartVector.of(alpha, n))
        assert len(ch) == length
        code, out, _ = run(capsys, "chain", "--alpha", ",".join(map(str, alpha)), "-n", str(n))
        assert code == 0
        assert out == json_line(ch)

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_decompose_matches_json_dumps_in_short_slices(self, capsys, monkeypatch, chunk):
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        code, out, _ = run(capsys, "decompose", "-m", "3", "-n", "3")
        assert code == 0
        assert out == "".join(map(json_line, decompose(GridShape(3, 3))))

    @pytest.mark.parametrize("m, n", SMALL_SHAPES)
    def test_starts_matches_format_parts(self, capsys, m, n):
        code, out, _ = run(capsys, "starts", "-m", str(m), "-n", str(n))
        assert code == 0
        assert out == "".join(format_parts(parts) + "\n" for parts in iter_start_parts(GridShape(m, n)))


class TestDecomposeWritesFromPartsAndEnd:
    """`decompose` writes each chain from its odometer tuple and the end
    vector `start_end` certifies, through the one `fill_walk`, and builds
    no value object per chain."""

    def test_one_end_scan_and_no_value_per_chain(self, capsys, monkeypatch):
        checked = record_checks(monkeypatch, StartVector, Composition)
        scanned = []

        def counting(original):
            def scan(parts, n):
                scanned.append(parts)
                return original(parts, n)

            return scan

        plant(monkeypatch, "starts", "alpha_end_parts", counting)
        code, out, _ = run(capsys, "decompose", "-m", "4", "-n", "4")
        assert code == 0
        assert checked == {StartVector: [], Composition: []}
        assert len(scanned) == 85
        assert scanned == [tuple(json.loads(line)["alpha"]) for line in out.splitlines()]
        assert out == "".join(map(json_line, decompose(GridShape(4, 4))))

    def test_a_planted_walk_fault_reaches_the_output(self, capsys, monkeypatch):
        _, honest, _ = run(capsys, "decompose", "-m", "4", "-n", "4")
        plant(monkeypatch, *FAULTS["fill_walk skipping one element"])
        code, faulty, _ = run(capsys, "decompose", "-m", "4", "-n", "4")
        assert code == 0
        changed = [line for line, was in zip(faulty.splitlines(), honest.splitlines()) if line != was]
        assert [json.loads(line)["alpha"] for line in changed] == [[1, 0, 0, 0]]


class TestDecomposeLinesAgainstOracles:
    """The `decompose` JSONL against oracles that share no code with the
    walk: the dBTK chains and the literal end vector of conftest.  (2, 12)
    and (3, 10) have multi-digit parts."""

    @pytest.mark.parametrize("m, n", SMALL_SHAPES + [(2, 12), (3, 10)])
    def test_lines_are_the_dbtk_chains(self, capsys, m, n):
        code, out, _ = run(capsys, "decompose", "-m", str(m), "-n", str(n))
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        got = [tuple(map(tuple, line["elements"])) for line in lines]
        classical = dbtk_chains(m, n)
        assert len(got) == len(classical)
        assert set(got) == {tuple(chain) for chain in classical}
        for line in lines:
            els = line["elements"]
            assert (line["m"], line["n"]) == (m, n)
            assert line["alpha"] == line["start"] == els[0]
            assert line["end"] == els[-1]
            assert tuple(line["alpha_end"]) == literal_end_vector(tuple(line["alpha"]), n)
            assert line["end"] == [n - e for e in line["alpha_end"]]


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


@pytest.mark.parametrize("command, flag", [("locate", "--c"), ("chain", "--alpha")])
@pytest.mark.parametrize("vector", ["1,-1,0", "-1,0", "1,3,0", "0,0,3"])
def test_part_outside_range_exits_1(capsys, command, flag, vector):
    # the derived constructor never sees outside input: a negative part or a
    # part above n is refused before any start is located or certified
    code, out, err = run(capsys, command, f"{flag}={vector}", "-n", "2")
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

    def test_image_outside_starting_set_exits_2(self, capsys, monkeypatch):
        # a wrong end vector sends psi((1, 0)) to (0, 1), which is no start
        # vector: the input was good, so this is a failed check
        shifted = shift_one_forbidden_cell(scdposet.starts.alpha_end_parts)
        monkeypatch.setattr(scdposet.starts, "alpha_end_parts", shifted)
        code, out, err = run(capsys, "psi", "--alpha", "1,0", "-n", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: psi image of (1, 0) rejected: ")

    def test_psi_psi_mismatch_exits_2(self, capsys, monkeypatch):
        # with one forbidden cell moved from row 4 to row 3, psi sends
        # (0, 0, 1, 0) to the start (0, 1, 0, 0), which it maps to itself
        shifted = shift_one_forbidden_cell(scdposet.starts.alpha_end_parts)
        monkeypatch.setattr(scdposet.starts, "alpha_end_parts", shifted)
        code, out, err = run(capsys, "psi", "--alpha", "0,0,1,0", "-n", "2")
        assert code == 2
        assert out == ""
        assert err == "error: psi(psi((0, 0, 1, 0))) gave (0, 1, 0, 0)\n"

    def test_input_not_a_start_vector_exits_1(self, capsys):
        code, out, err = run(capsys, "psi", "--alpha", "2,2,0", "-n", "2")
        assert code == 1
        assert out == ""
        assert err == "error: (2, 2, 0) is not a start vector for n=2\n"


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

    def test_report_is_json_indented_by_two(self, capsys):
        # the report digests hash the parsed report, so they miss its layout
        out = run(capsys, "verify", "-m", "2", "-n", "1")[1]
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_without_oracle_flag_partition_runs(self, capsys):
        # --oracle is accepted and changes nothing: within the cap the
        # partition oracle always runs
        code, out, _ = run(capsys, "verify", "-m", "4", "-n", "4")
        assert code == 0
        code, with_flag, _ = run(capsys, "verify", "-m", "4", "-n", "4", "--oracle")
        assert code == 0
        assert self._without_seconds(out) == self._without_seconds(with_flag)
        names = {c["name"]: c for c in json.loads(out)["checks"]}
        assert names["partition"]["passed"] and not names["partition"]["skipped"]

    def test_oracle_flag_changes_nothing_past_the_cap(self, capsys, monkeypatch):
        module = importlib.import_module("scdposet.decompose")
        monkeypatch.setattr(module, "DEFAULT_CAP", 50)
        monkeypatch.setattr(module, "SAMPLE_STARTS", 16)
        args = ("verify", "-m", "6", "-n", "6")
        code, out, _ = run(capsys, *args)
        assert code == 0
        code, with_flag, _ = run(capsys, *args, "--oracle")
        assert code == 0
        assert self._without_seconds(out) == self._without_seconds(with_flag)
        names = {c["name"]: c for c in json.loads(out)["checks"]}
        assert names["partition"]["skipped"]
        assert names["partition"]["message"].endswith("oracle mode refused")

    def test_failing_report_exits_2(self, capsys, monkeypatch):
        def fake_verify(shape):
            report = VerificationReport(shape)
            report.checks.append(CheckResult("partition", False, 0.0, {"element": [0]}))
            return report

        monkeypatch.setattr(cli, "verify", fake_verify)
        code, out, _ = run(capsys, "verify", "-m", "2", "-n", "2", "--oracle")
        assert code == 2
        assert json.loads(out)["passed"] is False

    def test_psi_image_outside_starting_set_exits_2(self, capsys, monkeypatch):
        # a wrong end vector sends psi((1, 0)) outside the starting set: a
        # failed report, not a bad-input error
        shifted = shift_one_forbidden_cell(scdposet.starts.alpha_end_parts)
        monkeypatch.setattr(scdposet.starts, "alpha_end_parts", shifted)
        monkeypatch.setattr(importlib.import_module("scdposet.decompose"), "SAMPLE_STARTS", 4)
        code, out, err = run(capsys, "verify", "-m", "2", "-n", "200000")
        assert code == 2
        assert err == ""
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["involution"]["counterexample"]["reason"] == "psi(alpha) is not a start vector"

    def test_sampled_verify_runs_on_a_thousand_row_grid(self, capsys, monkeypatch):
        # the starting set is enumerated without one stack frame per row
        monkeypatch.setattr(importlib.import_module("scdposet.decompose"), "SAMPLE_STARTS", 1)
        code, out, err = run(capsys, "verify", "-m", "1200", "-n", "1")
        assert (code, err) == (0, "")
        assert json.loads(out)["passed"] is True

    def test_cap_and_sample_are_refused_before_any_check(self, capsys, monkeypatch):
        # verify takes only a shape: its cap and sample are module constants
        def refuse(shape):
            raise AssertionError(f"verify ran for {shape}")

        monkeypatch.setattr(cli, "verify", refuse)
        rows = [row for row in REFUSALS if row.startswith("verify ")]
        assert len(rows) == 2
        for row in rows:
            assert_refused(capsys, row)

    @staticmethod
    def _without_seconds(out):
        payload = json.loads(out)
        for check in payload["checks"]:
            del check["seconds"]
        return payload

    @pytest.mark.parametrize("cap", [None, 0], ids=["full", "sampled"])
    def test_enumerated_non_start_fails_the_report(self, capsys, monkeypatch, cap):
        # a start the enumeration yields is no input: its refusal is a failed
        # check naming it, not exit 1
        plant(monkeypatch, *FAULTS["iter_start_parts yielding a non-start"])
        if cap is not None:
            monkeypatch.setattr(importlib.import_module("scdposet.decompose"), "DEFAULT_CAP", cap)
        code, out, err = run(capsys, "verify", "-m", "3", "-n", "2")
        assert (code, err) == (2, "")
        symmetric = {c["name"]: c for c in json.loads(out)["checks"]}["symmetric"]
        assert symmetric["counterexample"] == {"alpha": [1, 2, 0], "reason": "not a start vector"}


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

    def test_oversized_grid_refused_before_any_cell(self, capsys, monkeypatch):
        def refuse(sv):
            raise AssertionError(f"grid built for {sv.parts}")

        monkeypatch.setattr(cli, "build_tableau", refuse)
        assert_refused(capsys, "render --alpha 0,0 -n 100000000")

    def test_cell_limit_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_RENDER_CELLS", 16)
        code, out, _ = run(capsys, "render", "--alpha", "1,3,2,0", "-n", "4")
        assert code == 0 and out.startswith("alpha=1,3,2,0")
        code, _, err = run(capsys, "render", "--alpha", "1,3,2,0", "-n", "5")
        assert code == 1 and err == "error: grid of 20 cells exceeds the render limit of 16\n"


class TestStatsCommand:
    def test_3x2(self, capsys):
        code, out, _ = run(capsys, "stats", "-m", "3", "-n", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["level_sizes"] == [1, 3, 6, 7, 6, 3, 1]
        assert payload["chain_count"] == 7
        assert payload["chain_length_histogram"] == {"7": 1, "5": 2, "3": 3, "1": 1}

    def test_oversized_shape_refused_before_level_sizes(self, capsys, monkeypatch):
        def refuse(shape):
            raise AssertionError(f"level sizes computed for {shape}")

        monkeypatch.setattr(cli, "level_sizes", refuse)
        assert_refused(capsys, "stats -m 2 -n 1000000000")

    def test_work_limit_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_STATS_WORK", 18)
        code, out, _ = run(capsys, "stats", "-m", "3", "-n", "2")
        assert code == 0 and json.loads(out)["chain_count"] == 7
        code, _, err = run(capsys, "stats", "-m", "3", "-n", "3")
        assert code == 1 and err == "error: m*m*n = 27 exceeds the stats limit of 18\n"


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv, missing",
        [
            ("chain --alpha 1,0", "-n"),
            ("chain -n 2", "--alpha"),
            ("starts -m 2", "-n"),
            ("starts -n 2", "-m"),
            ("decompose -m 2", "-n"),
            ("decompose -n 2", "-m"),
            ("locate --c 1,0", "-n"),
            ("locate -n 2", "--c"),
            ("psi --alpha 1,0", "-n"),
            ("psi -n 2", "--alpha"),
            ("verify -m 2 --oracle", "-n"),
            ("verify -n 2", "-m"),
            ("render --alpha 1,0 --format svg", "-n"),
            ("render -n 2", "--alpha"),
            ("stats -m 2", "-n"),
            ("stats -n 2", "-m"),
        ],
    )
    def test_missing_required_flag(self, capsys, argv, missing):
        assert run(capsys, *argv.split()) == (1, "", f"error: the following arguments are required: {missing}\n")

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "scdposet" in out

    @pytest.mark.parametrize(
        "usage",
        [
            "chain [-h] --alpha ALPHA -n N",
            "starts [-h] -m M -n N",
            "decompose [-h] -m M -n N",
            "locate [-h] --c C -n N",
            "psi [-h] --alpha ALPHA -n N",
            "verify [-h] -m M -n N",
            "render [-h] --alpha ALPHA -n N [--format {ascii,svg,json}]",
            "stats [-h] -m M -n N",
        ],
    )
    def test_command_help_lists_its_options(self, capsys, usage):
        code, out, _ = run(capsys, usage.split()[0], "--help")
        assert code == 0
        assert out.startswith(f"usage: scdposet {usage}\n")

    def test_shape_bound_rejected(self, capsys):
        code, _, err = run(capsys, "stats", "-m", "100000", "-n", "100000")
        assert code == 1
        assert err.startswith("error:")

    def test_shape_one_cell_past_the_limit_rejected(self, capsys):
        # the row runs `starts`; `stats` reaches the same shape check
        assert_refused(capsys, "starts -m 2 -n 1073741825", "stats -m 2 -n 1073741825")

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


def test_closed_stdout_exits_0(monkeypatch):
    # a reader that stops early, as `scdposet decompose ... | head` does
    def closed(text):
        raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", type("Out", (), {"write": staticmethod(closed)})())
    assert cli.main(["starts", "-m", "2", "-n", "1"]) == 0


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


def test_readme_python_examples_hold():
    # run the README's python blocks in one namespace; a statement
    # `expr  # value` whose comment is a Python literal must evaluate to it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    namespace: dict = {}
    checked = 0
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
            if isinstance(stmt, ast.Expr) and comment:
                try:
                    expected = ast.literal_eval(comment)
                except (ValueError, SyntaxError):
                    pass
                else:
                    value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
                    assert value == expected, (ast.unparse(stmt), value)
                    checked += 1
                    continue
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked >= 5


def test_import_loads_no_process_machinery():
    # every command pays for what `import scdposet.cli` pulls in; the value
    # types are written out by hand so that `dataclasses` and the `inspect`
    # it imports stay unloaded, and only the partition oracle loads `array`
    src = str(Path(scdposet.__file__).resolve().parents[1])
    probe = (
        "import sys, scdposet.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures', 'dataclasses', 'inspect', 'array') if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"
