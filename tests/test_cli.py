"""Unit tests for the command line interface."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def hr_csv(tmp_path):
    path = tmp_path / "assignments.csv"
    path.write_text(
        "employee,manager,project\n"
        "alice,bob,apollo\n"
        "alice,carol,hermes\n"
        "bob,alice,apollo\n"
        "bob,dave,zephyr\n"
        "carol,alice,hermes\n",
        encoding="utf-8",
    )
    return str(path)

HR_QUERY = "Assignment(e|m,p) Assignment(m|e,p)"


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_classify_arguments(self):
        args = build_parser().parse_args(["classify", "--paper", "--depth", "3"])
        assert args.paper and args.depth == 3


class TestClassifyCommand:
    def test_classify_paper_queries(self, capsys):
        assert main(["classify", "--paper", "--depth", "3"]) == 0
        output = capsys.readouterr().out
        assert "q1" in output and "coNP-complete" in output and "PTime" in output

    def test_classify_named_query(self, capsys):
        assert main(["classify", "q3"]) == 0
        assert "PTime" in capsys.readouterr().out

    def test_classify_inline_query(self, capsys):
        assert main(["classify", "R(x|y) R(y|z)"]) == 0
        assert "SYNTACTIC_EASY" in capsys.readouterr().out

    def test_classify_without_arguments_fails(self, capsys):
        assert main(["classify"]) == 2


class TestCertainCommand:
    def test_certain_over_csv(self, capsys, hr_csv):
        assert main(["certain", HR_QUERY, hr_csv]) == 0
        output = capsys.readouterr().out
        assert "certain   : False" in output

    def test_certain_with_witness(self, capsys, hr_csv):
        assert main(["certain", HR_QUERY, hr_csv, "--witness"]) == 0
        output = capsys.readouterr().out
        assert "falsifying repair" in output
        assert "Assignment(" in output

    def test_certain_batch_over_many_csvs(self, capsys, hr_csv, tmp_path):
        certain_path = tmp_path / "certain.csv"
        certain_path.write_text(
            "employee,manager,project\n"
            "alice,bob,apollo\n"
            "bob,alice,apollo\n",
            encoding="utf-8",
        )
        assert main(["certain", HR_QUERY, hr_csv, str(certain_path)]) == 0
        output = capsys.readouterr().out
        assert "batch     : 2 databases" in output
        assert "certain=False" in output and "certain=True" in output

    @pytest.mark.parametrize("rows", [40, 1100], ids=["small", "over-2000-facts"])
    def test_certain_batch_notes_sharding(self, capsys, tmp_path, rows):
        paths = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            path.write_text(
                "k,v\n" + "".join(f"{i},{i + 1}\n" for i in range(rows)),
                encoding="utf-8",
            )
            paths.append(str(path))
        assert main(["certain", "R(x|y) R(y|z)", *paths, "--workers", "2"]) == 0
        output = capsys.readouterr().out
        assert "batch     : 2 databases (sharded over 2 workers)" in output
        assert output.count("certain=True") == 2

    def test_certain_single_csv_warns_when_workers_ignored(self, capsys, hr_csv):
        assert main(["certain", HR_QUERY, hr_csv, "--workers", "4"]) == 0
        captured = capsys.readouterr()
        assert "workers=4 ignored" in captured.err
        assert "certain   : False" in captured.out

    def test_certain_batch_with_witness(self, capsys, hr_csv, tmp_path):
        other = tmp_path / "copy.csv"
        other.write_text(
            "employee,manager,project\n"
            "alice,bob,apollo\n"
            "alice,carol,hermes\n"
            "bob,dave,zephyr\n",
            encoding="utf-8",
        )
        assert main(["certain", HR_QUERY, hr_csv, str(other), "--witness"]) == 0
        output = capsys.readouterr().out
        assert "falsifying repair for" in output


class TestSupportCommand:
    def test_support_over_csv(self, capsys, hr_csv):
        assert main(["support", HR_QUERY, hr_csv, "--samples", "100"]) == 0
        output = capsys.readouterr().out
        assert "estimated support" in output


class TestReduceCommand:
    def test_reduce_with_named_query(self, capsys):
        clauses = ["-1,2,3", "-1,-2,3", "1,-2,-3"]
        assert main(["reduce", "q2", "--"] + clauses) == 0
        output = capsys.readouterr().out
        assert "Lemma 9.2    : True" in output

    def test_reduce_rejects_bad_clause(self, capsys):
        assert main(["reduce", "q2", "--", "not-a-clause"]) == 2

    def test_reduce_fails_for_query_without_fork_tripath(self, capsys):
        assert main(["reduce", "q5", "--", "-1,2,3", "1,-2,-3"]) == 1
        assert "reduction failed" in capsys.readouterr().err


class TestRunCommandEmptyWorkloads:
    """Regression: degenerate workload files must yield a clean empty result.

    An empty, whitespace-only, comment-only or BOM-prefixed JSONL file is a
    valid (if vacuous) workload: ``repro run`` exits 0 with no output, and
    ``--json`` emits an empty stream.  A UTF-8 BOM used to reach the JSON
    parser and produce an ``ok: false`` envelope plus exit code 1.
    """

    @staticmethod
    def _write(tmp_path, payload: bytes):
        path = tmp_path / "workload.jsonl"
        path.write_bytes(payload)
        return str(path)

    @pytest.mark.parametrize(
        "payload",
        [
            b"",
            b"   \n\n\t\n",
            b"# only a comment\n\n# another\n",
            b"\xef\xbb\xbf",
            b"\xef\xbb\xbf\n   \n",
            b"\xef\xbb\xbf# commented out\n",
        ],
        ids=["empty", "whitespace", "comments", "bom", "bom-whitespace", "bom-comment"],
    )
    def test_degenerate_workloads_are_clean(self, capsys, tmp_path, payload):
        path = self._write(tmp_path, payload)
        assert main(["run", path]) == 0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""
        assert main(["run", path, "--json"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""

    def test_bom_prefixed_request_is_still_answered(self, capsys, tmp_path):
        payload = "\ufeff" + '{"op": "classify", "query": "q3"}\n'
        path = self._write(tmp_path, payload.encode("utf-8"))
        assert main(["run", path, "--json"]) == 0
        [envelope] = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert envelope["ok"] is True and envelope["verdict"] == "PTime"

    def test_missing_workload_still_fails_cleanly(self, capsys, tmp_path):
        assert main(["run", str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read workload" in capsys.readouterr().err
