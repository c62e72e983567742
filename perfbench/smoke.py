"""The benchmark's own checks, at smoke size (a few seconds in all).

Run from the repository root::

    python3 -m pytest -q perfbench/smoke.py

They check that every metric ``BENCHMARK.json`` names is printed with its
unit, that the correctness gate trips on a wrong expected verdict, that
scaled times do not move with the machine's speed, that traced self
times add up to the root spans, that the traced run times
every delta maintainer, that the oracle agrees with repair enumeration,
and that the runner refuses to run without the program.
"""

from __future__ import annotations

import io
import json
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SMOKE_SECONDS = 0.4
SMOKE_SCALE = 0.3


def smoke_workload(name, tmp_path, seed=3):
    workload = workloads.WORKLOADS[name](seed, SMOKE_SECONDS, SMOKE_SCALE)
    workload.work_dir = str(tmp_path)
    return workload


def printed(name, workload, trace):
    result, details = run.run(workload, SMOKE_SECONDS, trace)
    args = SimpleNamespace(seed=3, seconds=SMOKE_SECONDS, trace=trace)
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        run.report(name, args, result, details)
    return result, details, buffer.getvalue()


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.UNITS
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path):
    result, _, text = printed(name, smoke_workload(name, tmp_path), trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in wanted}
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert f"{metric['name']} " in text and f" {metric['unit']}\n" in text
    json.dumps(result)


def test_gate_trips_on_a_wrong_expected_verdict(tmp_path):
    workload = smoke_workload("ptime-certk", tmp_path)
    honest = workload.expected

    def tampered(count):
        verdicts = honest(count)
        verdicts[0] = not verdicts[0]
        return verdicts

    workload.expected = tampered
    result, details = run.run(workload, SMOKE_SECONDS, 0)
    assert not result["correct"]
    assert details["mismatches"][0][0] == 0


def test_scaled_times_do_not_move_with_the_machine():
    # One read timed three times, once while the machine ran 1.7x slower:
    # the reference timed before it slowed just as much.
    fast = ("read", 10_000_000, True, True, 0, run.REFERENCE_NS)
    slow = ("read", 17_000_000, True, True, 0, int(run.REFERENCE_NS * 1.7))
    failed = ("read", 1_000, False, None, 1, run.REFERENCE_NS)
    scaled = run.scaled_times([fast, slow, fast, failed])
    assert list(scaled) == [0] and scaled[0] == pytest.approx(10_000_000)


def test_traced_self_times_sum_to_the_root_spans(tmp_path):
    workload = smoke_workload("serve-mixed", tmp_path)
    _, details = run.run(workload, SMOKE_SECONDS, 1)
    spans = details["recorder"].spans
    assert spans
    roots = sum(span[2] - span[1] for span in spans if span[3] < 0)
    assert sum(tracing.self_times(spans)) == roots
    assert all(span[4] is not None for span in spans)


def test_traced_run_sees_every_delta_maintainer(tmp_path):
    # The set-up's warm read stores the maintainers in each database's
    # derived cache, so tracing must be installed before it; the set-up's
    # own builds are not counted.
    workload = smoke_workload("delta-stream", tmp_path)
    result, _ = run.run(workload, SMOKE_SECONDS, 1)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["deltas.maintained"] > 0 and metrics["deltas.maintain_ms"] > 0
    assert metrics["derived.builds"] == metrics["derived.rebuilds"] == 0


def test_oracle_agrees_with_repair_enumeration():
    from repro import Database, Fact, RelationSchema, certain_bruteforce, paper_queries

    queries = paper_queries()
    rng = random.Random(5)
    checked = 0
    for name, (atom_a, atom_b, key_size) in workloads.QUERIES.items():
        query = queries[name]
        assert (query.atom_a.variables, query.atom_b.variables) == (atom_a, atom_b)
        schema = RelationSchema("R", len(atom_a), key_size)
        for _ in range(60):
            rows = workloads.core_rows(name, rng.randint(1, 5), rng.randint(0, 3), 3, rng)
            if rng.random() < 0.3:
                rows += workloads.escape_rows(name, rows[: rng.randint(0, len(rows))], 50)
            database = Database(Fact(schema, row) for row in rows)
            if database.repair_count() > 4096:
                continue
            assert oracle.is_certain(atom_a, atom_b, key_size, rows) == certain_bruteforce(
                query, database
            ), (name, rows)
            checked += 1
    assert checked > 200


def test_runner_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ptime-certk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
