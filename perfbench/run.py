"""The repository benchmark: four workloads through ``CQAServer``.

Run one workload for a fixed time and print its metrics::

    python3 perfbench/run.py --workload ptime-certk --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` in
reference-scaled time (see ``REFERENCE_NS``);
``--trace 1`` runs the workload untraced, traced, traced and untraced (a
quarter of the time each, each from a fresh set-up) and reports the
per-layer metrics, the tracing overhead and the root span's unattributed
share.  ``--workload all`` runs every workload, one process each.  The
design of each workload is recorded in ``perfbench/DESIGN.json``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program is imported from ``src/`` of the checkout this
file lives in; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Set iteration order over facts follows string hashing, and the fixpoints'
#: work follows iteration order: one hash seed for every run makes a run's
#: work depend on its inputs alone.
HASH_SEED = "0"

#: The machine's speed drifts by up to 1.9x over seconds to minutes (other
#: tenants share its cores), which is more than the bounds allow.  So every
#: timing is scaled by a reference timed next to it: the oracle deciding
#: one fixed instance, pure-Python work of the engine's kind (tuples, dicts,
#: sets) that shares no code with the program.  A scaled time is the time
#: the operation would take on a machine that runs the reference in
#: ``REFERENCE_NS`` (about its time on the 2-vCPU VM the bounds were set on,
#: when that machine runs fast).
REFERENCE_NS = 750_000
REFERENCE_SHAPE = ("q5", (80, 20, 18))
#: The reference is timed before every set-up and before any operation that
#: starts this long after the last timing.
REFERENCE_EVERY_NS = 20_000_000

UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> bool:
    """Import ``repro`` from this checkout's ``src/`` (and nowhere else)."""
    sys.path.insert(0, str(SRC))
    import repro

    return Path(repro.__file__).resolve().is_relative_to(SRC)


def pin_hash_seed() -> None:
    """Re-execute under ``HASH_SEED`` unless already running under it."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q`` quantile (0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def environment() -> dict:
    try:
        from repro.bench.harness import effective_cores

        cores = effective_cores()
    except ImportError:
        cores = len(os.sched_getaffinity(0))
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        text = head.read_text().strip()
        ref = ROOT / ".git" / text[5:] if text.startswith("ref: ") else None
        commit = ref.read_text().strip() if ref is not None and ref.is_file() else text
    return {"effective_cores": cores, "python": platform.python_version(), "commit": commit[:12]}


# --------------------------------------------------------------------------- #
# measuring
# --------------------------------------------------------------------------- #
class Reference:
    """Times the reference work of ``REFERENCE_NS`` (see there)."""

    def __init__(self) -> None:
        import oracle
        from workloads import QUERIES, instance

        query, shape = REFERENCE_SHAPE
        atom_a, atom_b, key_size = QUERIES[query]
        rows = instance(query, shape, False, random.Random("perfbench/reference"))
        self._decide = lambda: oracle.is_certain(atom_a, atom_b, key_size, rows)
        self._decide()
        self.timings = []

    def __call__(self) -> int:
        started = perf_counter_ns()
        self._decide()
        self.timings.append(perf_counter_ns() - started)
        return self.timings[-1]


def drive(workload, seconds: float, recorder=None, tally=None, setups=None, reference=None):
    """The closed loop: one operation at a time until ``seconds`` elapse.

    The workload's operations are sent from a fresh set-up, and replayed
    from another each time they run out.  A set-up is left out of the timed
    seconds, is not traced, and ``tally`` (a :class:`Tally`) leaves it out
    of its counts; its seconds are appended to ``setups`` when given, scaled
    when a ``reference`` is given.  Returns ``(samples, state)``, each
    sample ``(kind, latency ns, ok, verdict, op index, reference ns or
    None)``; the caller tears ``state`` down.
    """
    samples = []
    started = perf_counter_ns()
    budget = int(seconds * 1e9)
    paused = 0
    state, index = None, len(workload.ops)
    reference_ns, reference_at = None, 0
    while True:
        if index == len(workload.ops):
            pause = perf_counter_ns()
            if recorder is not None:
                recorder.paused = True
            if state is not None:
                if tally is not None:
                    tally.stop(state)
                workload.teardown(state)
            gc.collect()
            if reference is not None:
                reference_ns, reference_at = reference(), perf_counter_ns()
            setup_started = perf_counter()
            state = workload.setup()
            elapsed = perf_counter() - setup_started
            if reference is not None:
                elapsed *= REFERENCE_NS / reference_ns
            if setups is not None:
                setups.append(elapsed)
            if tally is not None:
                tally.start(state)
            if recorder is not None:
                recorder.paused = False
            paused += perf_counter_ns() - pause
            index = 0
        if reference is not None and perf_counter_ns() - reference_at >= REFERENCE_EVERY_NS:
            pause = perf_counter_ns()
            reference_ns, reference_at = reference(), perf_counter_ns()
            paused += reference_at - pause
        op = workload.ops[index]
        if recorder is not None:
            recorder.request += 1
        begin = perf_counter_ns()
        try:
            ok, verdict = workload.execute(state, op, recorder)
        except Exception:  # noqa: BLE001 - a raising operation counts as failed
            ok, verdict = False, None
        end = perf_counter_ns()
        samples.append((op.kind, end - begin, ok, verdict, index, reference_ns))
        index += 1
        if end - started - paused >= budget:
            break
    if tally is not None:
        tally.stop(state)
    return samples, state


def check(workload, samples):
    """The correctness gate: every answered read against the oracle."""
    expected = workload.expected(1 + max((sample[4] for sample in samples), default=-1))
    mismatches = []
    for number, (kind, _, ok, verdict, index, _) in enumerate(samples):
        if kind == "read" and ok and verdict != expected[index]:
            mismatches.append((number, workload.ops[index].query, verdict, expected[index]))
    return mismatches


def summarize(samples):
    reads = [sample[1] / 1e6 for sample in samples if sample[0] == "read"]
    writes = [sample[1] / 1e6 for sample in samples if sample[0] == "write"]
    return {
        "attempted": len(samples),
        "failed": sum(1 for sample in samples if not sample[2]),
        "reads": reads,
        "writes": writes,
    }


def scaled_times(samples):
    """Each operation's median scaled time over a run, in ns by op index.

    Every round replays the same operations on the same states, so the
    rounds time each operation several times over; each time is scaled by
    the reference timed last before it.
    """
    times = {}
    for _, latency, ok, _, index, reference_ns in samples:
        if ok:
            times.setdefault(index, []).append(latency * REFERENCE_NS / reference_ns)
    return {index: statistics.median(values) for index, values in times.items()}


class Tally:
    """The program's own counters, summed over the timed stretches of a run.

    ``start`` and ``stop`` bracket each stretch, so what a set-up does (its
    warm requests' cache lookups and derived-structure builds) is left out.
    """

    CACHE_FIELDS = ("hits", "misses", "evictions", "invalidations")

    def __init__(self) -> None:
        self.totals = {}
        self._start = {}

    @classmethod
    def snapshot(cls, state):
        counters = {}
        cache = getattr(state.server, "cache", None)
        if cache is not None:
            described = cache.describe_dict()
            for field in cls.CACHE_FIELDS:
                counters["cache." + field] = described.get(field, 0)
        try:
            from repro.db.fact_store import derived_cache_totals
        except ImportError:
            return counters
        for per_key in derived_cache_totals().values():
            for field, amount in per_key.items():
                counters["derived." + field] = counters.get("derived." + field, 0) + amount
        return counters

    def start(self, state) -> None:
        self._start = self.snapshot(state)

    def stop(self, state) -> None:
        for name, value in self.snapshot(state).items():
            self.totals[name] = self.totals.get(name, 0) + value - self._start.get(name, 0)

    def get(self, name: str) -> int:
        return self.totals.get(name, 0)


def measure_end_to_end(workload, seconds: float):
    """Rounds of the closed loop for ``seconds``, each after a timed set-up.

    One set-up is made and torn down first, untimed, to pay the process's
    one-time costs (imports).  Every time is scaled (``REFERENCE_NS``).
    ``setup_s`` is the median of the rounds' set-ups.  From each
    operation's median time (:func:`scaled_times`): ``read_p50_ms`` and
    ``read_p90_ms`` are percentiles over the round's reads, and
    ``throughput_rps`` is the round's operations over the sum of their
    times.
    """
    reference = Reference()
    workload.teardown(workload.setup())
    setups = []
    samples, state = drive(workload, seconds, setups=setups, reference=reference)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.teardown(state)
    best = scaled_times(samples)
    reads = [best[index] / 1e6 for index in best if workload.ops[index].kind == "read"]
    stats = summarize(samples)
    stats["setups"] = len(setups)
    stats["reference_ns"] = reference.timings
    stats["timings"] = sorted(Counter(sample[4] for sample in samples).values())
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_rps": len(best) / (sum(best.values()) / 1e9),
        "read_p50_ms": percentile(reads, 0.5),
        "read_p90_ms": percentile(reads, 0.9),
        "peak_rss_mb": peak_mb,
    }
    return metrics, samples, stats


def measure_traced(workload, seconds: float):
    """Untraced and traced phases in the order A B B A, a quarter each.

    Every phase starts from a fresh set-up and sends the same operations,
    so the overhead compares the time of the operations both kinds of
    phase completed; the A B B A order cancels a drift of the machine.
    """
    import tracing

    recorder = tracing.Recorder()
    tally = Tally()
    phases = {"plain": [], "traced": []}
    boundaries = 0

    for kind in ("plain", "traced", "traced", "plain"):
        if kind == "plain":
            samples, state = drive(workload, seconds / 4)
        else:
            # Wrap before the set-up: the delta maintainers a set-up stores
            # in each database's derived cache are then the traced ones.
            restore, boundaries = tracing.install(recorder)
            try:
                samples, state = drive(workload, seconds / 4, recorder, tally)
            finally:
                restore()
        workload.teardown(state)
        phases[kind].append(samples)

    def paired_ns(kind):
        return sum(
            sample[1]
            for plain, traced in zip(phases["plain"], phases["traced"])
            for sample in (plain, traced)[kind == "traced"][: min(len(plain), len(traced))]
        )

    plain_ns, traced_ns = paired_ns("plain"), paired_ns("traced")
    traced = [sample for samples in phases["traced"] for sample in samples]
    hits = tally.get("cache.hits")
    lookups = hits + tally.get("cache.misses")
    counters = {
        "errors": sum(1 for sample in traced if not sample[2]),
        "overhead": traced_ns / plain_ns - 1 if plain_ns else 0.0,
        "boundaries": boundaries,
        "cache.hit_rate": hits / lookups if lookups else 0.0,
        "cache.evictions": tally.get("cache.evictions"),
        "cache.invalidations": tally.get("cache.invalidations"),
        "derived.builds": tally.get("derived.builds"),
        "derived.rebuilds": tally.get("derived.rebuilds"),
        "deltas.maintained": tally.get("derived.maintained_deltas"),
        "deltas.rebuilds": tally.get("derived.unsupported_deltas")
        + tally.get("derived.backlog_evictions"),
    }
    metrics = tracing.layer_metrics(recorder.spans, len(traced), counters)
    everything = [samples for kind in phases.values() for samples in kind]
    stats = summarize([sample for samples in everything for sample in samples])
    return metrics, everything, stats, recorder


def run(workload, seconds: float, trace: int):
    """Measure ``workload``; returns ``(result object, details)``."""
    if trace:
        metrics, phases, stats, recorder = measure_traced(workload, seconds)
    else:
        values, samples, stats = measure_end_to_end(workload, seconds)
        metrics = {name: (value, UNITS[name]) for name, value in values.items()}
        phases, recorder = [samples], None
    mismatches = [mismatch for samples in phases for mismatch in check(workload, samples)]
    result = {
        "correct": not mismatches,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    details = {
        "samples": [sample for samples in phases for sample in samples],
        "ops": [workload.ops[sample[4]] for samples in phases for sample in samples],
        "stats": stats,
        "mismatches": mismatches,
        "recorder": recorder,
    }
    return result, details


def report(name, args, result, details) -> None:
    samples, stats = details["samples"], details["stats"]
    env = environment()
    print(f"perfbench {name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + " ".join(f"{key}={value}" for key, value in env.items()))
    verdicts = [sample[3] for sample in samples if sample[0] == "read" and sample[2]]
    print(
        f"ops: attempted={result['attempted']} failed={result['failed']} "
        f"error_rate={result['failed'] / max(1, result['attempted']):.4f} "
        f"reads={len(stats['reads'])} writes={len(stats['writes'])} "
        f"certain={sum(1 for v in verdicts if v is True)} "
        f"not_certain={sum(1 for v in verdicts if v is False)} "
        f"mismatches={len(details['mismatches'])}"
    )
    for index, query, got, want in details["mismatches"][:5]:
        print(f"  MISMATCH op {index} {query}: server {got!r}, oracle {want!r}")
    by_query = {}
    for sample, op in zip(samples, details["ops"]):
        if sample[0] == "read":
            by_query.setdefault((op.query, sample[3]), []).append(sample[1] / 1e6)
    for (query, verdict), values in sorted(by_query.items(), key=str):
        print(
            f"  read {query} verdict={verdict}: n={len(values)} raw "
            f"p50={percentile(values, 0.5):.3f} ms p90={percentile(values, 0.9):.3f} ms"
        )
    if not args.trace:
        timings = stats["timings"]
        print(
            f"rounds: {stats['setups']} set-ups, {len(timings)} distinct ops, each timed "
            f"{timings[0]}-{timings[-1]} times (median {statistics.median(timings):g})"
        )
        references = stats["reference_ns"]
        print(
            f"reference: timed {len(references)} times, median "
            f"{statistics.median(references) / 1e6:.4f} ms (scaled to {REFERENCE_NS / 1e6:g} ms)"
        )
        reads, writes = stats["reads"], stats["writes"]
        if len(reads) >= 1000:
            print(f"raw read_p99_ms: {percentile(reads, 0.99):.3f} ms")
        if writes:
            print(
                f"raw write_p50_ms: {percentile(writes, 0.5):.4f} ms  "
                f"write_p90_ms: {percentile(writes, 0.9):.4f} ms  (n={len(writes)})"
            )
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<36} {entry['value']:>14.6g} {entry['unit']}")


def run_all(args, names) -> int:
    """``--workload all``: every workload in its own process (peak RSS)."""
    code = 0
    for name in names:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        code = max(code, subprocess.run(command, check=False).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    pin_hash_seed()
    if not import_program():
        print(f"error: repro was not imported from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    workload.work_dir = str(WORK / str(os.getpid()))
    try:
        result, details = run(workload, args.seconds, args.trace)
    finally:
        shutil.rmtree(workload.work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    report(args.workload, args, result, details)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
