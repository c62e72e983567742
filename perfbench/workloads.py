"""The benchmark's four workloads: seeded inputs, set-up, operations, gate.

Every workload is one client in a closed loop: the next operation is sent
only after the previous one returned.  A workload object is built from a
seed *before* any timing starts (its inputs are plain rows and JSON
payloads, plus resident databases for ``delta-stream``); ``setup`` is the
timed set-up, ``execute`` sends one operation through the server's front
door, and ``expected`` recomputes the verdict of every read afterwards
with :mod:`oracle`, which shares no code with the engine.

Instance families (all values are ints, so inputs do not depend on string
hashing):

* a *core* of random solution pairs plus random noise rows over a small
  domain, so blocks are inconsistent and solutions overlap;
* one *escape* fact per core block: the block's key with fresh values.
  Escapes form no solution with anything, so the all-escape repair
  falsifies every paper query: the instance is not certain;
* an optional *gadget*: both atoms of the query instantiated on fresh
  values.  The two facts sit in singleton blocks, so every repair
  satisfies the query: the instance is certain.

The verdict is therefore fixed by construction and only the core sets the
cost.  The oracle checks every verdict anyway.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from types import SimpleNamespace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import oracle

Row = Tuple[object, ...]

#: The paper's queries as (atom A variables, atom B variables, key size).
#: Written out here so that input generation and the gate do not depend on
#: the program under test; the server resolves the names itself.
QUERIES: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...], int]] = {
    "q1": (("x", "u", "x", "v"), ("v", "y", "u", "y"), 2),
    "q2": (("x", "u", "x", "y"), ("u", "y", "x", "z"), 2),
    "q3": (("x", "y"), ("y", "z"), 1),
    "q4": (("x", "x", "u", "v"), ("x", "y", "u", "x"), 2),
    "q5": (("x", "y", "x"), ("y", "x", "u"), 1),
    "q6": (("x", "y", "z"), ("z", "x", "y"), 1),
}

#: Fresh values start here, above every core domain, so they never join it.
FRESH = 1_000_000

#: The warm-up instances of every set-up come from this fixed seed, not from
#: ``--seed``: set-up then does the same work on every seed, and ``setup_s``
#: spreads only with the machine.
WARM_SEED = "perfbench/warm"
WARM_SHAPE = (12, 4, 6)


def verdict_of(query: str, rows: Iterable[Sequence[object]]) -> bool:
    atom_a, atom_b, key_size = QUERIES[query]
    return oracle.is_certain(atom_a, atom_b, key_size, [tuple(r) for r in rows])


def _instantiate(atom: Sequence[str], env: Dict[str, object]) -> Row:
    return tuple(env[v] for v in atom)


def core_rows(
    query: str, solutions: int, noise: int, domain: int, rng, parts: int = 1
) -> List[Row]:
    """Random solutions plus noise; ``parts`` independent cores on disjoint
    value ranges (part ``p`` uses ``[p * domain, (p + 1) * domain)``)."""
    atom_a, atom_b, _ = QUERIES[query]
    variables = sorted(set(atom_a) | set(atom_b))
    rows: Dict[Row, None] = {}
    for part in range(parts):
        low, high = part * domain, (part + 1) * domain
        for _ in range(solutions):
            env = {v: rng.randrange(low, high) for v in variables}
            rows[_instantiate(atom_a, env)] = None
            rows[_instantiate(atom_b, env)] = None
        for _ in range(noise):
            rows[tuple(rng.randrange(low, high) for _ in atom_a)] = None
    return list(rows)


def escape_rows(query: str, rows: Sequence[Row], fresh: int) -> List[Row]:
    """One escape fact per block of ``rows`` (values from ``fresh`` upwards)."""
    atom_a, _, key_size = QUERIES[query]
    width = len(atom_a) - key_size
    escapes = []
    for key in dict.fromkeys(row[:key_size] for row in rows):
        escapes.append(key + tuple(range(fresh, fresh + width)))
        fresh += width
    return escapes


def gadget_rows(query: str, fresh: int) -> List[Row]:
    """A consistent solution on fresh values: makes any instance certain."""
    atom_a, atom_b, _ = QUERIES[query]
    env = {v: fresh + i for i, v in enumerate(sorted(set(atom_a) | set(atom_b)))}
    return [_instantiate(atom_a, env), _instantiate(atom_b, env)]


def instance(query: str, shape: Tuple[int, int, int], certain: bool, rng) -> List[Row]:
    """Core + escapes (+ gadget at a random position when ``certain``)."""
    core = core_rows(query, *shape, rng)
    rows = core + escape_rows(query, core, FRESH)
    if certain:
        at = rng.randrange(len(rows) + 1)
        rows[at:at] = gadget_rows(query, 2 * FRESH)
    return rows


def warm_payloads(queries: Iterable[str]) -> List[dict]:
    """One small not-certain inline-rows request per query (see ``WARM_SEED``)."""
    rng = random.Random(WARM_SEED)
    return [
        {
            "op": "certain",
            "query": query,
            "rows": [list(row) for row in instance(query, WARM_SHAPE, False, rng)],
            "id": "warm",
        }
        for query in queries
    ]


def _answers_ok(answers) -> Tuple[bool, object]:
    ok = bool(answers) and all(answer.ok for answer in answers)
    return ok, (answers[0].verdict if ok else None)


class Op:
    """One client operation: a ``read`` (certain request) or a ``write``."""

    __slots__ = ("kind", "query", "payload", "target", "fact", "rows")

    def __init__(self, kind, query=None, payload=None, target=None, fact=None, rows=None):
        self.kind = kind
        self.query = query
        self.payload = payload
        self.target = target  # "add" or "remove" for a delta-stream write
        self.fact = fact
        self.rows = rows


class Workload:
    """Base class; see the module docs for the life cycle.

    ``setup`` returns the state ``execute`` works on: a namespace whose
    ``server`` is the :class:`repro.CQAServer` under test.  ``ops`` is one
    round: the runner replays it from a fresh set-up each time it runs out,
    so the states a run works on do not depend on how fast it goes.
    """

    name = ""

    def setup(self):
        raise NotImplementedError

    def execute(self, state, op: Op, recorder=None) -> Tuple[bool, object]:
        raise NotImplementedError

    def expected(self, count: int) -> List[Optional[bool]]:
        raise NotImplementedError

    def teardown(self, state) -> None:
        pass


# --------------------------------------------------------------------------- #
# fresh-database workloads: ptime-certk and exact-sat
# --------------------------------------------------------------------------- #
class FreshDatabases(Workload):
    """A new database per request, sent as inline rows.

    ``mix`` is a cycle of ``(query, certain)`` pairs; a round is one pass
    over ``len(mix) * per_slot`` distinct instances.  Every round starts
    from a fresh server, so no instance repeats within one answer cache and
    every request is a miss.
    """

    mix: Sequence[Tuple[str, bool]] = ()
    shapes: Dict[str, Tuple[int, int, int]] = {}
    #: Instances per mix slot: enough that one seed's draw moves the
    #: medians little, few enough that a run replays the round several times.
    per_slot = 10

    def __init__(self, seed: int, seconds: float, scale: float = 1.0):
        rng = random.Random(f"{self.name}/{seed}")
        self.ops: List[Op] = []
        for index in range(len(self.mix) * self.per_slot):
            query, certain = self.mix[index % len(self.mix)]
            shape = tuple(max(1, int(value * scale)) for value in self.shapes[query])
            rows = [list(row) for row in instance(query, shape, certain, rng)]
            payload = {"op": "certain", "query": query, "rows": rows, "id": f"r{index}"}
            self.ops.append(Op("read", query=query, payload=payload))
        self.warm = warm_payloads(dict.fromkeys(query for query, _ in self.mix))

    def setup(self):
        from repro import CQAServer

        server = CQAServer()
        for payload in self.warm:
            server.handle_payload(payload)
        return SimpleNamespace(server=server)

    def execute(self, state, op, recorder=None):
        return _answers_ok(state.server.handle_payload(op.payload))

    def expected(self, count):
        return [verdict_of(op.query, op.payload["rows"]) for op in self.ops[:count]]


class PtimeCertk(FreshDatabases):
    """q3/q4 through ``Cert_2`` (both verdicts), q5/q6 through ``Cert_3``.

    q5/q6 instances are all certain: a negative q5/q6 answer would be
    confirmed by the SAT oracle, which this workload keeps idle.
    """

    name = "ptime-certk"
    mix = (("q3", False), ("q4", True), ("q5", True), ("q3", True), ("q4", False), ("q6", True))
    shapes = {"q3": (55, 15, 35), "q4": (85, 17, 6), "q5": (130, 30, 18), "q6": (130, 30, 18)}


class ExactSat(FreshDatabases):
    """q1/q2 (coNP-complete, both verdicts) and q5/q6 negatives: the SAT leg."""

    name = "exact-sat"
    mix = (("q1", True), ("q2", False), ("q5", False), ("q1", False), ("q2", True), ("q6", False))
    shapes = {"q1": (56, 11, 7), "q2": (56, 11, 6), "q5": (70, 17, 12), "q6": (70, 17, 12)}


# --------------------------------------------------------------------------- #
# serve-mixed: a catalog trace through the whole serving stack
# --------------------------------------------------------------------------- #
class ServeMixed(Workload):
    """A seeded ``repro.workload`` catalog trace: Zipf queries and tenants,
    cache-busting rewrites and periodic catalog deltas."""

    name = "serve-mixed"
    #: One round is this many trace requests, replayed from a fresh server
    #: while time remains: every round does the same work, so the catalog's
    #: growing import history cannot tie the numbers to the run's length.
    #: Its few misses carry most of its time, and this many of them make one
    #: seed's draw move the total little.
    round_requests = 6000
    rewrite_fraction = 0.05
    delta_every = 100
    #: Where each set-up creates its catalog directory (set by the runner).
    work_dir = ".perfbench_work"

    def __init__(self, seed: int, seconds: float, scale: float = 1.0):
        from repro import TraceSpec, generate_trace

        spec = TraceSpec(
            requests=max(50, int(self.round_requests * scale)),
            seed=seed,
            mode="catalog",
            tenants=3,
            datasets_per_tenant=2,
            solutions=max(2, int(20 * scale)),
            delta_every=self.delta_every,
            rewrite_fraction=self.rewrite_fraction,
        )
        lines = generate_trace(spec)
        for line in lines:
            line.pop("at", None)
        start = 0
        while start < len(lines) and lines[start].get("action") in ("create", "ingest"):
            start += 1
        self.preamble = lines[:start]
        # The gate replays the catalog in plain sets: a read's expected
        # verdict is taken on the dataset's rows at the moment it is sent.
        contents: Dict[str, set] = {}
        groups: Dict[str, List[str]] = {}
        for line in self.preamble:
            if line.get("action") == "ingest":
                contents[line["dataset"]] = {tuple(row) for row in line["rows"]}
        self.ops = []
        snapshots: Dict[str, frozenset] = {}
        for line in lines[start:]:
            if line.get("op") == "catalog":
                rows = contents[line["dataset"]]
                rows.difference_update(tuple(row) for row in line.get("remove", ()))
                rows.update(tuple(row) for row in line.get("add", ()))
                snapshots.pop(line["dataset"], None)
                self.ops.append(Op("write", payload=line))
                continue
            if "dataset" in line:
                spec_name = line["dataset"]
                groups.setdefault(line["query"], []).append(spec_name)
                if spec_name not in snapshots:
                    snapshots[spec_name] = frozenset(contents[spec_name])
                rows = snapshots[spec_name]
            else:
                rows = line["rows"]
            self.ops.append(Op("read", query=line["query"], payload=line, rows=rows))
        # One warm request per query, each on a dataset of its schema.
        self.warm = [
            {"op": "certain", "query": query, "dataset": specs[0], "id": "warm"}
            for query, specs in sorted(groups.items())
        ]

    def setup(self):
        from repro import CQAServer

        os.makedirs(self.work_dir, exist_ok=True)
        directory = tempfile.mkdtemp(prefix="catalog-", dir=self.work_dir)
        server = CQAServer(catalog_path=os.path.join(directory, "catalog.sqlite3"))
        for payload in self.preamble + self.warm:
            server.handle_payload(payload)
        return SimpleNamespace(server=server, directory=directory)

    def execute(self, state, op, recorder=None):
        return _answers_ok(state.server.handle_payload(op.payload))

    def expected(self, count):
        memo: Dict[Tuple[str, int], bool] = {}
        result: List[Optional[bool]] = []
        for op in self.ops[:count]:
            if op.kind != "read":
                result.append(None)
                continue
            key = (op.query, id(op.rows))
            if key not in memo:
                memo[key] = verdict_of(op.query, op.rows)
            result.append(memo[key])
        return result

    def teardown(self, state):
        state.server.catalog.close()
        shutil.rmtree(state.directory, ignore_errors=True)


# --------------------------------------------------------------------------- #
# delta-stream: single-fact writes against resident databases
# --------------------------------------------------------------------------- #
class DeltaStream(Workload):
    """Resident q3 and q6 databases behind ``DatasetRef.in_memory``.

    The loop repeats ``pattern``: for each entry, one single-fact write to
    that query's database, then one read of it.  The q3 database's writes
    cycle through ``remove gadget, add gadget, random, random``: the gadget
    decides the verdict, so a quarter of its reads are negative.  The q6
    database has no gadget, so every q6 read runs ``Cert_3``, the matching
    and the SAT confirmation of its negative answer.  Random writes add a
    fact to an existing core block (60%) or remove a core fact, and never
    touch escapes, so the verdicts stay as built.  q3 reads are two thirds
    of the reads and cost less than half of what a q6 read costs, so the
    median read is a q3 read and the 90th percentile a q6 read, each away
    from the gap between the two.
    """

    name = "delta-stream"
    #: (solutions, noise, domain) per part, and the number of parts: each
    #: database has many small independent cores, so one seed's random draw
    #: moves its cost less.
    shapes = {"q3": ((8, 2, 8), 32), "q6": ((10, 3, 5), 8)}
    gadgets = ("q3",)
    pattern = ("q3", "q3", "q6")
    #: One round is this many ``pattern`` cycles, replayed from the initial
    #: databases while time remains: the writes reshape the databases, and
    #: rounds keep the states a run reads from the same however fast it goes.
    round_cycles = 16
    add_share = 0.6

    def __init__(self, seed: int, seconds: float, scale: float = 1.0):
        from repro import Fact, RelationSchema

        rng = random.Random(f"{self.name}/{seed}")
        self.initial: Dict[str, List[Row]] = {}
        self.writes: Dict[str, List[Tuple[str, Row]]] = {}
        count = self.round_cycles
        for query, ((solutions, noise, domain), parts) in self.shapes.items():
            shape = (max(1, int(solutions * scale)), int(noise * scale), domain)
            core = core_rows(query, *shape, rng, parts=parts)
            gadget = gadget_rows(query, 2 * FRESH) if query in self.gadgets else []
            self.initial[query] = core + escape_rows(query, core, FRESH) + gadget
            writes = self.pattern.count(query) * count
            toggled = gadget[0] if gadget else None
            self.writes[query] = self._writes(query, core, toggled, shape[2], writes, rng)
        self.schemas = {
            query: RelationSchema("R", len(QUERIES[query][0]), QUERIES[query][2])
            for query in self.shapes
        }
        self.ops = []
        pending = {query: iter(writes) for query, writes in self.writes.items()}
        for _ in range(count):
            for query in self.pattern:
                kind, row = next(pending[query])
                fact = Fact(self.schemas[query], row)
                self.ops.append(Op("write", query=query, target=kind, fact=fact, rows=row))
                self.ops.append(Op("read", query=query))

    def _writes(self, query, core, gadget, domain, count, rng):
        atom_a, _, key_size = QUERIES[query]
        keys = sorted(set(row[:key_size] for row in core))
        live = list(core)
        present = set(core)
        writes = []
        for index in range(count):
            step = index % 4 if gadget is not None else None
            if step == 0:
                writes.append(("remove", gadget))
            elif step == 1:
                writes.append(("add", gadget))
            elif rng.random() < self.add_share or len(live) < 2:
                for _ in range(100):
                    key = rng.choice(keys)
                    low = key[0] // domain * domain  # stay inside the key's part
                    row = key + tuple(
                        rng.randrange(low, low + domain) for _ in range(len(atom_a) - key_size)
                    )
                    if row not in present:
                        break
                else:
                    raise ValueError(f"{query}: no room left for new facts; widen the domain")
                present.add(row)
                live.append(row)
                writes.append(("add", row))
            else:
                row = live.pop(rng.randrange(len(live)))
                present.discard(row)
                writes.append(("remove", row))
        return writes

    def setup(self):
        from repro import CQAServer, Database, DatasetRef, Fact, Request

        state = SimpleNamespace(server=CQAServer(), databases={}, refs={})
        for query, rows in self.initial.items():
            database = Database(Fact(self.schemas[query], row) for row in rows)
            state.databases[query] = database
            state.refs[query] = DatasetRef.in_memory(database)
            state.server.handle_request(
                Request(op="certain", query=query, datasets=(state.refs[query],))
            )
        return state

    def execute(self, state, op, recorder=None):
        from repro import Request

        if op.kind == "write":
            database = state.databases[op.query]
            mutate = database.add if op.target == "add" else database.remove
            with state.server.pool.exclusive():
                if recorder is not None:
                    changed = recorder.call("deltas.write", mutate, op.fact)
                else:
                    changed = mutate(op.fact)
            return bool(changed), None
        request = Request(op="certain", query=op.query, datasets=(state.refs[op.query],))
        return _answers_ok(state.server.handle_request(request))

    def expected(self, count):
        contents = {query: dict.fromkeys(rows) for query, rows in self.initial.items()}
        result: List[Optional[bool]] = []
        for op in self.ops[:count]:
            if op.kind == "write":
                if op.target == "add":
                    contents[op.query][op.rows] = None
                else:
                    contents[op.query].pop(op.rows, None)
                result.append(None)
            else:
                result.append(verdict_of(op.query, contents[op.query]))
        return result


WORKLOADS = {
    cls.name: cls for cls in (ServeMixed, PtimeCertk, ExactSat, DeltaStream)
}
