"""Approximate certainty: Monte-Carlo estimation of the repair support.

The dichotomy is about the *decision* problem "true in every repair".  In
practice it is often useful to know more: the fraction of repairs satisfying
the query (the query's *support*), which is 1.0 exactly when the query is
certain and degrades gracefully otherwise.  Computing the support exactly is
#P-hard in general, so this module provides:

* :func:`exact_support` — exhaustive computation for small databases (ground
  truth for tests);
* :func:`estimate_support` — an unbiased Monte-Carlo estimator with a
  confidence interval, usable at any scale;
* :func:`probably_certain` — a one-sided test: if any sampled repair
  falsifies the query the answer "not certain" is definite; otherwise the
  query is certain with probability depending on the sample size and the
  (unknown) support.

These utilities complement, but never replace, the exact engine: the sampling
answer is probabilistic whereas :class:`repro.core.certain.CertainEngine` is
exact.

All three decide per-repair satisfaction through a shared
:class:`RepairOracle` threaded off the database's cached solution graph, so
sampled repairs never fall back to the quadratic ``satisfied_by`` scan.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Optional

from ..db.fact_store import Database, Repair
from ..db.repairs import iter_repairs, sample_repair
from .query import TwoAtomQuery
from .solutions import build_solution_graph


class RepairOracle:
    """Decides ``r |= q`` for repairs of one database without fact scans.

    A repair satisfies the query iff it contains a self-solution fact or
    both endpoints of an edge of ``G(D, q)`` — solutions inside a repair
    are exactly the solutions of ``D`` restricted to it.  Each check maps
    the repair's facts to the database's ids and walks their adjacency in
    the database's cached, delta-maintained solution graph instead of
    running the quadratic ``satisfied_by`` scan, so sampling thousands of
    repairs amortises one graph build.  The graph is resolved at
    construction time — build the oracle after mutating, not before.
    """

    def __init__(self, query: TwoAtomQuery, database: Database) -> None:
        self.query = query
        self._id_of = database.id_of
        self._graph = build_solution_graph(query, database)

    def satisfied(self, repair: Repair) -> bool:
        """Whether the repair satisfies the query (equals ``query.satisfied_by``)."""
        ids = set(map(self._id_of, repair))
        loops = self._graph.self_loops
        if loops and not loops.isdisjoint(ids):
            return True
        edges = self._graph.edges
        return any(not edges[fid].isdisjoint(ids) for fid in ids)


@dataclass(frozen=True)
class SupportEstimate:
    """Result of a Monte-Carlo support estimation."""

    estimate: float
    samples: int
    satisfied: int
    confidence: float
    half_width: float
    falsifying_repair: Optional[Repair]

    @property
    def lower_bound(self) -> float:
        return max(0.0, self.estimate - self.half_width)

    @property
    def upper_bound(self) -> float:
        return min(1.0, self.estimate + self.half_width)

    @property
    def definitely_not_certain(self) -> bool:
        """True when a falsifying repair was actually observed."""
        return self.falsifying_repair is not None

    def to_json_dict(self) -> Dict[str, object]:
        """JSON-ready form (used by the service layer's answer envelopes)."""
        return {
            "estimate": self.estimate,
            "samples": self.samples,
            "satisfied": self.satisfied,
            "confidence": self.confidence,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "definitely_not_certain": self.definitely_not_certain,
        }


def exact_support(query: TwoAtomQuery, database: Database) -> float:
    """The exact fraction of repairs satisfying the query (exponential time).

    Exponentially many repairs are enumerated, but each is decided through
    the shared :class:`RepairOracle` (one solution-graph build) rather than
    its own ``satisfied_by`` scan.
    """
    oracle = RepairOracle(query, database)
    total = 0
    satisfied = 0
    for repair in iter_repairs(database):
        total += 1
        if oracle.satisfied(repair):
            satisfied += 1
    if total == 0:  # pragma: no cover - iter_repairs always yields at least one
        return 0.0
    return satisfied / total


def estimate_support(
    query: TwoAtomQuery,
    database: Database,
    samples: int = 200,
    confidence: float = 0.95,
    rng: Optional[random.Random] = None,
) -> SupportEstimate:
    """Estimate the repair support of the query by uniform repair sampling.

    Repairs are sampled independently and uniformly (each block choice is
    uniform and independent, which is exactly the uniform distribution over
    repairs); the returned half-width is the normal-approximation confidence
    interval at the requested level.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be strictly between 0 and 1")
    rng = rng or random.Random()
    oracle = RepairOracle(query, database)
    satisfied = 0
    falsifying: Optional[Repair] = None
    for _ in range(samples):
        repair = sample_repair(database, rng)
        if oracle.satisfied(repair):
            satisfied += 1
        elif falsifying is None:
            falsifying = repair
    estimate = satisfied / samples
    z_score = _normal_quantile((1.0 + confidence) / 2.0)
    half_width = z_score * math.sqrt(max(estimate * (1.0 - estimate), 1e-12) / samples)
    return SupportEstimate(
        estimate=estimate,
        samples=samples,
        satisfied=satisfied,
        confidence=confidence,
        half_width=half_width,
        falsifying_repair=falsifying,
    )


def probably_certain(
    query: TwoAtomQuery,
    database: Database,
    samples: int = 200,
    rng: Optional[random.Random] = None,
) -> bool:
    """One-sided sampling test for certainty.

    Returns ``False`` (definitely not certain) as soon as a sampled repair
    falsifies the query; returns ``True`` when every sampled repair satisfies
    it — which only means "no counterexample found", so callers needing a
    guarantee must use the exact engine.
    """
    rng = rng or random.Random()
    oracle = RepairOracle(query, database)
    for _ in range(samples):
        if not oracle.satisfied(sample_repair(database, rng)):
            return False
    return True


def _normal_quantile(probability: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation).

    Implemented locally to keep the core library free of third-party
    dependencies; accurate to ~1e-9 over the open unit interval, far more
    than needed for confidence intervals.
    """
    if not 0.0 < probability < 1.0:
        raise ValueError("probability must be strictly between 0 and 1")
    # Coefficients of the rational approximations.
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)
    p_low = 0.02425
    if probability < p_low:
        q = math.sqrt(-2.0 * math.log(probability))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if probability > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - probability))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    q = probability - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )
