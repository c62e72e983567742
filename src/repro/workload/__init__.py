"""Public-scale workload synthesis and trace replay.

:mod:`repro.workload.generator` turns a seeded :class:`TraceSpec` into a
portable JSONL trace (Zipf-skewed query popularity, tenant hot spots, delta
bursts, adversarial cache-busting rewrites); :mod:`repro.workload.replay`
fires a trace at any transport with open-loop pacing and measures latency
percentiles, per-tier cache hits and provenance coverage.

The replay exports load their submodule on first use (PEP 562): generating
a trace does not import the replay module, nor ``concurrent.futures``,
``logging`` and ``socket`` behind it.
"""

from importlib import import_module

from .generator import (
    TRACE_HEADER,
    TRACE_VERSION,
    TraceSpec,
    generate_trace,
    read_trace,
    write_trace,
    zipf_weights,
)

#: The exports :func:`__getattr__` takes from :mod:`repro.workload.replay`.
_REPLAY_EXPORTS = (
    "ReplayReport",
    "compare_verdicts",
    "direct_sender",
    "http_sender",
    "jsonl_keepalive_sender",
    "jsonl_sender",
    "percentile",
    "replay",
    "sample_indices",
)

__all__ = [
    "TRACE_HEADER",
    "TRACE_VERSION",
    "TraceSpec",
    "generate_trace",
    "read_trace",
    "write_trace",
    "zipf_weights",
    *_REPLAY_EXPORTS,
]


def __getattr__(name):
    if name not in _REPLAY_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Importing the submodule binds the package attribute ``replay`` to the
    # module; rebinding every export afterwards puts the function back.
    module = import_module(".replay", __name__)
    globals().update({export: getattr(module, export) for export in _REPLAY_EXPORTS})
    return globals()[name]
