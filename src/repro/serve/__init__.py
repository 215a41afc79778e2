"""The live-serving layer: token account algorithms as admission control.

Everything below this package runs against *wall-clock* time — the
bridge from reproducing the paper to serving real traffic with it:

* :mod:`repro.serve.limiter` — :class:`TokenAccountLimiter`, the
  embeddable thread-safe admission primitive (per-key token accounts,
  every registered strategy, §3.4 burst bound intact);
* :mod:`repro.serve.table` — the sharded LRU account table behind it;
* :mod:`repro.serve.clock` — injectable time sources
  (:class:`ManualClock` for deterministic tests);
* :mod:`repro.serve.wire` — the one wire protocol: length-prefixed
  binary frames behind a 4-byte hello;
* :mod:`repro.serve.connection` — the framed-connection core (receive
  buffer, hello check, backpressure, drain-on-close) that every
  listening endpoint subclasses;
* :mod:`repro.serve.server` — the batched asyncio TCP admission server
  and :class:`ServeConfig`, the one builder of a served limiter
  (``repro serve``);
* :mod:`repro.serve.ring` + :mod:`repro.serve.cluster` — the stable
  consistent-hash ring and the multi-process limiter cluster
  (``repro serve --workers N``): worker processes behind a front-end
  router, one key owner per key, minimal remap on failure;
* :mod:`repro.serve.arrivals` + :mod:`repro.serve.loadgen` — the
  open-loop Poisson / flash-crowd load generator (``repro loadgen``),
  with optional pipelining.
"""

from .. import _lazy_exports

#: each re-exported name, under the module that defines it (imported on
#: the name's first use, :func:`repro._lazy_exports`): ``from repro.serve
#: import wire`` loads the wire and the limiter, not the cluster or loadgen
_EXPORTS = {
    "repro.serve.clock": ("Clock", "ManualClock", "monotonic_clock"),
    "repro.serve.cluster": ("ClusterRouter", "serve_cluster"),
    "repro.serve.connection": ("fetch_stats",),
    "repro.serve.limiter": ("Decision", "TokenAccountLimiter"),
    "repro.serve.loadgen": ("LoadgenReport", "run_loadgen"),
    "repro.serve.ring": ("HashRing", "stable_hash"),
    "repro.serve.server": ("AdmissionServer", "ServeConfig", "run_server"),
    "repro.serve.table": ("ShardedTable",),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "AdmissionServer",
    "Clock",
    "ClusterRouter",
    "Decision",
    "HashRing",
    "LoadgenReport",
    "ManualClock",
    "ServeConfig",
    "ShardedTable",
    "TokenAccountLimiter",
    "fetch_stats",
    "monotonic_clock",
    "run_loadgen",
    "run_server",
    "serve_cluster",
    "stable_hash",
]
