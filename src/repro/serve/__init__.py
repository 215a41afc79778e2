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

from repro.serve.clock import Clock, ManualClock, monotonic_clock
from repro.serve.cluster import ClusterRouter, serve_cluster
from repro.serve.limiter import Decision, TokenAccountLimiter
from repro.serve.loadgen import LoadgenReport, fetch_stats, run_loadgen
from repro.serve.ring import HashRing, stable_hash
from repro.serve.server import AdmissionServer, ServeConfig, run_server
from repro.serve.table import ShardedTable

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
