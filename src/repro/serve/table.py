"""The sharded per-key account table behind the limiter.

Every limiter key (user id, API key, source address, ...) owns one
:class:`KeyState`: a :class:`~repro.core.account.TokenAccount` plus the
wall-clock tick bookkeeping. States live in a :class:`ShardedTable` —
``shards`` independent LRU maps, each guarded by its own lock, so
concurrent ``try_acquire`` calls for different keys rarely contend.

Eviction is per-shard LRU with a global key budget: when a shard
exceeds ``max_keys / shards`` entries the least-recently-used key is
dropped. An evicted key that returns starts a fresh (full) account —
the standard rate-limiter trade-off; size ``max_keys`` for the working
set so eviction only recycles idle keys.

Shard selection uses :func:`repro.serve.ring.stable_hash` — the same
seeded, non-randomized hash the cluster's consistent-hash ring routes
with — **not** the builtin ``hash()``, whose ``PYTHONHASHSEED`` salt
would scatter the same key across different shards on every interpreter
restart. Stability makes shard assignment reproducible (tests pin it)
and keeps one hashing discipline across the whole serving stack. The
digest costs ~1 µs, so :meth:`ShardedTable.shard_index` memoizes
key → shard in a bounded dictionary: a repeated key — the only kind a
rate limiter ever sees twice — pays a dict hit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.account import TokenAccount
from repro.serve.ring import stable_hash

#: shard-route memo budget; the whole memo is dropped when full, which
#: is O(1) amortized and never serves a stale route (routes are pure)
_ROUTE_CACHE_MAX = 65536

#: builds a fresh account for a newly seen key
AccountFactory = Callable[[], TokenAccount]


class KeyState:
    """One key's account plus its wall-clock tick bookkeeping."""

    __slots__ = ("account", "anchor", "ticks_granted", "last_proactive", "last_now")

    def __init__(self, account: TokenAccount, anchor: float):
        #: the §3.1 token account enforcing the balance invariants
        self.account = account
        #: wall-clock time up to which ticks have been credited
        self.anchor = anchor
        #: whole periods credited so far (diagnostics)
        self.ticks_granted = 0
        #: last admission through the token-less proactive slot, if any
        self.last_proactive: Optional[float] = None
        #: latest ``now`` this key has decided at — stale (earlier)
        #: timestamps clamp forward to it so they cannot corrupt the
        #: tick anchor or the proactive-slot pacing
        self.last_now = anchor


class Shard:
    """One lock-guarded LRU map of ``key -> KeyState``.

    Callers hold :attr:`lock` around the *whole* decision (lookup,
    advance, admit), not just the lookup — the lock is what makes a
    limiter decision atomic under threads.
    """

    __slots__ = ("lock", "entries", "max_keys", "evictions", "admitted", "rejected")

    def __init__(self, max_keys: int):
        self.lock = threading.Lock()
        self.entries: "OrderedDict[str, KeyState]" = OrderedDict()
        self.max_keys = max_keys
        self.evictions = 0
        # Decision counters live with the shard so they are incremented
        # under its lock — correct regardless of GIL bytecode atomicity
        # (free-threaded builds included), unlike limiter-global ints.
        self.admitted = 0
        self.rejected = 0

    def get_or_create(self, key: str, account: AccountFactory, now: float) -> KeyState:
        """Fetch ``key``'s state (LRU-touched), creating and evicting as needed."""
        state = self.entries.get(key)
        if state is not None:
            self.entries.move_to_end(key)
            return state
        state = KeyState(account(), now)
        self.entries[key] = state
        while len(self.entries) > self.max_keys:
            self.entries.popitem(last=False)
            self.evictions += 1
        return state


class ShardedTable:
    """``shards`` independent :class:`Shard` maps with a global key budget."""

    __slots__ = ("shards", "_mask", "_route_cache")

    def __init__(self, shards: int = 8, max_keys: int = 65536):
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        if max_keys < shards:
            raise ValueError(
                f"max_keys ({max_keys}) must be >= the shard count ({shards})"
            )
        # Round the shard count up to a power of two so routing is a mask.
        count = 1
        while count < shards:
            count *= 2
        per_shard = max(1, max_keys // count)
        self.shards: List[Shard] = [Shard(per_shard) for _ in range(count)]
        self._mask = count - 1
        self._route_cache: Dict[str, int] = {}

    def shard_index(self, key: str) -> int:
        """The index of the shard owning ``key`` (stable across processes).

        Memoized: a full digest (:func:`~repro.serve.ring.stable_hash`)
        is computed once per distinct key, then served from a bounded
        dict. Safe under threads — the route is a pure function of the
        key, so a racing double-compute or a concurrent ``clear`` can
        only cost a recompute, never a wrong shard.
        """
        mask = self._mask
        if not mask:
            return 0
        cache = self._route_cache
        index = cache.get(key)
        if index is None:
            if len(cache) >= _ROUTE_CACHE_MAX:
                cache.clear()
            index = stable_hash(key) & mask
            cache[key] = index
        return index

    def shard_for(self, key: str) -> Shard:
        """The shard owning ``key`` (stable across interpreter restarts)."""
        return self.shards[self.shard_index(key)]

    def positions_by_shard(self, keys) -> Dict[int, List[int]]:
        """The positions of ``keys``, grouped by owning shard (in order)."""
        if not self._mask:
            return {0: list(range(len(keys)))}
        route_cache = self._route_cache
        groups: Dict[int, List[int]] = defaultdict(list)
        for position, key in enumerate(keys):
            index = route_cache.get(key)
            if index is None:
                index = self.shard_index(key)
            groups[index].append(position)
        return groups

    def fits(self, keys) -> bool:
        """Whether creating every unseen one of ``keys`` (distinct) evicts nothing.

        Read without the shard locks: a concurrent caller can make it
        stale, which costs an eviction's exactness, never a wrong decision.
        """
        fresh = [0] * len(self.shards)
        for key in keys:
            index = self.shard_index(key)
            if key not in self.shards[index].entries:
                fresh[index] += 1
        return all(
            len(shard.entries) + count <= shard.max_keys
            for shard, count in zip(self.shards, fresh)
        )

    def __len__(self) -> int:
        return sum(len(shard.entries) for shard in self.shards)

    @property
    def evictions(self) -> int:
        """Total LRU evictions across all shards."""
        return sum(shard.evictions for shard in self.shards)

    @property
    def admitted(self) -> int:
        """Total admissions across all shards."""
        return sum(shard.admitted for shard in self.shards)

    @property
    def rejected(self) -> int:
        """Total rejections across all shards."""
        return sum(shard.rejected for shard in self.shards)

    def items(self) -> Iterator[Tuple[str, KeyState]]:
        """Snapshot iteration over every live ``(key, state)`` pair.

        Takes each shard lock briefly; intended for stats and tests, not
        the hot path.
        """
        for shard in self.shards:
            with shard.lock:
                pairs = list(shard.entries.items())
            yield from pairs
