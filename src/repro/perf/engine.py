"""The shared fast-path distance engine.

Every stage of MLNClean bottoms out in pairwise string distances — AGP is
``O(|B| × |Ga| × |G − Ga|)`` and RSC's reliability score takes a min over all
γ-pairs of a group — and the same value pairs recur across blocks, groups,
micro-batches and partitions.  :class:`DistanceEngine` wraps any registered
:class:`~repro.distance.base.DistanceMetric` with

* a **symmetric pair-memo cache** with string interning and hit/miss
  statistics (a distance between immutable strings never changes, so cached
  results are exact by construction and caching cannot alter any cleaning
  decision),
* **algorithmic fast paths** for the edit-distance family: common
  prefix/suffix stripping, the length-difference lower bound, and a banded
  early-exit bounded distance that abandons the matrix once the cutoff is
  provably exceeded,
* a cutoff-accumulating tuple distance that short-circuits as soon as the
  per-attribute running sum exceeds the cutoff,
* the batch candidate-set API (:meth:`nearest` / :meth:`pairwise` /
  :meth:`topk`) that owns the visit order and the cutoffs of best-so-far
  searches on top of those bounded calls.

Contract of the bounded calls: ``_bounded(l, r, c)`` (and
``_values_bounded(..., c)``) returns the **exact** distance whenever it is
``≤ c``; otherwise it returns *some* value ``> c`` (a valid lower bound).
Best-so-far searches therefore get bit-identical results to exhaustive
evaluation: candidates at or below the running best are measured exactly
(including ties), candidates that cannot win are skipped.

Statistics are strictly **engine-local** on the hot path: every counter
increment touches only ``self.stats``, so concurrent engines (the service's
shard executor threads) never interleave read-modify-write cycles on shared
counters.  The process-wide view of :func:`global_distance_stats` is
*derived* under a lock — the folded counters of retired engines plus the
live counters of every engine still alive (a weakref registry folds an
engine's stats in when it is garbage collected) — so the benchmark suite
can still report distance-call counts and cache hit rates per figure
without reaching into every engine instance.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields
from typing import Optional

from repro.distance.base import DistanceMetric
from repro.distance.fastpath import (
    bounded_levenshtein,
    strip_common_affixes,
    trivial_edit_distance,
)
from repro.perf.kernel import HAVE_NUMPY, BatchLevenshteinKernel
from repro.perf.qgram import (
    QGramIndex,
    bound_from_shared,
    build_profile,
    lower_bound,
)

#: flush bound of the per-engine derived caches (value-tuple interning and
#: q-gram profiles); both are pure functions of their key, so a wholesale
#: flush can never change a result — it only costs recomputation
_DERIVED_CACHE_LIMIT = 1 << 16

#: smallest candidate batch worth shipping to the numpy kernel (below this
#: the per-call numpy overhead beats the scalar loop it replaces)
_KERNEL_MIN_BATCH = 2

#: candidates evaluated per kernel dispatch; the running cutoff re-tightens
#: between chunks, so a smaller chunk prunes more but dispatches more often
_KERNEL_CHUNK = 32

#: candidates in the first kernel dispatch of a scan that starts without a
#: cutoff: small, so the best-so-far limit is established before committing
#: a full-width chunk to exact evaluation (the candidates are visited in
#: lower-bound order, so the seed chunk almost always contains the winner)
_KERNEL_SEED_CHUNK = 4


@dataclass
class DistanceStats:
    """Counters of one engine (or of the whole process, for the global copy)."""

    #: pair-distance requests (exact and bounded, incl. those from
    #: :meth:`DistanceEngine.values_distance`)
    calls: int = 0
    #: requests answered from the exact-pair cache
    cache_hits: int = 0
    #: requests settled without the metric: equal strings or one side empty
    #: after affix stripping
    trivial: int = 0
    #: full runs of the wrapped metric's ``distance`` (the raw ``O(m·n)``
    #: evaluations the engine exists to avoid)
    raw_evaluations: int = 0
    #: bounded requests refused by the length-difference lower bound
    length_prunes: int = 0
    #: bounded requests abandoned by the banded early-exit search
    band_prunes: int = 0
    #: bounded requests refused by a cached lower bound
    lower_bound_hits: int = 0
    #: value-tuple distance requests
    value_calls: int = 0
    #: value-tuple requests short-circuited before the last attribute
    value_short_circuits: int = 0
    #: cache flushes forced by the ``max_entries`` bound
    cache_evictions: int = 0
    #: cache entries dropped by value invalidation (streaming eviction)
    invalidated_pairs: int = 0
    #: batch candidate-set queries (``nearest`` / ``pairwise`` / ``topk``)
    batch_queries: int = 0
    #: candidates considered by batch queries (before any filtering)
    qgram_candidates: int = 0
    #: candidates batch queries never evaluated exactly: q-gram lower bound
    #: above the running cutoff, or dropped by the approximation caps
    qgram_filtered: int = 0
    #: candidate chunks dispatched to the vectorized kernel
    kernel_batches: int = 0
    #: exact distances settled by the vectorized kernel (the batch analog of
    #: ``raw_evaluations``, which counts only pure-python runs of the
    #: wrapped metric's ``O(m·n)`` dynamic program)
    kernel_evaluations: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of pair requests answered without any computation."""
        if self.calls == 0:
            return 0.0
        return self.cache_hits / self.calls

    @property
    def exact_evaluations(self) -> int:
        """Exact metric evaluations by either backend (scalar or kernel).

        The backend-neutral measure of distance work actually performed —
        use this when comparing *how much* a strategy evaluates, and the
        ``raw_evaluations`` / ``kernel_evaluations`` split when the scalar
        vs vectorized routing itself is under test.
        """
        return self.raw_evaluations + self.kernel_evaluations

    def merge(self, other: "DistanceStats") -> "DistanceStats":
        merged = DistanceStats()
        for field in fields(DistanceStats):
            setattr(
                merged,
                field.name,
                getattr(self, field.name) + getattr(other, field.name),
            )
        return merged

    def iadd(self, other: "DistanceStats") -> "DistanceStats":
        """In-place add (keeps the object identity the live registry holds)."""
        for field in fields(DistanceStats):
            setattr(
                self,
                field.name,
                getattr(self, field.name) + getattr(other, field.name),
            )
        return self

    def zero(self) -> None:
        """In-place reset of every counter."""
        for field in fields(DistanceStats):
            setattr(self, field.name, 0)

    def diff(self, earlier: "DistanceStats") -> "DistanceStats":
        """The counter deltas since an ``earlier`` snapshot."""
        delta = DistanceStats()
        for field in fields(DistanceStats):
            setattr(
                delta,
                field.name,
                getattr(self, field.name) - getattr(earlier, field.name),
            )
        return delta

    def copy(self) -> "DistanceStats":
        return DistanceStats().merge(self)

    def as_dict(self) -> dict:
        out = {field.name: getattr(self, field.name) for field in fields(DistanceStats)}
        out["hit_rate"] = round(self.hit_rate, 4)
        return out


# ----------------------------------------------------------------------
# the derived process-wide accumulator
#
# Engines only ever touch their own ``self.stats`` (single-threaded by
# construction: one cleaning run / one shard uses one engine at a time), so
# the hot path needs no lock and no shared writes.  The global view is
# computed on demand under ``_ACCUM_LOCK``:
#
#     totals = retired + Σ(live engines) − reset offset
#
# where *retired* accumulates the stats of engines after they are garbage
# collected and the *reset offset* is the snapshot taken by
# ``reset_global_distance_stats`` — counters stay monotone underneath,
# resets are a subtraction.
# ----------------------------------------------------------------------
_ACCUM_LOCK = threading.Lock()
#: folded counters of engines that were garbage collected or reset
_RETIRED = DistanceStats()
#: snapshot subtracted from the raw totals (what "reset" means here)
_RESET_OFFSET = DistanceStats()
#: weakref(engine) → its (never rebound) stats object
_LIVE: "dict[weakref.ref, DistanceStats]" = {}
#: weakrefs of collected engines whose counters await the fold into
#: ``_RETIRED`` (their stats stay in ``_LIVE`` and count until then)
_RETIRING: "list[weakref.ref]" = []


def _retire_engine(ref: "weakref.ref") -> None:
    """Weakref callback: queue a dying engine for the fold.

    Takes no lock: the callback can fire inside any allocation (cyclic
    garbage collection), including one made while ``_ACCUM_LOCK`` is held,
    and the lock is not re-entrant.  ``list.append`` is atomic.
    """
    _RETIRING.append(ref)


def _fold_retiring() -> None:
    """Move queued engines from ``_LIVE`` to ``_RETIRED``.

    The caller holds ``_ACCUM_LOCK``, so a concurrent reader never sees an
    engine twice or not at all.
    """
    while _RETIRING:
        stats = _LIVE.pop(_RETIRING.pop(), None)
        if stats is not None:
            _RETIRED.iadd(stats)


def _register_engine(engine: "DistanceEngine") -> None:
    with _ACCUM_LOCK:
        _fold_retiring()
        _LIVE[weakref.ref(engine, _retire_engine)] = engine.stats


def _raw_totals() -> DistanceStats:
    """Retired + live counters; the caller holds ``_ACCUM_LOCK``."""
    _fold_retiring()
    totals = _RETIRED.copy()
    for stats in _LIVE.values():
        totals.iadd(stats)
    return totals


def global_distance_stats() -> DistanceStats:
    """A snapshot of the process-wide distance counters.

    Derived from engine-local counters under a lock (see the module
    docstring), so concurrent engines on different threads cannot lose
    updates — each one increments only its own stats object.
    """
    with _ACCUM_LOCK:
        return _raw_totals().diff(_RESET_OFFSET)


def reset_global_distance_stats() -> None:
    """Zero the process-wide *view* (test/benchmark isolation).

    Implemented as an offset: the underlying per-engine counters keep
    counting monotonically (live engines are not touched, so nothing races
    with in-flight work); only the baseline the snapshot subtracts moves.
    """
    with _ACCUM_LOCK:
        _RESET_OFFSET.zero()
        _RESET_OFFSET.iadd(_raw_totals())


class DistanceEngine:
    """Caches, prunes and early-exits the distances of one metric.

    One engine is shared by every stage of a cleaning run (batch pipeline,
    distributed driver, or the streaming engine, where it additionally
    persists across micro-batches).  All results are exact — the cache stores
    only exact distances, and bounded calls return exact values whenever the
    distance is within the cutoff — so enabling or disabling the engine's
    cache never changes a cleaning decision.
    """

    def __init__(
        self,
        metric: DistanceMetric,
        cache: bool = True,
        max_entries: Optional[int] = None,
        track_values: bool = False,
        qgram_size: int = 2,
        pruning_topk: Optional[int] = None,
        max_candidates: Optional[int] = None,
        kernel: str = "python",
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None for unbounded)")
        if qgram_size < 1:
            raise ValueError("qgram_size must be >= 1")
        if pruning_topk is not None and pruning_topk < 1:
            raise ValueError("pruning_topk must be >= 1 (or None for exact)")
        if max_candidates is not None and max_candidates < 1:
            raise ValueError("max_candidates must be >= 1 (or None for exact)")
        if kernel not in ("python", "numpy", "auto"):
            raise ValueError("kernel must be one of 'python', 'numpy', 'auto'")
        self.metric = metric
        self.cache_enabled = cache
        self.max_entries = max_entries
        self.qgram_size = qgram_size
        self.pruning_topk = pruning_topk
        self.max_candidates = max_candidates
        self.kernel_mode = kernel
        #: reference-count values so streaming eviction can invalidate
        #: (i.e. drop) exactly the cache entries of values that left the
        #: retained window
        self.track_values = track_values
        #: engine-local counters.  Never rebound: the process-wide registry
        #: holds this exact object, so replacing it would silently detach
        #: the engine from :func:`global_distance_stats` (mutate in place).
        self.stats = DistanceStats()
        self._exact: dict = {}
        self._lower: dict = {}
        self._interned: dict = {}
        self._interned_tuples: dict = {}
        self._qgram_profiles: dict = {}
        self._refcounts: dict = {}
        self._pairs_by_value: dict = {}
        self._affix_safe = bool(getattr(metric, "affix_safe", False))
        self._banded = bool(getattr(metric, "supports_banded", False))
        #: bound-destroying edit operations per q-gram (``None`` disables the
        #: count filter for this metric — batch queries fall back to the
        #: plain ordered scan, which is still bit-identical)
        self._qgram_ops = getattr(metric, "qgram_edit_ops", None)
        self._kernel = None
        if kernel != "python" and self._banded:
            if HAVE_NUMPY:
                self._kernel = BatchLevenshteinKernel()
            elif kernel == "numpy":
                raise RuntimeError(
                    "distance_kernel='numpy' needs numpy; install the "
                    "optional extra: pip install repro[fast]"
                )
        _register_engine(self)

    @classmethod
    def from_config(cls, config, track_values: bool = False) -> "DistanceEngine":
        """An engine honouring an :class:`~repro.core.config.MLNCleanConfig`."""
        return cls(
            config.metric(),
            cache=config.distance_cache,
            max_entries=config.distance_cache_entries,
            track_values=track_values,
            qgram_size=getattr(config, "qgram_size", 2),
            pruning_topk=getattr(config, "pruning_topk", None),
            max_candidates=getattr(config, "max_candidates", None),
            kernel=getattr(config, "distance_kernel", "python"),
        )

    @property
    def supports_qgram(self) -> bool:
        """Whether the wrapped metric admits the q-gram count filter."""
        return self._qgram_ops is not None

    # ------------------------------------------------------------------
    # interning and cache plumbing
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The wrapped metric's registry name (duck-types as a metric)."""
        return self.metric.name

    def intern(self, value: str) -> str:
        """The canonical instance of ``value`` in this engine's pool."""
        return self._interned.setdefault(value, value)

    def intern_values(self, values: "Iterable[str]") -> "tuple[str, ...]":
        """The canonical ``tuple[str, ...]`` of a value sequence.

        Memoized per tuple content: repeated interning of the same γ values
        (every AGP probe, every RSC pair, every fusion signature) is one dict
        probe instead of a per-value re-intern — intern once, pass the tuple
        through.
        """
        values = tuple(values)
        canonical = self._interned_tuples.get(values)
        if canonical is None:
            if len(self._interned_tuples) >= _DERIVED_CACHE_LIMIT:
                self._interned_tuples.clear()
            canonical = tuple(self.intern(value) for value in values)
            self._interned_tuples[canonical] = canonical
            if values is not canonical:
                self._interned_tuples[values] = canonical
        return canonical

    def cache_size(self) -> int:
        return len(self._exact)

    def _pair_key(self, left: str, right: str):
        left = self._interned.setdefault(left, left)
        right = self._interned.setdefault(right, right)
        return (left, right) if left <= right else (right, left)

    @staticmethod
    def _exact_key(left: str, right: str):
        """Pair key for already-interned strings (no pool probes)."""
        return (left, right) if left <= right else (right, left)

    def _flush_if_full(self) -> None:
        """Wholesale flush once exact + lower-bound entries hit the bound.

        Both dictionaries count toward ``max_entries`` — prune-heavy
        workloads populate the lower-bound side almost exclusively, and a
        bound that ignored it would not actually bound memory.
        """
        if (
            self.max_entries is not None
            and len(self._exact) + len(self._lower) >= self.max_entries
        ):
            self._exact.clear()
            self._lower.clear()
            self._pairs_by_value.clear()
            self.stats.cache_evictions += 1

    def _store_exact(self, key, value: float) -> None:
        self._flush_if_full()
        self._exact[key] = value
        self._lower.pop(key, None)
        if self.track_values:
            self._pairs_by_value.setdefault(key[0], set()).add(key)
            self._pairs_by_value.setdefault(key[1], set()).add(key)

    def _store_lower(self, key, bound: float) -> None:
        known = self._lower.get(key)
        if known is None or bound > known:
            if known is None:
                self._flush_if_full()
            self._lower[key] = bound
            if self.track_values:
                self._pairs_by_value.setdefault(key[0], set()).add(key)
                self._pairs_by_value.setdefault(key[1], set()).add(key)

    # ------------------------------------------------------------------
    # value lifetime (streaming windows)
    # ------------------------------------------------------------------
    def retain(self, values: "Iterable[str]") -> None:
        """Reference the values of a retained tuple (no-op unless tracking)."""
        if not self.track_values:
            return
        refcounts = self._refcounts
        for value in values:
            value = self.intern(value)
            refcounts[value] = refcounts.get(value, 0) + 1

    def release(self, values: "Iterable[str]") -> None:
        """Drop references; cache entries of dead values are invalidated.

        A value whose reference count reaches zero no longer appears in any
        retained tuple, so its cached pairs can never be asked for again —
        they are purged to keep the persistent streaming cache bounded by the
        live vocabulary instead of the all-time one.
        """
        if not self.track_values:
            return
        refcounts = self._refcounts
        for value in values:
            value = self.intern(value)
            count = refcounts.get(value)
            if count is None:
                continue
            if count > 1:
                refcounts[value] = count - 1
                continue
            del refcounts[value]
            self._interned.pop(value, None)
            for key in self._pairs_by_value.pop(value, ()):  # type: ignore[arg-type]
                if key in self._exact:
                    del self._exact[key]
                    self.stats.invalidated_pairs += 1
                self._lower.pop(key, None)
                partner = key[1] if key[0] is value else key[0]
                partner_pairs = self._pairs_by_value.get(partner)
                if partner_pairs is not None:
                    partner_pairs.discard(key)

    # ------------------------------------------------------------------
    # distances
    # ------------------------------------------------------------------
    def distance(self, left: str, right: str) -> float:
        """Exact distance, served from the cache when possible."""
        self.stats.calls += 1
        if left == right:
            self.stats.trivial += 1
            return 0.0
        if not self.cache_enabled:
            return self._compute(left, right)
        key = self._pair_key(left, right)
        cached = self._exact.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        result = self._compute(left, right)
        self._store_exact(key, result)
        return result

    def _distance_canonical(self, left: str, right: str) -> float:
        """:meth:`distance` for already-interned strings (batch hot path)."""
        self.stats.calls += 1
        if left == right:
            self.stats.trivial += 1
            return 0.0
        if not self.cache_enabled:
            return self._compute(left, right)
        key = self._exact_key(left, right)
        cached = self._exact.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        result = self._compute(left, right)
        self._store_exact(key, result)
        return result

    def _compute(self, left: str, right: str) -> float:
        """Run the metric, with affix stripping where it is distance-safe."""
        if self._affix_safe:
            left, right = strip_common_affixes(left, right)
            trivial = trivial_edit_distance(left, right)
            if trivial is not None:
                self.stats.trivial += 1
                return trivial
        self.stats.raw_evaluations += 1
        return self.metric.distance(left, right)

    def _bounded(
        self, left: str, right: str, cutoff: float, canonical: bool
    ) -> float:
        """Exact distance when it is ``≤ cutoff``; else some value ``> cutoff``.

        The not-exact return value is a true lower bound of the distance, so
        best-so-far searches can prune on it; it must not be used as a
        distance.  ``canonical`` skips the intern pool.
        """
        if cutoff == math.inf:
            if canonical:
                return self._distance_canonical(left, right)
            return self.distance(left, right)
        self.stats.calls += 1
        if left == right:
            self.stats.trivial += 1
            return 0.0
        key = None
        if self.cache_enabled:
            key = (
                self._exact_key(left, right)
                if canonical
                else self._pair_key(left, right)
            )
            cached = self._exact.get(key)
            if cached is not None:
                self.stats.cache_hits += 1
                return cached
            bound = self._lower.get(key)
            if bound is not None and bound > cutoff:
                self.stats.lower_bound_hits += 1
                self.stats.cache_hits += 1
                return bound
        if self._affix_safe:
            stripped_left, stripped_right = strip_common_affixes(left, right)
            trivial = trivial_edit_distance(stripped_left, stripped_right)
            if trivial is not None:
                self.stats.trivial += 1
                if key is not None:
                    self._store_exact(key, trivial)
                return trivial
            length_gap = abs(len(stripped_left) - len(stripped_right))
            if length_gap > cutoff:
                self.stats.length_prunes += 1
                if key is not None:
                    self._store_lower(key, float(length_gap))
                return float(length_gap)
            if self._banded and cutoff >= 0.0:
                radius = int(cutoff)  # distances are integral: d <= cutoff iff d <= floor(cutoff)
                value, exact = bounded_levenshtein(
                    stripped_left, stripped_right, radius
                )
                if exact:
                    self.stats.raw_evaluations += 1
                    if key is not None:
                        self._store_exact(key, value)
                    return value
                self.stats.band_prunes += 1
                if key is not None:
                    self._store_lower(key, value)
                return value
        result = self._compute(left, right)
        if key is not None:
            self._store_exact(key, result)
        return result

    # ------------------------------------------------------------------
    # value tuples (pieces of data)
    # ------------------------------------------------------------------
    def values_distance(
        self, left: "Sequence[str]", right: "Sequence[str]"
    ) -> float:
        """Exact sum of per-position distances.

        Equals :meth:`repro.distance.base.DistanceMetric.values_distance`
        bit for bit (same per-pair values, same left-to-right summation
        order).
        """
        return self._values_distance(left, right, None, canonical=False)

    def _values_distance(
        self,
        left: "Sequence[str]",
        right: "Sequence[str]",
        cutoff: Optional[float],
        canonical: bool,
    ) -> float:
        """Sum of per-position distances, cutoff-accumulating under a cutoff.

        With a cutoff, the exact sum is returned whenever it is ``≤ cutoff``;
        otherwise the accumulation stops at the first attribute that pushes a
        lower bound of the sum past the cutoff and some value ``> cutoff``
        comes back.
        """
        if len(left) != len(right):
            raise ValueError("value tuples must have the same length")
        self.stats.value_calls += 1
        if cutoff is None or cutoff == math.inf:
            pair = self._distance_canonical if canonical else self.distance
            total = 0.0
            for left_value, right_value in zip(left, right):
                total += pair(left_value, right_value)
            return total
        total = 0.0
        last = len(left) - 1
        for position, (left_value, right_value) in enumerate(zip(left, right)):
            total += self._bounded(left_value, right_value, cutoff - total, canonical)
            if total > cutoff:
                if position < last:
                    self.stats.value_short_circuits += 1
                return total
        return total

    def _values_bounded(
        self,
        left: "tuple[str, ...]",
        right: "tuple[str, ...]",
        cutoff: float,
    ) -> float:
        """Cutoff-accumulating tuple distance over interned tuples.

        This is the batch scan's inner evaluation: the tuples were interned
        once at candidate-set entry, so pair keys are built without per-value
        pool probes (the fix for the per-call re-interning the old scalar
        path paid on every cutoff accumulation).
        """
        return self._values_distance(left, right, cutoff, canonical=True)

    # ------------------------------------------------------------------
    # batch candidate-set API
    #
    # The batch-first surface of the engine: callers hand over a *candidate
    # set* instead of issuing scalar best-so-far calls, and the engine owns
    # the visit order (q-gram lower bounds ascending), the pruning (skip a
    # candidate only when its lower bound strictly exceeds the running
    # cutoff) and the evaluation backend (scalar fast path or the numpy
    # kernel).  With the default knobs every result is bit-identical to the
    # brute-force scalar loop: any candidate whose exact distance ties the
    # final best is always measured exactly, because the running cutoff never
    # drops below the final best and pruning is strict.  ``pruning_topk`` /
    # ``max_candidates`` opt into approximation by capping the candidates a
    # query may evaluate.
    # ------------------------------------------------------------------
    def _profile(self, values: "tuple[str, ...]"):
        """The (cached) positional q-gram profile of an interned tuple."""
        profile = self._qgram_profiles.get(values)
        if profile is None:
            if len(self._qgram_profiles) >= _DERIVED_CACHE_LIMIT:
                self._qgram_profiles.clear()
            profile = build_profile(values, self.qgram_size)
            self._qgram_profiles[values] = profile
        return profile

    def _candidate_order(
        self,
        query: "tuple[str, ...]",
        cands: "list[tuple[str, ...]]",
        index: "Optional[QGramIndex]",
    ) -> "list[tuple[float, int]]":
        """``(lower_bound, candidate_position)`` in evaluation order.

        With a metric that admits the count filter the list is sorted by
        ``(bound, position)`` ascending; otherwise bounds are all zero and
        the input order is kept (a plain ordered scan — still bit-identical).
        A block's :class:`~repro.perf.qgram.QGramIndex` answers the shared
        counts from its postings when supplied and built with the same ``q``;
        candidates missing from it (or any candidates, without an index) fall
        back to direct profile intersections.
        """
        ops = self._qgram_ops
        if ops is None:
            return [(0.0, position) for position in range(len(cands))]
        q = self.qgram_size
        if index is not None and index.q == q:
            query_profile = index.profile(query) or self._profile(query)
            shared = index.shared_counts(query_profile, set(cands))
            order = []
            for position, cand in enumerate(cands):
                cand_profile = index.profile(cand)
                if cand_profile is None:
                    bound = lower_bound(query_profile, self._profile(cand), q, ops)
                else:
                    bound = bound_from_shared(
                        query_profile, cand_profile, shared.get(cand, 0), q, ops
                    )
                order.append((bound, position))
        else:
            query_profile = self._profile(query)
            order = [
                (lower_bound(query_profile, self._profile(cand), q, ops), position)
                for position, cand in enumerate(cands)
            ]
        order.sort()
        return order

    def _scan_nearest(
        self,
        query: "tuple[str, ...]",
        cands: "list[tuple[str, ...]]",
        order: "list[tuple[float, int]]",
        cutoff: float,
    ) -> "tuple[Optional[int], float]":
        """Best-so-far scan of an ordered candidate list.

        Returns ``(best_position, best_distance)`` with the smallest-position
        tie-break; ``(None, inf)`` when nothing is within the cutoff.
        """
        stats = self.stats
        best_index: Optional[int] = None
        best = math.inf
        limit = cutoff
        use_kernel = self._kernel is not None and len(order) >= _KERNEL_MIN_BATCH
        total = len(order)
        position = 0
        while position < total:
            bound, candidate = order[position]
            if bound > limit:
                stats.qgram_filtered += total - position
                break
            if not use_kernel:
                position += 1
                value = self._values_bounded(query, cands[candidate], limit)
                if value <= limit and (
                    value < best
                    or (value == best and (best_index is None or candidate < best_index))
                ):
                    best = value
                    best_index = candidate
                    if best < limit:
                        limit = best
                continue
            chunk = []
            chunk_cap = _KERNEL_SEED_CHUNK if limit == math.inf else _KERNEL_CHUNK
            while position < total and len(chunk) < chunk_cap:
                bound, candidate = order[position]
                if bound > limit:
                    break
                chunk.append(candidate)
                position += 1
            totals = self._values_batch(query, [cands[c] for c in chunk], limit)
            for candidate, value in zip(chunk, totals):
                if value <= limit and (
                    value < best
                    or (value == best and (best_index is None or candidate < best_index))
                ):
                    best = value
                    best_index = candidate
                    if best < limit:
                        limit = best
        return best_index, best

    def _values_batch(
        self,
        query: "tuple[str, ...]",
        rights: "list[tuple[str, ...]]",
        limit: float,
    ) -> "list[float]":
        """Kernel-backed :meth:`_values_bounded` over a candidate chunk.

        Per candidate the return value honours the exact-or-prune contract
        against ``limit``: exact whenever it is ``≤ limit``, otherwise a true
        lower bound ``> limit``.  The pair cache is consulted before and fed
        after every kernel dispatch, so kernel results are indistinguishable
        from scalar ones to the rest of the engine.
        """
        stats = self.stats
        count = len(rights)
        stats.value_calls += count
        totals = [0.0] * count
        alive = list(range(count))
        positions = len(query)
        last = positions - 1
        cache_enabled = self.cache_enabled
        for attr in range(positions):
            query_value = query[attr]
            pending_slots: "list[int]" = []
            pending_rights: "list[str]" = []
            pending_cutoffs: "list[float]" = []
            survivors: "list[int]" = []
            for slot in alive:
                right_value = rights[slot][attr]
                stats.calls += 1
                if query_value == right_value:
                    stats.trivial += 1
                    survivors.append(slot)
                    continue
                remaining = limit - totals[slot]
                key = None
                if cache_enabled:
                    key = self._exact_key(query_value, right_value)
                    cached = self._exact.get(key)
                    if cached is not None:
                        stats.cache_hits += 1
                        totals[slot] += cached
                        if totals[slot] <= limit:
                            survivors.append(slot)
                        elif attr < last:
                            stats.value_short_circuits += 1
                        continue
                    bound = self._lower.get(key)
                    if bound is not None and bound > remaining:
                        stats.lower_bound_hits += 1
                        stats.cache_hits += 1
                        totals[slot] += bound
                        if attr < last:
                            stats.value_short_circuits += 1
                        continue
                length_gap = abs(len(query_value) - len(right_value))
                if length_gap > remaining:
                    stats.length_prunes += 1
                    if key is not None:
                        self._store_lower(key, float(length_gap))
                    totals[slot] += float(length_gap)
                    if attr < last:
                        stats.value_short_circuits += 1
                    continue
                pending_slots.append(slot)
                pending_rights.append(right_value)
                pending_cutoffs.append(remaining)
            if pending_slots:
                stats.kernel_batches += 1
                outcomes = self._kernel.batch_bounded(
                    query_value, pending_rights, pending_cutoffs
                )
                for slot, right_value, (value, exact) in zip(
                    pending_slots, pending_rights, outcomes
                ):
                    if cache_enabled:
                        key = self._exact_key(query_value, right_value)
                        if exact:
                            self._store_exact(key, value)
                        else:
                            self._store_lower(key, value)
                    if exact:
                        stats.kernel_evaluations += 1
                    else:
                        stats.band_prunes += 1
                    totals[slot] += value
                    if totals[slot] <= limit:
                        survivors.append(slot)
                    elif attr < last:
                        stats.value_short_circuits += 1
                survivors.sort()
            alive = survivors
            if not alive:
                break
        return totals

    def _capped_candidates(
        self, cands: "list[tuple[str, ...]]"
    ) -> "list[tuple[str, ...]]":
        """``max_candidates`` hard cap: first N candidates in input order."""
        if self.max_candidates is not None and len(cands) > self.max_candidates:
            self.stats.qgram_filtered += len(cands) - self.max_candidates
            return cands[: self.max_candidates]
        return cands

    def _capped_order(
        self, order: "list[tuple[float, int]]"
    ) -> "list[tuple[float, int]]":
        """``pruning_topk``: keep the k most promising candidates by bound."""
        if self.pruning_topk is not None and len(order) > self.pruning_topk:
            self.stats.qgram_filtered += len(order) - self.pruning_topk
            return order[: self.pruning_topk]
        return order

    def nearest(
        self,
        query: "Sequence[str]",
        candidates: "Sequence[Sequence[str]]",
        cutoff: float = math.inf,
        *,
        index: "Optional[QGramIndex]" = None,
    ) -> "tuple[Optional[int], float]":
        """The candidate nearest to ``query`` within ``cutoff``.

        Returns ``(position, distance)`` into the *candidates* sequence, ties
        broken toward the smallest position; ``(None, inf)`` when no
        candidate is within the cutoff.  Bit-identical to the brute-force
        scalar loop with the default knobs.
        """
        query = self.intern_values(query)
        cands = [self.intern_values(candidate) for candidate in candidates]
        self.stats.batch_queries += 1
        self.stats.qgram_candidates += len(cands)
        if not cands:
            return None, math.inf
        cands = self._capped_candidates(cands)
        order = self._capped_order(self._candidate_order(query, cands, index))
        return self._scan_nearest(query, cands, order, cutoff)

    def pairwise(
        self,
        values: "Sequence[Sequence[str]]",
        *,
        index: "Optional[QGramIndex]" = None,
    ) -> "list[tuple[Optional[int], float]]":
        """Per item: ``(position_of_nearest_other_item, min_distance)``.

        The all-pairs surface RSC-style scoring needs: for every item the
        exact minimum distance to any *other* item (``(None, inf)`` when
        there is only one).  Lower bounds are computed once per unordered
        pair; each item's scan then visits the others bounds-ascending with
        its own running minimum as the cutoff.
        """
        items = [self.intern_values(item) for item in values]
        count = len(items)
        self.stats.batch_queries += 1
        if count < 2:
            return [(None, math.inf)] * count
        self.stats.qgram_candidates += count * (count - 1)
        ops = self._qgram_ops
        bounds = None
        if ops is not None:
            q = self.qgram_size
            if index is not None and index.q == q:
                profiles = [index.profile(item) or self._profile(item) for item in items]
            else:
                profiles = [self._profile(item) for item in items]
            bounds = [[0.0] * count for _ in range(count)]
            for i in range(count):
                for j in range(i + 1, count):
                    if items[i] is items[j]:
                        continue
                    value = lower_bound(profiles[i], profiles[j], q, ops)
                    bounds[i][j] = value
                    bounds[j][i] = value
        results: "list[tuple[Optional[int], float]]" = []
        for i in range(count):
            others = [j for j in range(count) if j != i]
            if self.max_candidates is not None and len(others) > self.max_candidates:
                self.stats.qgram_filtered += len(others) - self.max_candidates
                others = others[: self.max_candidates]
            if bounds is None:
                order = [(0.0, j) for j in others]
            else:
                row = bounds[i]
                order = sorted((row[j], j) for j in others)
            order = self._capped_order(order)
            results.append(self._scan_nearest(items[i], items, order, math.inf))
        return results

    def topk(
        self,
        query: "Sequence[str]",
        candidates: "Sequence[Sequence[str]]",
        k: int,
        cutoff: float = math.inf,
        *,
        index: "Optional[QGramIndex]" = None,
    ) -> "list[tuple[int, float]]":
        """The ``k`` candidates nearest to ``query``, within ``cutoff``.

        Returns up to ``k`` ``(position, distance)`` pairs sorted by
        ``(distance, position)`` ascending; ties at the k-th distance are
        broken toward smaller positions.  Once ``k`` candidates are held the
        running cutoff tightens to the current k-th distance.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        query = self.intern_values(query)
        cands = [self.intern_values(candidate) for candidate in candidates]
        self.stats.batch_queries += 1
        self.stats.qgram_candidates += len(cands)
        if not cands:
            return []
        cands = self._capped_candidates(cands)
        order = self._capped_order(self._candidate_order(query, cands, index))
        selected: "list[tuple[float, int]]" = []
        limit = cutoff
        total = len(order)
        for position, (bound, candidate) in enumerate(order):
            if bound > limit:
                self.stats.qgram_filtered += total - position
                break
            value = self._values_bounded(query, cands[candidate], limit)
            if value > limit:
                continue
            selected.append((value, candidate))
            selected.sort()
            if len(selected) > k:
                selected.pop()
            if len(selected) == k and selected[-1][0] < limit:
                limit = selected[-1][0]
        return [(candidate, value) for value, candidate in selected]

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def absorb_stats(self, stats: DistanceStats) -> None:
        """Fold counters measured elsewhere (e.g. a worker process) in.

        Forked workers ship the counters they added back with their results
        and the parent folds them into its engine — which is all it takes
        for :func:`global_distance_stats` to see the forked work, because
        the global view is derived from engine-local counters.
        """
        self.stats.iadd(stats)

    def reset_stats(self) -> None:
        """Zero the engine-local counters, preserving the global totals.

        The counters are folded into the retired base first, so the derived
        :func:`global_distance_stats` stays monotone across engine resets.
        """
        with _ACCUM_LOCK:
            _RETIRED.iadd(self.stats)
            self.stats.zero()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistanceEngine({self.metric.name!r}, cache={self.cache_enabled}, "
            f"entries={len(self._exact)}, hit_rate={self.stats.hit_rate:.3f})"
        )
