"""The perf subsystem: distance engine, fast paths, parallel Stage I.

The load-bearing properties:

* the engine's bounded distance (reached through ``nearest``) equals the
  exact distance whenever that distance is ``≤ c`` (and exceeds ``c``
  otherwise) — this is what makes the best-so-far searches in AGP and RSC
  bit-identical to exhaustive scans,
* cache-enabled and cache-disabled runs produce identical cleaned tables,
* ``parallelism=2`` batch output equals serial output (table + F1) on every
  registered workload, for custom stage orders too,
* re-cleaning an unchanged block through a shared engine re-runs no raw
  metric evaluations (the streaming-replay regression).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MLNCleanConfig
from repro.core.index import MLNIndex
from repro.core.pipeline import MLNClean
from repro.core.rsc import ReliabilityScoreCleaner
from repro.distance import (
    CosineDistance,
    DamerauLevenshteinDistance,
    LevenshteinDistance,
)
from repro.distance.fastpath import (
    bounded_levenshtein,
    strip_common_affixes,
    trivial_edit_distance,
)
from repro.core.agp import AbnormalGroupProcessor
from repro.core.stages import merge_stage_outcomes
from repro.errors.injector import ErrorSpec
from repro.experiments.harness import session_for_instance
from repro.metrics.timing import PerfDetails
from repro.perf import DistanceEngine, DistanceStats, global_distance_stats
from repro.perf.parallel import map_blocks
from repro.streaming import DeltaBatch, StreamingMLNClean, TumblingWindow
from repro.workloads.registry import available_workloads, get_workload_generator

short_text = st.text(
    alphabet=st.characters(min_codepoint=48, max_codepoint=122), max_size=12
)
cutoffs = st.one_of(
    st.integers(min_value=0, max_value=14).map(float),
    st.floats(min_value=0.0, max_value=14.0, allow_nan=False),
)


def tables_equal(left, right):
    if sorted(left.tids) != sorted(right.tids):
        return False
    return all(
        left.row(tid).as_dict() == right.row(tid).as_dict() for tid in left.tids
    )


def small_instance(name, tuples=90, error_rate=0.08, seed=13):
    workload = get_workload_generator(name, tuples=tuples, seed=7).build()
    return workload.make_instance(ErrorSpec(error_rate=error_rate, seed=seed))


# ----------------------------------------------------------------------
# fast paths
# ----------------------------------------------------------------------
@given(short_text, short_text)
def test_affix_stripping_preserves_levenshtein(left, right):
    stripped_left, stripped_right = strip_common_affixes(left, right)
    metric = LevenshteinDistance()
    assert metric.distance(left, right) == metric.distance(
        stripped_left, stripped_right
    )


@given(short_text, short_text)
def test_damerau_fastpath_matches_full_dp(left, right):
    # The routed distance (affix strip + trivial cases) must equal the naive
    # full-matrix dynamic program — the like-with-like guarantee of the
    # Table-5 ablation.
    assert DamerauLevenshteinDistance().distance(
        left, right
    ) == DamerauLevenshteinDistance._dp_distance(left, right)


@given(short_text, short_text)
def test_levenshtein_fastpath_matches_full_dp(left, right):
    routed = LevenshteinDistance().distance(left, right)
    if left and right:
        assert routed == LevenshteinDistance._dp_distance(left, right)
    else:
        assert routed == float(len(left) + len(right))


def gram_free_engine(**kwargs):
    """An engine whose q-grams are longer than the test strings.

    Its candidate bound is the length difference alone, so ``nearest``
    hands every candidate within that bound to the bounded distance.
    """
    return DistanceEngine(LevenshteinDistance(), qgram_size=16, **kwargs)


@given(short_text, short_text, cutoffs)
def test_bounded_distance_exact_iff_within_cutoff(left, right, cutoff):
    engine = gram_free_engine()
    exact = LevenshteinDistance().distance(left, right)
    position, value = engine.nearest((left,), [(right,)], cutoff)
    if exact <= cutoff:
        assert (position, value) == (0, exact)
    else:
        assert position is None
        # a pruned pair caches a true lower bound above the cutoff
        for bound in engine._lower.values():
            assert cutoff < bound <= exact


@given(short_text, short_text, st.integers(min_value=0, max_value=10))
def test_bounded_levenshtein_helper_contract(left, right, radius):
    stripped = strip_common_affixes(left, right)
    if trivial_edit_distance(*stripped) is not None:
        return
    value, exact = bounded_levenshtein(stripped[0], stripped[1], radius)
    true_distance = LevenshteinDistance._dp_distance(*stripped)
    if true_distance <= radius:
        assert exact and value == true_distance
    else:
        assert not exact and radius < value <= true_distance


def test_bounded_distance_caches_exact_and_lower_bounds():
    engine = gram_free_engine()
    query, candidates = ("kitten",), [("sitting",)]
    assert engine.nearest(query, candidates, 1.0) == (None, math.inf)
    assert engine.stats.band_prunes + engine.stats.length_prunes == 1
    # the lower bound answers a repeat of the too-tight query from cache ...
    assert engine.nearest(query, candidates, 1.0) == (None, math.inf)
    assert engine.stats.lower_bound_hits == 1
    # ... but a wider cutoff recomputes and gets the exact value
    assert engine.nearest(query, candidates, 5.0) == (0, 3.0)
    assert engine.distance("kitten", "sitting") == 3.0
    assert engine.stats.cache_hits >= 2


# ----------------------------------------------------------------------
# the engine: cache, interning, values_distance
# ----------------------------------------------------------------------
def test_values_distance_matches_metric_bit_for_bit():
    metric = CosineDistance()
    engine = DistanceEngine(metric)
    left = ("DOTHAN", "AL", "2567938400")
    right = ("DOTH", "AK", "2567938411")
    assert engine.values_distance(left, right) == metric.values_distance(left, right)
    # cached second ask returns the identical floats
    assert engine.values_distance(left, right) == metric.values_distance(left, right)
    assert engine.stats.cache_hits == 3


def test_values_distance_cutoff_short_circuits_exactly():
    engine = gram_free_engine()
    left = ("AAAA", "BBBB", "CCCC")
    right = ("AXAA", "BXBB", "CXCC")  # true per-pair distance 1 each
    assert engine.nearest(left, [right], 3.0) == (0, 3.0)
    # a fresh cache: the sum passes the cutoff at the second attribute
    engine = gram_free_engine()
    assert engine.nearest(left, [right], 1.0) == (None, math.inf)
    assert engine.stats.value_short_circuits == 1
    # mismatched tuple lengths are rejected like the metric rejects them
    with pytest.raises(ValueError):
        engine.values_distance(("a",), ("a", "b"))


def test_cache_hit_statistics_and_symmetry():
    engine = DistanceEngine(LevenshteinDistance())
    assert engine.distance("DOTHAN", "BOAZ") == engine.distance("BOAZ", "DOTHAN")
    assert engine.stats.calls == 2
    assert engine.stats.cache_hits == 1  # symmetric pair served from cache
    assert engine.stats.raw_evaluations == 1
    assert 0.0 < engine.stats.hit_rate < 1.0


def test_interning_returns_canonical_instances():
    engine = DistanceEngine(LevenshteinDistance())
    first = engine.intern("DOTHAN")
    second = engine.intern("DOTH" + "AN")
    assert first is second
    assert engine.intern_values(["A", "B"]) == ("A", "B")


def test_max_entries_flushes_wholesale():
    engine = DistanceEngine(LevenshteinDistance(), max_entries=2)
    engine.distance("a", "bb")
    engine.distance("a", "ccc")
    engine.distance("a", "dddd")  # exceeds the bound: cache flushed first
    assert engine.stats.cache_evictions == 1
    assert engine.cache_size() == 1
    with pytest.raises(ValueError):
        DistanceEngine(LevenshteinDistance(), max_entries=0)


def test_max_entries_also_bounds_the_lower_bound_cache():
    # Prune-heavy workloads populate the lower-bound side almost
    # exclusively; the bound must count those entries too.
    engine = gram_free_engine(max_entries=2)
    engine.nearest(("aaaa",), [("zzzz",)], 0.0)   # lower bound stored
    engine.nearest(("bbbb",), [("yyyy",)], 0.0)
    engine.nearest(("cccc",), [("xxxx",)], 0.0)   # hits the bound: flush
    assert engine.stats.cache_evictions == 1
    assert len(engine._lower) == 1 and engine.cache_size() == 0


def test_release_invalidates_only_dead_values():
    engine = DistanceEngine(LevenshteinDistance(), track_values=True)
    engine.retain(["DOTHAN", "BOAZ"])
    engine.retain(["DOTHAN"])  # second reference from another tuple
    engine.distance("DOTHAN", "BOAZ")
    engine.release(["BOAZ"])  # refcount 0 → pair purged
    assert engine.stats.invalidated_pairs == 1
    assert engine.cache_size() == 0
    engine.distance("DOTHAN", "BOAZ")
    engine.release(["DOTHAN"])  # still referenced once → cache intact
    assert engine.stats.invalidated_pairs == 1
    assert engine.cache_size() == 1


def test_stats_merge_diff_and_absorb():
    stats = DistanceStats(calls=10, cache_hits=4)
    other = DistanceStats(calls=5, cache_hits=1)
    merged = stats.merge(other)
    assert (merged.calls, merged.cache_hits) == (15, 5)
    assert merged.diff(other).calls == 10
    engine = DistanceEngine(LevenshteinDistance())
    before = global_distance_stats()
    engine.absorb_stats(other)
    assert engine.stats.calls == 5
    assert global_distance_stats().diff(before).calls == 5


def test_engine_collected_under_the_registry_lock_does_not_deadlock():
    # Cyclic garbage collection can retire an engine inside any allocation,
    # including one made while the registry lock is held (a fold in
    # progress); the retirement must not wait for that lock.
    from repro.perf import engine as engine_module

    dying = DistanceEngine(LevenshteinDistance())
    dying.distance("a", "bb")
    before = global_distance_stats()
    with engine_module._ACCUM_LOCK:
        del dying  # the weakref callback fires here
    # the retired counters still count, exactly once
    assert global_distance_stats().diff(before).calls == 0
    assert not engine_module._RETIRING


# ----------------------------------------------------------------------
# equivalence: cache on/off, parallel vs serial
# ----------------------------------------------------------------------
def test_cache_enabled_run_is_bit_identical_to_disabled_on_hospital_sample():
    instance = small_instance("hospital-sample", tuples=60)
    reports = {}
    for cached in (True, False):
        config = MLNCleanConfig(abnormal_threshold=1, distance_cache=cached)
        reports[cached] = session_for_instance(instance, config=config).run()
    assert tables_equal(reports[True].cleaned, reports[False].cleaned)
    assert tables_equal(reports[True].repaired, reports[False].repaired)
    assert reports[True].f1 == reports[False].f1
    assert reports[True].details.distance["cache_hits"] > 0
    assert reports[False].details.distance["cache_hits"] == 0


@pytest.mark.parametrize("workload_name", sorted(available_workloads()))
def test_parallel_two_equals_serial_on_every_workload(workload_name):
    instance = small_instance(workload_name, tuples=80)
    serial = session_for_instance(instance, backend="batch").run()
    parallel = session_for_instance(
        instance, backend="batch", parallelism=2
    ).run()
    assert tables_equal(serial.cleaned, parallel.cleaned)
    assert tables_equal(serial.repaired, parallel.repaired)
    assert serial.f1 == parallel.f1
    # merged stage outcomes match the serial fold
    assert vars(serial.agp.counts) == vars(parallel.agp.counts)
    assert vars(serial.rsc.counts) == vars(parallel.rsc.counts)
    assert len(serial.rsc.repairs) == len(parallel.rsc.repairs)
    assert parallel.details.parallelism == 2


def test_parallel_custom_stage_orders_equal_serial():
    instance = small_instance("hospital-sample", tuples=80)
    config = MLNCleanConfig(abnormal_threshold=1)
    for stages in (["agp", "rsc", "fscr"], ["agp", "fscr"]):
        serial = MLNClean(config, stages=stages).clean(
            instance.dirty, instance.rules, instance.ground_truth
        )
        parallel = MLNClean(config, stages=stages, parallelism=2).clean(
            instance.dirty, instance.rules, instance.ground_truth
        )
        assert serial.cleaned.equals(parallel.cleaned)
        assert serial.repaired.equals(parallel.repaired)
        assert serial.f1 == parallel.f1
        assert vars(serial.agp.counts) == vars(parallel.agp.counts)
        assert vars(serial.fscr.counts) == vars(parallel.fscr.counts)
        assert (serial.rsc is None) == (parallel.rsc is None)
        if serial.rsc is not None:
            assert vars(serial.rsc.counts) == vars(parallel.rsc.counts)
        # parallel Stage I reports its stages as separate phases
        assert set(parallel.timings.phases) == set(serial.timings.phases)
    with pytest.raises(ValueError):
        MLNClean(parallelism=0)


def test_clean_blocks_parallel_in_process_reuses_shared_engine(
    sample_table, sample_rules
):
    config = MLNCleanConfig(abnormal_threshold=1)
    blocks = MLNIndex.build(sample_table, sample_rules).block_list
    shared = DistanceEngine.from_config(config)
    agp = AbnormalGroupProcessor(config, engine=shared)
    results = map_blocks(agp.process_block, blocks, 1, shared)
    # in process: the blocks are mutated in place, through the shared cache
    assert all(block is original for (block, _), original in zip(results, blocks))
    assert shared.stats.calls > 0


def test_clean_blocks_parallel_preserves_block_order(sample_table, sample_rules):
    config = MLNCleanConfig(abnormal_threshold=1)
    blocks = MLNIndex.build(sample_table, sample_rules).block_list
    engine = DistanceEngine.from_config(config)
    agp = AbnormalGroupProcessor(config, engine=engine)
    results = map_blocks(agp.process_block, blocks, 2, engine)
    assert [block.name for block, _ in results] == [b.name for b in blocks]
    outcomes = [outcome for _, outcome in results]
    merged, _ = merge_stage_outcomes(outcomes, [])
    assert merged.detected_abnormal_groups == sum(
        outcome.detected_abnormal_groups for outcome in outcomes
    )
    serial_engine = DistanceEngine.from_config(config)
    serial_blocks = MLNIndex.build(sample_table, sample_rules).block_list
    serial = AbnormalGroupProcessor(config, engine=serial_engine).process_index(
        serial_blocks
    )
    # every pair request is counted once, whichever process made it
    assert engine.stats.calls == serial_engine.stats.calls > 0
    assert vars(merged.counts) == vars(serial.counts)
    assert [m.as_json_dict() for m in merged.merges] == [
        m.as_json_dict() for m in serial.merges
    ]


# ----------------------------------------------------------------------
# report surfacing
# ----------------------------------------------------------------------
def test_batch_report_surfaces_perf_details():
    instance = small_instance("hospital-sample", tuples=48)
    report = session_for_instance(instance).run()
    details = report.details
    assert isinstance(details, PerfDetails)
    assert set(details.timings) >= {"index", "agp", "rsc", "fscr"}
    assert details.distance["calls"] > 0
    assert "hit rate" in details.describe()
    assert details.as_dict()["parallelism"] == 1


def test_distributed_report_carries_stage_outcomes_and_stats():
    instance = small_instance("hospital-sample", tuples=48)
    report = session_for_instance(instance, backend="distributed", workers=2).run()
    distributed = report.details
    assert distributed.distance_stats["calls"] > 0
    assert distributed.agp is not None and distributed.rsc is not None


# ----------------------------------------------------------------------
# RSC invariant hoist + persistent streaming cache (regression)
# ----------------------------------------------------------------------
def test_recleaning_unchanged_block_runs_no_raw_evaluations(sample_table, sample_rules):
    config = MLNCleanConfig(abnormal_threshold=1)
    engine = DistanceEngine.from_config(config)
    cleaner = ReliabilityScoreCleaner(config, engine=engine)
    first_blocks = MLNIndex.build(sample_table, sample_rules).block_list
    cleaner.clean_index(first_blocks)
    raw_after_first = engine.stats.raw_evaluations
    assert raw_after_first > 0
    # the streaming-replay shape: the same (unchanged) block is re-cleaned —
    # every γ-pair distance must come back from the shared engine's cache
    second_blocks = MLNIndex.build(sample_table, sample_rules).block_list
    cleaner.clean_index(second_blocks)
    assert engine.stats.raw_evaluations == raw_after_first


def test_streaming_engine_persists_across_batches_and_stays_equivalent():
    instance = small_instance("hospital-sample", tuples=60)
    config = MLNCleanConfig(abnormal_threshold=1)
    batch_report = MLNClean(config).clean(instance.dirty, instance.rules)

    engine = StreamingMLNClean(instance.rules, schema=instance.dirty.attributes, config=config)
    assert engine.engine.cache_size() == 0
    for start in range(0, len(instance.dirty.tids), 12):
        tids = instance.dirty.tids[start : start + 12]
        engine.apply_batch(DeltaBatch.from_table(instance.dirty.subset(tids)))
    assert tables_equal(engine.cleaned, batch_report.cleaned)
    stats = engine.engine.stats
    assert stats.cache_hits > 0  # the cache carried over between batches
    assert engine.report().details.engine is engine.engine


def test_window_eviction_invalidates_cache_entries():
    generator = get_workload_generator("hospital-sample", tuples=36, seed=7)
    instance = generator.build().make_instance(ErrorSpec(error_rate=0.1, seed=5))
    engine = StreamingMLNClean(
        instance.rules,
        schema=instance.dirty.attributes,
        config=MLNCleanConfig(abnormal_threshold=1),
        window=TumblingWindow(size=12),
    )
    for start in range(0, len(instance.dirty.tids), 12):
        tids = instance.dirty.tids[start : start + 12]
        engine.apply_batch(DeltaBatch.from_table(instance.dirty.subset(tids)))
    assert engine.engine.stats.invalidated_pairs >= 0
    # every retained value is still reference-counted; evicted tuples are not
    retained_values = {
        value
        for tid in engine.dirty.tids
        for value in engine.dirty.row(tid).as_dict().values()
    }
    assert set(engine.engine._refcounts) == retained_values


# ----------------------------------------------------------------------
# config knobs
# ----------------------------------------------------------------------
def test_config_engine_honours_cache_knobs():
    config = MLNCleanConfig(distance_cache=False, distance_cache_entries=None)
    engine = config.engine()
    assert engine.cache_enabled is False
    bounded = MLNCleanConfig(distance_cache_entries=128).engine(track_values=True)
    assert bounded.max_entries == 128 and bounded.track_values is True
    with pytest.raises(ValueError):
        MLNCleanConfig(distance_cache_entries=0)


@settings(deadline=None)
@given(short_text, short_text)
def test_engine_distance_equals_metric_distance(left, right):
    metric = LevenshteinDistance()
    engine = DistanceEngine(metric)
    assert engine.distance(left, right) == metric.distance(left, right)
    assert engine.distance(left, right) == metric.distance(left, right)


def test_bounded_distance_with_infinite_cutoff_is_exact():
    engine = DistanceEngine(LevenshteinDistance())
    assert engine.nearest(("kitten",), [("sitting",)], math.inf) == (0, 3.0)
