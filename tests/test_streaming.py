"""Tests for the streaming subsystem: deltas, incremental index, engine, windows.

The headline property is *replay equivalence*: feeding a table through
``StreamingMLNClean`` as micro-batches of deltas produces exactly the
cleaned table that batch ``MLNClean`` produces on the same data, rules and
configuration — for pure inserts, and after updates and deletes as well.
"""

from __future__ import annotations

import json
import random
import re

import pytest

from repro.core.config import MLNCleanConfig
from repro.core.index import MLNIndex
from repro.core.pipeline import MLNClean
from repro.errors.injector import ErrorSpec
from repro.metrics.component import StageCounts
from repro.streaming import (
    Delete,
    DeltaBatch,
    IncrementalMLNIndex,
    Insert,
    SampleHospitalWorkloadGenerator,
    SlidingWindow,
    StreamingMLNClean,
    TableStreamSource,
    TumblingWindow,
    Update,
    WorkloadStreamSource,
)
from repro.workloads.registry import (
    available_workloads,
    get_workload_generator,
    register_workload,
)


# ----------------------------------------------------------------------
# deltas
# ----------------------------------------------------------------------
def test_delta_batch_from_table_preserves_tids(sample_table):
    batch = DeltaBatch.from_table(sample_table)
    assert batch.counts() == {"inserts": 6, "updates": 0, "deletes": 0}
    assert [delta.tid for delta in batch.inserts] == sample_table.tids
    assert batch.inserts[1].values == sample_table.row(1).as_dict()


def test_delta_batch_from_records_assigns_consecutive_tids():
    batch = DeltaBatch.from_records([{"A": "x"}, {"A": "y"}], start_tid=10)
    assert [delta.tid for delta in batch.inserts] == [10, 11]
    assert len(batch) == 2 and bool(batch)
    assert not DeltaBatch()


# ----------------------------------------------------------------------
# incremental index maintenance
# ----------------------------------------------------------------------
def test_incremental_add_maintains_support_counts(sample_table, sample_rules):
    index = IncrementalMLNIndex.from_table(sample_table, sample_rules)
    assert index.statistics() == MLNIndex.build(sample_table, sample_rules).statistics()
    # t1/t2 share the DOTHAN γ of r1 (reason CT, result ST)
    block = index.block("r1")
    piece = block.piece_of_tid(0)
    assert piece.support == 2 and sorted(piece.tids) == [0, 2]


def test_incremental_remove_drops_empty_pieces_and_groups(sample_table, sample_rules):
    index = IncrementalMLNIndex.from_table(sample_table, sample_rules)
    block = index.block("r1")
    groups_before = len(block.groups)
    # tid 1 is the only member of the spurious DOTH group
    dirtied = index.remove_tuple(1, sample_table.row(1).as_dict())
    assert ("DOTH",) in dirtied["r1"]
    assert len(block.groups) == groups_before - 1
    assert block.group_of_tid(1) is None
    # removing one of two supporters only decrements the count
    index.remove_tuple(0, sample_table.row(0).as_dict())
    remaining = block.piece_of_tid(2)
    assert remaining.support == 1 and remaining.tids == [2]


def test_incremental_update_rehomes_only_touched_blocks(sample_table, sample_rules):
    index = IncrementalMLNIndex.from_table(sample_table, sample_rules)
    old_values = sample_table.row(1).as_dict()
    new_values = dict(old_values, CT="DOTHAN")
    dirtied = index.update_tuple(1, old_values, new_values)
    # r1 (CT -> ST) vacates DOTH and enters DOTHAN; r2 (PN -> ST) ignores CT
    assert set(dirtied["r1"]) == {("DOTH",), ("DOTHAN",)}
    assert "r2" not in dirtied
    assert index.block("r1").piece_of_tid(1).reason_values == ("DOTHAN",)
    # identity-preserving change: no block is dirtied
    assert index.update_tuple(1, new_values, dict(new_values)) == {}


def test_canonical_block_matches_batch_build_after_any_history(sample_table, sample_rules):
    # Build the same final table along a convoluted delta history...
    index = IncrementalMLNIndex(sample_rules)
    rows = {tid: sample_table.row(tid).as_dict() for tid in sample_table.tids}
    for tid in [3, 0, 5, 1, 4, 2]:
        index.add_tuple(tid, rows[tid])
    index.remove_tuple(4, rows[4])
    index.add_tuple(4, dict(rows[4], CT="XXXX"))
    index.update_tuple(4, dict(rows[4], CT="XXXX"), rows[4])
    # ...and compare each canonical clone against a fresh batch build.
    reference = MLNIndex.build(sample_table, sample_rules)
    for rule in sample_rules:
        clone = index.canonical_block(rule.name)
        ref_block = reference.block(rule.name)
        assert list(clone.groups.keys()) == list(ref_block.groups.keys())
        for key, group in clone.groups.items():
            ref_group = ref_block.groups[key]
            assert list(group.pieces.keys()) == list(ref_group.pieces.keys())
            for piece_key, piece in group.pieces.items():
                assert piece.tids == sorted(ref_group.pieces[piece_key].tids)


# ----------------------------------------------------------------------
# replay equivalence with batch MLNClean
# ----------------------------------------------------------------------
def test_replay_equivalence_on_hospital_sample(sample_table, sample_rules):
    config = MLNCleanConfig(abnormal_threshold=1)
    batch_report = MLNClean(config).clean(sample_table.copy(), sample_rules)
    engine = StreamingMLNClean(sample_rules, sample_table.attributes, config=config)
    engine.consume(TableStreamSource(sample_table, batch_size=2))
    assert engine.repaired.equals(batch_report.repaired)
    assert engine.cleaned.equals(batch_report.cleaned)


def test_replay_equivalence_on_injected_workload():
    source = WorkloadStreamSource(
        "hai", tuples=120, batch_size=40, error_spec=ErrorSpec(error_rate=0.06)
    )
    config = MLNCleanConfig.for_dataset("hai")
    batch_report = MLNClean(config).clean(
        source.dirty.copy(), source.rules, source.ground_truth
    )
    engine = StreamingMLNClean(source.rules, source.schema, config=config)
    reports = engine.consume(source)
    assert len(reports) == 3
    assert engine.repaired.equals(batch_report.repaired)
    assert engine.cleaned.equals(batch_report.cleaned)
    # the streamed ground truth accumulates to the full ledger's accuracy
    assert reports[-1].accuracy is not None
    assert reports[-1].accuracy.f1 == pytest.approx(batch_report.accuracy.f1)


def test_updates_and_deletes_stay_equivalent():
    source = WorkloadStreamSource(
        "hai", tuples=100, batch_size=100, error_spec=ErrorSpec(error_rate=0.05)
    )
    config = MLNCleanConfig.for_dataset("hai")
    engine = StreamingMLNClean(source.rules, source.schema, config=config)
    engine.consume(source)
    victim, gone = engine.dirty.tids[3], engine.dirty.tids[7]
    report = engine.apply_batch(
        DeltaBatch([Update(victim, {"City": "NOWHERE"}), Delete(gone)])
    )
    assert not engine.dirty.has_tid(gone)
    assert engine.dirty.value(victim, "City") == "NOWHERE"
    assert report.delta_counts["deletes"] == 1
    reference = MLNClean(config).clean(engine.dirty.copy(), source.rules)
    assert engine.repaired.equals(reference.repaired)
    assert engine.cleaned.equals(reference.cleaned)


def test_localized_update_recleans_only_dirtied_blocks():
    # τ = 1 keeps AGP merges local, so a one-tuple edit cannot cascade into
    # a block-wide winner flip (τ = 10 on a table this small collapses the
    # whole block into one group and legitimately re-fuses everything).
    source = WorkloadStreamSource("hai", tuples=100, batch_size=100)
    config = MLNCleanConfig(abnormal_threshold=1)
    engine = StreamingMLNClean(source.rules, source.schema, config=config)
    engine.consume(source)
    # MeasureName appears in exactly one of HAI's seven rules
    report = engine.apply_batch(
        DeltaBatch([Update(engine.dirty.tids[0], {"MeasureName": "ODDBALL"})])
    )
    assert report.affected_blocks == ["hai_r4"]
    assert len(report.resolved_tids) < len(engine.dirty) // 2


def test_empty_batch_is_a_cheap_noop(sample_table, sample_rules):
    engine = StreamingMLNClean(sample_rules, sample_table.attributes)
    engine.apply_batch(DeltaBatch.from_table(sample_table))
    before = engine.cleaned.copy()
    report = engine.apply_batch(DeltaBatch())
    assert report.affected_blocks == [] and report.resolved_tids == []
    assert engine.cleaned.equals(before)


def test_empty_tick_on_an_empty_stream(sample_rules, sample_table):
    # the service coalescer can tick a shard that has never seen data; the
    # engine must treat that as a sound no-op, not a degenerate state
    engine = StreamingMLNClean(sample_rules, sample_table.attributes)
    report = engine.apply_batch(DeltaBatch())
    assert report.sequence == 0 and report.tuples_total == 0
    assert report.delta_counts == {"inserts": 0, "updates": 0, "deletes": 0}
    assert len(engine.cleaned) == 0
    assert engine.batches_applied == 1


def test_delete_of_unknown_key_is_rejected_before_mutation(sample_table, sample_rules):
    engine = StreamingMLNClean(sample_rules, sample_table.attributes)
    # on a virgin stream…
    with pytest.raises(KeyError, match="42"):
        engine.apply_batch(DeltaBatch([Delete(42)]))
    assert engine.batches_applied == 0 and len(engine.dirty) == 0
    # …and after data arrived, mixed into an otherwise valid batch
    engine.apply_batch(DeltaBatch.from_table(sample_table))
    snapshot = engine.dirty.copy()
    row = sample_table.row(0).as_dict()
    with pytest.raises(KeyError, match="42"):
        engine.apply_batch(DeltaBatch([Insert(row), Delete(42)]))
    assert engine.dirty.equals(snapshot)


# ----------------------------------------------------------------------
# batch validation
# ----------------------------------------------------------------------
def test_malformed_batches_are_rejected_before_mutation(sample_table, sample_rules):
    engine = StreamingMLNClean(sample_rules, sample_table.attributes)
    engine.apply_batch(DeltaBatch.from_table(sample_table))
    snapshot = engine.dirty.copy()
    with pytest.raises(KeyError):
        engine.apply_batch(DeltaBatch([Update(999, {"CT": "X"})]))
    with pytest.raises(KeyError):
        engine.apply_batch(DeltaBatch([Update(0, {"NOPE": "X"})]))
    with pytest.raises(ValueError):
        engine.apply_batch(DeltaBatch([Insert(sample_table.row(0).as_dict(), tid=0)]))
    with pytest.raises(KeyError):
        engine.apply_batch(DeltaBatch([Delete(0), Delete(0)]))
    # an auto-assigned tid colliding with a later explicit one is caught
    # up front too, before any state is mutated
    row = sample_table.row(0).as_dict()
    with pytest.raises(ValueError):
        engine.apply_batch(
            DeltaBatch([Insert(row), Insert(row, tid=engine.dirty.next_tid)])
        )
    assert engine.dirty.equals(snapshot)


def test_insert_delete_same_batch_never_enters_window(sample_table, sample_rules):
    engine = StreamingMLNClean(
        sample_rules, sample_table.attributes, window=SlidingWindow(size=2)
    )
    row = sample_table.row(0).as_dict()
    engine.apply_batch(DeltaBatch([Insert(row, tid=0), Delete(0)]))
    assert engine.window.retained == []
    # overflowing the window later must not trip over the dead tid
    engine.apply_batch(DeltaBatch.from_table(sample_table, tids=[1, 2, 3]))
    assert engine.window.retained == [2, 3]
    assert sorted(engine.dirty.tids) == [2, 3]


# ----------------------------------------------------------------------
# window policies
# ----------------------------------------------------------------------
def test_tumbling_window_expires_whole_spans():
    window = TumblingWindow(size=3)
    assert window.observe([0, 1, 2]) == []
    assert window.retained == [0, 1, 2]
    # the 4th arrival opens a new span: the previous span expires wholesale
    assert window.observe([3, 4]) == [0, 1, 2]
    assert window.retained == [3, 4]
    window.forget([4])
    assert window.retained == [3]


def test_sliding_window_expires_oldest_first():
    window = SlidingWindow(size=3)
    assert window.observe([0, 1, 2, 3, 4]) == [0, 1]
    assert window.retained == [2, 3, 4]
    window.forget([3])
    assert window.observe([5, 6]) == [2]
    assert window.retained == [4, 5, 6]


def test_window_validation():
    with pytest.raises(ValueError):
        TumblingWindow(0)
    with pytest.raises(ValueError):
        SlidingWindow(-1)


def test_window_that_evicts_everything_mid_stream(sample_table, sample_rules):
    """A shard whose window expires every retained tuple keeps working."""
    config = MLNCleanConfig(abnormal_threshold=1)
    engine = StreamingMLNClean(
        sample_rules,
        sample_table.attributes,
        config=config,
        window=TumblingWindow(size=3),
    )
    first = engine.apply_batch(DeltaBatch.from_table(sample_table, tids=[0, 1, 2]))
    assert first.evicted_tids == []
    # the next span opens: the whole previous span leaves the window
    second = engine.apply_batch(DeltaBatch.from_table(sample_table, tids=[3, 4, 5]))
    assert sorted(second.evicted_tids) == [0, 1, 2]
    # user deletes now empty the stream entirely, mid-stream
    emptied = engine.apply_batch(DeltaBatch([Delete(3), Delete(4), Delete(5)]))
    assert emptied.tuples_total == 0
    assert len(engine.dirty) == 0 and len(engine.cleaned) == 0
    # an empty tick on the emptied stream is still a sound no-op
    engine.apply_batch(DeltaBatch())
    # and the stream recovers: new arrivals clean exactly like a batch run
    engine.apply_batch(DeltaBatch.from_table(sample_table, tids=[0, 1]))
    reference = MLNClean(config).clean(engine.dirty.copy(), sample_rules)
    assert engine.cleaned.equals(reference.cleaned)


def test_delta_json_codec_round_trip(sample_table):
    from repro.streaming import delta_from_json_dict, delta_to_json_dict

    batch = DeltaBatch(
        [
            Insert(values=sample_table.row(0).as_dict()),
            Insert(values=sample_table.row(1).as_dict(), tid=9),
            Update(3, {"CT": "DOTHAN"}),
            Delete(5),
        ]
    )
    encoded = batch.to_json_list()
    assert [e["op"] for e in encoded] == ["insert", "insert", "update", "delete"]
    assert "tid" not in encoded[0] and encoded[1]["tid"] == 9
    decoded = DeltaBatch.from_json_list(encoded)
    assert decoded.to_json_list() == encoded
    assert decoded.counts() == batch.counts()
    for bad in (
        {"op": "teleport"},
        {"op": "insert"},
        {"op": "update", "tid": 1},
        {"op": "delete"},
        "not-an-object",
    ):
        with pytest.raises(ValueError):
            delta_from_json_dict(bad)
    with pytest.raises(TypeError):
        delta_to_json_dict("nope")  # type: ignore[arg-type]


def test_engine_evicts_expired_tuples_through_delta_path():
    source = WorkloadStreamSource("hai", tuples=90, batch_size=30)
    config = MLNCleanConfig.for_dataset("hai")
    engine = StreamingMLNClean(
        source.rules, source.schema, config=config, window=SlidingWindow(size=45)
    )
    reports = engine.consume(source)
    assert len(engine.dirty) == 45
    assert sum(len(r.evicted_tids) for r in reports) == 45
    # evicted tuples left the index too: per-block tuple counts match the table
    stats = engine.index.statistics()
    assert all(entry["tuples"] <= 45 for entry in stats.values())
    # the retained suffix cleans exactly like a batch run over it
    reference = MLNClean(config).clean(engine.dirty.copy(), source.rules)
    assert engine.cleaned.equals(reference.cleaned)


# ----------------------------------------------------------------------
# sources and the workload registry hook
# ----------------------------------------------------------------------
def test_table_stream_source_partitions_ground_truth():
    source = WorkloadStreamSource(
        "car", tuples=80, batch_size=32, error_spec=ErrorSpec(error_rate=0.08)
    )
    batches = list(source)
    assert len(batches) == len(source) == 3
    sliced = sum(len(batch.ground_truth) for batch in batches)
    assert sliced == len(source.ground_truth) > 0
    streamed_tids = [
        delta.tid for batch in batches for delta in batch.deltas.inserts
    ]
    assert streamed_tids == sorted(source.dirty.tids)


def test_hospital_sample_workload_is_registered():
    assert "hospital-sample" in available_workloads()
    generator = get_workload_generator("hospital-sample", tuples=12)
    assert isinstance(generator, SampleHospitalWorkloadGenerator)
    workload = generator.build()
    assert len(workload.clean) == 12
    assert [rule.name for rule in workload.rules] == ["r1", "r2", "r3"]


def test_register_workload_guards():
    register_workload("hospital-sample", SampleHospitalWorkloadGenerator)  # no-op
    with pytest.raises(ValueError):
        register_workload("hospital-sample", type(get_workload_generator("hai")))
    with pytest.raises(TypeError):
        register_workload("bogus", dict)  # type: ignore[arg-type]


def test_streaming_cumulative_report():
    source = WorkloadStreamSource(
        "hospital-sample", tuples=24, batch_size=8, error_spec=ErrorSpec(error_rate=0.1)
    )
    engine = StreamingMLNClean(source.rules, source.schema)
    engine.consume(source)
    report = engine.report()
    assert report.dirty is engine.dirty
    assert report.cleaned.equals(engine.cleaned)
    assert report.accuracy is not None
    assert report.runtime > 0.0
    assert engine.batches_applied == 3


def _perturb_revert_pairs(engine, attribute, pairs, per_tick=5, seed=3):
    """Apply ``pairs`` (perturb, revert) update-tick pairs on ``attribute``."""
    rng = random.Random(seed)
    domain = sorted({engine.dirty.value(tid, attribute) for tid in engine.dirty.tids})
    reports = []
    for _ in range(pairs):
        chosen = rng.sample(engine.dirty.tids, per_tick)
        loaded = {tid: engine.dirty.value(tid, attribute) for tid in chosen}
        perturb = DeltaBatch(
            [
                Update(tid, {attribute: rng.choice([v for v in domain if v != loaded[tid]])})
                for tid in chosen
            ]
        )
        revert = DeltaBatch([Update(tid, {attribute: loaded[tid]}) for tid in chosen])
        reports += [engine.apply_batch(perturb), engine.apply_batch(revert)]
    return reports


def test_streaming_state_stays_bounded_over_ticks():
    """The cumulative totals hold counters only: a snapshot after 50
    perturb/revert pairs has the shape (and, numbers aside, the length) of
    one after a single pair, and the cumulative counts are the sum of the
    per-tick ones."""
    source = WorkloadStreamSource(
        "hai", tuples=200, batch_size=100, error_spec=ErrorSpec(error_rate=0.1)
    )
    engine = StreamingMLNClean(
        source.rules, source.schema, config=MLNCleanConfig(abnormal_threshold=3)
    )
    reports = engine.consume(source)

    def snapshot_shape() -> str:
        # counters gain digits as ticks accumulate; everything else must not grow
        return re.sub(r"\d+", "0", json.dumps(engine.state_dict()))

    reports += _perturb_revert_pairs(engine, "CountyName", 1)
    after_one = snapshot_shape()
    reports += _perturb_revert_pairs(engine, "CountyName", 49, seed=4)
    assert sum(len(report.agp.merges) + len(report.rsc.repairs) for report in reports)
    assert len(snapshot_shape()) == len(after_one)

    cumulative = engine.report()
    for stage in ("agp", "rsc"):
        total = StageCounts()
        for report in reports:
            total = total.merge(getattr(report, stage).counts)
        assert getattr(cumulative, stage).counts.as_dict() == total.as_dict()
    assert any(cumulative.agp.counts.as_dict().values())
    assert cumulative.agp.merges == [] and cumulative.rsc.repairs == []


def test_restore_reads_snapshots_that_carry_outcome_lists():
    """Snapshots written while the totals kept every merge and repair still
    restore (snapshot format 1); the lists are dropped on the way in."""
    source = WorkloadStreamSource(
        "hai", tuples=200, batch_size=100, error_spec=ErrorSpec(error_rate=0.1)
    )
    config = MLNCleanConfig(abnormal_threshold=3)
    engine = StreamingMLNClean(source.rules, source.schema, config=config)
    reports = engine.consume(source)
    state = json.loads(json.dumps(engine.state_dict()))
    legacy = json.loads(json.dumps(state))
    legacy["agp_total"]["merges"] = [
        merge.as_json_dict() for report in reports for merge in report.agp.merges
    ]
    legacy["rsc_total"]["repairs"] = [
        repair.as_json_dict() for report in reports for repair in report.rsc.repairs
    ]
    assert legacy["agp_total"]["merges"] and legacy["rsc_total"]["repairs"]
    restored = StreamingMLNClean(source.rules, source.schema, config=config)
    restored.restore_state(legacy)
    assert restored.state_dict() == state
    assert restored.cleaned.equals(engine.cleaned)
