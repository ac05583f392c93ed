"""Unit tests for the AGP, RSC, FSCR and deduplication stages.

The worked examples of the paper (Sections 4-5) serve as the reference: the
abnormal group G12 merges into G11, the γ {CT: BOAZ, ST: AL} wins group G13,
tuple t3 fuses to {ELIZA, BOAZ, AL, 2567688400}, and the duplicates collapse.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints.rules import FunctionalDependency
from repro.core.agp import AbnormalGroupProcessor
from repro.core.config import MLNCleanConfig
from repro.core.dedup import remove_duplicates
from repro.core.fscr import FusionScoreResolver, _Assignments
from repro.core.index import Block, DataPiece, MLNIndex
from repro.core.rsc import ReliabilityScoreCleaner
from repro.dataset.sample import sample_hospital_clean_table
from repro.dataset.table import Table


@pytest.fixture
def clean_lookup(sample_clean_table):
    return lambda tid: sample_clean_table.row(tid).as_dict()


def build_index(sample_table, sample_rules):
    return MLNIndex.build(sample_table, sample_rules)


# ----------------------------------------------------------------------
# AGP
# ----------------------------------------------------------------------
def test_agp_merges_doth_group_into_dothan(sample_table, sample_rules, sample_config):
    index = build_index(sample_table, sample_rules)
    agp = AbnormalGroupProcessor(sample_config)
    outcome = agp.process_block(index.block("r1"))
    merge_targets = {m.abnormal_key: m.target_key for m in outcome.merges}
    assert merge_targets[("DOTH",)] == ("DOTHAN",)
    assert ("DOTH",) not in index.block("r1").groups


def test_agp_detects_expected_abnormal_groups(sample_table, sample_rules, sample_config):
    """With τ = 1 the sample has abnormal groups G12, G22 and G31."""
    index = build_index(sample_table, sample_rules)
    agp = AbnormalGroupProcessor(sample_config)
    outcome = agp.process_index(index.block_list)
    abnormal_keys = {merge.abnormal_key for merge in outcome.merges}
    assert ("DOTH",) in abnormal_keys  # G12
    assert ("2567638410",) in abnormal_keys  # G22
    assert ("ELIZA", "DOTHAN") in abnormal_keys  # G31
    assert outcome.detected_abnormal_groups == 3


def test_agp_threshold_zero_detects_nothing(sample_table, sample_rules):
    index = build_index(sample_table, sample_rules)
    agp = AbnormalGroupProcessor(MLNCleanConfig(abnormal_threshold=0))
    outcome = agp.process_index(index.block_list)
    assert outcome.detected_abnormal_groups == 0
    assert outcome.merges == []


def test_agp_large_threshold_leaves_groups_without_target(sample_table, sample_rules):
    """When every group is abnormal there is no normal group to merge into."""
    index = build_index(sample_table, sample_rules)
    agp = AbnormalGroupProcessor(MLNCleanConfig(abnormal_threshold=10))
    outcome = agp.process_index(index.block_list)
    assert outcome.skipped_without_target == outcome.detected_abnormal_groups
    assert outcome.merges == []


def test_agp_instrumentation_counts(sample_table, sample_rules, sample_config, clean_lookup):
    index = build_index(sample_table, sample_rules)
    agp = AbnormalGroupProcessor(sample_config)
    outcome = agp.process_index(index.block_list, clean_lookup)
    assert outcome.counts.detected_abnormal_groups == 3
    assert outcome.counts.correctly_merged_groups >= 2
    assert outcome.counts.real_abnormal_groups >= 2


def test_agp_is_idempotent(sample_table, sample_rules, sample_config):
    index = build_index(sample_table, sample_rules)
    agp = AbnormalGroupProcessor(sample_config)
    agp.process_index(index.block_list)
    second = agp.process_index(index.block_list)
    assert second.merges == []


# ----------------------------------------------------------------------
# RSC
# ----------------------------------------------------------------------
def test_rsc_example2_winner(sample_table, sample_rules, sample_config):
    """In group G13 the γ {BOAZ, AL} (support 2) beats {BOAZ, AK}."""
    index = build_index(sample_table, sample_rules)
    block = index.block("r1")
    rsc = ReliabilityScoreCleaner(sample_config)
    rsc.learn_block_weights(block)
    group = block.groups[("BOAZ",)]
    scores = rsc.reliability_scores(group)
    winner = max(group.gammas, key=lambda piece: scores[piece])
    assert winner.result_values == ("AL",)


def test_rsc_leaves_single_gamma_per_group(sample_table, sample_rules, sample_config):
    index = build_index(sample_table, sample_rules)
    AbnormalGroupProcessor(sample_config).process_index(index.block_list)
    ReliabilityScoreCleaner(sample_config).clean_index(index.block_list)
    for block in index.block_list:
        for group in block.group_list:
            assert group.is_resolved()
            assert group.size == 1


def test_rsc_preserves_tuple_coverage(sample_table, sample_rules, sample_config):
    index = build_index(sample_table, sample_rules)
    AbnormalGroupProcessor(sample_config).process_index(index.block_list)
    ReliabilityScoreCleaner(sample_config).clean_index(index.block_list)
    block = index.block("r1")
    covered = sorted(tid for group in block.group_list for tid in group.tids)
    assert covered == sample_table.tids


def test_rsc_skips_resolved_groups(sample_table, sample_rules, sample_config):
    index = build_index(sample_table, sample_rules)
    AbnormalGroupProcessor(sample_config).process_index(index.block_list)
    outcome = ReliabilityScoreCleaner(sample_config).clean_index(index.block_list)
    assert outcome.skipped_groups >= 1
    assert outcome.cleaned_groups >= 1


def test_rsc_instrumentation(sample_table, sample_rules, sample_config, clean_lookup):
    index = build_index(sample_table, sample_rules)
    AbnormalGroupProcessor(sample_config).process_index(index.block_list, clean_lookup)
    outcome = ReliabilityScoreCleaner(sample_config).clean_index(
        index.block_list, clean_lookup
    )
    assert outcome.counts.repaired_gammas > 0
    assert outcome.counts.correctly_repaired_gammas > 0
    assert (
        outcome.counts.correctly_repaired_gammas <= outcome.counts.repaired_gammas
    )


def test_rsc_relearn_flag(sample_table, sample_rules, sample_config):
    index = build_index(sample_table, sample_rules)
    block = index.block("r1")
    for piece in block.pieces:
        piece.weight = 5.0
    ReliabilityScoreCleaner(sample_config).clean_block(block, relearn_weights=False)
    # weights were not overwritten by the learner
    assert all(piece.weight == 5.0 for piece in block.pieces)


# ----------------------------------------------------------------------
# FSCR + dedup
# ----------------------------------------------------------------------
def stage_one(sample_table, sample_rules, sample_config):
    index = MLNIndex.build(sample_table, sample_rules)
    AbnormalGroupProcessor(sample_config).process_index(index.block_list)
    ReliabilityScoreCleaner(sample_config).clean_index(index.block_list)
    return index


def test_fscr_example3_tuple_t3(sample_table, sample_rules, sample_config):
    index = stage_one(sample_table, sample_rules, sample_config)
    outcome = FusionScoreResolver(sample_config).resolve(sample_table, index.block_list)
    repaired_t3 = outcome.repaired.row(2).as_dict()
    assert repaired_t3 == {
        "HN": "ELIZA",
        "CT": "BOAZ",
        "ST": "AL",
        "PN": "2567688400",
    }


def test_fscr_output_has_no_violations(sample_table, sample_rules, sample_config):
    from repro.constraints.violations import is_consistent

    index = stage_one(sample_table, sample_rules, sample_config)
    outcome = FusionScoreResolver(sample_config).resolve(sample_table, index.block_list)
    assert is_consistent(outcome.repaired, sample_rules)


def test_fscr_matches_paper_clean_table(sample_table, sample_rules, sample_config):
    index = stage_one(sample_table, sample_rules, sample_config)
    outcome = FusionScoreResolver(sample_config).resolve(sample_table, index.block_list)
    assert outcome.repaired.equals(sample_hospital_clean_table())


def test_fscr_keeps_all_tuples(sample_table, sample_rules, sample_config):
    index = stage_one(sample_table, sample_rules, sample_config)
    outcome = FusionScoreResolver(sample_config).resolve(sample_table, index.block_list)
    assert sorted(outcome.repaired.tids) == sample_table.tids


def test_fscr_fusions_have_positive_scores(sample_table, sample_rules, sample_config):
    index = stage_one(sample_table, sample_rules, sample_config)
    outcome = FusionScoreResolver(sample_config).resolve(sample_table, index.block_list)
    assert outcome.fusions
    assert all(fusion.f_score > 0 for fusion in outcome.fusions.values())


FUSION_ATTRIBUTES = ("A", "B", "C", "D")


@st.composite
def fusion_signatures(draw):
    """One tuple's data versions (one γ per rule block), every block's
    substitution pool sorted by weight, and the tuple's current values.

    Version values copy a hidden "true" row unless a value is perturbed
    (one draw in four), so conflict-free and conflicting signatures both
    occur often.
    """
    truth = {a: draw(st.sampled_from("xy")) for a in FUSION_ATTRIBUTES}
    current = {a: draw(st.sampled_from("xyz")) for a in FUSION_ATTRIBUTES}
    weights = st.floats(-3.0, 3.0, allow_nan=False)
    versions, candidates = [], {}
    for index in range(draw(st.integers(1, 7))):
        attributes = draw(
            st.lists(
                st.sampled_from(FUSION_ATTRIBUTES), min_size=2, max_size=3, unique=True
            )
        )
        rule = FunctionalDependency(attributes[:1], attributes[1:], name=f"r{index}")

        def piece():
            values = tuple(
                draw(st.sampled_from("xyz")) if draw(st.integers(0, 3)) == 0 else truth[a]
                for a in attributes
            )
            gamma = DataPiece(rule, values[:1], values[1:])
            gamma.weight = draw(weights)
            return gamma

        version = piece()
        pool = [version] + [piece() for _ in range(draw(st.integers(0, 2)))]
        pool.sort(key=lambda gamma: gamma.weight, reverse=True)
        versions.append((Block(rule), version))
        candidates[rule.name] = pool
    return versions, candidates, current


@settings(max_examples=300, deadline=None)
@given(
    signature=fusion_signatures(),
    exhaustive_limit=st.sampled_from([1, 5]),
    minimality_bias=st.sampled_from([0.0, 1.0]),
)
def test_conflict_free_fusion_equals_the_order_search(
    signature, exhaustive_limit, minimality_bias
):
    """Versions that agree pairwise fuse in one pass to exactly the result of
    the merge-order search (exhaustive up to 5 versions, greedy beyond the
    limit); the score may differ only by the rounding of its product."""
    versions, candidates, current = signature
    resolver = FusionScoreResolver(
        MLNCleanConfig(
            fscr_exhaustive_limit=exhaustive_limit,
            fscr_minimality_bias=minimality_bias,
        )
    )
    assignments = [piece.as_assignment() for _, piece in versions]
    agree = all(
        left[attribute] == right[attribute]
        for left in assignments
        for right in assignments
        for attribute in left.keys() & right.keys()
    )
    fused = resolver._fuse_conflict_free(versions, current, _Assignments())
    assert (fused is not None) == agree
    if fused is None:
        return
    searched = resolver._search_orders(versions, candidates, current, _Assignments())
    assert searched is not None
    assignment, f_score, conflicted, substitutions = fused
    assert assignment == searched[0]
    assert conflicted == searched[2] == frozenset()
    assert substitutions == searched[3] == 0
    assert f_score == pytest.approx(searched[1], rel=1e-12, abs=0.0)
    # the resolver's entry point takes the one-pass fusion
    assert resolver._fuse_signature(versions, candidates, current, _Assignments()) == fused


def test_dedup_removes_exact_duplicates():
    table = Table.from_records(
        [{"A": "x", "B": "1"}, {"A": "x", "B": "1"}, {"A": "y", "B": "2"}]
    )
    result = remove_duplicates(table)
    assert result.removed_tids == [1]
    assert len(result.deduplicated) == 2
    assert result.duplicate_classes == [[0, 1]]


def test_dedup_keeps_lowest_tid(sample_table, sample_rules, sample_config):
    index = stage_one(sample_table, sample_rules, sample_config)
    outcome = FusionScoreResolver(sample_config).resolve(sample_table, index.block_list)
    result = remove_duplicates(outcome.repaired)
    assert sorted(result.deduplicated.tids) == [0, 2]
    assert result.removed_count == 4


def test_dedup_no_duplicates_noop():
    table = Table.from_records([{"A": "x"}, {"A": "y"}])
    result = remove_duplicates(table)
    assert result.removed_count == 0
    assert result.deduplicated.equals(table)
