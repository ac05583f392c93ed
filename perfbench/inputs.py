"""Seeded inputs of the benchmark workloads.

Every workload is defined by its inputs: a generated table, the errors
injected into it, and (for the stream workloads) a stream of update ticks.
Each of the three is drawn from its own seed, so a claim can be re-checked
on fresh data while holding the rest fixed.  The program under test only
ever receives the generated tables, rules and delta batches.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro import DeltaBatch, ErrorSpec, MLNCleanConfig, Table, Update
from repro.workloads import WorkloadInstance, get_workload_generator

#: offsets turning the one ``--seed`` of a run into three independent seeds
ERROR_SEED_OFFSET = 1000
DELTA_SEED_OFFSET = 2000


@dataclass(frozen=True)
class Seeds:
    """The seeds of one run: clean-table generator, error injector, deltas."""

    workload: int
    error: int
    delta: int

    @classmethod
    def derive(
        cls,
        seed: int,
        workload: int | None = None,
        error: int | None = None,
        delta: int | None = None,
    ) -> "Seeds":
        """Seeds from ``--seed``; an explicit per-input seed overrides its part."""
        return cls(
            workload=seed if workload is None else workload,
            error=seed + ERROR_SEED_OFFSET if error is None else error,
            delta=seed + DELTA_SEED_OFFSET if delta is None else delta,
        )


@dataclass(frozen=True)
class TableSpec:
    """A dirty table: generator, size, error rate, and the AGP threshold τ."""

    dataset: str
    tuples: int
    error_rate: float
    threshold: int

    def config(self) -> MLNCleanConfig:
        return MLNCleanConfig(abnormal_threshold=self.threshold)

    def instance(self, seeds: Seeds) -> WorkloadInstance:
        """Generate the clean table and inject the errors."""
        generator = get_workload_generator(
            self.dataset, tuples=self.tuples, seed=seeds.workload
        )
        return generator.build().make_instance(
            ErrorSpec(error_rate=self.error_rate, seed=seeds.error)
        )


def digest(table: Table) -> str:
    """A content hash of a table: schema, tuple ids and values, not its name."""
    attributes = table.attributes
    hasher = hashlib.sha256(repr(attributes).encode())
    for tid in sorted(table.tids):
        hasher.update(repr((tid, table.row(tid).values_for(attributes))).encode())
    return hasher.hexdigest()


class UpdatePairs:
    """Update ticks on one attribute, in (perturb, revert) pairs.

    A perturb tick sets the attribute of ``per_tick`` tuples to another value
    of its domain; the revert tick restores their loaded values.  The table
    therefore returns to its loaded state after every pair, so the workload
    does not drift with the number of ticks a run manages, and the injected
    ground truth still scores the final table.
    """

    def __init__(
        self, dirty: Table, tids: list[int], attribute: str, per_tick: int, seed: int
    ):
        self.attribute = attribute
        self.per_tick = per_tick
        self._rng = random.Random(seed)
        self._tids = sorted(tids)
        self._domain = dirty.domain(attribute)
        self._loaded = {tid: dirty.value(tid, attribute) for tid in self._tids}

    def next_pair(self) -> tuple[DeltaBatch, DeltaBatch]:
        chosen = self._rng.sample(self._tids, self.per_tick)
        perturb = DeltaBatch(
            [
                Update(
                    tid,
                    {
                        self.attribute: self._domain.sample(
                            self._rng, exclude=self._loaded[tid]
                        )
                    },
                )
                for tid in chosen
            ]
        )
        revert = DeltaBatch(
            [Update(tid, {self.attribute: self._loaded[tid]}) for tid in chosen]
        )
        return perturb, revert
