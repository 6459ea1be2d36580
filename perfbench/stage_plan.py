"""The planning stage of a round: fleet allocation epochs with churn,
and NSGA-II.

Each round runs one allocation epoch on a synthesized 100k-node
``FrontierPool`` plus one NSGA-II run on ``demo_space()``.  The epoch
re-admits the nodes the previous epoch dropped, drops a random run of
1,000 consecutive nodes (so the pool's cached allocation orders are
invalidated and every epoch does the real work), then splits 1.3x the
summed floors of the active nodes: flat greedy with ``allocate_pool``
and hierarchically with ``BudgetTree.allocate``.
"""

from __future__ import annotations

import json

import numpy as np

import repro.cluster.allocation as allocation_mod
import repro.cluster.tree as tree_mod
import repro.search.engine as engine_mod
from repro.cluster.pool import FrontierPool
from repro.search.archive import EpsilonArchive
from repro.search.space import GeneratedConfigSpace, demo_space
from repro.workloads.suite import build_suite

from perfbench.common import median

N_NODES = 100_000
CHURN_NODES = 1_000
BUDGET_FACTOR = 1.3
SEARCH_KERNEL = "LU/Small/LUDecomposition"
SEARCH = dict(population=96, generations=200)
#: Fixed hypervolume reference power, so the metric compares across seeds
#: (the engine's default reference depends on the initial population).
HYPERVOLUME_REF_W = 60.0
# Relative slack for float summation in the budget check.
_TOL = 1e-9


def _n_genomes(space, kernel, genomes, *args, **kwargs) -> int:
    return len(genomes)


class PlanStage:
    METRICS = [
        "fleet_epoch_ms",
        "fleet_tree_epoch_ms",
        "fleet_rate",
        "search_s",
        "search_hypervolume",
    ]
    LAYERS = [
        "cluster.allocate.calls",
        "cluster.allocate.self_s",
        "cluster.deactivate.self_s",
        "cluster.activate.self_s",
        "cluster.tree_allocate.calls",
        "cluster.tree_allocate.self_s",
        "cluster.tree_level_allocate.calls",
        "cluster.tree_level_allocate.self_s",
        "search.run.self_s",
        "search.evaluate.calls",
        "search.evaluate.points",
        "search.evaluate.self_s",
        "search.archive_insert.self_s",
        "search.rank.self_s",
        "search.crowding.self_s",
    ]

    def __init__(self, seed: int, ledger) -> None:
        self.seed = seed
        self.ledger = ledger
        self.rng = np.random.default_rng(seed)
        self.dropped: list[str] = []
        self.rate = float("nan")
        self.search_result = None
        self.archives: list[str] = []

    def setup(self) -> None:
        self.pool = FrontierPool.synthesize(N_NODES, seed=self.seed)
        self.names = self.pool.active_names()
        self.tree = tree_mod.BudgetTree.regular(self.pool)
        self.space = demo_space()
        self.kernel = build_suite().get(SEARCH_KERNEL)

    # -- operations ---------------------------------------------------------

    def _slice(self, rng: np.random.Generator) -> list[str]:
        """A random run of consecutive nodes (about 31 racks)."""
        first = int(rng.integers(0, N_NODES - CHURN_NODES))
        return self.names[first : first + CHURN_NODES]

    def _churn(self, drop: list[str]) -> None:
        if self.dropped:
            self.pool.activate(self.dropped)
        self.pool.deactivate(drop)
        self.dropped = drop

    def _budget(self) -> float:
        return BUDGET_FACTOR * float(self.pool.floors().sum())

    def _check_caps(self, label: str, caps: np.ndarray, budget: float) -> None:
        floors = self.pool.floors()
        self.ledger.check(
            f"{label}-within-budget",
            float(caps.sum()) <= budget * (1.0 + _TOL),
            f"{float(caps.sum())} > {budget}",
        )
        self.ledger.check(
            f"{label}-above-floors",
            caps.shape == floors.shape and bool(np.all(caps >= floors * (1.0 - _TOL))),
        )

    def _greedy(self, label: str):
        """Flat greedy allocation of the epoch's budget; returns its check."""
        budget = self._budget()
        caps = allocation_mod.allocate_pool(self.pool, budget, "greedy")

        def verify() -> None:
            self._check_caps(label, caps, budget)
            summary = allocation_mod.pool_allocation_summary(self.pool, caps, budget)
            self.rate = summary["predicted_rate"]

        return verify

    def _epoch(self):
        self._churn(self._slice(self.rng))
        return self._greedy("flat")

    def _tree_epoch(self):
        budget = self._budget()
        caps = self.tree.allocate(budget)
        return lambda: self._check_caps("tree", caps, budget)

    def _search(self):
        self.search_result = engine_mod.nsga2_search(
            self.space,
            self.kernel,
            engine_mod.SearchConfig(seed=self.seed, **SEARCH),
            hypervolume_ref_w=HYPERVOLUME_REF_W,
        )
        archive = self.search_result.archive
        return lambda: self.archives.append(
            json.dumps(
                [
                    archive.genomes.tolist(),
                    archive.powers.tolist(),
                    archive.performances.tolist(),
                ]
            )
        )

    def ops(self):
        return [
            ("fleet_epoch_ms", self._epoch),
            ("fleet_tree_epoch_ms", self._tree_epoch),
            ("search_s", self._search),
        ]

    def closing_epoch(self) -> None:
        """A last epoch whose dropped slice depends only on the seed, so
        ``fleet_rate`` does not depend on how many epochs ran."""
        self._churn(self._slice(np.random.default_rng([self.seed, 1])))
        self._greedy("closing")()

    def e2e(self, samples) -> dict:
        self.ledger.call("closing-epoch", self.closing_epoch)
        return {
            "fleet_epoch_ms": (1e3 * median(samples["fleet_epoch_ms"]), "ms"),
            "fleet_tree_epoch_ms": (1e3 * median(samples["fleet_tree_epoch_ms"]), "ms"),
            "fleet_rate": (self.rate, "rate"),
            "search_s": (median(samples["search_s"]), "s"),
            "search_hypervolume": (self.search_result.hypervolume, "hv"),
        }

    # -- checks -------------------------------------------------------------

    def check(self) -> None:
        self.ledger.check(
            "search-archive-repeatable",
            len(self.archives) >= 2 and len(set(self.archives)) == 1,
        )
        self.ledger.check(
            "search-archive-nonempty",
            self.search_result is not None and len(self.search_result.archive) > 0,
        )

    # -- tracing ------------------------------------------------------------

    def instrument(self, patcher) -> None:
        wrap = patcher.wrap
        wrap(allocation_mod, "allocate_pool", "cluster.allocate")
        wrap(tree_mod, "allocate_pool", "cluster.tree_level_allocate")
        wrap(FrontierPool, "deactivate", "cluster.deactivate")
        wrap(FrontierPool, "activate", "cluster.activate")
        wrap(tree_mod.BudgetTree, "allocate", "cluster.tree_allocate")
        wrap(engine_mod, "nsga2_search", "search.run")
        wrap(GeneratedConfigSpace, "evaluate", "search.evaluate", amount=_n_genomes)
        wrap(EpsilonArchive, "insert", "search.archive_insert")
        wrap(engine_mod, "non_dominated_rank", "search.rank")
        wrap(engine_mod, "crowding_distance", "search.crowding")
