"""The evaluation stage of a round: the paper's experiment plus the
cross-backend paths.

Its operations are ``run_loocv`` on Trinity (all four methods plus the
oracle), native ``run_loocv`` on ``biglittle`` and ``mpsoc``, and
``run_transfer("trinity", "biglittle", ks=(0, 1, 3, 5))``, on the
workload seed, whose characterization stores set-up fills.  Cold, the
Trinity run instead draws a seed not characterized before in the
process for every pass and runs on a fresh store, so it characterizes
that seed first.
"""

from __future__ import annotations

import json

import numpy as np
import repro.core.model as model_mod
import repro.evaluation.harness as harness_mod
import repro.evaluation.loocv as loocv_mod
import repro.evaluation.transfer as transfer_mod
from repro.core.classifier import ClusterClassifier
from repro.core.model import AdaptiveModel
from repro.core.predictor import OnlinePredictor
from repro.core.scheduler import Scheduler
from repro.evaluation.golden import records_digest
from repro.evaluation.metrics import summarize
from repro.hardware.apu import TrinityAPU
from repro.hardware.backend import AnalyticalBackend
from repro.hardware.rapl import FrequencyLimiter
from repro.methods.base import PowerLimitMethod
from repro.methods.model_method import ModelMethod, ModelPlusFL
from repro.methods.oracle import Oracle
from repro.profiling.library import ProfilingLibrary
from repro.profiling.store import CharacterizationStore
from repro.workloads.suite import build_suite

from perfbench.common import ROOT, median

GOLDEN_DIGEST = ROOT / "tests" / "golden" / "loocv_seed0.sha256"
BACKENDS = ("trinity", "biglittle", "mpsoc")
TRANSFER_KS = (0, 1, 3, 5)


def _method_span(self, *args, **kwargs) -> str:
    return f"methods.{self.name.replace('+', '_')}.decide_many"


class LoocvStage:
    METRICS = [
        "loocv_s",
        "backends_loocv_s",
        "transfer_s",
        "model_under_limit_pct",
        "model_perf_vs_oracle_pct",
    ]
    LAYERS = [
        "hardware.run.calls",
        "hardware.run.self_s",
        "hardware.true_table.calls",
        "hardware.true_table.self_s",
        "hardware.limiter.calls",
        "hardware.limiter.self_s",
        "profiling.characterize.self_s",
        "profiling.profile.calls",
        "profiling.profile.self_s",
        "profiling.dissimilarity.self_s",
        "core.train.calls",
        "core.train.self_s",
        "core.cluster.self_s",
        "core.regression.self_s",
        "core.classifier.self_s",
        "core.predict.calls",
        "core.predict.self_s",
        "core.sweep_table.calls",
        "core.sweep_table.self_s",
        "core.select.calls",
        "methods.Model.decide_many.self_s",
        "methods.Model_FL.decide_many.self_s",
        "methods.CPU_FL.decide_many.self_s",
        "methods.GPU_FL.decide_many.self_s",
        "methods.Oracle.decide_many.self_s",
        "evaluation.evaluate_kernel.calls",
        "evaluation.evaluate_kernel.self_s",
        "evaluation.transfer.self_s",
    ]

    def __init__(self, seed: int, ledger, cold: bool) -> None:
        self.seed = seed
        self.ledger = ledger
        self.cold = cold
        self.rng = np.random.default_rng([seed, 1])
        #: Trinity digest of every run, by seed, in run order.
        self.digests: dict[int, list[str]] = {}
        self.transfer_rows: list[str] = []
        self.quality: list[tuple[float, float]] = []

    def setup(self) -> None:
        """Characterize the workload seed on every backend (the stores
        the warm runs draw from)."""
        suite = build_suite()
        kernels = list(suite)
        for backend in BACKENDS:
            store = CharacterizationStore.shared(suite, seed=self.seed, backend=backend)
            store.characterize(kernels)

    # -- operations ---------------------------------------------------------

    def _fresh_seed(self) -> int:
        while True:
            seed = int(self.rng.integers(1_000, 2**31))
            if seed != self.seed and seed not in self.digests:
                return seed

    def _trinity(self):
        if self.cold:
            seed = self._fresh_seed()
            report = loocv_mod.run_loocv(
                seed=seed, store=CharacterizationStore(seed=seed)
            )
        else:
            seed = self.seed
            report = loocv_mod.run_loocv(seed=seed)

        def verify() -> None:
            self.digests.setdefault(seed, []).append(records_digest(report.records))
            model = summarize(report.records, method="Model")[0]
            self.quality.append((model.pct_under_limit, model.under_perf_pct))

        return verify

    def _backends(self) -> None:
        for backend in BACKENDS[1:]:
            loocv_mod.run_loocv(seed=self.seed, backend=backend)

    def _transfer(self):
        report = transfer_mod.run_transfer(
            "trinity", "biglittle", ks=TRANSFER_KS, seed=self.seed
        )
        return lambda: self.transfer_rows.append(
            json.dumps(report.to_dict(), sort_keys=True)
        )

    def ops(self):
        return [
            ("loocv_s", self._trinity),
            ("backends_loocv_s", self._backends),
            ("transfer_s", self._transfer),
        ]

    def e2e(self, samples) -> dict:
        return {
            "loocv_s": (median(samples["loocv_s"]), "s"),
            "backends_loocv_s": (median(samples["backends_loocv_s"]), "s"),
            "transfer_s": (median(samples["transfer_s"]), "s"),
            "model_under_limit_pct": (median(q[0] for q in self.quality), "%"),
            "model_perf_vs_oracle_pct": (median(q[1] for q in self.quality), "%"),
        }

    # -- checks -------------------------------------------------------------

    def _fresh_digest(self, seed: int) -> str:
        return records_digest(
            loocv_mod.run_loocv(seed=seed, store=CharacterizationStore(seed=seed)).records
        )

    def check(self) -> None:
        """Same seed, same records: across warm runs, or (cold) between a
        round's run and a rerun on a fresh store; the seed-0 records
        match the golden digest; transfer reports repeat."""
        led = self.ledger
        led.check("loocv-ran", bool(self.digests) and bool(self.quality))
        if self.cold:
            first = next(iter(self.digests), None)
            rerun = led.call("loocv-rerun", lambda: self._fresh_digest(first))
            led.check(
                "loocv-digest-repeatable",
                first is not None and self.digests[first] == [rerun],
            )
        else:
            digests = self.digests.get(self.seed, [])
            led.check(
                "loocv-digest-repeatable",
                len(digests) >= 2 and len(set(digests)) == 1,
                f"digests {sorted(set(digests))}",
            )
        led.check(
            "transfer-repeatable",
            len(self.transfer_rows) >= 2 and len(set(self.transfer_rows)) == 1,
        )
        if not self.cold and self.seed == 0:
            digest = self.digests.get(0, [""])[0]
        else:
            digest = led.call("loocv-seed0", lambda: self._fresh_digest(0))
        golden = GOLDEN_DIGEST.read_text().strip()
        led.check("loocv-golden-digest", digest == golden, f"{digest} != {golden}")

    # -- tracing ------------------------------------------------------------

    def instrument(self, patcher) -> None:
        wrap = patcher.wrap
        for cls in (TrinityAPU, AnalyticalBackend):
            wrap(cls, "run", "hardware.run")
            wrap(cls, "true_table", "hardware.true_table")
        for attr in ("limit", "limit_gpu_with_headroom", "limit_cpu_all_cores"):
            wrap(FrequencyLimiter, attr, "hardware.limiter")
        wrap(CharacterizationStore, "characterize", "profiling.characterize")
        wrap(
            CharacterizationStore,
            "dissimilarity_submatrix",
            "profiling.dissimilarity",
        )
        wrap(ProfilingLibrary, "profile", "profiling.profile")
        wrap(AdaptiveModel, "train", "core.train")
        wrap(model_mod, "cluster_kernels", "core.cluster")
        wrap(loocv_mod, "cluster_kernels", "core.cluster")
        wrap(model_mod, "fit_cluster_models", "core.regression")
        wrap(ClusterClassifier, "fit", "core.classifier")
        wrap(OnlinePredictor, "predict", "core.predict")
        wrap(Scheduler, "sweep_table", "core.sweep_table")
        wrap(Scheduler, "select", "core.select")
        wrap(Scheduler, "select_many", "core.select")
        for cls in (PowerLimitMethod, ModelMethod, ModelPlusFL, Oracle):
            wrap(cls, "decide_many", _method_span)
        wrap(harness_mod, "evaluate_kernel", "evaluation.evaluate_kernel")
        wrap(transfer_mod, "run_transfer", "evaluation.transfer")
