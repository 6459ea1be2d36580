"""Golden-record regression: ``run_loocv(seed=0)`` is bit-frozen on
every registered backend.

The digest committed at ``tests/golden/loocv_seed0.sha256`` (Trinity)
or ``tests/golden/loocv_seed0_<backend>.sha256`` is the SHA-256 of the
canonicalized record sequence (floats rendered via ``float.hex``, so a
match means every bit of every float is identical).  Any change that
perturbs the pipeline's numerical results — machine physics, noise
stream, frontier construction, method decisions, record ordering —
fails here instead of slipping through unnoticed.

The same freeze covers the fault path — seed-0 LOOCV under each
committed plan of ``tests/fault_plans/``
(``loocv_seed0_fault_<plan>.sha256``) — and the ``trinity → biglittle``
transfer report (``transfer_trinity_biglittle_seed0.sha256``: the
SHA-256 of its ``to_dict()`` as sorted-key JSON).

To re-freeze after an *intentional* behavioural change::

    PYTHONPATH=src python -c "
    from repro.evaluation import records_digest, run_loocv
    print(records_digest(run_loocv(seed=0, backend='biglittle').records))
    " > tests/golden/loocv_seed0_biglittle.sha256

and explain the perturbation in the commit message.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.evaluation import canonical_record, record_lines, records_digest, run_loocv
from repro.evaluation.transfer import run_transfer
from repro.faults import FaultPlan
from repro.profiling.store import CharacterizationStore

GOLDEN_DIR = Path(__file__).parent / "golden"
PLAN_DIR = Path(__file__).parent / "fault_plans"
GOLDEN_PATH = GOLDEN_DIR / "loocv_seed0.sha256"
BACKEND_GOLDEN_PATHS = {
    "trinity": GOLDEN_PATH,
    "biglittle": GOLDEN_DIR / "loocv_seed0_biglittle.sha256",
    "mpsoc": GOLDEN_DIR / "loocv_seed0_mpsoc.sha256",
}


def golden_digest(backend: str = "trinity") -> str:
    return BACKEND_GOLDEN_PATHS[backend].read_text().strip()


@pytest.fixture(scope="module")
def seed0_records():
    return run_loocv(seed=0).records


class TestCanonicalization:
    def test_canonical_record_is_json_safe(self, seed0_records) -> None:
        payload = canonical_record(seed0_records[0])
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped == payload

    def test_record_lines_are_order_sensitive(self, seed0_records) -> None:
        forward = record_lines(seed0_records[:4])
        assert forward == record_lines(seed0_records[:4])
        reversed_digest = records_digest(reversed(seed0_records[:4]))
        assert reversed_digest != records_digest(seed0_records[:4])

    def test_digest_sensitive_to_single_bit(self, seed0_records) -> None:
        import dataclasses

        base = seed0_records[:4]
        nudged = list(base)
        record = nudged[0]
        nudged[0] = dataclasses.replace(
            record, power_w=record.power_w + record.power_w * 2.0**-52
        )
        assert records_digest(nudged) != records_digest(base)


class TestGoldenRecord:
    def test_golden_file_is_a_sha256(self) -> None:
        digest = golden_digest()
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex

    def test_seed0_matches_golden(self, seed0_records) -> None:
        assert records_digest(seed0_records) == golden_digest()

    def test_empty_fault_plan_matches_golden(self) -> None:
        report = run_loocv(seed=0, fault_plan=FaultPlan(name="empty"))
        assert records_digest(report.records) == golden_digest()


def test_every_registered_backend_has_a_golden_digest() -> None:
    from repro.hardware.backend import backend_names

    assert set(backend_names()) == set(BACKEND_GOLDEN_PATHS)


@pytest.mark.parametrize("backend", sorted(BACKEND_GOLDEN_PATHS))
class TestBackendGoldenRecords:
    """The same freeze for every registered backend: the digests are the
    guard on each backend's machine model."""

    def test_golden_file_is_a_sha256(self, backend) -> None:
        digest = golden_digest(backend)
        assert len(digest) == 64
        int(digest, 16)

    def test_seed0_matches_golden(self, backend, seed0_records) -> None:
        records = (
            seed0_records
            if backend == "trinity"
            else run_loocv(seed=0, backend=backend).records
        )
        assert records_digest(records) == golden_digest(backend)


@pytest.mark.parametrize("plan", ["sensor_dropout", "stuck_pstate", "mixed_chaos"])
def test_fault_plan_seed0_matches_golden(plan) -> None:
    """Seed-0 LOOCV under a committed fault plan, on a fresh store."""
    report = run_loocv(
        seed=0,
        fault_plan=FaultPlan.from_file(PLAN_DIR / f"{plan}.json"),
        store=CharacterizationStore(seed=0),
    )
    golden = (GOLDEN_DIR / f"loocv_seed0_fault_{plan}.sha256").read_text().strip()
    assert records_digest(report.records) == golden


def test_transfer_seed0_matches_golden() -> None:
    report = run_transfer("trinity", "biglittle", seed=0)
    payload = json.dumps(report.to_dict(), sort_keys=True).encode()
    golden = (GOLDEN_DIR / "transfer_trinity_biglittle_seed0.sha256").read_text()
    assert hashlib.sha256(payload).hexdigest() == golden.strip()
