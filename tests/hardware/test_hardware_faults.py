"""Fault primitives: validation, composition, cost wrapping."""

import pytest

from repro.errors import ConfigError
from repro.hardware.cost_model import AnalyticCostModel
from repro.hardware.faults import (
    NEUTRAL_STATE,
    DegradationState,
    DegradedCostModel,
    Fault,
    FaultSchedule,
)
from repro.hardware.platform_presets import get_hardware_preset
from repro.models.config import ExpertShape

SHAPE = ExpertShape(d_model=64, d_ff=256)


def _fault(**overrides):
    fields = dict(
        kind="link_degrade", replica=0, at_time=1.0, duration=2.0, severity=0.5
    )
    fields.update(overrides)
    return Fault(**fields)


class TestHardwareFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault kind"):
            _fault(kind="power_loss")

    def test_negative_replica_and_time_rejected(self):
        with pytest.raises(ConfigError, match="replica"):
            _fault(replica=-1)
        with pytest.raises(ConfigError, match="at_time"):
            _fault(at_time=-0.5)

    def test_non_positive_duration_rejected(self):
        with pytest.raises(ConfigError, match="positive duration"):
            _fault(duration=0.0)

    def test_link_degrade_severity_must_be_bandwidth_fraction(self):
        for severity in (0.0, 1.0, 1.5):
            with pytest.raises(ConfigError, match="in \\(0, 1\\)"):
                _fault(kind="link_degrade", severity=severity)

    def test_gpu_straggler_severity_must_slow_down(self):
        with pytest.raises(ConfigError, match="must be > 1"):
            _fault(kind="gpu_straggler", severity=0.9)

    def test_disk_stall_rejects_severity(self):
        with pytest.raises(ConfigError, match="take no severity"):
            _fault(kind="disk_stall", severity=0.5)

    def test_window_containment(self):
        fault = _fault()
        assert not fault.active(0.999)
        assert fault.active(1.0)
        assert fault.active(2.999)
        assert not fault.active(3.0)  # end instant is exclusive


class TestScheduleValidation:
    def test_overlapping_same_kind_same_replica_rejected(self):
        with pytest.raises(ConfigError, match="overlapping"):
            FaultSchedule([_fault(), _fault(at_time=2.5)])

    def test_exact_duplicate_rejected(self):
        with pytest.raises(ConfigError, match="overlapping"):
            FaultSchedule([_fault(), _fault()])

    def test_same_kind_different_replicas_allowed(self):
        schedule = FaultSchedule([_fault(), _fault(replica=1)])
        assert len(schedule) == 2

    def test_different_kinds_may_overlap(self):
        schedule = FaultSchedule(
            [
                _fault(),
                _fault(kind="gpu_straggler", severity=2.0),
                _fault(kind="disk_stall", severity=1.0),
            ]
        )
        assert len(schedule.active_faults(0, 1.5)) == 3

    def test_back_to_back_windows_allowed(self):
        # [1, 3) then [3, 4): touching endpoints do not overlap.
        schedule = FaultSchedule(
            [_fault(), _fault(at_time=3.0, duration=1.0)]
        )
        assert len(schedule) == 2

    def test_hardware_for_slices_preserving_ids(self):
        slow = Fault("slow", 2, at_time=1.0, duration=1.0)
        schedule = FaultSchedule([_fault(), _fault(replica=2), slow])
        sliced = schedule.hardware_for(2)
        assert [(f.kind, f.replica) for f in sliced] == [("link_degrade", 2)]
        # A replica with no hardware faults gets None: its session then
        # skips degradation bookkeeping entirely.
        assert FaultSchedule([slow]).hardware_for(2) is None

    def test_families_validate_independently(self):
        # A slow window overlapping a same-replica hardware window, and
        # two crashes on different replicas, are all legal together.
        schedule = FaultSchedule(
            [
                _fault(),
                Fault("slow", 0, at_time=1.5, duration=1.0),
                Fault("crash", 0, at_time=2.0),
                Fault("crash", 1, at_time=2.0),
            ]
        )
        assert len(schedule) == 4
        assert [f.replica for f in schedule.crashes()] == [0, 1]


class TestStateComposition:
    def test_neutral_outside_every_window(self):
        schedule = FaultSchedule([_fault()])
        assert schedule.state_at(0.0) is NEUTRAL_STATE
        assert schedule.state_at(10.0) is NEUTRAL_STATE
        assert not schedule.degraded(0, 0.0)

    def test_slowdowns_multiply_across_kinds(self):
        schedule = FaultSchedule(
            [
                _fault(severity=0.5),
                _fault(kind="gpu_straggler", severity=3.0),
            ]
        )
        state = schedule.state_at(1.5)
        assert state.pcie_slowdown == pytest.approx(2.0)
        assert state.gpu_slowdown == pytest.approx(3.0)

    def test_disk_stall_charges_remaining_window(self):
        schedule = FaultSchedule(
            [_fault(kind="disk_stall", severity=1.0)]
        )
        assert schedule.state_at(1.0).disk_stall_s == pytest.approx(2.0)
        assert schedule.state_at(2.5).disk_stall_s == pytest.approx(0.5)

    def test_queries_split_by_family(self):
        # Slow windows are routing blackouts, not degradation: they
        # never reach the cost models or the degradation log. Hardware
        # windows never black a replica out of routing.
        slow = Fault("slow", 0, at_time=1.0, duration=2.0)
        schedule = FaultSchedule([slow, _fault(replica=1)])
        assert schedule.blacked_out(0, 1.5)
        assert not schedule.blacked_out(1, 1.5)
        assert not schedule.degraded(0, 1.5)
        assert schedule.active_faults(0, 1.5) == ()
        assert schedule.state_at(1.5, replica=0) is NEUTRAL_STATE
        assert schedule.degraded(1, 1.5)

    def test_other_replica_sees_neutral(self):
        schedule = FaultSchedule([_fault(replica=1)])
        assert schedule.state_at(1.5, replica=0) is NEUTRAL_STATE
        assert schedule.degraded(1, 1.5)
        assert not schedule.degraded(0, 1.5)


class TestDegradedCostModel:
    @pytest.fixture()
    def model(self):
        return DegradedCostModel(AnalyticCostModel(get_hardware_preset("paper")))

    def test_neutral_state_returns_base_floats_unchanged(self, model):
        base = model.base
        # Bit-identity, not approx: neutral must apply no arithmetic.
        assert model.gpu_expert_time(SHAPE, 7) == base.gpu_expert_time(SHAPE, 7)
        assert model.transfer_time(SHAPE) == base.transfer_time(SHAPE)
        assert model.disk_transfer_time(SHAPE) == base.disk_transfer_time(SHAPE)
        assert model.attention_time(64, 3) == base.attention_time(64, 3)
        assert model.cpu_expert_time(SHAPE, 7) == base.cpu_expert_time(SHAPE, 7)

    def test_degraded_state_scales_the_right_resources(self, model):
        base = model.base
        assert model.set_state(
            DegradationState(
                gpu_slowdown=2.0, pcie_slowdown=4.0, disk_stall_s=0.25
            )
        )
        assert model.gpu_expert_time(SHAPE, 7) == pytest.approx(
            2.0 * base.gpu_expert_time(SHAPE, 7)
        )
        assert model.attention_time(64, 3) == pytest.approx(
            2.0 * base.attention_time(64, 3)
        )
        # CPU-side work is untouched by a GPU straggler.
        assert model.cpu_expert_time(SHAPE, 7) == base.cpu_expert_time(SHAPE, 7)
        assert model.attention_time(64, 3, device="cpu") == base.attention_time(
            64, 3, device="cpu"
        )
        assert model.transfer_time(SHAPE) == pytest.approx(
            4.0 * base.transfer_time(SHAPE)
        )
        assert model.disk_transfer_time(SHAPE) == pytest.approx(
            base.disk_transfer_time(SHAPE) + 0.25
        )

    def test_set_state_reports_change(self, model):
        state = DegradationState(gpu_slowdown=2.0)
        assert model.set_state(state)
        assert not model.set_state(state)  # idempotent re-apply
        assert model.set_state(NEUTRAL_STATE)
        assert model.state.is_neutral
