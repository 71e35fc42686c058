"""Tests for the accounting types: the step trace and the cost ledger."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.radio import Charge, CostLedger, StepTrace


class TestStepTrace:
    def test_records_totals(self):
        trace = StepTrace()
        trace.record_step(transmissions=3, receptions=2)
        trace.record_step(transmissions=1, receptions=0)
        assert trace.total_steps == 2
        assert trace.total_transmissions == 4
        assert trace.total_receptions == 2

    def test_phase_attribution(self):
        trace = StepTrace()
        trace.record_step(1, 1)
        trace.enter_phase("mis/eed")
        trace.record_step(2, 0)
        trace.record_step(2, 0)
        assert trace.steps_in_phase("default") == 1
        assert trace.steps_in_phase("mis/eed") == 2
        assert trace.steps_in_phase("missing") == 0

    def test_current_phase(self):
        trace = StepTrace()
        assert trace.current_phase == "default"
        trace.enter_phase("x")
        assert trace.current_phase == "x"

    def test_summary_mentions_phases(self):
        trace = StepTrace()
        trace.enter_phase("icp")
        trace.record_step(1, 1)
        assert "icp" in trace.summary()


class TestCostLedger:
    def test_totals_by_category(self):
        ledger = CostLedger()
        ledger.charge(100, "mis", "setup")
        ledger.charge(40, "icp", "propagation")
        ledger.charge(60, "icp", "propagation")
        assert ledger.total == 200
        assert ledger.setup_total == 100
        assert ledger.propagation_total == 100

    def test_by_reason_groups(self):
        ledger = CostLedger()
        ledger.charge(10, "icp")
        ledger.charge(5, "icp")
        ledger.charge(1, "seq", "setup")
        assert ledger.by_reason() == {"icp": 15, "seq": 1}

    def test_rejects_unknown_category(self):
        with pytest.raises(ValueError):
            CostLedger().charge(1, "x", "banana")

    def test_rejects_negative_rounds(self):
        with pytest.raises(ValueError):
            CostLedger().charge(-1, "x")

    def test_itemized_preserves_order(self):
        ledger = CostLedger()
        ledger.charge(1, "a", "setup")
        ledger.charge(2, "b")
        items = ledger.itemized()
        assert items == [Charge(1, "a", "setup"), Charge(2, "b", "propagation")]

    def test_summary_contains_totals(self):
        ledger = CostLedger()
        ledger.charge(7, "icp")
        assert "7" in ledger.summary()

    @given(st.lists(st.integers(min_value=0, max_value=1000)))
    def test_total_is_sum(self, rounds):
        ledger = CostLedger()
        for r in rounds:
            ledger.charge(r, "x")
        assert ledger.total == sum(rounds)
