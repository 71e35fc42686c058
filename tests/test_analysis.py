"""Tests for the experiment harness helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import (
    TextTable,
    TrialStats,
    fit_power_law,
    geometric_sizes,
    run_trials,
    success_rate,
)


class TestTrialStats:
    def test_from_values(self):
        stats = TrialStats.from_values([1.0, 2.0, 3.0])
        assert stats.mean == 2.0
        assert stats.minimum == 1.0
        assert stats.maximum == 3.0
        assert stats.count == 3

    def test_single_value_has_zero_std(self):
        assert TrialStats.from_values([5.0]).std == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            TrialStats.from_values([])


class TestRunTrials:
    def test_reproducible_from_seed(self):
        def measure(rng):
            return float(rng.random())

        a = run_trials(measure, n_trials=5, seed=9)
        b = run_trials(measure, n_trials=5, seed=9)
        assert a == b

    def test_trials_are_independent(self):
        values = []

        def measure(rng):
            v = float(rng.random())
            values.append(v)
            return v

        run_trials(measure, n_trials=10, seed=1)
        assert len(set(values)) == 10

    def test_requires_positive_trials(self):
        with pytest.raises(ValueError):
            run_trials(lambda rng: 0.0, n_trials=0, seed=1)


class TestPowerLawFit:
    def test_recovers_exact_exponent(self):
        xs = [1.0, 2.0, 4.0, 8.0, 16.0]
        ys = [3.0 * x**2 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(2.0)
        assert fit.coefficient == pytest.approx(3.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, -1.0], [1.0, 2.0])

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0], [1.0])

    @given(
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=0.5, max_value=10.0),
    )
    def test_recovers_random_power_laws(self, exponent, coefficient):
        xs = [1.0, 2.0, 5.0, 10.0, 30.0]
        ys = [coefficient * x**exponent for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(exponent, rel=1e-6)


class TestSuccessRate:
    def test_basic(self):
        assert success_rate([True, True, False, False]) == 0.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            success_rate([])


class TestGeometricSizes:
    def test_endpoints_included(self):
        sizes = geometric_sizes(10, 1000, 5)
        assert sizes[0] == 10
        assert sizes[-1] == 1000

    def test_sorted_unique(self):
        sizes = geometric_sizes(5, 50, 20)
        assert sizes == sorted(set(sizes))

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            geometric_sizes(10, 5, 3)


class TestTextTable:
    def test_render_contains_data(self):
        table = TextTable(["a", "b"], title="demo")
        table.add_row([1, 2.5])
        out = table.render()
        assert "demo" in out and "1" in out and "2.5" in out

    def test_row_length_checked(self):
        table = TextTable(["a"])
        with pytest.raises(ValueError):
            table.add_row([1, 2])

    def test_needs_columns(self):
        with pytest.raises(ValueError):
            TextTable([])

    def test_bool_formatting(self):
        table = TextTable(["ok"])
        table.add_row([True])
        assert "yes" in table.render()

    def test_float_formatting_small_and_large(self):
        table = TextTable(["x", "y"])
        table.add_row([0.0001234, 123456.0])
        out = table.render()
        assert "0.000123" in out and "1.23e+05" in out


class TestParallelFallbackWarnings:
    """The pickle probes must *name* a degraded path, never swallow it.

    Regression: both parallel runners used to catch the pickling
    failure silently and run serially — a pickling bug surfaced only as
    a mysterious slowdown."""

    def test_run_trials_parallel_warns_on_unpicklable_measure(self):
        with pytest.warns(RuntimeWarning, match="not picklable"):
            stats = run_trials(
                lambda r: float(r.random()), 3, seed=2, processes=2
            )
        # the fallback stays bit-identical to the serial path
        assert stats == run_trials(lambda r: float(r.random()), 3, seed=2)

    def test_warning_names_the_actual_failure(self):
        with pytest.warns(RuntimeWarning, match="PicklingError|pickle"):
            run_trials(lambda r: 0.0, 2, seed=0, processes=2)

    def test_run_report_trials_warns_on_unpicklable_payload(self):
        from repro.analysis import run_report_trials
        from repro import graphs

        g = graphs.random_udg(
            n=25, side=3.0, rng=np.random.default_rng(1)
        )
        # a config closure cannot cross a process boundary
        class Unpicklable:
            def __reduce__(self):
                raise TypeError("nope")

        g.graph["poison"] = Unpicklable()
        with pytest.warns(RuntimeWarning, match="running trials serially"):
            reports = run_report_trials(
                "decay", g, n_trials=2, seed=3, processes=2
            )
        assert len(reports) == 2
