"""Regression tests for array-aware result equality (ArrayEqMixin).

The result dataclasses carry numpy arrays, so the generated dataclass
``__eq__`` used to raise ``ValueError: truth value of an array is
ambiguous`` the moment anyone compared two results. The mixin compares
field-wise with ``np.array_equal`` — the headline contract being that
``run(p, g, seed=s) == run(p, g, seed=s)`` is simply ``True``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.api as api
from repro import graphs
from repro.core.decay import DecayResult
from repro.core.mis import MISResult
from repro.core.resulteq import ArrayEqMixin, values_equal


def _udg(n: int, seed: int):
    return graphs.random_udg(n=n, side=4.0, rng=np.random.default_rng(seed))


class TestRunReportEquality:
    def test_same_seed_runs_compare_equal(self):
        g = _udg(40, 11)
        assert api.run("mis", g, seed=3) == api.run("mis", g, seed=3)

    def test_different_seeds_compare_unequal(self):
        g = _udg(40, 11)
        assert api.run("mis", g, seed=3) != api.run("mis", g, seed=4)

    def test_measurement_fields_do_not_participate(self):
        # wall_time_s differs on every run and peak_mem_bytes only on
        # measured ones; neither is an outcome.
        g = _udg(30, 5)
        a = api.run("decay", g, seed=2)
        b = api.run("decay", g, seed=2, measure_memory=True)
        assert a.wall_time_s != b.wall_time_s
        assert a == b

    def test_cross_type_comparison_is_false_not_an_error(self):
        g = _udg(30, 5)
        report = api.run("decay", g, seed=2)
        assert report != "decay"
        assert report != report.result

    def test_reports_are_unhashable(self):
        g = _udg(30, 5)
        with pytest.raises(TypeError):
            hash(api.run("decay", g, seed=2))


class TestResultEquality:
    def test_mis_results_equal_and_sensitive(self):
        g = _udg(40, 11)
        a = api.run("mis", g, seed=3).result
        b = api.run("mis", g, seed=3).result
        assert isinstance(a, MISResult)
        assert a == b
        flipped = dataclasses.replace(b, mis_mask=~b.mis_mask)
        assert a != flipped

    def test_decay_result_array_fields(self):
        heard = np.array([True, False, True])
        heard_from = np.array([2, -1, 0])
        a = DecayResult(heard, heard_from)
        b = DecayResult(heard.copy(), heard_from.copy())
        assert a == b
        assert a != DecayResult(~heard, heard_from)
        assert a != DecayResult(heard, heard_from[::-1])

    def test_shape_mismatch_is_unequal_not_an_error(self):
        a = DecayResult(np.ones(3, bool), np.zeros(3, int))
        b = DecayResult(np.ones(4, bool), np.zeros(4, int))
        assert a != b


class TestValuesEqual:
    def test_arrays(self):
        assert values_equal(np.arange(4), np.arange(4))
        assert not values_equal(np.arange(4), np.arange(5))
        # a field that changed container type is a different outcome
        assert not values_equal(np.arange(3), [0, 1, 2])

    def test_nan_keeps_ieee_semantics(self):
        assert not values_equal(float("nan"), float("nan"))

    def test_dicts_recurse(self):
        a = {"x": np.arange(3), "y": 1}
        assert values_equal(a, {"x": np.arange(3), "y": 1})
        assert not values_equal(a, {"x": np.arange(3)})
        assert not values_equal(a, {"x": np.arange(3), "y": 2})

    def test_sequences_elementwise(self):
        assert values_equal([np.arange(2), 3], [np.arange(2), 3])
        assert not values_equal([np.arange(2)], [np.arange(3)])

    def test_mixin_subclass_mismatch_returns_false(self):
        @dataclasses.dataclass(eq=False)
        class A(ArrayEqMixin):
            x: int

        @dataclasses.dataclass(eq=False)
        class B(ArrayEqMixin):
            x: int

        assert A(1) == A(1)
        assert A(1) != A(2)
        assert A(1) != B(1)
