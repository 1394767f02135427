"""Unit tests for result validation helpers."""

import numpy as np
import pytest

from repro.runtime.validation import (
    assert_same_results,
    count_exceeding,
    relative_errors,
)


class TestRelativeErrors:
    def test_basic(self):
        errors = relative_errors([1.1, 2.0], [1.0, 2.0])
        assert np.allclose(errors, [0.1, 0.0])

    def test_vector_values_reduce_with_max(self):
        actual = np.array([[1.0, 2.2]])
        expected = np.array([[1.0, 2.0]])
        assert np.allclose(relative_errors(actual, expected), [0.1])

    def test_zero_expected_uses_absolute(self):
        errors = relative_errors([0.5], [0.0])
        assert np.allclose(errors, [0.5])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            relative_errors(np.zeros(2), np.zeros(3))

    def test_rejects_nan_expected(self):
        with pytest.raises(ValueError, match="vertex 1.*NaN/inf"):
            relative_errors([1.0, 2.0], [1.0, np.nan])

    def test_rejects_inf_expected(self):
        with pytest.raises(ValueError, match="finite"):
            relative_errors([1.0, 2.0], [np.inf, 2.0])

    def test_rejects_non_finite_vector_component(self):
        expected = np.array([[1.0, 2.0], [3.0, np.inf]])
        actual = np.ones_like(expected)
        with pytest.raises(ValueError, match="vertex 1"):
            relative_errors(actual, expected)

    def test_non_finite_actual_still_measured(self):
        # Only the reference must be finite; a broken engine emitting
        # inf/NaN shows up as an (infinite) error, not a crash.
        errors = relative_errors([np.inf, np.nan], [1.0, 1.0])
        assert np.isinf(errors[0])
        assert np.isnan(errors[1])


class TestCensus:
    def test_count_exceeding(self):
        actual = [1.0, 1.2, 1.011]
        expected = [1.0, 1.0, 1.0]
        assert count_exceeding(actual, expected, 0.01) == 2
        assert count_exceeding(actual, expected, 0.10) == 1


class TestAssertSame:
    def test_passes_within_tolerance(self):
        assert_same_results([1.0 + 1e-9], [1.0], tolerance=1e-7)

    def test_fails_beyond_tolerance(self):
        with pytest.raises(AssertionError, match="vertex 1"):
            assert_same_results([1.0, 2.0], [1.0, 1.0], tolerance=1e-7)

    def test_context_in_message(self):
        with pytest.raises(AssertionError, match="pagerank"):
            assert_same_results([2.0], [1.0], context="pagerank")

    def test_empty_arrays_pass(self):
        assert_same_results([], [])

    def test_failure_path_computes_errors_once(self, monkeypatch):
        import repro.runtime.validation as validation

        calls = []
        original = validation.relative_errors

        def counting(actual, expected):
            calls.append(1)
            return original(actual, expected)

        monkeypatch.setattr(validation, "relative_errors", counting)
        with pytest.raises(AssertionError):
            validation.assert_same_results([1.0, 2.0], [1.0, 1.0])
        assert len(calls) == 1
