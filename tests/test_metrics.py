"""Ordering-error arithmetic."""

import pytest

from pathlingam.errors import LengthMismatch
from pathlingam.metrics import ordering_error
from pathlingam.search import SearchResult


class TestOrderingError:
    def test_identical_orders(self):
        assert ordering_error((2, 0, 1), (2, 0, 1)) == 0.0

    def test_full_reversal(self):
        assert ordering_error((3, 2, 1, 0), (0, 1, 2, 3)) == 1.0

    def test_single_swap(self):
        assert ordering_error((1, 0, 2, 3), (0, 1, 2, 3)) == pytest.approx(2 / 12)

    def test_hand_counted_case(self):
        # pairs disagreeing between (2,0,1) and (0,1,2): {0,2} and {1,2}
        assert ordering_error((2, 0, 1), (0, 1, 2)) == pytest.approx(2 / 3)

    def test_accepts_a_search_results_order(self):
        result = SearchResult((1, 0), (0.3, 0.0), 0.3, 2, 2, 0.0)
        assert ordering_error(result.order, (0, 1)) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ordering_error((0, 1), (0, 1, 2))

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            ordering_error((0, 0, 1), (0, 1, 2))

    def test_symmetry(self):
        a, b = (3, 1, 0, 2), (0, 2, 3, 1)
        assert ordering_error(a, b) == ordering_error(b, a)

