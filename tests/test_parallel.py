"""Tests for the work-splitting helpers of the parallel runtime."""

import pytest

from repro.parallel import partition_chunks, partition_round_robin


class TestPartition:
    def test_round_robin_balanced(self):
        parts = partition_round_robin(list(range(10)), 3)
        assert [len(p) for p in parts] == [4, 3, 3]
        assert sorted(x for p in parts for x in p) == list(range(10))

    def test_chunks_contiguous(self):
        parts = partition_chunks(list(range(10)), 3)
        assert parts == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_more_parts_than_items(self):
        parts = partition_chunks([1, 2], 4)
        assert parts == [[1], [2], [], []]

    def test_single_part(self):
        assert partition_round_robin([1, 2, 3], 1) == [[1, 2, 3]]

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_chunks([1], 0)
        with pytest.raises(ValueError):
            partition_round_robin([1], 0)
