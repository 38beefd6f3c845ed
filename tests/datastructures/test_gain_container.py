"""Tests for the uniform gain-container interface (tree, heap, bucket)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datastructures import (
    BucketGainContainer,
    HeapGainContainer,
    TreeGainContainer,
)


def make_tree():
    return TreeGainContainer()


def make_heap():
    return HeapGainContainer()


def make_bucket():
    return BucketGainContainer(capacity=64, max_gain=10)


MAKERS = {"tree": make_tree, "heap": make_heap, "bucket": make_bucket}


@pytest.fixture(params=["tree", "bucket", "heap"])
def container(request):
    return MAKERS[request.param]()


class TestCommonInterface:
    def test_empty(self, container):
        assert len(container) == 0
        assert not container
        assert 3 not in container
        with pytest.raises(KeyError):
            container.peek_best()

    def test_insert_peek_remove(self, container):
        container.insert(1, 5)
        container.insert(2, -3)
        assert container.peek_best() == (1, 5)
        assert container.gain_of(2) == -3
        assert container.remove(1) == 5
        assert container.peek_best() == (2, -3)

    def test_update(self, container):
        container.insert(1, 0)
        container.insert(2, 1)
        container.update(1, 9)
        assert container.peek_best() == (1, 9)

    def test_double_insert_rejected(self, container):
        container.insert(1, 0)
        with pytest.raises(KeyError):
            container.insert(1, 2)

    def test_remove_missing_rejected(self, container):
        with pytest.raises(KeyError):
            container.remove(42)

    def test_top_k(self, container):
        for node, gain in [(0, 5), (1, 7), (2, -1), (3, 7)]:
            container.insert(node, gain)
        top2 = container.top(2)
        assert len(top2) == 2
        assert all(g == 7 for _, g in top2)
        assert len(container.top(99)) == 4

    def test_top_zero_is_empty(self, container):
        # Regression: top(0) used to return one item (the break fired
        # only after the first append).
        container.insert(1, 5)
        assert container.top(0) == []

    def test_iter_descending_sorted(self, container):
        for node, gain in [(0, 3), (1, -2), (2, 8), (3, 0)]:
            container.insert(node, gain)
        gains = [g for _, g in container.iter_descending()]
        assert gains == sorted(gains, reverse=True)


class TestTreeSpecific:
    make = staticmethod(make_tree)

    def test_float_gains(self):
        c = self.make()
        c.insert(0, 1.25)
        c.insert(1, 1.5)
        assert c.peek_best() == (1, 1.5)

    def test_vector_gains(self):
        """LA uses lexicographic tuples as gains."""
        c = self.make()
        c.insert(0, (2, 0, 0))
        c.insert(1, (2, 0, 1))
        c.insert(2, (1, 9, 9))
        assert c.peek_best() == (1, (2, 0, 1))

    def test_tie_break_prefers_higher_node(self):
        c = self.make()
        c.insert(3, 1.0)
        c.insert(7, 1.0)
        assert c.peek_best() == (7, 1.0)


class TestHeapSpecific(TestTreeSpecific):
    """The heap container keeps the tree's ``(gain, node)`` order."""

    make = staticmethod(make_heap)


class TestBucketSpecific:
    def test_adjust(self):
        c = make_bucket()
        c.insert(0, 1)
        c.adjust(0, 3)
        assert c.gain_of(0) == 4

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(-10, 10)),
                    min_size=1, max_size=80))
    @settings(max_examples=40)
    def test_tree_and_bucket_agree_on_best_gain(self, traffic):
        """Same traffic into both containers -> same best gain value."""
        tree, bucket = make_tree(), BucketGainContainer(31, 10)
        state = {}
        for node, gain in traffic:
            if node in state:
                tree.update(node, gain)
                bucket.update(node, gain)
            else:
                tree.insert(node, gain)
                bucket.insert(node, gain)
            state[node] = gain
        assert tree.peek_best()[1] == bucket.peek_best()[1] == max(state.values())
