"""Model-based (stateful) tests for the gain containers.

Hypothesis drives random operation sequences against a container and a
deliberately naive model kept in plain dicts/lists; after every step the
two must agree on everything observable.  The model encodes the
*documented* tie rules — ``(gain, node)`` max for the tree and heap
containers, LIFO-within-bucket for the bucket container — so a
regression in any structure's ordering (not just its membership) is
caught.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.datastructures import (
    BucketGainContainer,
    HeapGainContainer,
    TreeGainContainer,
)

NODES = st.integers(min_value=0, max_value=23)
INT_GAINS = st.integers(min_value=-6, max_value=6)
FLOAT_GAINS = st.one_of(
    INT_GAINS.map(float),
    st.floats(min_value=-6.0, max_value=6.0, allow_nan=False, width=32),
)

COMMON_SETTINGS = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


class TreeContainerMachine(RuleBasedStateMachine):
    """An ordered container vs. a plain dict ordered by ``(gain, node)``.

    ``make`` names the container: :class:`TreeGainContainer` here, and
    :class:`HeapGainContainer` in the subclass below.
    """

    make = TreeGainContainer

    def __init__(self):
        super().__init__()
        self.container = self.make()
        self.model = {}

    def check_storage(self):
        """Container-specific storage bound after a burst of updates."""

    def _descending(self):
        return sorted(
            ((n, g) for n, g in self.model.items()),
            key=lambda item: (item[1], item[0]),
            reverse=True,
        )

    @rule(node=NODES, gain=FLOAT_GAINS)
    def insert(self, node, gain):
        if node in self.model:
            with pytest.raises(KeyError):
                self.container.insert(node, gain)
        else:
            self.container.insert(node, gain)
            self.model[node] = gain

    @rule(node=NODES)
    def remove(self, node):
        if node not in self.model:
            with pytest.raises(KeyError):
                self.container.remove(node)
        else:
            assert self.container.remove(node) == self.model.pop(node)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), gain=FLOAT_GAINS)
    def update_present(self, data, gain):
        node = data.draw(st.sampled_from(sorted(self.model)))
        self.container.update(node, gain)
        self.model[node] = gain

    @precondition(lambda self: self.model)
    @rule(
        data=st.data(),
        gains=st.lists(FLOAT_GAINS, min_size=2, max_size=30),
    )
    def rekey_one_node_many_times(self, data, gains):
        """Re-key one node again and again, back to earlier keys too."""
        node = data.draw(st.sampled_from(sorted(self.model)))
        for gain in gains:
            self.container.update(node, gain)
        self.model[node] = gains[-1]
        self.check_storage()

    @rule(node=NODES)
    def gain_of(self, node):
        if node not in self.model:
            with pytest.raises(KeyError):
                self.container.gain_of(node)
        else:
            assert self.container.gain_of(node) == self.model[node]

    @rule(k=st.integers(min_value=0, max_value=8))
    def top_k(self, k):
        assert self.container.top(k) == self._descending()[:k]

    @invariant()
    def same_size_and_membership(self):
        assert len(self.container) == len(self.model)
        assert bool(self.container) == bool(self.model)
        for node in range(24):
            assert (node in self.container) == (node in self.model)

    @invariant()
    def same_order(self):
        assert list(self.container.iter_descending()) == self._descending()
        if self.model:
            assert self.container.peek_best() == self._descending()[0]
        else:
            with pytest.raises(KeyError):
                self.container.peek_best()


class HeapContainerMachine(TreeContainerMachine):
    """The heap container under the same model: its lazily deleted
    entries never show, and a burst of re-keys triggers the rebuild that
    keeps the heap within twice the live node count."""

    make = HeapGainContainer

    def check_storage(self):
        assert len(self.container._heap) <= 2 * len(self.model)


class BucketContainerMachine(RuleBasedStateMachine):
    """BucketGainContainer vs. per-gain LIFO lists.

    The model's bucket lists mirror the linked-list discipline exactly:
    insertion prepends, so iteration and best-pick follow most-recently-
    inserted-first within a gain.
    """

    CAPACITY, MAX_GAIN = 24, 6

    def __init__(self):
        super().__init__()
        self.container = BucketGainContainer(self.CAPACITY, self.MAX_GAIN)
        self.gains = {}
        self.buckets = {}  # gain -> [node, ...] front first

    def _descending(self):
        out = []
        for g in sorted(self.buckets, reverse=True):
            out.extend((n, g) for n in self.buckets[g])
        return out

    def _model_insert(self, node, gain):
        self.gains[node] = gain
        self.buckets.setdefault(gain, []).insert(0, node)

    def _model_remove(self, node):
        gain = self.gains.pop(node)
        self.buckets[gain].remove(node)
        if not self.buckets[gain]:
            del self.buckets[gain]
        return gain

    @rule(node=NODES, gain=INT_GAINS)
    def insert(self, node, gain):
        if node in self.gains:
            with pytest.raises(KeyError):
                self.container.insert(node, gain)
        else:
            self.container.insert(node, gain)
            self._model_insert(node, gain)

    @rule(node=NODES)
    def remove(self, node):
        if node not in self.gains:
            with pytest.raises(KeyError):
                self.container.remove(node)
        else:
            assert self.container.remove(node) == self._model_remove(node)

    @precondition(lambda self: self.gains)
    @rule(data=st.data(), gain=INT_GAINS)
    def update_present(self, data, gain):
        node = data.draw(st.sampled_from(sorted(self.gains)))
        self.container.update(node, gain)
        self._model_remove(node)
        self._model_insert(node, gain)

    @precondition(lambda self: self.gains)
    @rule(data=st.data(), delta=st.integers(min_value=-3, max_value=3))
    def adjust_present(self, data, delta):
        node = data.draw(st.sampled_from(sorted(self.gains)))
        new_gain = self.gains[node] + delta
        if abs(new_gain) > self.MAX_GAIN:
            with pytest.raises(ValueError):
                self.container.adjust(node, delta)
            # the failed adjust must not have lost the node
            assert self.container.gain_of(node) == self.gains[node]
        else:
            self.container.adjust(node, delta)
            if delta:
                self._model_remove(node)
                self._model_insert(node, new_gain)

    @rule(node=NODES)
    def gain_of(self, node):
        if node not in self.gains:
            with pytest.raises(KeyError):
                self.container.gain_of(node)
        else:
            assert self.container.gain_of(node) == self.gains[node]

    @invariant()
    def same_size_and_membership(self):
        assert len(self.container) == len(self.gains)
        for node in range(self.CAPACITY):
            assert (node in self.container) == (node in self.gains)

    @invariant()
    def same_order(self):
        assert list(self.container.iter_descending()) == self._descending()
        if self.gains:
            assert self.container.peek_best() == self._descending()[0]
        else:
            with pytest.raises(KeyError):
                self.container.peek_best()

    @invariant()
    def internal_linkage_sound(self):
        self.container._buckets.check_invariants()


TestTreeContainerModel = TreeContainerMachine.TestCase
TestTreeContainerModel.settings = COMMON_SETTINGS
TestHeapContainerModel = HeapContainerMachine.TestCase
TestHeapContainerModel.settings = COMMON_SETTINGS
TestBucketContainerModel = BucketContainerMachine.TestCase
TestBucketContainerModel.settings = COMMON_SETTINGS


class TestContainerEquivalence:
    """The two containers agree wherever both are defined (integer gains).

    Tie order may differ (documented), so equality is on the multiset of
    (node, gain) pairs and on the best *gain*, not the best node.
    """

    @pytest.mark.parametrize("seed", range(5))
    def test_same_contents_after_random_ops(self, seed):
        import random

        rng = random.Random(seed)
        tree, bucket = TreeGainContainer(), BucketGainContainer(24, 6)
        present = set()
        for _ in range(300):
            op = rng.random()
            if op < 0.5 or not present:
                node = rng.randrange(24)
                if node in present:
                    continue
                gain = rng.randint(-6, 6)
                tree.insert(node, gain)
                bucket.insert(node, gain)
                present.add(node)
            elif op < 0.75:
                node = rng.choice(sorted(present))
                gain = rng.randint(-6, 6)
                tree.update(node, gain)
                bucket.update(node, gain)
            else:
                node = rng.choice(sorted(present))
                assert tree.remove(node) == bucket.remove(node)
                present.remove(node)
            assert sorted(tree.iter_descending()) == sorted(
                bucket.iter_descending()
            )
            if present:
                assert tree.peek_best()[1] == bucket.peek_best()[1]
