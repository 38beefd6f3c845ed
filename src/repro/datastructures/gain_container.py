"""Uniform interface over the gain containers used by the partitioners.

The iterative partitioners (FM, LA, PROP) need, per side of the partition, a
collection of free nodes ordered by gain, supporting best-node queries and
gain updates.  Three realizations exist:

* :class:`BucketGainContainer` — FM's O(1) bucket array; integer gains only
  (unit net costs).
* :class:`HeapGainContainer` — binary heap with lazy deletion, ordered by
  ``(gain, node)``; the sequential move loop's default, serving PROP's
  float gains and LA's lexicographic gain vectors.
* :class:`TreeGainContainer` — AVL tree keyed by ``(gain, node)``; the
  paper's Sec. 3.5 structure, kept as FM-tree's container (Table 4 times
  FM on an AVL tree).

Ties are broken deterministically: the heap and tree containers prefer the
higher node id among equal gains — both pick, and list ``top(k)``, in the
same ``(gain, node)`` max order — and the bucket container is LIFO within a
bucket.  Determinism matters because every experiment is seeded end-to-end.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from typing import Any, Dict, Iterator, List, Tuple

from .avl import AVLTree
from .bucket_list import BucketList


class GainContainer(ABC):
    """Ordered collection of (node, gain) pairs with updates."""

    __slots__ = ()

    @abstractmethod
    def insert(self, node: int, gain: Any) -> None:
        """Add ``node`` with ``gain`` (node must be absent)."""

    @abstractmethod
    def remove(self, node: int) -> Any:
        """Remove ``node``; returns its gain (KeyError if absent)."""

    @abstractmethod
    def update(self, node: int, gain: Any) -> None:
        """Change the gain of ``node`` (must be present)."""

    @abstractmethod
    def gain_of(self, node: int) -> Any:
        """Current gain of ``node`` (KeyError if absent)."""

    @abstractmethod
    def peek_best(self) -> Tuple[int, Any]:
        """(node, gain) with the best gain (KeyError when empty)."""

    @abstractmethod
    def iter_descending(self) -> Iterator[Tuple[int, Any]]:
        """(node, gain) pairs from best to worst gain."""

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def __contains__(self, node: int) -> bool: ...

    def __bool__(self) -> bool:
        return len(self) > 0

    def top(self, k: int) -> List[Tuple[int, Any]]:
        """The best ``k`` (node, gain) pairs (fewer if the container is small).

        Used for the paper's Sec. 3.4 "update the gains of a few, say five,
        of the top ranked nodes in each subset" step.
        """
        out: List[Tuple[int, Any]] = []
        if k <= 0:
            return out
        for item in self.iter_descending():
            out.append(item)
            if len(out) >= k:
                break
        return out


class TreeGainContainer(GainContainer):
    """AVL-tree gain container: the paper's Sec. 3.5 structure, FM-tree's."""

    __slots__ = ("_tree", "_gains")

    def __init__(self) -> None:
        self._tree = AVLTree()
        self._gains: Dict[int, Any] = {}

    def insert(self, node: int, gain: Any) -> None:
        if node in self._gains:
            raise KeyError(f"node {node} already present")
        self._tree.insert((gain, node))
        self._gains[node] = gain

    def remove(self, node: int) -> Any:
        try:
            gain = self._gains.pop(node)
        except KeyError:
            raise KeyError(f"node {node} not present") from None
        self._tree.remove((gain, node))
        return gain

    def update(self, node: int, gain: Any) -> None:
        old = self.remove(node)
        try:
            self.insert(node, gain)
        except Exception:  # pragma: no cover - defensive reinsertion
            self.insert(node, old)
            raise

    def gain_of(self, node: int) -> Any:
        return self._gains[node]

    def peek_best(self) -> Tuple[int, Any]:
        (gain, node), _ = self._tree.max_item()
        return node, gain

    def iter_descending(self) -> Iterator[Tuple[int, Any]]:
        for (gain, node), _ in self._tree.iter_descending():
            yield node, gain

    def __len__(self) -> int:
        return len(self._gains)

    def __contains__(self, node: int) -> bool:
        return node in self._gains


class HeapGainContainer(GainContainer):
    """Binary-heap gain container in the tree container's exact order.

    Heap entries are ``(negated key, -node, key)`` tuples, so the heapq
    min-heap pops the maximum ``(key, node)`` first: the highest gain,
    ties to the higher node, exactly as :class:`TreeGainContainer`.  A
    key is a float (PROP), an integer, or a tuple gain vector (LA), whose
    negation is element-wise.  Updates push a new entry and leave the old
    one in the heap; ``_live`` maps each node to its live entry, and any
    entry that is not the mapped object (compared by identity, so a node
    re-keyed back to an old key cannot revive a stale duplicate) is
    dropped when it reaches the top.  The heap is rebuilt from the live
    entries once it holds more than twice as many entries as nodes, so a
    pass's memory stays O(n).
    """

    __slots__ = ("_heap", "_live")

    def __init__(self) -> None:
        self._heap: List[Tuple[Any, int, Any]] = []
        self._live: Dict[int, Tuple[Any, int, Any]] = {}

    def _push(self, node: int, gain: Any) -> None:
        neg = tuple(-x for x in gain) if type(gain) is tuple else -gain
        entry = (neg, -node, gain)
        self._live[node] = entry
        heap = self._heap
        heapq.heappush(heap, entry)
        if len(heap) > 2 * len(self._live):
            heap[:] = self._live.values()
            heapq.heapify(heap)

    def insert(self, node: int, gain: Any) -> None:
        if node in self._live:
            raise KeyError(f"node {node} already present")
        self._push(node, gain)

    def remove(self, node: int) -> Any:
        try:
            return self._live.pop(node)[2]
        except KeyError:
            raise KeyError(f"node {node} not present") from None

    def update(self, node: int, gain: Any) -> None:
        if node not in self._live:
            raise KeyError(f"node {node} not present")
        self._push(node, gain)

    def gain_of(self, node: int) -> Any:
        return self._live[node][2]

    def peek_best(self) -> Tuple[int, Any]:
        heap = self._heap
        live = self._live
        while heap:
            entry = heap[0]
            if live.get(-entry[1]) is entry:
                return -entry[1], entry[2]
            heapq.heappop(heap)
        raise KeyError("peek_best() on empty container")

    def top(self, k: int) -> List[Tuple[int, Any]]:
        heap = self._heap
        live = self._live
        best = []
        while heap and len(best) < k:
            entry = heapq.heappop(heap)
            if live.get(-entry[1]) is entry:
                best.append(entry)
        for entry in best:
            heapq.heappush(heap, entry)
        return [(-entry[1], entry[2]) for entry in best]

    def iter_descending(self) -> Iterator[Tuple[int, Any]]:
        for entry in sorted(self._live.values()):
            yield -entry[1], entry[2]

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, node: int) -> bool:
        return node in self._live


class BucketGainContainer(GainContainer):
    """FM bucket-array gain container; integer gains in a bounded range."""

    __slots__ = ("_buckets",)

    def __init__(self, capacity: int, max_gain: int) -> None:
        self._buckets = BucketList(capacity, max_gain)

    def insert(self, node: int, gain: int) -> None:
        self._buckets.insert(node, gain)

    def remove(self, node: int) -> int:
        return self._buckets.remove(node)

    def update(self, node: int, gain: int) -> None:
        self._buckets.update(node, gain)

    def adjust(self, node: int, delta: int) -> None:
        """Shift gain by ``delta`` — FM's natural ±1 update."""
        self._buckets.adjust(node, delta)

    def gain_of(self, node: int) -> int:
        return self._buckets.gain_of(node)

    def peek_best(self) -> Tuple[int, int]:
        return self._buckets.peek_best()

    def iter_descending(self) -> Iterator[Tuple[int, int]]:
        return self._buckets.iter_descending()

    def __len__(self) -> int:
        return len(self._buckets)

    def __contains__(self, node: int) -> bool:
        return node in self._buckets
