"""Self-balancing AVL tree.

The paper (Sec. 3.5) stores nodes "according to their gains, in a balanced
binary AVL tree", giving Θ(log n) best-node selection and Θ(log n)
delete/reinsert per gain update.  This module provides a general ordered-map
AVL tree over arbitrary comparable keys; FM-tree's gain container
(:class:`~repro.datastructures.gain_container.TreeGainContainer`) builds on
it with ``(gain, node_id)`` keys.

Supported operations (all O(log n) except iteration):

* ``insert(key, value)`` / ``remove(key)`` / ``find(key)``
* ``max_item()`` / ``min_item()``
* ``iter_descending()`` / ``iter_ascending()`` (lazy)
* ``__len__``, ``__contains__``
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple


class _AVLNode:
    __slots__ = ("key", "value", "left", "right", "height")

    def __init__(self, key: Any, value: Any) -> None:
        self.key = key
        self.value = value
        self.left: Optional["_AVLNode"] = None
        self.right: Optional["_AVLNode"] = None
        self.height = 1


def _height(node: Optional[_AVLNode]) -> int:
    return node.height if node is not None else 0


def _update(node: _AVLNode) -> None:
    node.height = 1 + max(_height(node.left), _height(node.right))


def _balance_factor(node: _AVLNode) -> int:
    return _height(node.left) - _height(node.right)


def _rotate_right(y: _AVLNode) -> _AVLNode:
    x = y.left
    assert x is not None
    y.left = x.right
    x.right = y
    _update(y)
    _update(x)
    return x


def _rotate_left(x: _AVLNode) -> _AVLNode:
    y = x.right
    assert y is not None
    x.right = y.left
    y.left = x
    _update(x)
    _update(y)
    return y


def _rebalance(node: _AVLNode) -> _AVLNode:
    _update(node)
    bf = _balance_factor(node)
    if bf > 1:
        assert node.left is not None
        if _balance_factor(node.left) < 0:
            node.left = _rotate_left(node.left)
        return _rotate_right(node)
    if bf < -1:
        assert node.right is not None
        if _balance_factor(node.right) > 0:
            node.right = _rotate_right(node.right)
        return _rotate_left(node)
    return node


class AVLTree:
    """Ordered map on comparable keys, balanced as an AVL tree."""

    __slots__ = ("_root", "_size")

    def __init__(self) -> None:
        self._root: Optional[_AVLNode] = None
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, key: Any) -> bool:
        return self._find_node(key) is not None

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _find_node(self, key: Any) -> Optional[_AVLNode]:
        node = self._root
        while node is not None:
            if key < node.key:
                node = node.left
            elif node.key < key:
                node = node.right
            else:
                return node
        return None

    def find(self, key: Any, default: Any = None) -> Any:
        """Value stored at ``key``, or ``default``."""
        node = self._find_node(key)
        return node.value if node is not None else default

    def max_item(self) -> Tuple[Any, Any]:
        """(key, value) with the largest key.  Raises KeyError when empty."""
        node = self._root
        if node is None:
            raise KeyError("max_item() on empty AVLTree")
        while node.right is not None:
            node = node.right
        return node.key, node.value

    def min_item(self) -> Tuple[Any, Any]:
        """(key, value) with the smallest key.  Raises KeyError when empty."""
        node = self._root
        if node is None:
            raise KeyError("min_item() on empty AVLTree")
        while node.left is not None:
            node = node.left
        return node.key, node.value

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------
    def insert(self, key: Any, value: Any = None) -> None:
        """Insert ``key``; raises KeyError if the key already exists."""
        self._root = self._insert(self._root, key, value)
        self._size += 1

    def _insert(
        self, node: Optional[_AVLNode], key: Any, value: Any
    ) -> _AVLNode:
        if node is None:
            return _AVLNode(key, value)
        if key < node.key:
            node.left = self._insert(node.left, key, value)
        elif node.key < key:
            node.right = self._insert(node.right, key, value)
        else:
            raise KeyError(f"duplicate key {key!r}")
        return _rebalance(node)

    # ------------------------------------------------------------------
    # Remove
    # ------------------------------------------------------------------
    def remove(self, key: Any) -> Any:
        """Remove ``key`` and return its value; KeyError if absent."""
        self._root, value, removed = self._remove(self._root, key)
        if not removed:
            raise KeyError(f"key {key!r} not in AVLTree")
        self._size -= 1
        return value

    def _remove(
        self, node: Optional[_AVLNode], key: Any
    ) -> Tuple[Optional[_AVLNode], Any, bool]:
        if node is None:
            return None, None, False
        if key < node.key:
            node.left, value, removed = self._remove(node.left, key)
        elif node.key < key:
            node.right, value, removed = self._remove(node.right, key)
        else:
            value, removed = node.value, True
            if node.left is None:
                return node.right, value, True
            if node.right is None:
                return node.left, value, True
            # Two children: replace with in-order successor.
            succ = node.right
            while succ.left is not None:
                succ = succ.left
            node.key, node.value = succ.key, succ.value
            node.right, _, _ = self._remove(node.right, succ.key)
        if not removed:
            return node, None, False
        return _rebalance(node), value, True

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def iter_descending(self) -> Iterator[Tuple[Any, Any]]:
        """Lazy (key, value) iteration from largest to smallest key."""
        stack: List[_AVLNode] = []
        node = self._root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.right
            node = stack.pop()
            yield node.key, node.value
            node = node.left

    def iter_ascending(self) -> Iterator[Tuple[Any, Any]]:
        """Lazy (key, value) iteration from smallest to largest key."""
        stack: List[_AVLNode] = []
        node = self._root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.key, node.value
            node = node.right

    # ------------------------------------------------------------------
    # Invariant checking (used by tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if AVL/BST invariants are violated."""

        def recurse(node: Optional[_AVLNode]) -> Tuple[int, int]:
            if node is None:
                return 0, 0
            lh, lc = recurse(node.left)
            rh, rc = recurse(node.right)
            assert node.height == 1 + max(lh, rh), "stale height"
            assert abs(lh - rh) <= 1, "AVL balance violated"
            if node.left is not None:
                assert node.left.key < node.key, "BST order violated"
            if node.right is not None:
                assert node.key < node.right.key, "BST order violated"
            return node.height, lc + rc + 1

        _, count = recurse(self._root)
        assert count == self._size, "size mismatch"
