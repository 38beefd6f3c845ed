"""Core data structures: gain containers (heap, AVL tree, FM buckets),
addressable heap, pass journal and its dead-cut stop rule."""

from .avl import AVLTree
from .bucket_list import BucketList
from .gain_container import (
    BucketGainContainer,
    GainContainer,
    HeapGainContainer,
    TreeGainContainer,
)
from .heap import AddressablePriorityQueue
from .prefix import MoveRecord, PassJournal, exact_cost_sums, pass_can_stop

__all__ = [
    "AVLTree",
    "AddressablePriorityQueue",
    "BucketList",
    "GainContainer",
    "HeapGainContainer",
    "TreeGainContainer",
    "BucketGainContainer",
    "PassJournal",
    "MoveRecord",
    "exact_cost_sums",
    "pass_can_stop",
]
