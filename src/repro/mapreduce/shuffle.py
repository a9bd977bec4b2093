"""Shuffle machinery: the hash partitioner and the group-by-key exchange.

"Then all the (key, value) pairs from all mappers are shuffled, sorted
to put in order and grouped" (paper Sec. V-A).  The EV-Matching
parallelization leans on exactly this: the EID set-splitting map step
emits ``(eid, set_id)`` pairs and relies on the shuffle to bring every
set id containing a given EID to one reducer (Sec. V-B).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Sequence, Tuple


class HashPartitioner:
    """Maps a key to one of ``num_partitions`` reducers by a stable hash.

    Uses a simple polynomial hash over ``repr(key)`` rather than
    built-in ``hash`` so partition assignment is stable across
    processes and Python's hash randomization — reproducibility again.
    """

    def __init__(self, num_partitions: int) -> None:
        if num_partitions <= 0:
            raise ValueError(
                f"num_partitions must be positive, got {num_partitions}"
            )
        self.num_partitions = num_partitions

    def partition(self, key: Hashable) -> int:
        """The reducer index for ``key``, in ``[0, num_partitions)``."""
        text = repr(key)
        value = 2166136261
        for ch in text.encode("utf-8", errors="backslashreplace"):
            value = (value ^ ch) * 16777619 % 2**32
        return value % self.num_partitions


def bucket_pairs(
    pairs: Iterable[Tuple[Hashable, Any]],
    partitioner: HashPartitioner,
) -> List[List[Tuple[Hashable, Any]]]:
    """One map task's shuffle write: split emitted pairs into buckets."""
    buckets: List[List[Tuple[Hashable, Any]]] = [
        [] for _ in range(partitioner.num_partitions)
    ]
    for key, value in pairs:
        buckets[partitioner.partition(key)].append((key, value))
    return buckets


def merge_buckets(
    bucket_lists: Sequence[Sequence[Sequence[Tuple[Hashable, Any]]]],
    reducer_index: int,
) -> Dict[Hashable, List[Any]]:
    """One reduce task's shuffle read: gather and group its bucket.

    Collects bucket ``reducer_index`` from every map task's output and
    groups values by key.  Keys keep the deterministic order of first
    appearance; the engine sorts them before reducing, completing the
    "shuffled, sorted ... and grouped" contract.
    """
    grouped: Dict[Hashable, List[Any]] = {}
    for buckets in bucket_lists:
        for key, value in buckets[reducer_index]:
            grouped.setdefault(key, []).append(value)
    return grouped
