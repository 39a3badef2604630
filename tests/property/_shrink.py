"""Greedy delta-debugging shared by the seeded op-sequence property suites.

Each suite replays a generated op sequence against an oracle; when a
seed fails, :func:`shrink` reduces the sequence to a small one that
still fails, so the report names a handful of ops instead of hundreds.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")


def shrink(
    ops: Sequence[T], still_fails: Callable[[List[T]], bool], keep: int = 0
) -> List[T]:
    """Drop one op at a time, latest first, while ``still_fails`` holds.

    The first ``keep`` ops are pinned (a header the replay cannot run
    without) and at least one op beyond them always remains.  Restarts
    after every successful drop, so the result is 1-minimal: removing
    any single unpinned op makes the failure disappear.
    """
    current = list(ops)
    shrunk = True
    while shrunk and len(current) > keep + 1:
        shrunk = False
        for index in range(len(current) - 1, keep - 1, -1):
            candidate = current[:index] + current[index + 1:]
            if still_fails(candidate):
                current = candidate
                shrunk = True
                break
    return current
