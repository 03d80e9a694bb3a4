"""Work-list abstraction shared by every executor backend.

The runtime layer deliberately models the *simplest* unit of parallel work
the repository needs: an ordered list of independent tasks, each a pure
function of one self-contained argument.  Every parallel seam in the repo —
sweep grid points, repeated benchmark measurements — already has this
shape: the argument carries its own derived seed (see
:func:`repro.utils.rng.derive_seed`), so results are deterministic no matter
which backend runs the tasks or in what order they finish.

A :class:`WorkList` is what executors execute.  Tasks keep their submission
``index`` so out-of-order completion (threads, processes, remote queue
workers) can always be reassembled into submission order — the property the
bit-identical-across-backends guarantees of :mod:`repro.eval.sweep` rest
on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Sequence, Tuple


@dataclass(frozen=True)
class Task:
    """One unit of work: ``fn(arg)``, tagged with its submission index.

    ``fn`` must be a picklable callable (a module-level function or a
    picklable callable object) for the process and queue backends; ``arg``
    must be self-contained — anything stochastic inside the task derives
    from seeds carried *in* the argument, never from ambient state.

    ``fn`` must also be a *pure* function of ``arg``: the queue backend's
    lease recovery may execute a task more than once (a slow or crashed
    worker's claim expires and is re-queued), and correctness then rests
    on every execution publishing a byte-identical result.
    """

    index: int
    fn: Callable[[object], object]
    arg: object

    def run(self) -> object:
        """Execute the task and return its result."""
        return self.fn(self.arg)


class WorkList:
    """An ordered, immutable list of independent tasks."""

    def __init__(self, tasks: Iterable[Task]) -> None:
        self._tasks: Tuple[Task, ...] = tuple(tasks)
        for position, task in enumerate(self._tasks):
            if task.index != position:
                raise ValueError(
                    f"task at position {position} carries index {task.index}; "
                    "work lists must be indexed contiguously from 0"
                )

    @classmethod
    def from_items(cls, fn: Callable[[object], object],
                   items: Iterable[object]) -> "WorkList":
        """Build a work list applying ``fn`` to every item, in order."""
        return cls(Task(index=i, fn=fn, arg=item)
                   for i, item in enumerate(items))

    @property
    def tasks(self) -> Tuple[Task, ...]:
        """The tasks, in submission order."""
        return self._tasks

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __bool__(self) -> bool:
        return bool(self._tasks)


def gather(indexed_results: Iterable[Tuple[int, object]],
           expected: int) -> List[object]:
    """Reassemble ``(index, result)`` pairs into submission order.

    Raises when an index is missing or duplicated — a protocol violation by
    a backend (e.g. a queue worker that crashed mid-task) must surface as an
    error, never as silently reordered or dropped results.
    """
    slots: List[object] = [_MISSING] * expected
    for index, result in indexed_results:
        if not 0 <= index < expected:
            raise ValueError(f"result index {index} outside 0..{expected - 1}")
        if slots[index] is not _MISSING:
            raise ValueError(f"duplicate result for task {index}")
        slots[index] = result
    missing = [i for i, slot in enumerate(slots) if slot is _MISSING]
    if missing:
        raise ValueError(f"missing results for tasks {missing}")
    return slots


class _Missing:
    """Sentinel distinguishing 'no result yet' from a ``None`` result."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<missing>"


_MISSING = _Missing()


def run_serially(worklist: WorkList) -> List[object]:
    """Reference execution: run every task in submission order, in-process.

    This is both the :class:`~repro.runtime.executors.SerialExecutor`
    implementation and the semantic oracle every other backend must match
    bit-for-bit.
    """
    return [task.run() for task in worklist]


#: sequence type accepted wherever a list of task arguments is expected
Items = Sequence[object]
