"""Work shared with one forked child process.

`map_items(fn, items)` is [fn(x) for x in items], with the first half of the
items run by the caller and the rest by one child forked from it. The GBM
fit, the JSON codec and the per-scene feature statistics hold the GIL, so a
second thread would not use the second core; a forked child does.

Its callers: `ensemble.oof_predictions` (over the folds),
`data.parse_samples` (over the two halves of the text),
`data.serialize_samples` and `features.feature_matrix` (over the samples).

The fork contract, for every `fn` passed here: the child runs on the state
it inherits at the fork, so fn(x) may depend only on its argument and on
what existed before the call, and its side effects (a counter, a cache, a
file handle's position) stay in the child. A child-run item's result goes
back to the caller pickled, so it must pickle, and it comes back a copy.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import traceback
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def map_items(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """[fn(x) for x in items]: this process runs the first ceil(n/2) items
    while one forked child runs the rest. With fewer than 2 items, or
    without `os.fork`, this process runs them all and nothing forks.

    Each process stops at its first error, so a ValueError is raised for the
    lowest failing item, as one process would raise it. Whatever this
    process's half raises is raised at once: the child is killed, and its
    own failure, if any, is not reported. Otherwise a child that dies or
    fails other than by a ValueError raises a RuntimeError naming its items'
    indices and its exit status. The child sends its results back pickled
    through a pipe, always leaves through `os._exit`, and is always reaped
    before this returns or raises."""
    n = len(items)
    if n < 2 or not hasattr(os, "fork"):
        return [fn(x) for x in items]
    half = (n + 1) // 2
    sys.stdout.flush()  # else the child would inherit, and print, the buffers
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                reply = [fn(x) for x in items[half:]]
            except ValueError as e:
                reply = e
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(reply, pipe)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            try:  # what the child's items printed; os._exit skips the flush
                sys.stdout.flush()
                sys.stderr.flush()
            finally:
                os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            done = [fn(x) for x in items[:half]]
            reply = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        raise RuntimeError(
            f"the forked process running items {list(range(half, n))} "
            f"exited with status {status}"
        )
    rest = pickle.loads(reply)
    if isinstance(rest, ValueError):
        raise rest
    return done + rest
