"""Work shared with one forked child process.

`map_parts(run, k)` is [run(i) for i in range(k)], with the odd parts run
by one child forked from the caller while the caller runs the even ones. The
GBM fit, the JSON codec and the per-scene feature statistics hold the GIL, so
a second thread would not use the second core; a forked child does.

Its callers: `ensemble.oof_predictions` (the odd folds),
`data.parse_samples` and `data.serialize_samples` (the second half of the
records) and `features.feature_matrix` (the second half of the scenes).

The fork contract, for every `run` passed here: the child runs on the state
it inherits at the fork, so run(i) may depend only on its argument and on
what existed before the call, and its side effects (a counter, a cache, a
file handle's position) stay in the child. A child-run part's result goes
back to the caller pickled, so it must pickle, and it comes back a copy.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import traceback
from typing import Callable, TypeVar

T = TypeVar("T")


def map_parts(run: Callable[[int], T], k: int) -> list[T]:
    """[run(i) for i in range(k)], with the odd parts run by one forked child
    while this process runs the even ones, as `nn.layers._map_shards` shares
    a batch between the caller and one worker thread.

    The child sends its results back pickled through a pipe and always leaves
    through `os._exit`. A ValueError from either process is raised here for
    the lowest failing part. A child that dies or fails otherwise raises a
    RuntimeError naming its parts; if this process fails, it kills the
    child. Either way the child is reaped. Without `os.fork`, or with a
    single part, this process runs every part."""
    if k < 2 or not hasattr(os, "fork"):
        return [run(i) for i in range(k)]
    child_parts = list(range(1, k, 2))
    sys.stdout.flush()  # else the child would inherit, and print, the buffers
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(_run_until_refused(run, child_parts), pipe)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            try:  # what the child's parts printed; os._exit skips the flush
                sys.stdout.flush()
                sys.stderr.flush()
            finally:
                os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            done = _run_until_refused(run, range(0, k, 2))
            reply = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        raise RuntimeError(
            f"the forked process running parts {child_parts} exited with status {status}"
        )
    done.update(pickle.loads(reply))
    # Each process stops at its first refusal, so every part below the lowest
    # refusal is present.
    for i in range(k):
        if isinstance(done[i], ValueError):
            raise done[i]
    return [done[i] for i in range(k)]


def _run_until_refused(run: Callable[[int], T], parts) -> dict:
    """{i: run(i)} in the given order, up to the first part whose run raises
    ValueError; that part maps to the error."""
    done = {}
    for i in parts:
        try:
            done[i] = run(i)
        except ValueError as e:
            done[i] = e
            break
    return done
