"""forked.map_items: one child runs the second half of the items; results,
refusals and failures are reported as one process would report them."""

import ast
import itertools
import os
import time
from pathlib import Path

import pytest

import sarberg
from sarberg.forked import map_items
from tests.test_data import _forked_and_alone

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="map_items forks only through os.fork"
)


_CALLER = os.getpid()


def _where():
    return "caller" if os.getpid() == _CALLER else "child"


class TestResults:
    @pytest.mark.parametrize("n", range(6))
    def test_in_order_with_one_fork_from_two_items(self, n):
        items = [f"item{i}" for i in range(n)]
        got, alone, forks = _forked_and_alone(map_items, str.upper, items)
        assert got == alone == [x.upper() for x in items]
        assert forks == (n >= 2)

    def test_range_items_and_who_ran_them(self):
        got, alone, forks = _forked_and_alone(map_items, lambda i: (i, _where()), range(7))
        assert [i for i, _ in got] == list(range(7)) and forks == 1
        assert [w for _, w in got] == ["caller"] * 4 + ["child"] * 3
        assert alone == [(i, "caller") for i in range(7)]

    def test_child_side_effects_stay_in_the_child(self):
        seen = []

        def record(x):
            seen.append(x)
            return [x]

        assert map_items(record, range(4)) == [[0], [1], [2], [3]] and seen == [0, 1]


class TestFailures:
    def test_lowest_failing_item_raised_from_either_half(self):
        raised_in = set()
        for r in range(1, 6):
            for failing in itertools.combinations(range(5), r):

                def fn(i, failing=failing):
                    if i in failing:
                        raise ValueError(f"item {i} refused in the {_where()}")
                    return i

                with pytest.raises(ValueError) as info:
                    map_items(fn, range(5))
                where = "caller" if failing[0] < 3 else "child"
                assert str(info.value) == f"item {failing[0]} refused in the {where}"
                raised_in.add(where)
        assert raised_in == {"caller", "child"}

    def test_caller_refusal_raised_without_waiting_for_the_child(self):
        def fn(i):
            if _where() == "child":
                time.sleep(60)
            elif i == 1:
                raise ValueError("refused at once")
            return i

        start = time.monotonic()
        with pytest.raises(ValueError, match="refused at once"):
            map_items(fn, range(4))
        assert time.monotonic() - start < 5.0  # the child was killed, not awaited

    @pytest.mark.parametrize("failure,status", [("exit", 3), ("type_error", 1)])
    def test_failed_child_names_its_items_and_status(self, failure, status):
        def fn(i):
            if _where() == "child":
                if failure == "exit":
                    os._exit(3)
                raise TypeError("not a refusal")
            return i

        with pytest.raises(RuntimeError) as info:
            map_items(fn, range(5))
        assert str(info.value) == (
            f"the forked process running items [3, 4] exited with status {status}"
        )

    def test_caller_refusal_beside_a_crashed_child_raised(self):
        def fn(i):
            if _where() == "child":
                os._exit(3)
            if i == 2:
                raise ValueError("refused in the caller")
            return i

        with pytest.raises(ValueError, match="refused in the caller"):
            map_items(fn, range(5))


FORK_CALLS = {"fork", "_exit", "waitpid"}


def _fork_calls(tree):
    """The os fork calls a module names, as os.<name> or imported from os."""
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in FORK_CALLS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.add(f"os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found |= {f"os.{a.name}" for a in node.names if a.name in FORK_CALLS}
    return found


def test_only_forked_module_forks():
    root = Path(sarberg.__file__).parent
    users = {}
    for path in sorted(root.rglob("*.py")):
        calls = _fork_calls(ast.parse(path.read_text(), filename=str(path)))
        if calls:
            users[path.relative_to(root).as_posix()] = sorted(calls)
    assert users == {"forked.py": ["os._exit", "os.fork", "os.waitpid"]}


def test_fork_calls_found_in_either_spelling():
    tree = ast.parse("import os\nfrom os import waitpid\nos.fork()\nos.getpid()\n")
    assert _fork_calls(tree) == {"os.fork", "os.waitpid"}
