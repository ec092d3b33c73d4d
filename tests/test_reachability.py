"""The reachability sweep's census of defaulted parameters.

A parameter is *turned* when some call passes it a value that is not its
default: another type, or a value that does not compare equal (NaN
matching NaN).  The toy module below is profiled the way the sweep
profiles ``src/repro``.
"""

import importlib.util

import numpy as np

from benchmarks.reachability import Profiler, named_functions, unturned

TOY = '''
import math

import numpy as np


def positional(a, b=1, c=2.0):
    return a


def keyword_only(a, *, flag=False, name="x"):
    return a


def positional_only(a, b=1, /, c=2):
    result = a
    return result


class Box:
    @classmethod
    def make(cls, size=3):
        return cls()

    @staticmethod
    def scale(x, factor=2):
        return x * factor


def outer(n=0):
    def inner(step=5):
        return step

    return inner(7)


def nan_default(x=math.nan):
    return x


def array_or_none(values=None):
    return values


def weights(w=np.zeros(2)):
    return w


def never_called(z=9):
    return z
'''


def _exercise(toy):
    toy.positional(0)                 # b and c omitted
    toy.positional(0, 1)              # b passed equal to its default
    toy.positional(0, 1, 5.0)         # c passed a different value
    toy.keyword_only(1, flag=True)    # keyword-only turned, name omitted
    toy.positional_only(0, 3)         # positional-only turned, c omitted
    toy.Box.make()
    toy.Box.make(size=3)              # classmethod default passed as is
    toy.Box.scale(1, factor=4)        # staticmethod default turned
    toy.outer()                       # nested function turned from inside
    toy.outer(0.0)                    # equal, but a float for an int
    toy.nan_default(float("nan"))     # a NaN default matches any NaN
    toy.array_or_none(np.array([1.0, 2.0]))  # array for None, no == raise
    toy.weights(np.ones(2))           # array for array: == is elementwise


def test_census_records_exactly_the_turned_parameters(tmp_path):
    src = tmp_path / "toy"
    src.mkdir()
    path = src / "toy.py"
    path.write_text(TOY)
    spec = importlib.util.spec_from_file_location("reachability_toy", path)
    toy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(toy)
    dump_dir = tmp_path / "dump"
    dump_dir.mkdir()

    with Profiler(str(dump_dir), src=src) as profiler:
        _exercise(toy)

    functions = named_functions(src)
    qualnames = {key: function.qualname
                 for key, function in functions.items()}
    turned = profiler.turned_params()
    assert {(qualnames[(path_, line)], name)
            for path_, line, name in turned} == {
        ("positional", "c"),
        ("keyword_only", "flag"),
        ("positional_only", "b"),
        ("Box.scale", "factor"),
        ("outer", "n"),
        ("outer.<locals>.inner", "step"),
        ("array_or_none", "values"),
        ("weights", "w"),
    }
    rows, count = unturned(functions, turned)
    assert [(function.qualname, names) for function, names in rows] == [
        ("positional", ["b"]),
        ("keyword_only", ["name"]),
        ("positional_only", ["c"]),
        ("Box.make", ["size"]),
        ("nan_default", ["x"]),
        ("never_called", ["z"]),
    ]
    assert count == 6
