"""Self-tests for the benchmark's tracer.

    python3 -m pytest perfbench/test_tracer.py -q
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, descendants_named, self_times, summarize  # noqa: E402


def span(name, start, end, parent, op=0, count=0):
    return (name, start, end, parent, op, count)


def test_self_time_subtracts_union_of_children():
    spans = [
        span("a.root", 0.0, 10.0, -1),
        span("a.child", 1.0, 4.0, 0),
        span("b.leaf", 2.0, 3.0, 1),
        span("a.child", 3.5, 6.0, 0),   # overlaps the first child: union 1..6
        span("b.leaf", 8.0, 12.0, 0),   # runs past the parent: clipped to 8..10
        span("b.leaf", 1.5, 2.5, 0),    # inside the first child's interval
    ]
    got = self_times(spans)
    assert got == pytest.approx([10.0 - 5.0 - 2.0, 3.0 - 1.0, 1.0, 2.5, 4.0, 1.0])


def test_summarize_separates_calls_from_entries():
    spans = [
        span("k.f", 0.0, 5.0, -1, count=2),
        span("k.f", 1.0, 2.0, 0, count=7),     # re-entry: not a new call
        span("k.g", 1.2, 1.7, 1),
        span("k.f", 6.0, 7.0, -1, count=1),
    ]
    st = summarize(spans)
    assert st["k.f"]["calls"] == 3
    assert st["k.f"]["entries"] == 2
    assert st["k.f"]["seconds"] == pytest.approx(6.0)
    assert st["k.f"]["count"] == 3
    assert st["k.f"]["self_seconds"] == pytest.approx(4.0 + 0.5 + 1.0)
    assert st["k.g"]["calls"] == 1
    assert descendants_named(spans, "k.f", "k.g") == 1
    assert descendants_named(spans, "x.", "k.g") == 0


@pytest.fixture
def fake_package(monkeypatch):
    """pkg.core defines f and g (g calls f through the module global);
    pkg.user imports f by name; pkg.core.Box has a method."""
    core = types.ModuleType("pkg.core")
    exec(
        "__all__ = ['f', 'g', 'Box']\n"
        "def f(x):\n    return x + 1\n"
        "def g(x):\n    return f(x) * 2\n"
        "class Box:\n    def scaled(self, c):\n        return c\n",
        core.__dict__)
    user = types.ModuleType("pkg.user")
    user.f = core.f
    user.g = core.g
    pkg = types.ModuleType("pkg")
    pkg.f = core.f
    for mod in (pkg, core, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return pkg, core, user


def test_install_wraps_every_reference_and_uninstall_restores(fake_package):
    pkg, core, user = fake_package
    originals = {(m.__name__, a): getattr(m, a)
                 for m, a in ((pkg, "f"), (core, "f"), (core, "g"),
                              (user, "f"), (user, "g"))}
    method = core.Box.__dict__["scaled"]

    tracer = Tracer(counters={"core.f": lambda args, kwargs, res: args[0]})
    tracer.install("pkg", ["core"], methods=[(core.Box, "scaled", "core.Box.scaled")])
    for (mod, attr), fn in originals.items():
        assert getattr(sys.modules[mod], attr) is not fn
    assert user.g(3) == 8
    assert core.Box().scaled(5) == 5
    names = [s[0] for s in tracer.spans]
    assert names == ["core.g", "core.f", "core.Box.scaled"]
    assert tracer.spans[1][3] == 0           # f's parent is g
    assert summarize(tracer.spans)["core.f"]["count"] == 3

    tracer.uninstall()
    for (mod, attr), fn in originals.items():
        assert getattr(sys.modules[mod], attr) is fn
    assert core.Box.__dict__["scaled"] is method
    before = len(tracer.spans)
    user.g(1)
    assert len(tracer.spans) == before


def test_uninstall_restores_after_exception(fake_package):
    pkg, core, user = fake_package
    original = core.f
    with Tracer() as tracer:
        tracer.install("pkg", ["core"])
        with pytest.raises(TypeError):
            user.f("not a number")
        assert tracer.spans[0][0] == "core.f"
    assert core.f is original and user.f is original and pkg.f is original
