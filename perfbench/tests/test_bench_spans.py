"""Tests of the benchmark's span tracer."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import inspect  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import fracheat.cli  # noqa: E402,F401  (loads every module of the package)
from spans import (  # noqa: E402
    Span, Tracer, exclusive_total, function_table, package_modules, self_times)


def _public_functions(modules):
    """(module name, attribute) -> function, for every attribute holding a
    public function defined in one of `modules`."""
    names = {m.__name__ for m in modules}
    found = {}
    for m in modules:
        for attr, value in vars(m).items():
            if (inspect.isfunction(value) and value.__module__ in names
                    and not value.__name__.startswith("_")):
                found[(m.__name__, attr)] = value
    return found


def test_install_rebinds_every_holder_and_uninstall_restores_them():
    modules = package_modules("fracheat")
    before = {m.__name__: dict(vars(m)) for m in modules}
    holders = _public_functions(modules)
    mild = [key for key, fn in holders.items() if fn.__name__ == "mild_solution"]
    # imported by name into control and hvi (and cli and the package)
    assert {"fracheat.evolve", "fracheat.control", "fracheat.hvi"} <= {m for m, _ in mild}

    tracer = Tracer()
    tracer.install(modules)
    try:
        for (module_name, attr), original in holders.items():
            current = getattr(sys.modules[module_name], attr)
            assert current is not original, f"{module_name}.{attr} not rebound"
            assert current.__wrapped__ is original
        # one wrapper per function, whichever module holds it
        assert len({id(getattr(sys.modules[m], a)) for m, a in mild}) == 1
    finally:
        tracer.uninstall()
    for m in modules:
        assert dict(vars(m)) == before[m.__name__], f"{m.__name__} not restored"


def test_calls_through_an_importing_module_are_traced():
    from fracheat import control
    from fracheat.fracops import FracOrder, TimeGrid
    from fracheat.spectral import build_model

    model = build_model(4, FracOrder(0.75, 0.4), 1.0, n_theta=16)
    grid = TimeGrid(1.0, 16)
    tracer = Tracer()
    tracer.install(package_modules("fracheat"))
    try:
        control.deficiency_vector(model, grid, np.zeros(4), np.ones(4))
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names[0] == "control.deficiency_vector"
    mild = [s for s in tracer.spans if s.name == "evolve.mild_solution"]
    assert len(mild) == 1 and mild[0].parent is tracer.spans[0]
    weights = [s for s in tracer.spans if s.name == "fracops.singular_conv_weights"]
    assert len(weights) == grid.steps + 1
    assert all(s.parent is mild[0] for s in weights)


def test_self_time_is_duration_minus_child_coverage():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def advance(dt):
        now[0] += dt

    leaf = tracer.wrap("leaf", advance)

    def middle():
        advance(0.5)
        leaf(1.5)
        advance(1.0)

    mid = tracer.wrap("mid", middle)

    def body():
        advance(1.0)
        leaf(2.0)
        advance(0.5)
        mid()
        advance(0.25)

    tracer.wrap("outer", body)()
    outer, first, middle_span, inner = tracer.spans
    assert [s.parent for s in tracer.spans] == [None, outer, outer, middle_span]
    selfs = self_times(tracer.spans)
    assert outer.end - outer.start == pytest.approx(6.75)
    # children cover 2.0 (leaf) + 3.0 (mid, its own child included)
    assert selfs[id(outer)] == pytest.approx(6.75 - 5.0)
    assert selfs[id(middle_span)] == pytest.approx(3.0 - 1.5)
    assert selfs[id(first)] == pytest.approx(2.0)
    assert selfs[id(inner)] == pytest.approx(1.5)
    table = function_table(tracer.spans)
    assert table["leaf"] == {"calls": 2, "total_s": pytest.approx(3.5), "self_s": pytest.approx(3.5)}


def test_exclusive_total_counts_nested_spans_once():
    outer = Span("f", 0.0, 4.0, None)
    inner = Span("f", 1.0, 2.0, outer)
    other = Span("g", 5.0, 6.5, None)
    spans = [outer, inner, other]
    assert exclusive_total(spans, {"f"}) == pytest.approx(4.0)
    assert exclusive_total(spans, {"f", "g"}) == pytest.approx(5.5)


def test_observer_sees_bound_arguments_and_result():
    seen = []
    tracer = Tracer()
    tracer.observers["f"] = lambda bound, result: seen.append((dict(bound.arguments), result))
    traced = tracer.wrap("f", lambda a, b=2: a + b)
    assert traced(1, b=5) == 6
    assert seen == [({"a": 1, "b": 5}, 6)]
