"""Span self time: a parent's duration minus what its children cover."""

import types

from cobench.spans import Recorder


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_subtracts_children():
    clock = FakeClock()
    rec = Recorder(clock=clock)
    parent = rec.start("parent")
    clock.t = 2.0
    child = rec.start("child")
    clock.t = 4.0
    grandchild = rec.start("grandchild")
    clock.t = 5.0
    rec.end(grandchild)
    rec.end(child)           # child 2..5, grandchild 4..5
    clock.t = 6.0
    second = rec.start("child")
    clock.t = 8.0
    rec.end(second)          # child 6..8
    clock.t = 10.0
    rec.end(parent)          # parent 0..10
    assert rec.total("parent") == 10.0
    assert rec.self_time("parent") == 10.0 - 3.0 - 2.0
    assert rec.count("child") == 2
    assert rec.total("child") == 5.0
    assert rec.self_time("child") == 5.0 - 1.0
    assert rec.self_time("grandchild") == 1.0


def test_parent_ids_and_request_ids():
    rec = Recorder()
    top = rec.start("http", request=True)
    inner = rec.start("decode")
    rec.end(inner)
    rec.end(top)
    other = rec.start("http", request=True)
    rec.end(other)
    by_name = {}
    for name, _, _, _, sid, parent, req, _ in rec.records:
        by_name.setdefault(name, []).append((sid, parent, req))
    (decode_id, decode_parent, decode_req), = by_name["decode"]
    first, second = by_name["http"]
    assert decode_parent == first[0]
    assert decode_req == first[2]
    assert first[2] != second[2]


def test_outermost_spans_per_group():
    clock = FakeClock()
    rec = Recorder(clock=clock)
    outer = rec.start("a", group="g")
    clock.t = 1.0
    inner = rec.start("b", group="g")
    clock.t = 3.0
    rec.end(inner)
    clock.t = 4.0
    rec.end(outer)
    assert rec.group("g") == (1, 4.0)


def test_generator_span_counts_time_inside_next_only():
    clock = FakeClock()
    rec = Recorder(clock=clock)

    def gen():
        for i in range(3):
            clock.t += 1.0      # one second of work per item
            yield i

    wrapped = rec.wrap(gen, "enum")
    consumer = rec.start("consumer")
    for _ in wrapped():
        clock.t += 10.0         # the consumer's own work
    rec.end(consumer)
    assert rec.count("enum") == 1
    assert rec.total("enum") == 3.0
    assert rec.total("consumer") == 33.0
    assert rec.self_time("consumer") == 30.0


def test_patch_and_restore_module_function():
    mod = types.ModuleType("fake")
    mod.f = lambda x: x + 1
    original = mod.f
    rec = Recorder()
    rec.patch(mod, "f", "fake.f", attrs=lambda a, k, r, d: {"arg": a[0]})
    assert mod.f(41) == 42
    assert rec.count("fake.f") == 1
    assert rec.attr("fake.f", "arg") == 41.0
    rec.restore()
    assert mod.f is original


def test_replace_and_tally_are_undone_by_restore():
    mod = types.ModuleType("fake")
    mod.heapq = original = object()
    rec = Recorder()
    rec.replace(mod, "heapq", "shim")
    rec.tally("solvers.heap_op")
    rec.tally("solvers.heap_op")
    assert mod.heapq == "shim"
    assert rec.count("solvers.heap_op") == 2
    rec.restore()
    assert mod.heapq is original
