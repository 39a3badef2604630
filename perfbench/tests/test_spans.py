"""Self-time arithmetic of the span recorder, on synthetic span trees."""

import threading

import pytest

from spans import SpanRecorder, covered_ns, layers_traced


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_covered_ns_merges_overlaps_and_clips():
    assert covered_ns(0, 100, []) == 0
    assert covered_ns(0, 100, [(10, 20), (30, 40)]) == 20
    assert covered_ns(0, 100, [(10, 30), (20, 40)]) == 30
    assert covered_ns(0, 100, [(20, 40), (10, 30), (15, 25)]) == 30
    assert covered_ns(10, 50, [(0, 20), (40, 60)]) == 20
    assert covered_ns(10, 50, [(60, 70)]) == 0


def test_self_time_of_nested_tree():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)

    def at(t):
        clock.now = t

    at(0)
    root = rec.enter("root")
    at(10)
    a = rec.enter("a")
    at(15)
    b = rec.enter("b")
    at(25)
    rec.exit(b)
    at(40)
    rec.exit(a)
    at(50)
    a2 = rec.enter("a")
    at(60)
    rec.exit(a2)
    at(100)
    rec.exit(root)
    assert rec.self_ns == {"b": 10, "a": 20 + 10, "root": 100 - 30 - 10}
    assert rec.total_ns == {"b": 10, "a": 40, "root": 100}
    assert rec.calls == {"b": 1, "a": 2, "root": 1}
    # Self times partition the root's wall time.
    assert sum(rec.self_ns.values()) == rec.total_ns["root"]


def test_child_from_another_thread_counts_against_the_open_span():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    clock.now = 0
    request = rec.enter("request")
    clock.now = 5
    encode = rec.enter("encode")
    clock.now = 8
    rec.exit(encode)

    def loop_thread():
        clock.now = 20
        decode = rec.enter("decode")
        clock.now = 26
        rec.exit(decode)

    worker = threading.Thread(target=loop_thread)
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    clock.now = 30
    rec.exit(request)
    assert rec.self_ns == {"encode": 3, "decode": 6, "request": 30 - 3 - 6}


def test_out_of_order_exit_is_rejected():
    rec = SpanRecorder(clock=FakeClock())
    outer = rec.enter("outer")
    rec.enter("inner")
    with pytest.raises(RuntimeError):
        rec.exit(outer)


class Dummy:
    def work(self, value):
        return value * 2


def test_layers_traced_wraps_then_restores():
    original = Dummy.__dict__["work"]
    rec = SpanRecorder()
    seen = []
    plan = (("dummy", __name__, "Dummy", ("work",),
             lambda r, args, kwargs, result: seen.append(result)),)
    with layers_traced(rec, plan):
        assert Dummy().work(3) == 6
        assert Dummy.__dict__["work"] is not original
    assert Dummy.__dict__["work"] is original
    assert rec.calls == {"dummy": 1}
    assert seen == [6]


def test_layer_plan_names_existing_functions():
    rec = SpanRecorder()
    with layers_traced(rec):
        pass  # every target in LAYER_PLAN resolved and was restored
