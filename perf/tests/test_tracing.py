"""Span recording, self-time subtraction and patch hygiene."""

import importlib

import pytest

from perf import tracing


def test_self_time_subtracts_direct_children_only():
    #   root [0, 100]
    #     a [10, 40]
    #       leaf [15, 25]
    #     b [50, 90]
    starts = [0, 10, 15, 50]
    ends = [100, 40, 25, 90]
    parents = [-1, 0, 1, 0]
    assert tracing.self_times(starts, ends, parents) == [30, 20, 10, 40]
    assert sum(tracing.self_times(starts, ends, parents)) == 100


def test_self_time_of_unrelated_roots_is_their_duration():
    assert tracing.self_times([0, 10], [5, 30], [-1, -1]) == [5, 20]


class Toy:
    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        return leaf(i)

    @classmethod
    def make(cls):
        return cls()


def leaf(i):
    return i * 2


class _Source:
    request_id = 0


_TOY_TARGETS = (
    (__name__, "Toy", "outer", "outer.call"),
    (__name__, "Toy", "inner", "inner.call"),
    (__name__, "Toy", "make", "outer.make"),
    (__name__, None, "leaf", "leaf.fn"),
)


def test_installed_records_nested_spans_and_restores():
    module = importlib.import_module(__name__)
    originals = (Toy.__dict__["outer"], Toy.__dict__["make"], module.leaf)
    source = _Source()
    recorder = tracing.SpanRecorder(source)
    with tracing.installed(recorder, _TOY_TARGETS):
        source.request_id = 7
        toy = Toy.make()
        assert isinstance(toy, Toy)
        assert toy.outer(3) == 6
    assert (Toy.__dict__["outer"], Toy.__dict__["make"], module.leaf) == originals
    names = [recorder.names[i] for i in recorder.name_id]
    assert names == [
        "outer.make", "outer.call", "inner.call", "leaf.fn", "inner.call", "leaf.fn",
        "inner.call", "leaf.fn",
    ]
    assert list(recorder.parent) == [-1, -1, 1, 2, 1, 4, 1, 6]
    assert set(recorder.request) == {7}
    assert recorder.calls() == {"outer.make": 1, "outer.call": 1, "inner.call": 3, "leaf.fn": 3}
    by_name = recorder.self_ns_by_name(1, len(recorder))
    assert sum(by_name.values()) == recorder.end[1] - recorder.start[1]
    assert all(ns >= 0 for ns in by_name.values())


def test_installed_restores_after_an_exception():
    recorder = tracing.SpanRecorder(_Source())
    with pytest.raises(RuntimeError):
        with tracing.installed(recorder, _TOY_TARGETS):
            raise RuntimeError("boom")
    assert Toy.inner.__name__ == "inner" and not hasattr(Toy.inner, "__wrapped__")


def test_every_target_resolves_and_is_restored():
    recorder = tracing.SpanRecorder(_Source())
    before = []
    for module_name, class_name, attribute, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        before.append((owner, attribute, vars(owner)[attribute]))
    with tracing.installed(recorder):
        for owner, attribute, original in before:
            assert vars(owner)[attribute] is not original
    for owner, attribute, original in before:
        assert vars(owner)[attribute] is original


def test_write_jsonl(tmp_path):
    source = _Source()
    recorder = tracing.SpanRecorder(source)
    with tracing.installed(recorder, _TOY_TARGETS):
        Toy().outer(1)
    path = tmp_path / "spans.jsonl"
    recorder.write_jsonl(path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(recorder) == 3
    assert '"name": "outer.call"' in lines[0] and '"parent": -1' in lines[0]
