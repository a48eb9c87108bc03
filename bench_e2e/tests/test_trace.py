"""Span arithmetic and the wrap/restore machinery, without a deployment."""

import asyncio

from bench_e2e.trace import Recorder, Target, percentile, self_times


def test_self_time_is_duration_minus_direct_children():
    # One thread's buffer: (key, start, end, parent, value)
    #   0: root        [0, 100)
    #   1:   child a   [10, 40)   parent 0
    #   2:     leaf    [15, 25)   parent 1
    #   3:   child b   [50, 90)   parent 0
    #   4: second root [200, 230)
    spans = [
        (0, 0, 100, -1, 0.0),
        (1, 10, 40, 0, 0.0),
        (2, 15, 25, 1, 0.0),
        (1, 50, 90, 0, 0.0),
        (0, 200, 230, -1, 0.0),
    ]
    own = self_times(spans)
    assert own == [100 - 30 - 40, 30 - 10, 10, 40, 30]
    # Self times of a tree add up to the roots' durations: nothing is
    # counted twice and nothing is lost.
    assert sum(own) == 100 + 30


def test_percentile_nearest_rank():
    assert percentile([], 50) == 0.0
    assert percentile([5], 99) == 5.0
    assert percentile(list(range(1, 102)), 50) == 51.0
    assert percentile(list(range(1, 102)), 99) == 100.0


class _Layered:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2

    async def parked(self, gate):
        await gate.wait()
        return "done"


def test_wrappers_nest_record_values_and_restore():
    original_outer, original_inner = _Layered.outer, _Layered.inner
    rec = Recorder()
    rec.install(
        [
            Target([_Layered], "outer", "top", "outer"),
            Target([_Layered], "inner", "bottom", "inner",
                   value=lambda args, kwargs, result: result),
        ]
    )
    try:
        assert _Layered.outer is not original_outer
        assert _Layered().outer(4) == 9          # disabled: passes straight through
        assert rec.threads() == []
        with rec.window():
            assert _Layered().outer(5) == 11
    finally:
        rec.uninstall()
    assert _Layered.outer is original_outer and _Layered.inner is original_inner
    ((_ident, spans),) = rec.threads()
    outer, inner = spans
    assert rec.keys[outer[0]] == ("top", "outer") and outer[3] == -1
    assert rec.keys[inner[0]] == ("bottom", "inner") and inner[3] == 0
    assert inner[4] == 10
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def test_install_refuses_a_namespace_that_rebound_the_name():
    class Other:
        inner = staticmethod(lambda n: n)

    rec = Recorder()
    try:
        rec.install([Target([_Layered, Other], "inner", "bottom", "inner")])
    except RuntimeError as exc:
        assert "refusing to patch" in str(exc)
    else:
        raise AssertionError("patched a name bound to a different function")
    finally:
        rec.uninstall()


def test_async_target_times_slices_not_the_parked_wait():
    rec = Recorder()
    rec.install([Target([_Layered], "parked", "svc", "parked", is_async=True)])

    async def scenario():
        gate = asyncio.Event()
        task = asyncio.ensure_future(_Layered().parked(gate))
        await asyncio.sleep(0.05)       # the coroutine is parked meanwhile
        gate.set()
        return await task

    try:
        with rec.window():
            assert asyncio.run(scenario()) == "done"
    finally:
        rec.uninstall()
    ((_ident, spans),) = rec.threads()
    assert len(spans) == 2                       # ran, parked, ran again
    assert [s[4] for s in spans] == [1.0, 0.0]   # only the first slice counts a call
    assert sum(s[2] - s[1] for s in spans) < 0.02e9
