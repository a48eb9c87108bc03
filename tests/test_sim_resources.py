"""Unit + property tests for simulation resources."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.engine import Environment
from repro.sim.resources import Container, ProcessorSharing, Resource, Store


class TestResource:
    def test_capacity_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_serialises_at_capacity_one(self):
        env = Environment()
        cpu = Resource(env, capacity=1)
        finished = []

        def job(env, t):
            req = cpu.request()
            yield req
            yield env.timeout(t)
            cpu.release(req)
            finished.append(env.now)

        env.process(job(env, 2))
        env.process(job(env, 3))
        env.run()
        assert finished == [2.0, 5.0]

    def test_parallel_within_capacity(self):
        env = Environment()
        cpu = Resource(env, capacity=2)
        finished = []

        def job(env, t):
            req = cpu.request()
            yield req
            yield env.timeout(t)
            cpu.release(req)
            finished.append(env.now)

        for _ in range(2):
            env.process(job(env, 4))
        env.run()
        assert finished == [4.0, 4.0]

    def test_release_without_request_raises(self):
        env = Environment()
        cpu = Resource(env)
        with pytest.raises(Exception):
            cpu.release()

    def test_queue_length_and_cancel(self):
        env = Environment()
        res = Resource(env, capacity=1)
        first = res.request()
        second = res.request()
        assert res.queue_length == 1
        assert res.cancel(second) is True
        assert res.queue_length == 0
        assert res.cancel(second) is False


class TestStore:
    def test_fifo_order(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        def producer(env):
            for i in range(3):
                yield env.timeout(1)
                store.put(i)

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == [0, 1, 2]

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        times = []

        def consumer(env):
            yield store.get()
            times.append(env.now)

        def producer(env):
            yield env.timeout(7)
            store.put("x")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert times == [7.0]

    def test_bounded_put_blocks(self):
        env = Environment()
        store = Store(env, capacity=1)
        log = []

        def producer(env):
            yield store.put("a")
            log.append(("a", env.now))
            yield store.put("b")
            log.append(("b", env.now))

        def consumer(env):
            yield env.timeout(5)
            yield store.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert log[0] == ("a", 0.0)
        assert log[1][1] == 5.0

    def test_capacity_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            Store(env, capacity=0)


class TestContainer:
    def test_level_tracking(self):
        env = Environment()
        tank = Container(env, init=10.0, capacity=20.0)
        tank.get(4.0)
        assert tank.level == 6.0
        tank.put(2.0)
        assert tank.level == 8.0

    def test_get_blocks_until_available(self):
        env = Environment()
        tank = Container(env, init=0.0)
        times = []

        def taker(env):
            yield tank.get(5.0)
            times.append(env.now)

        def filler(env):
            yield env.timeout(3)
            tank.put(5.0)

        env.process(taker(env))
        env.process(filler(env))
        env.run()
        assert times == [3.0]

    def test_init_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            Container(env, init=-1)
        with pytest.raises(ValueError):
            Container(env, init=5, capacity=4)

    def test_negative_amounts_rejected(self):
        env = Environment()
        tank = Container(env, init=1)
        with pytest.raises(ValueError):
            tank.put(-1)
        with pytest.raises(ValueError):
            tank.get(-1)


class TestProcessorSharing:
    def test_single_job_runs_at_full_speed(self):
        env = Environment()
        ps = ProcessorSharing(env, speed=2.0)
        done_at = []

        def job(env):
            yield ps.compute(10.0)
            done_at.append(env.now)

        env.process(job(env))
        env.run()
        assert done_at == [pytest.approx(5.0)]

    def test_two_equal_jobs_share_equally(self):
        env = Environment()
        ps = ProcessorSharing(env, speed=1.0)
        done_at = []

        def job(env):
            yield ps.compute(5.0)
            done_at.append(env.now)

        env.process(job(env))
        env.process(job(env))
        env.run()
        assert done_at == [pytest.approx(10.0)] * 2

    def test_short_job_departs_then_long_speeds_up(self):
        env = Environment()
        ps = ProcessorSharing(env, speed=1.0)
        done = {}

        def job(env, name, work):
            yield ps.compute(work)
            done[name] = env.now

        env.process(job(env, "short", 2.0))
        env.process(job(env, "long", 10.0))
        env.run()
        # Short: shares until 4.0 (2 work at half rate).  Long then has
        # 8 work left at full rate: finishes at 12.0.
        assert done["short"] == pytest.approx(4.0)
        assert done["long"] == pytest.approx(12.0)

    def test_late_arrival(self):
        env = Environment()
        ps = ProcessorSharing(env, speed=1.0)
        done = {}

        def job(env, name, work, start):
            yield env.timeout(start)
            yield ps.compute(work)
            done[name] = env.now

        env.process(job(env, "a", 10.0, 0.0))
        env.process(job(env, "b", 3.0, 4.0))
        env.run()
        # a runs alone [0,4] (6 left), shares [4,10] (3 each), b done at
        # 10; a has 3 left alone, done at 13.
        assert done["b"] == pytest.approx(10.0)
        assert done["a"] == pytest.approx(13.0)

    def test_multicore_no_contention_below_capacity(self):
        env = Environment()
        ps = ProcessorSharing(env, speed=1.0, cores=2)
        done = []

        def job(env):
            yield ps.compute(6.0)
            done.append(env.now)

        env.process(job(env))
        env.process(job(env))
        env.run()
        assert done == [pytest.approx(6.0)] * 2

    def test_multicore_contention_above_capacity(self):
        env = Environment()
        ps = ProcessorSharing(env, speed=1.0, cores=2)
        done = []

        def job(env):
            yield ps.compute(6.0)
            done.append(env.now)

        for _ in range(3):
            env.process(job(env))
        env.run()
        # 3 jobs on 2 cores: each gets 2/3 rate -> 9.0.
        assert done == [pytest.approx(9.0)] * 3

    def test_zero_work_completes_immediately(self):
        env = Environment()
        ps = ProcessorSharing(env, speed=1.0)
        evt = ps.compute(0.0)
        assert evt.triggered

    def test_large_work_values_terminate(self):
        # Regression: float residue on ~1e6-scale work values must not
        # spin the scheduler (nanosecond epsilon, not absolute).
        env = Environment()
        ps = ProcessorSharing(env, speed=40e6)
        done = []

        def job(env, work):
            yield ps.compute(work)
            done.append(env.now)

        env.process(job(env, 262144.0))
        env.process(job(env, 1048576.0))
        env.run()
        assert len(done) == 2

    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            ProcessorSharing(env, speed=0)
        with pytest.raises(ValueError):
            ProcessorSharing(env, speed=1, cores=0)
        ps = ProcessorSharing(env, speed=1)
        with pytest.raises(ValueError):
            ps.compute(-1)


class TestProcessorSharingProperties:
    @given(
        works=st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1, max_size=8),
        speed=st.floats(min_value=0.1, max_value=1e8),
    )
    @settings(max_examples=60, deadline=None)
    # A fixed 1 ns finish epsilon is 0.015625 work units at this speed:
    # exactly job 2's residue once job 1 leaves, so it "finished" early.
    @example(works=[0.125, 0.140625], speed=15625000.0)
    def test_total_time_equals_total_work_over_speed(self, works, speed):
        """Work conservation: with all jobs started at t=0 on one core,
        the last completion is exactly sum(work)/speed."""
        env = Environment()
        ps = ProcessorSharing(env, speed=speed)
        done = []

        def job(env, w):
            yield ps.compute(w)
            done.append(env.now)

        for w in works:
            env.process(job(env, w))
        env.run()
        assert len(done) == len(works)
        assert max(done) == pytest.approx(sum(works) / speed, rel=1e-6)

    @given(
        works=st.lists(st.floats(min_value=0.5, max_value=100), min_size=2, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_completion_order_matches_work_order(self, works):
        """Smaller jobs finish no later than larger ones (PS fairness)."""
        env = Environment()
        ps = ProcessorSharing(env, speed=1.0)
        finish = {}

        def job(env, idx, w):
            yield ps.compute(w)
            finish[idx] = env.now

        for i, w in enumerate(works):
            env.process(job(env, i, w))
        env.run()
        order = sorted(range(len(works)), key=lambda i: works[i])
        times = [finish[i] for i in order]
        assert times == sorted(times)

    @pytest.mark.timeout(30)
    def test_large_clock_values_do_not_livelock(self):
        """Regression: completion times ~2.4e7 where ulp(now) > 1e-9.

        With a fixed nanosecond finish epsilon, the residual work of the
        slow jobs fell below what a scheduled timeout could add to the
        float clock, so the scheduler spun forever without advancing
        time.  The epsilon must scale with ulp(env.now).
        """
        works = [
            168397.89, 308429.01, 247742.68, 369066.51,
            106753.29, 61760.57, 904710.85, 911605.64,
        ]
        speed = 0.13
        env = Environment()
        ps = ProcessorSharing(env, speed=speed)
        done = []

        def job(env, w):
            yield ps.compute(w)
            done.append(env.now)

        for w in works:
            env.process(job(env, w))
        env.run()
        assert len(done) == len(works)
        assert max(done) == pytest.approx(sum(works) / speed, rel=1e-6)
