"""Drive a coroutine from a sync test on the engine loop production runs."""

from repro.transport.aio import get_engine


def run(coro, timeout=30.0):
    return get_engine().submit(coro).result(timeout)
