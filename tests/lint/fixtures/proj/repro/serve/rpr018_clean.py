"""RPR018 clean fixture: every wait is a bounded slice that re-checks its deadline."""

from threading import Condition, Event, Lock

_WAIT_SLICE_SECONDS = 0.05


def wait_for_leader(deadline_expired):
    done = Event()
    while not done.wait(timeout=_WAIT_SLICE_SECONDS):
        if deadline_expired():
            raise TimeoutError("deadline exceeded")
    return done


class FlightTable:
    """Shared state lives in an object that owns its lock."""

    def __init__(self):
        self._lock = Lock()
        self._cond = Condition(self._lock)
        self._pending = {}

    def record(self, key, value):
        with self._cond:
            self._pending[key] = value
            self._cond.notify_all()

    def follow(self, key, deadline_expired):
        with self._cond:
            while key not in self._pending:
                if deadline_expired():
                    raise TimeoutError("deadline exceeded")
                self._cond.wait(timeout=_WAIT_SLICE_SECONDS)
            return self._pending[key]

