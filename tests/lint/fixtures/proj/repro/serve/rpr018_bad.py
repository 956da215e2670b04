"""RPR018 bad fixture: waits that can pin a pool slot forever."""

from threading import Condition, Event


def wait_for_leader():
    done = Event()
    done.wait()  # unbounded: leader may have died
    return done


class Flight:
    def __init__(self):
        self._cond = Condition()

    def follow(self):
        with self._cond:
            self._cond.wait()  # unbounded: never re-checks the deadline
