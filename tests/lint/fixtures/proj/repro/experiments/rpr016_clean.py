"""RPR016 clean fixture: every blocking wait is bounded or non-blocking."""

from concurrent.futures import ThreadPoolExecutor, wait
from multiprocessing import Lock, Process, Queue
from queue import Empty


def dispatch_worker(context, payload, rng):
    return payload


def collect(pool, payload):
    future = pool.submit(dispatch_worker, None, payload, None)
    wait([future], timeout=30.0)
    return future.result(timeout=0)


def drain():
    inbox = Queue()
    try:
        return inbox.get(timeout=5.0)
    except Empty:
        return None


def poll():
    inbox = Queue()
    try:
        return inbox.get_nowait()
    except Empty:
        return None


def guarded_update(state):
    gate = Lock()
    if not gate.acquire(timeout=5.0):
        raise TimeoutError("lock holder died")
    try:
        state["cells"] = state.get("cells", 0) + 1
    finally:
        gate.release()


def run_sidecar(target):
    sidecar = Process(target=target)
    sidecar.start()
    sidecar.join(timeout=30.0)
    return "\n".join(["done"])


def run_batches(jobs):
    with ThreadPoolExecutor(max_workers=2) as pool:
        return [collect(pool, job) for job in jobs]
