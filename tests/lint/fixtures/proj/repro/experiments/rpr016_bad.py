"""RPR016 bad fixture: unbounded waits on blocking primitives, five ways."""

from concurrent.futures import ThreadPoolExecutor
from multiprocessing import Lock, Process, Queue


def dispatch_worker(context, payload, rng):
    return payload


def collect(pool, payload):
    future = pool.submit(dispatch_worker, None, payload, None)
    return future.result()


def collect_inline(pool, payload):
    return pool.submit(dispatch_worker, None, payload, None).result()


def drain():
    inbox = Queue()
    return inbox.get()


def guarded_update(state):
    gate = Lock()
    gate.acquire()
    try:
        state["cells"] = state.get("cells", 0) + 1
    finally:
        gate.release()


def run_sidecar(target):
    sidecar = Process(target=target)
    sidecar.start()
    sidecar.join()


def run_batches(jobs):
    with ThreadPoolExecutor(max_workers=2) as pool:
        return [collect(pool, job) for job in jobs]
