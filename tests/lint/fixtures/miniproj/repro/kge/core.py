"""Pipeline entry dispatching through a method receiver into util."""

from .util import draw


class Engine:
    def run(self, items):
        return self.sample(items)

    def sample(self, items):
        return draw(items)


def compute(items):
    engine = Engine()
    return engine.run(items)


def discover_facts(items):
    return compute(items)
