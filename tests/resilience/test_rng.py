"""Spawned RNG streams: one independent, reproducible stream per key."""

from __future__ import annotations

import numpy as np

from repro.resilience import spawn_stream


class TestSpawnedStreams:
    def test_empty_key_matches_default_rng(self):
        np.testing.assert_array_equal(
            spawn_stream(7).random(16), np.random.default_rng(7).random(16)
        )

    def test_distinct_keys_give_distinct_streams(self):
        a = spawn_stream(7, 3, 1).random(16)
        b = spawn_stream(7, 3, 2).random(16)
        assert not np.array_equal(a, b)

    def test_spawned_streams_are_reproducible(self):
        np.testing.assert_array_equal(
            spawn_stream(7, 3, 1).random(16), spawn_stream(7, 3, 1).random(16)
        )
