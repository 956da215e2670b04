"""Negative sampling for KGE training.

Generates corrupted triples by replacing the subject or object with
uniformly-drawn entities, optionally rejecting corruptions that are true
in the training graph (the "filtered" Bernoulli-free scheme used by most
libraries).
"""

from __future__ import annotations

import numpy as np

from ..kg.triples import TripleSet

__all__ = ["NegativeSampler"]


class NegativeSampler:
    """Uniform corruption sampler over the entity space.

    Parameters
    ----------
    triples:
        Training triples; used to reject accidental positives when
        ``filter_true`` is on.
    num_negatives:
        Corruptions generated per positive triple.
    corrupt:
        ``"object"``, ``"subject"``, ``"both"`` (alternating halves) or
        ``"bernoulli"`` (side chosen per relation with probability
        tph / (tph + hpt), the scheme of Wang et al. 2014 that reduces
        false negatives on skewed relations).  The paper's evaluation
        protocol corrupts the object side, but training with both sides
        is standard and strictly more informative.
    filter_true:
        Resample (up to a bounded number of rounds) corruptions that hit
        actual training triples.
    """

    def __init__(
        self,
        triples: TripleSet,
        num_negatives: int = 8,
        corrupt: str = "both",
        filter_true: bool = True,
        seed: int = 0,
        max_resample_rounds: int = 8,
    ) -> None:
        if num_negatives < 1:
            raise ValueError(f"num_negatives must be >= 1, got {num_negatives}")
        if corrupt not in ("object", "subject", "both", "bernoulli"):
            raise ValueError(
                f"corrupt must be object/subject/both/bernoulli, got {corrupt!r}"
            )
        self.triples = triples
        self.num_negatives = num_negatives
        self.corrupt = corrupt
        self.filter_true = filter_true
        self.max_resample_rounds = max_resample_rounds
        self.rng = np.random.default_rng(seed)
        self._object_corruption_prob = (
            self._bernoulli_probabilities() if corrupt == "bernoulli" else None
        )

    def _bernoulli_probabilities(self) -> np.ndarray:
        """Per-relation probability of corrupting the *object* side.

        Following Wang et al. (2014): with tph = mean tails per head and
        hpt = mean heads per tail, corrupt the head (subject) with
        probability tph / (tph + hpt) — i.e. corrupt the object with the
        complementary probability — so that the side with more valid
        completions is disturbed less, reducing false negatives.
        """
        probs = np.full(self.triples.num_relations, 0.5)
        arr = self.triples.array
        for relation in self.triples.unique_relations():
            rel = arr[arr[:, 1] == relation]
            tph = len(rel) / max(len(np.unique(rel[:, 0])), 1)
            hpt = len(rel) / max(len(np.unique(rel[:, 2])), 1)
            probs[relation] = hpt / (tph + hpt)
        return probs

    def sample(self, positives: np.ndarray) -> np.ndarray:
        """Corrupt a ``(B, 3)`` positive batch into ``(B, num_negatives, 3)``."""
        positives = np.asarray(positives, dtype=np.int64)
        batch = positives.shape[0]
        negatives = np.repeat(positives[:, None, :], self.num_negatives, axis=1)

        if self.corrupt == "both":
            corrupt_object = (
                np.arange(self.num_negatives)[None, :] % 2 == 0
            ) ^ (np.arange(batch)[:, None] % 2 == 1)
        elif self.corrupt == "bernoulli":
            probs = self._object_corruption_prob[positives[:, 1]]
            corrupt_object = (
                self.rng.random((batch, self.num_negatives)) < probs[:, None]
            )
        elif self.corrupt == "object":
            corrupt_object = np.ones((batch, self.num_negatives), dtype=bool)
        else:
            corrupt_object = np.zeros((batch, self.num_negatives), dtype=bool)

        replacements = self.rng.integers(
            0, self.triples.num_entities, size=(batch, self.num_negatives)
        )
        negatives[:, :, 2] = np.where(
            corrupt_object, replacements, negatives[:, :, 2]
        )
        negatives[:, :, 0] = np.where(
            corrupt_object, negatives[:, :, 0], replacements
        )

        if self.filter_true:
            self._resample_positives(negatives, corrupt_object)
        return negatives

    def _resample_positives(
        self, negatives: np.ndarray, corrupt_object: np.ndarray
    ) -> None:
        """Replace corruptions that are true triples, bounded rounds.

        The first round probes every slot; afterwards only the slots
        just resampled can still collide (untouched rows keep their
        verified non-hit), so each later round probes that shrinking
        active set instead of re-encoding the whole batch.  Hit slots
        are visited in the same ascending order either way, so the
        number and order of RNG draws — and therefore the sampled
        negatives — are identical to the full-sweep loop this replaces.
        """
        flat = negatives.reshape(-1, 3)
        flat_mask = corrupt_object.reshape(-1)
        active: np.ndarray | None = None
        for _ in range(self.max_resample_rounds):
            hits = self.triples.contains(flat if active is None else flat[active])
            if not hits.any():
                return
            idx = np.flatnonzero(hits) if active is None else active[hits]
            fresh = self.rng.integers(0, self.triples.num_entities, size=idx.size)
            obj_side = flat_mask[idx]
            flat[idx[obj_side], 2] = fresh[obj_side]
            flat[idx[~obj_side], 0] = fresh[~obj_side]
            active = idx
        # After the bounded rounds a handful of accidental positives may
        # survive; standard libraries accept this residue too.
