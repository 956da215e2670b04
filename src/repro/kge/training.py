"""Training jobs for KGE models.

Two regimes, selected by :class:`~repro.kge.config.TrainConfig.job`:

* **negative_sampling** — classic corrupt-and-rank training with a
  margin or BCE loss (TransE's native regime);
* **kvsall** — for every ``(s, r)`` query score all entities and apply a
  multi-label BCE against the set of true objects, the regime under
  which DistMult/ComplEx/ConvE shine.

All optimisation uses the optimizers from :mod:`repro.autograd.optim`
at a constant learning rate; the paper trains everything with Adam.

Sparse fast path: ``TrainConfig.sparse_grads`` ("auto" by default)
flips the entity tables named by ``model.sparse_entity_parameters()``
into row-sparse gradient accumulation for the negative-sampling job,
where a batch touches a few hundred of thousands of rows.  Lazy
optimizers (SGD with momentum, Adam) are flushed at every epoch
boundary — before the loss check, evaluation, and early stopping — and
after every batch for models whose ``post_batch_hook`` mutates
parameters directly (TransE's row renormalisation).  The sparse
and dense paths produce bit-identical models.

Divergence: an epoch whose mean loss is NaN or infinite stops training
with a typed :class:`~repro.resilience.TrainingDivergedError`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from ..autograd import Adagrad, Adam, Optimizer, SGD
from ..kg.graph import KnowledgeGraph
from ..obs import get_registry, span
from ..resilience import TrainingDivergedError
from .base import KGEModel, create_model
from .config import ModelConfig, TrainConfig
from .evaluation import evaluate_ranking
from .losses import BCEWithLogitsLoss, MarginRankingLoss, create_loss
from .negative_sampling import NegativeSampler

__all__ = ["TrainingResult", "train_model", "fit"]

logger = logging.getLogger(__name__)


@dataclass
class TrainingResult:
    """What a training run produced."""

    model: KGEModel
    losses: list[float] = field(default_factory=list)
    valid_mrr_history: list[float] = field(default_factory=list)
    best_valid_mrr: float = 0.0
    epochs_run: int = 0


def _make_optimizer(model: KGEModel, config: TrainConfig) -> Optimizer:
    params = list(model.parameters())
    if config.optimizer == "adam":
        return Adam(params, lr=config.lr, weight_decay=config.weight_decay)
    if config.optimizer == "adagrad":
        return Adagrad(params, lr=config.lr)
    if config.optimizer == "sgd":
        return SGD(params, lr=config.lr, momentum=config.momentum)
    raise KeyError(f"unknown optimizer {config.optimizer!r}")


def _enable_sparse_grads(model: KGEModel, config: TrainConfig) -> None:
    """Flip entity-table parameters into row-sparse accumulation.

    ``"auto"`` restricts the fast path to the negative-sampling job: the
    kvsall regime scores against *all* entities, so its entity
    gradients are inherently dense and the flag would only add a
    densify round-trip per step.  Lazy optimizers (Adam, SGD with
    momentum) stay enabled even for models whose ``post_batch_hook``
    mutates parameters directly (TransE): the per-batch ``flush()`` that
    hook forces leaves every stale row exactly one step behind, which
    the optimizers replay through a fused in-place kernel that costs no
    more than the dense sweep while still skipping the dense gradient
    materialisation.  ``"on"`` forces the flag regardless of job (still
    bit-identical, just not faster under kvsall).
    """
    enable = config.sparse_grads == "on" or (
        config.sparse_grads == "auto" and config.job == "negative_sampling"
    )
    for param in model.sparse_entity_parameters():
        param.sparse_grad = enable
        # Drop any catch-up hook left by a previous training run's
        # optimizer; the new optimizer re-attaches on engagement.
        param._catch_up = None


def _negative_sampling_epoch(
    model: KGEModel,
    graph: KnowledgeGraph,
    sampler: NegativeSampler,
    loss_fn,
    optimizer: Optimizer,
    config: TrainConfig,
    rng: np.random.Generator,
    batch_flush: bool = False,
) -> float:
    triples = graph.train.array
    order = rng.permutation(len(triples))
    total = 0.0
    batches = 0
    registry = get_registry()
    for start in range(0, len(order), config.batch_size):
        with span("train.sample"):
            batch = triples[order[start : start + config.batch_size]]
            negatives = sampler.sample(batch)
            flat_neg = negatives.reshape(-1, 3)

        optimizer.zero_grad()
        with span("train.forward"):
            pos_scores = model.score_spo(batch[:, 0], batch[:, 1], batch[:, 2])
            neg_scores = model.score_spo(
                flat_neg[:, 0], flat_neg[:, 1], flat_neg[:, 2]
            ).reshape(len(batch), -1)

            if isinstance(loss_fn, MarginRankingLoss):
                loss = loss_fn(pos_scores, neg_scores)
            else:  # BCEWithLogitsLoss
                from ..autograd import concatenate

                logits = concatenate(
                    [pos_scores, neg_scores.reshape(-1)], axis=0
                )
                targets = np.concatenate(
                    [np.ones(len(batch)), np.zeros(neg_scores.size)]
                )
                loss = loss_fn(logits, targets)
        with span("train.backward"):
            loss.backward()
        with span("train.step"):
            optimizer.step()
            if batch_flush:
                # The hook below mutates parameters in place (e.g. TransE's
                # row renormalisation), so lazy rows must be settled first.
                optimizer.flush()
        model.post_batch_hook()
        registry.counter("train.batches_count").inc()
        total += loss.item()
        batches += 1
    return total / max(batches, 1)


def _kvsall_queries(
    graph: KnowledgeGraph,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Unique (s, r) queries with their true-answer ids in CSR form.

    Subject-side queries could be folded in through reciprocal relation
    ids ``r + K`` — but only models trained with ``2·K`` relation rows
    use them; here we instead emit object-side queries only, matching the
    paper's object-corruption evaluation protocol.  Queries keep their
    first-occurrence order; their answers are the training set's
    :meth:`~repro.kg.triples.TripleSet.known_entities` view.
    """
    triples = graph.train.array
    keys = triples[:, 0] * graph.num_relations + triples[:, 1]
    _, first = np.unique(keys, return_index=True)
    queries = triples[np.sort(first), :2]
    return queries, graph.train.known_entities(queries[:, 0], queries[:, 1])


def _kvsall_targets(
    rows: np.ndarray,
    answers: tuple[np.ndarray, np.ndarray, np.ndarray],
    num_entities: int,
) -> np.ndarray:
    """Multi-hot ``(len(rows), num_entities)`` targets of the given queries."""
    ids, starts, stops = answers
    starts = starts[rows]
    counts = stops[rows] - starts
    owner = np.repeat(np.arange(len(rows)), counts)
    # Position of each answer inside its query's CSR slice.
    within = np.arange(owner.shape[0]) - np.repeat(np.cumsum(counts) - counts, counts)
    targets = np.zeros((len(rows), num_entities))
    targets[owner, ids[starts[owner] + within]] = 1.0
    return targets


def _kvsall_epoch(
    model: KGEModel,
    queries: np.ndarray,
    answers: tuple[np.ndarray, np.ndarray, np.ndarray],
    loss_fn: BCEWithLogitsLoss,
    optimizer: Optimizer,
    config: TrainConfig,
    rng: np.random.Generator,
    batch_flush: bool = False,
) -> float:
    order = rng.permutation(len(queries))
    total = 0.0
    batches = 0
    n = model.num_entities
    registry = get_registry()
    for start in range(0, len(order), config.batch_size):
        with span("train.sample"):
            rows = order[start : start + config.batch_size]
            batch = queries[rows]
            targets = _kvsall_targets(rows, answers, n)

        optimizer.zero_grad()
        with span("train.forward"):
            logits = model.score_sp(batch[:, 0], batch[:, 1])
            loss = loss_fn(logits, targets)
        with span("train.backward"):
            loss.backward()
        with span("train.step"):
            optimizer.step()
            if batch_flush:
                optimizer.flush()
        model.post_batch_hook()
        registry.counter("train.batches_count").inc()
        total += loss.item()
        batches += 1
    return total / max(batches, 1)


def train_model(
    model: KGEModel,
    graph: KnowledgeGraph,
    config: TrainConfig,
) -> TrainingResult:
    """Train ``model`` on ``graph.train`` according to ``config``.

    Supports optional periodic validation (``eval_every``) with early
    stopping on validation MRR (``early_stopping_patience``).  Raises
    :class:`~repro.resilience.TrainingDivergedError` when an epoch's mean
    loss is not finite.
    """
    rng = np.random.default_rng(config.seed)
    result = TrainingResult(model=model)
    _enable_sparse_grads(model, config)
    # Models whose post-batch hook mutates parameters directly (TransE's
    # row renormalisation) need lazy optimizer rows settled every batch.
    batch_flush = type(model).post_batch_hook is not KGEModel.post_batch_hook

    if config.job == "negative_sampling":
        sampler = NegativeSampler(
            graph.train,
            num_negatives=config.num_negatives,
            corrupt=config.corrupt,
            filter_true=config.filter_negatives,
            seed=config.seed,
        )
        if config.loss == "margin":
            loss_fn = MarginRankingLoss(margin=config.margin)
        else:
            loss_fn = create_loss(config.loss, label_smoothing=config.label_smoothing)

        def run_epoch() -> float:
            return _negative_sampling_epoch(
                model, graph, sampler, loss_fn, optimizer, config, rng,
                batch_flush=batch_flush,
            )

    else:  # kvsall
        if config.loss != "bce":
            raise ValueError("kvsall training requires the 'bce' loss")
        queries, answers = _kvsall_queries(graph)
        loss_fn = BCEWithLogitsLoss(label_smoothing=config.label_smoothing)

        def run_epoch() -> float:
            return _kvsall_epoch(
                model, queries, answers, loss_fn, optimizer, config, rng,
                batch_flush=batch_flush,
            )

    optimizer = _make_optimizer(model, config)
    best_mrr = 0.0
    epochs_since_best = 0
    model.train()
    registry = get_registry()
    with span("train"):
        for epoch in range(config.epochs):
            with span("train.epoch"):
                mean_loss = run_epoch()
                # Settle lazily-deferred sparse rows before anything reads
                # parameters (evaluation, early stopping).  The replay is
                # exact, so flushing here cannot change the final bits.
                optimizer.flush()
            if not math.isfinite(mean_loss):
                model.eval()
                raise TrainingDivergedError(
                    f"training diverged at epoch {epoch + 1} "
                    f"(mean loss {mean_loss})"
                )

            result.losses.append(mean_loss)
            result.epochs_run = epoch + 1
            registry.counter("train.epochs_count").inc()
            registry.gauge("train.loss").set(mean_loss)
            logger.debug(
                "epoch %d/%d: loss=%.4f", epoch + 1, config.epochs, mean_loss
            )
            if config.verbose:
                print(f"epoch {epoch + 1}/{config.epochs}: loss={mean_loss:.4f}")

            should_eval = (
                config.eval_every > 0 and (epoch + 1) % config.eval_every == 0
            )
            if should_eval and len(graph.valid):
                model.eval()
                metrics = evaluate_ranking(model, graph, split="valid")
                model.train()
                mrr = metrics.mrr
                result.valid_mrr_history.append(mrr)
                if mrr > best_mrr:
                    best_mrr = mrr
                    epochs_since_best = 0
                else:
                    epochs_since_best += 1
                if (
                    config.early_stopping_patience > 0
                    and epochs_since_best >= config.early_stopping_patience
                ):
                    logger.info(
                        "early stopping after epoch %d (best valid MRR %.4f)",
                        epoch + 1,
                        best_mrr,
                    )
                    break

    model.eval()
    result.best_valid_mrr = best_mrr
    logger.info(
        "trained %s for %d epochs on %s (final loss %.4f)",
        type(model).__name__,
        result.epochs_run,
        graph.name,
        result.losses[-1] if result.losses else float("nan"),
    )
    return result


def fit(
    graph: KnowledgeGraph,
    model_config: ModelConfig,
    train_config: TrainConfig,
) -> TrainingResult:
    """Build a model from its config and train it — the one-call API."""
    model = create_model(
        model_config.name,
        num_entities=graph.num_entities,
        num_relations=graph.num_relations,
        dim=model_config.dim,
        seed=model_config.seed,
        **model_config.options,
    )
    return train_model(model, graph, train_config)
