"""Training-job tests: losses decrease and models learn above chance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kge import ModelConfig, TrainConfig, evaluate_ranking, fit, train_model
from repro.kge.base import create_model
from repro.resilience import TrainingDivergedError


class TestTrainConfigValidation:
    def test_bad_job(self):
        with pytest.raises(ValueError):
            TrainConfig(job="contrastive")

    def test_bad_epochs(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_kvsall_requires_bce(self, tiny_graph):
        model = create_model(
            "distmult",
            num_entities=tiny_graph.num_entities,
            num_relations=tiny_graph.num_relations,
            dim=8,
        )
        with pytest.raises(ValueError, match="bce"):
            train_model(model, tiny_graph, TrainConfig(job="kvsall", loss="margin"))

    def test_with_replaces_fields(self):
        config = TrainConfig(epochs=5).with_(epochs=9, lr=0.5)
        assert config.epochs == 9 and config.lr == 0.5

    def test_bad_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize("momentum", [-0.1, 1.0])
    def test_momentum_outside_unit_interval(self, momentum):
        with pytest.raises(ValueError, match="momentum"):
            TrainConfig(momentum=momentum)

    def test_bad_sparse_grads_setting(self):
        with pytest.raises(ValueError, match="sparse_grads"):
            TrainConfig(sparse_grads="sometimes")

    def test_negative_sampling_rejects_a_softmax_loss(self, tiny_graph):
        model = create_model(
            "distmult",
            num_entities=tiny_graph.num_entities,
            num_relations=tiny_graph.num_relations,
            dim=8,
        )
        with pytest.raises(TypeError, match="SoftmaxCrossEntropyLoss"):
            train_model(
                model, tiny_graph, TrainConfig(job="negative_sampling", loss="softmax")
            )

    def test_unknown_optimizer(self, tiny_graph):
        model = create_model(
            "distmult",
            num_entities=tiny_graph.num_entities,
            num_relations=tiny_graph.num_relations,
            dim=8,
        )
        with pytest.raises(KeyError):
            train_model(
                model, tiny_graph, TrainConfig(job="kvsall", loss="bce", optimizer="lion")
            )


class TestLossDecreases:
    @pytest.mark.parametrize(
        "model_name,job,loss",
        [
            ("transe", "negative_sampling", "margin"),
            ("distmult", "negative_sampling", "bce"),
            ("distmult", "kvsall", "bce"),
            ("complex", "kvsall", "bce"),
            ("hole", "kvsall", "bce"),
            ("rescal", "kvsall", "bce"),
        ],
    )
    def test_loss_goes_down(self, tiny_graph, model_name, job, loss):
        result = fit(
            tiny_graph,
            ModelConfig(model_name, dim=16, seed=0),
            TrainConfig(job=job, loss=loss, epochs=12, batch_size=64, lr=0.03),
        )
        assert result.losses[-1] < result.losses[0]
        assert result.epochs_run == 12

    def test_1vsall_loss_goes_down(self, tiny_graph):
        result = fit(
            tiny_graph,
            ModelConfig("distmult", dim=16, seed=0),
            TrainConfig(job="1vsall", loss="softmax", epochs=12, batch_size=64, lr=0.05),
        )
        assert result.losses[-1] < result.losses[0]

    def test_self_adversarial_loss_goes_down(self, tiny_graph):
        result = fit(
            tiny_graph,
            ModelConfig("transe", dim=16, seed=0),
            TrainConfig(
                job="negative_sampling", loss="self_adversarial", epochs=10,
                batch_size=64, lr=0.01, margin=3.0, adversarial_temperature=0.5,
            ),
        )
        assert result.losses[-1] < result.losses[0]

    def test_verbose_prints_one_line_per_epoch(self, tiny_graph, capsys):
        result = fit(
            tiny_graph,
            ModelConfig("distmult", dim=8, seed=0),
            TrainConfig(
                job="kvsall", loss="bce", epochs=3, batch_size=64, verbose=True
            ),
        )
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            f"epoch {i + 1}/3: loss={loss:.4f}" for i, loss in enumerate(result.losses)
        ]

    def test_1vsall_requires_softmax(self, tiny_graph):
        model = create_model(
            "distmult",
            num_entities=tiny_graph.num_entities,
            num_relations=tiny_graph.num_relations,
            dim=8,
        )
        with pytest.raises(ValueError, match="softmax"):
            train_model(model, tiny_graph, TrainConfig(job="1vsall", loss="bce"))

    def test_bernoulli_corruption_trains(self, tiny_graph):
        result = fit(
            tiny_graph,
            ModelConfig("transe", dim=16, seed=0),
            TrainConfig(
                job="negative_sampling", loss="margin", epochs=10,
                batch_size=64, lr=0.01, corrupt="bernoulli",
            ),
        )
        assert result.losses[-1] < result.losses[0]

    def test_conve_loss_goes_down(self, tiny_graph):
        result = fit(
            tiny_graph,
            ModelConfig("conve", dim=16, seed=0, options={"num_filters": 8}),
            TrainConfig(job="kvsall", loss="bce", epochs=6, batch_size=64, lr=0.01),
        )
        assert result.losses[-1] < result.losses[0]


class TestLearnedQuality:
    def test_distmult_beats_random(self, trained_distmult, tiny_graph):
        metrics = evaluate_ranking(trained_distmult, tiny_graph)
        random_mrr = float(np.mean(1.0 / np.arange(1, tiny_graph.num_entities + 1)))
        assert metrics.mrr > 2 * random_mrr

    def test_transe_beats_random(self, trained_transe, tiny_graph):
        metrics = evaluate_ranking(trained_transe, tiny_graph)
        random_mrr = float(np.mean(1.0 / np.arange(1, tiny_graph.num_entities + 1)))
        assert metrics.mrr > 2 * random_mrr

    def test_model_in_eval_mode_after_training(self, trained_distmult):
        assert not trained_distmult.training


class TestEarlyStopping:
    def test_validation_history_recorded(self, tiny_graph):
        result = fit(
            tiny_graph,
            ModelConfig("distmult", dim=8, seed=0),
            TrainConfig(
                job="kvsall", loss="bce", epochs=6, batch_size=64, lr=0.05,
                eval_every=2,
            ),
        )
        assert len(result.valid_mrr_history) == 3
        assert result.best_valid_mrr == max(result.valid_mrr_history)

    def test_patience_stops_early(self, tiny_graph):
        result = fit(
            tiny_graph,
            ModelConfig("distmult", dim=8, seed=0),
            # lr=0 would be rejected; use a tiny lr so MRR plateaus and
            # patience triggers.
            TrainConfig(
                job="kvsall", loss="bce", epochs=50, batch_size=64, lr=1e-12,
                eval_every=1, early_stopping_patience=2,
            ),
        )
        assert result.epochs_run < 50


class TestLrDecay:
    def test_invalid_decay_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(lr_decay=0.0)
        with pytest.raises(ValueError):
            TrainConfig(lr_decay=1.5)

    def test_decay_reduces_effective_lr(self, tiny_graph):
        """With aggressive decay, later epochs barely move the weights."""
        from repro.kge.base import create_model

        def train(decay: float):
            model = create_model(
                "distmult",
                num_entities=tiny_graph.num_entities,
                num_relations=tiny_graph.num_relations,
                dim=8,
                seed=4,
            )
            snapshot_after_one = None
            config = TrainConfig(
                job="kvsall", loss="bce", epochs=8, batch_size=64, lr=0.05,
                lr_decay=decay, seed=0,
            )
            train_model(model, tiny_graph, config)
            return model.entity_matrix().copy()

        decayed = train(0.1)
        constant = train(1.0)
        assert not np.allclose(decayed, constant)


class TestDeterminism:
    def test_same_seed_same_model(self, tiny_graph):
        config = TrainConfig(job="kvsall", loss="bce", epochs=4, batch_size=64, lr=0.05, seed=3)
        a = fit(tiny_graph, ModelConfig("distmult", dim=8, seed=1), config)
        b = fit(tiny_graph, ModelConfig("distmult", dim=8, seed=1), config)
        np.testing.assert_array_equal(
            a.model.entity_matrix(), b.model.entity_matrix()
        )
        assert a.losses == b.losses


class TestDivergence:
    def test_nan_epoch_loss_raises_typed_error(self, tiny_graph, monkeypatch):
        import repro.kge.training as training

        real_epoch = training._kvsall_epoch
        calls = []

        def nan_on_third_epoch(*args, **kwargs):
            loss = real_epoch(*args, **kwargs)
            calls.append(loss)
            return float("nan") if len(calls) == 3 else loss

        monkeypatch.setattr(training, "_kvsall_epoch", nan_on_third_epoch)
        model = create_model(
            "distmult",
            num_entities=tiny_graph.num_entities,
            num_relations=tiny_graph.num_relations,
            dim=8,
            seed=1,
        )
        config = TrainConfig(
            job="kvsall", loss="bce", epochs=5, batch_size=64, lr=0.05, seed=3
        )
        with pytest.raises(TrainingDivergedError, match="epoch 3"):
            train_model(model, tiny_graph, config)
        assert len(calls) == 3  # training stopped at the diverged epoch
        # The model is left eval-consistent even on the failure path.
        assert not model.training

    @pytest.mark.parametrize(
        "job,loss,epoch_fn",
        [
            ("negative_sampling", "margin", "_negative_sampling_epoch"),
            ("kvsall", "bce", "_kvsall_epoch"),
            ("1vsall", "softmax", "_one_vs_all_epoch"),
        ],
    )
    def test_every_job_halts_on_an_infinite_epoch_loss(
        self, tiny_graph, monkeypatch, job, loss, epoch_fn
    ):
        import repro.kge.training as training

        real_epoch = getattr(training, epoch_fn)
        calls = []

        def inf_on_second_epoch(*args, **kwargs):
            calls.append(real_epoch(*args, **kwargs))
            return float("inf") if len(calls) == 2 else calls[-1]

        monkeypatch.setattr(training, epoch_fn, inf_on_second_epoch)
        config = TrainConfig(job=job, loss=loss, epochs=4, batch_size=64, seed=3)
        with pytest.raises(TrainingDivergedError, match="epoch 2 .mean loss inf"):
            fit(tiny_graph, ModelConfig("distmult", dim=8, seed=1), config)
        assert len(calls) == 2

    def test_exploding_learning_rate_is_stopped(self, tiny_graph):
        """A real blow-up, no patching: SGD with an absurd step size
        overflows the embeddings and the next epoch's loss is NaN."""
        config = TrainConfig(
            job="kvsall", loss="bce", optimizer="sgd", lr=1e300, epochs=5,
            batch_size=64, seed=3,
        )
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError, match="diverged"):
                fit(tiny_graph, ModelConfig("distmult", dim=8, seed=1), config)

    def test_finite_losses_never_trip_the_check(self, tiny_graph):
        config = TrainConfig(job="kvsall", loss="bce", epochs=3, batch_size=64, seed=3)
        result = fit(tiny_graph, ModelConfig("distmult", dim=8, seed=1), config)
        assert result.epochs_run == 3
        assert all(np.isfinite(result.losses))
