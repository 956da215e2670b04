"""The end-to-end experimental workflow of the paper's Figure 1.

``dataset selection → KGE algorithm selection → model training →
discover facts → metrics``, packaged as one configurable object so a
user can reproduce a full experimental configuration in three lines::

    flow = FactDiscoveryWorkflow(dataset="fb15k237-like", model="transe",
                                 strategy="cluster_triangles")
    report = flow.run()
    print(report.summary())
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..discovery.discover import DiscoveryResult, discover_facts
from ..kg.datasets import load_dataset
from ..kg.graph import KnowledgeGraph
from ..kg.stats import GraphStatistics
from ..kge.base import KGEModel
from ..kge.evaluation import RankingMetrics, evaluate_ranking
from ..kge.training import fit
from ..obs import ReportableMixin
from .runner import default_model_config, default_train_config, get_trained_model

__all__ = ["WorkflowReport", "FactDiscoveryWorkflow"]


@dataclass
class WorkflowReport(ReportableMixin):
    """Everything one workflow run produced."""

    dataset: str
    model_name: str
    strategy: str
    graph: KnowledgeGraph = field(repr=False)
    model: KGEModel = field(repr=False)
    link_prediction: RankingMetrics
    discovery: DiscoveryResult

    def summary(self) -> dict[str, float]:
        """Flat dict with the headline numbers of the run."""
        out = {
            "dataset": self.dataset,
            "model": self.model_name,
            "strategy": self.strategy,
            "test_mrr": self.link_prediction.mrr,
            "test_hits@10": self.link_prediction.hits.get(10, float("nan")),
        }
        out.update(self.discovery.summary())
        return out


class FactDiscoveryWorkflow:
    """Configurable pipeline: load → train → evaluate → discover.

    Parameters
    ----------
    dataset:
        Dataset name from :func:`repro.kg.available_datasets`.
    model:
        Model name from :func:`repro.kge.available_models`.
    strategy:
        Sampling strategy from
        :func:`repro.discovery.available_strategies`.
    top_n, max_candidates:
        Discovery hyperparameters (paper defaults: 500 / 500).
    use_cached_model:
        Reuse the shared trained-model cache; set ``False`` to train a
        fresh model with the default (or provided) configs.
    """

    def __init__(
        self,
        dataset: str = "fb15k237-like",
        model: str = "transe",
        strategy: str = "entity_frequency",
        top_n: int = 500,
        max_candidates: int = 500,
        seed: int = 0,
        use_cached_model: bool = True,
        model_config=None,
        train_config=None,
    ) -> None:
        self.dataset = dataset
        self.model_name = model
        self.strategy = strategy
        self.top_n = top_n
        self.max_candidates = max_candidates
        self.seed = seed
        self.use_cached_model = use_cached_model
        self.model_config = model_config or default_model_config(model)
        self.train_config = train_config or default_train_config(model)

    def run(self) -> WorkflowReport:
        """Execute all workflow steps and return the bundled report."""
        graph = load_dataset(self.dataset)
        if self.use_cached_model:
            model = get_trained_model(self.dataset, self.model_name, graph=graph)
        else:
            model = fit(graph, self.model_config, self.train_config).model

        link_prediction = evaluate_ranking(model, graph, split="test")
        discovery = discover_facts(
            model,
            graph,
            strategy=self.strategy,
            top_n=self.top_n,
            max_candidates=self.max_candidates,
            seed=self.seed,
            stats=GraphStatistics(graph.train),
        )
        return WorkflowReport(
            dataset=self.dataset,
            model_name=self.model_name,
            strategy=self.strategy,
            graph=graph,
            model=model,
            link_prediction=link_prediction,
            discovery=discovery,
        )
