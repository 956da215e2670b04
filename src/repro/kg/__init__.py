"""Knowledge-graph substrate: triples, vocabularies, statistics, datasets.

Public surface:

* :class:`TripleSet` — integer triple storage with fast membership tests.
* :class:`KnowledgeGraph` — vocabularies plus train/valid/test splits.
* :class:`Vocabulary` — label ↔ id mapping.
* :class:`GraphStatistics` and the free functions in :mod:`repro.kg.stats`
  — degree, frequency, triangles, clustering coefficients.
* :func:`load_dataset` — benchmark replica registry (see
  :mod:`repro.kg.datasets` for the substitution rationale);
  :func:`load_full_dataset` for the full-scale out-of-core replicas.
* :func:`generate_kg` / :class:`KGProfile` — synthetic KG generation;
  :func:`generate_kg_streaming` for chunked generation straight into a
  mmap-backed store.
* :class:`MmapBackend` — the checksummed on-disk column store that
  KG stores are written to and mmapped from (see :mod:`repro.kg.storage`).
* :func:`load_dataset_dir` / :func:`save_dataset_dir` — TSV dataset I/O;
  :func:`save_kg_store` / :func:`load_kg_store` — binary KG stores.
"""

from .analysis import (
    RelationProfile,
    cardinality_histogram,
    dataset_report,
    powerlaw_exponent,
    relation_profiles,
)
from .blocked import (
    DEFAULT_MEMORY_BUDGET,
    local_triangles_blocked,
    plan_node_blocks,
    square_clustering_blocked,
)
from .datasets import (
    DATASET_PROFILES,
    FULL_SCALE_PROFILES,
    PAPER_METADATA,
    PaperDatasetMetadata,
    available_datasets,
    available_full_datasets,
    load_dataset,
    load_full_dataset,
    resolve_dataset,
)
from .generators import KGProfile, generate_kg, generate_kg_streaming, scale_profile
from .graph import KnowledgeGraph
from .io import (
    kg_store_exists,
    load_dataset_dir,
    load_kg_store,
    read_triples_tsv,
    save_dataset_dir,
    save_kg_store,
    write_triples_tsv,
)
from .stats import (
    OBJECT,
    SUBJECT,
    GraphStatistics,
    degrees,
    entity_frequency,
    global_clustering_coefficient,
    local_clustering_coefficient,
    local_triangles,
    side_entities,
    square_clustering,
    square_clustering_reference,
    to_networkx,
    undirected_adjacency,
)
from .storage import MmapBackend, StorageCorruptError
from .transforms import (
    InverseLeak,
    detect_inverse_leakage,
    filter_relations,
    induced_subgraph,
    remove_inverse_leakage,
    sample_complement,
)
from .triples import TripleSet, encode_keys
from .vocabulary import Vocabulary

__all__ = [
    "TripleSet",
    "encode_keys",
    "KnowledgeGraph",
    "Vocabulary",
    "GraphStatistics",
    "SUBJECT",
    "OBJECT",
    "undirected_adjacency",
    "degrees",
    "entity_frequency",
    "side_entities",
    "to_networkx",
    "local_triangles",
    "local_clustering_coefficient",
    "square_clustering",
    "square_clustering_reference",
    "global_clustering_coefficient",
    "DEFAULT_MEMORY_BUDGET",
    "plan_node_blocks",
    "local_triangles_blocked",
    "square_clustering_blocked",
    "MmapBackend",
    "StorageCorruptError",
    "KGProfile",
    "generate_kg",
    "generate_kg_streaming",
    "scale_profile",
    "DATASET_PROFILES",
    "FULL_SCALE_PROFILES",
    "PAPER_METADATA",
    "PaperDatasetMetadata",
    "available_datasets",
    "available_full_datasets",
    "load_dataset",
    "load_full_dataset",
    "resolve_dataset",
    "load_dataset_dir",
    "save_dataset_dir",
    "save_kg_store",
    "load_kg_store",
    "kg_store_exists",
    "read_triples_tsv",
    "write_triples_tsv",
    "RelationProfile",
    "relation_profiles",
    "cardinality_histogram",
    "powerlaw_exponent",
    "dataset_report",
    "InverseLeak",
    "detect_inverse_leakage",
    "remove_inverse_leakage",
    "induced_subgraph",
    "filter_relations",
    "sample_complement",
]
