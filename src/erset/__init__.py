"""Entity resolution by in-context clustering of record sets."""

from .blocking import Block, BlockingParams, make_blocks, tune_threshold
from .dataio import Dataset, ingest
from .engine import Resolver
from .gateway import (
    HttpProvider,
    LlmGateway,
    OracleConfig,
    ProviderConfig,
    SimulatedOracle,
)
from .metrics import acc, ari, fp_measure, nmi, pairwise_f1
from .model import (
    Attribute,
    ClusterNode,
    ConstraintStore,
    CostLedger,
    ERError,
    Partition,
    Record,
    RecordSet,
    SetClustering,
    SetConfig,
)
from .setbuilder import elbow_k, kmeans, next_record_set, pre_clusters, variation
from .similarity import SimilarityConfig, SimilarityIndex
from .synth import generate_dataset, planted_embeddings

__version__ = "0.1.0"

__all__ = [
    "Attribute",
    "Block",
    "BlockingParams",
    "ClusterNode",
    "ConstraintStore",
    "CostLedger",
    "Dataset",
    "ERError",
    "HttpProvider",
    "LlmGateway",
    "OracleConfig",
    "Partition",
    "ProviderConfig",
    "Record",
    "RecordSet",
    "Resolver",
    "SetClustering",
    "SetConfig",
    "SimilarityConfig",
    "SimilarityIndex",
    "SimulatedOracle",
    "acc",
    "ari",
    "elbow_k",
    "fp_measure",
    "generate_dataset",
    "ingest",
    "kmeans",
    "make_blocks",
    "next_record_set",
    "nmi",
    "pairwise_f1",
    "planted_embeddings",
    "pre_clusters",
    "tune_threshold",
    "variation",
]
