"""Graph-parallel extended graph networks for atomic systems."""

from .basis import BasisFeatures, compute_basis, rbf_features
from .config import DIMENET, GEMNET, ModelConfig
from .engine import FeatureState, GradientBundle, ModelTape
from .graph import GraphTopology, build_graph, enumerate_triplets
from .params import ModelParams, init_params, load_params, param_specs, save_params
from .partition import CommModel, comm_volume, partition_graph
from .runtime import Collective, CommLog, ParallelRunResult, WorkerGroup
from .system import AtomicSystem, XyzParseError, format_xyz, parse_xyz, random_cloud
from .tape import Tape
from .tasks import RelaxationResult, predict, relax, train_simple

__all__ = [
    "AtomicSystem", "BasisFeatures", "Collective", "CommLog", "CommModel",
    "DIMENET", "FeatureState", "GEMNET", "GradientBundle",
    "GraphTopology", "ModelConfig", "ModelParams",
    "ModelTape", "ParallelRunResult", "RelaxationResult", "Tape",
    "WorkerGroup", "XyzParseError", "build_graph", "comm_volume",
    "compute_basis", "enumerate_triplets", "format_xyz", "init_params",
    "load_params", "param_specs", "parse_xyz", "partition_graph",
    "predict", "random_cloud", "rbf_features", "relax", "save_params",
    "train_simple",
]
