"""Decima's core contribution: graph neural network, policy network and RL training."""

from .agent import ActionRecord, DecimaAgent, DecimaConfig, StageTimings, StepInfo
from .checkpoints import (
    AgentSpec,
    CheckpointInfo,
    CheckpointStore,
    agent_spec,
    build_agent,
    parameter_fingerprint,
)
from .features import (
    FeatureConfig,
    FrontierLevel,
    GraphBatch,
    GraphCache,
    GraphFeatures,
    GraphStructure,
    MergedStructureCache,
    compute_node_heights,
    merge_structures,
)
from .gnn import GNNConfig, GraphEmbeddings, GraphNeuralNetwork
from .kernels import Workspace
from .nn import MLP, Adam, Dense, Module, Parameter
from .parallel import (
    EpisodeOutcome,
    EpisodeSpec,
    IterationPlan,
    ParallelRolloutBackend,
    RolloutBackend,
    RolloutWorkerPool,
    SerialRolloutBackend,
)
from .policy import PolicyConfig, PolicyNetwork
from .reinforce import (
    IterationStats,
    ReinforceTrainer,
    TrainingConfig,
    TrainingHistory,
    evaluate_agent,
    time_aligned_baselines,
)
from .rollout import Trajectory, Transition, collect_rollout
from .supervised import (
    CriticalPathDataset,
    CriticalPathRegressor,
    train_critical_path_regressor,
)

__all__ = [
    "ActionRecord",
    "DecimaAgent",
    "DecimaConfig",
    "StageTimings",
    "StepInfo",
    "AgentSpec",
    "CheckpointInfo",
    "CheckpointStore",
    "agent_spec",
    "build_agent",
    "EpisodeOutcome",
    "EpisodeSpec",
    "IterationPlan",
    "ParallelRolloutBackend",
    "RolloutBackend",
    "RolloutWorkerPool",
    "SerialRolloutBackend",
    "parameter_fingerprint",
    "FeatureConfig",
    "FrontierLevel",
    "GraphBatch",
    "GraphCache",
    "GraphFeatures",
    "GraphStructure",
    "MergedStructureCache",
    "compute_node_heights",
    "merge_structures",
    "GNNConfig",
    "GraphEmbeddings",
    "GraphNeuralNetwork",
    "Workspace",
    "MLP",
    "Adam",
    "Dense",
    "Module",
    "Parameter",
    "PolicyConfig",
    "PolicyNetwork",
    "IterationStats",
    "ReinforceTrainer",
    "TrainingConfig",
    "TrainingHistory",
    "evaluate_agent",
    "time_aligned_baselines",
    "Trajectory",
    "Transition",
    "collect_rollout",
    "CriticalPathDataset",
    "CriticalPathRegressor",
    "train_critical_path_regressor",
]
