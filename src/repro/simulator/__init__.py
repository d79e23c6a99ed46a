"""Event-driven Spark-like cluster simulator (the paper's training substrate, §6.2)."""

from .duration import DurationModelConfig, TaskDurationModel
from .environment import (
    Action,
    ExecutorChurnEvent,
    Observation,
    SchedulingEnvironment,
    SimulatorConfig,
    run_episode,
)
from .executor import Executor, ExecutorClass, default_executor_class, multi_resource_classes
from .jobdag import JobDAG, Node, Task, critical_path_value, topological_order
from .metrics import (
    SimulationResult,
    TaskRecord,
    average_jct,
    executor_utilization,
    latency_histogram,
    makespan,
)
from .multi_resource import assign_memory_requests, memory_fragmentation, multi_resource_config

__all__ = [
    "Action",
    "ExecutorChurnEvent",
    "Observation",
    "SchedulingEnvironment",
    "SimulatorConfig",
    "run_episode",
    "DurationModelConfig",
    "TaskDurationModel",
    "Executor",
    "ExecutorClass",
    "default_executor_class",
    "multi_resource_classes",
    "JobDAG",
    "Node",
    "Task",
    "critical_path_value",
    "topological_order",
    "SimulationResult",
    "TaskRecord",
    "average_jct",
    "makespan",
    "executor_utilization",
    "latency_histogram",
    "assign_memory_requests",
    "memory_fragmentation",
    "multi_resource_config",
]
