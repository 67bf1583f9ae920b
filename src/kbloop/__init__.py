"""Joint knowledge-base completion and question answering.

An agent answers questions over an incomplete triple store with four actions
(search, generate, complete, finish); a trainable completer backs the
complete action; and the agent's verified reasoning paths fine-tune the
completer in return.
"""

from .agent import AgentAction, AgentConfig, Observation, Trajectory, run_episode
from .completer import (
    CompletionQuery,
    NativeCompleter,
    RankedPrediction,
    RemoteCompleter,
    ReplayMemory,
    TrainingConfig,
    build_input_sequence,
)
from .kb import KnowledgeBase, Triple, degrade, load_kb, split
from .joint import QaExample, run_joint_training
from .llm import ChatTurn, LiveBackend, LlmParams, ScriptedBackend
from .paths import ReasoningPath, bfs_witness, parse_reasoning_paths

__version__ = "0.1.0"

__all__ = [
    "AgentAction",
    "AgentConfig",
    "ChatTurn",
    "CompletionQuery",
    "KnowledgeBase",
    "LiveBackend",
    "LlmParams",
    "NativeCompleter",
    "Observation",
    "QaExample",
    "RankedPrediction",
    "ReasoningPath",
    "RemoteCompleter",
    "ReplayMemory",
    "ScriptedBackend",
    "Trajectory",
    "TrainingConfig",
    "Triple",
    "bfs_witness",
    "build_input_sequence",
    "degrade",
    "load_kb",
    "parse_reasoning_paths",
    "run_episode",
    "run_joint_training",
    "split",
]
