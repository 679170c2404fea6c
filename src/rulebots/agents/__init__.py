"""Agent runtime: minds, durative actions, perception and teamwork."""

from rulebots.agents.actions import (
    ACTION_NATIVE_SIGNATURES,
    Action,
    ActionExecutor,
    register_action_natives,
    split_opts,
)
from rulebots.agents.minds import (
    REASON_PERIOD,
    ROUND_SCOPED_DYNAMICS,
    Mind,
    NativeMind,
    ScriptedMind,
    make_mind,
)
from rulebots.agents.perception import PERCEPTION_NATIVE_SIGNATURES, register_perception

__all__ = [
    "ACTION_NATIVE_SIGNATURES",
    "Action",
    "ActionExecutor",
    "register_action_natives",
    "split_opts",
    "REASON_PERIOD",
    "ROUND_SCOPED_DYNAMICS",
    "Mind",
    "NativeMind",
    "ScriptedMind",
    "make_mind",
    "PERCEPTION_NATIVE_SIGNATURES",
    "register_perception",
]
