"""Durative actions and their per-bot executor.

An action owns three things: a low-level controller that emits one sim
intent per tick, an end test checked at the start of the next tick
(the bot's death, then failure, then completion), and an optional
motivation goal that interrupts the action as soon as it stops being
provable.  A completed action may chain into a continuation goal.
Scripted and hand-coded minds share this executor, so their action
lifecycles are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from rulebots.agents.perception import BOT, WAYPOINT, Native, _bound
from rulebots.logic import (
    Atom,
    InstantiationError,
    Int,
    NotPermittedError,
    Struct,
    Term,
    TermTypeError,
    Var,
    collect_vars,
    term_str,
)
from rulebots.logic.terms import functor_key
from rulebots.sim import (
    AttackIntent,
    BuyIntent,
    FaceIntent,
    IdleIntent,
    InteractIntent,
    MoveIntent,
    WEAPONS,
)
from rulebots.sim.pathfind import shortest_path

NORMALIZE_LIMIT = 32


@dataclass
class Action:
    kind: str
    args: tuple
    motivation: Term | None = None
    continuation: Term | None = None
    ticks: int = 0  # guard: ticks at the post; wait: ticks waited; buy: 1 once tried

    def label(self) -> str:
        if not self.args:
            return self.kind
        rendered = ",".join(str(a) for a in self.args)
        return f"{self.kind}({rendered})"


class ActionExecutor:
    """Runs at most one action per bot and reports lifecycle events."""

    def __init__(self, world, bot_id: int):
        self.world = world
        self.bot_id = bot_id
        self.active: Action | None = None
        self.prove = None  # wired to the owning mind's goal prover

    def reset(self) -> None:
        self.active = None

    # -- lifecycle ------------------------------------------------------

    def start(self, action: Action) -> None:
        if self.active is not None:
            self._emit("interrupted", self.active)
        self.active = action
        self._emit("started", action)

    def normalize(self) -> None:
        """Settle the action state: an ended action is dropped, and a
        completed one chains into its continuation; an unmotivated one is
        interrupted.  Bounded so a cyclic continuation cannot hang the tick."""
        for _ in range(NORMALIZE_LIMIT):
            action = self.active
            if action is None:
                return
            outcome = self._outcome(action)
            if outcome is None:
                if action.motivation is None or self.prove(action.motivation):
                    return
                outcome = "interrupted"
            self._emit(outcome, action)
            self.active = None
            if outcome == "completed" and action.continuation is not None:
                self.prove(action.continuation)

    def _emit(self, etype: str, action: Action) -> None:
        self.world.log_agent_event(self.bot_id, etype, f"action={action.label()}")

    def _outcome(self, action: Action) -> str | None:
        """How the action has ended: "interrupted" once the bot is dead,
        then "failed" or "completed", in that order; None while it runs."""
        world = self.world
        bot = world.bots[self.bot_id]
        if not bot.alive:
            return "interrupted"
        kind = action.kind
        if kind in ("goto", "guard") and action.args[0] not in world.map.waypoints:
            return "failed"
        if kind == "buy":
            if not action.ticks:
                return None
            return "completed" if bot.weapon.name == action.args[0] else "failed"
        if kind == "goto":
            ended = bot.edge is None and bot.node == action.args[0]
        elif kind == "guard":
            ended = action.ticks >= world.config.guard_dwell_ticks
        elif kind == "wait":
            ended = action.ticks >= action.args[0]
        elif kind == "liberate_hostages":
            ended = (any(h.following == self.bot_id for h in world.led_hostages())
                     or self.nearest_free_hostage() is None)
        else:  # kill ends only when interrupted
            ended = False
        return "completed" if ended else None

    # -- controllers ----------------------------------------------------

    def intent(self):
        bot = self.world.bots[self.bot_id]
        action = self.active
        if action is None or not bot.alive:
            return IdleIntent()
        kind = action.kind
        if kind == "goto":
            return self._move_toward(action.args[0])
        if kind == "kill":
            return AttackIntent(action.args[0])
        if kind == "liberate_hostages":
            hostage = self.nearest_free_hostage()
            if hostage is None:
                return IdleIntent()
            if bot.edge is None and bot.node == hostage.node:
                return InteractIntent(hostage.id)
            return self._move_toward(hostage.node)
        if kind == "guard":
            post = action.args[0]
            if bot.edge is None and bot.node == post:
                action.ticks += 1
                # sweep the surroundings while holding the post
                turn = self.world.config.turn_deg_per_tick
                return FaceIntent((bot.facing_deg + turn) % 360)
            return self._move_toward(post)
        if kind == "buy":
            action.ticks = 1
            return BuyIntent(action.args[0])
        action.ticks += 1  # wait
        return IdleIntent()

    def _move_toward(self, target: int):
        bot = self.world.bots[self.bot_id]
        mapdef = self.world.map
        if bot.edge is not None:
            near, far = bot.edge
            cost = mapdef.edge_cost[bot.edge]
            via_far = mapdef.cost(far, target) + (cost - bot.progress_cm)
            via_near = mapdef.cost(near, target) + bot.progress_cm
            return MoveIntent(far if via_far <= via_near else near)
        if bot.node == target:
            return IdleIntent()
        path = shortest_path(mapdef, bot.node, target)
        return MoveIntent(path[1])

    def nearest_free_hostage(self):
        """The cheapest hostage to reach that is neither rescued nor led, or
        None; `min` keeps the first of equal costs, so the lower id wins."""
        world = self.world
        my = world.nearest_wp(world.bots[self.bot_id])
        return min(world.free_hostages(), key=lambda h: world.map.cost(my, h.node), default=None)


# -- rule-facing wrappers ----------------------------------------------


def _given(kind: tuple, term: Term):
    """An argument's plain value; one that holds an open variable is refused."""
    if type(term) is not kind[0] and collect_vars(term):
        raise InstantiationError(f"{kind[1]} must be bound")
    return _bound(term, kind)


def _weapon(term: Term) -> str:
    name = _given((Atom, "weapon name"), term)
    if name not in WEAPONS:
        raise TermTypeError("known weapon name", name)
    return name


def _ticks(term: Term) -> int:
    n = _given((Int, "tick count"), term)
    if n < 0:
        raise TermTypeError("non-negative tick count", str(n))
    return n


def option_goals(opts: Term) -> tuple[Term | None, Term | None]:
    """(motivation, continuation) of an options term: a bare motivation
    goal M, a continuation marker andThen(C), or the pair (M, andThen(C)).

    A variable part is bound only when the launcher runs, so it is never
    refused; a pair whose andThen part is a variable has no continuation.
    """
    key = functor_key(opts)
    if key == (",", 2):
        motivation, then = opts.args
        if type(then) is not Var and functor_key(then) != ("andThen", 1):
            raise TermTypeError("(motivation, andThen(goal)) pair", term_str(opts))
    elif key == ("andThen", 1):
        motivation, then = None, opts
    else:
        motivation, then = opts, None
    continuation = then.args[0] if type(then) is Struct else None
    for part, what in ((motivation, "motivation"), (continuation, "continuation")):
        if part is not None and type(part) not in (Atom, Struct, Var):
            raise TermTypeError(f"callable {what}", term_str(part))
    return motivation, continuation


def split_opts(opts: Term) -> tuple[Term | None, Term | None]:
    """A launched action's options term, which must be ground, as
    (motivation, continuation)."""
    if collect_vars(opts):
        raise InstantiationError("action options must be ground")
    return option_goals(opts)


def _own_bot(executor: ActionExecutor, term: Term) -> None:
    bot_id = _given(BOT, term)
    if bot_id != executor.bot_id:
        raise NotPermittedError(f"bot {executor.bot_id} cannot drive actions of bot {bot_id}")


def _launch(kind: str, checks: tuple, executor: ActionExecutor, bot: Term, *terms: Term):
    """Start a `kind` action from its checked arguments and any options."""
    _own_bot(executor, bot)
    args = tuple(check(term) for check, term in zip(checks, terms))
    opts = terms[len(checks):]
    motivation, continuation = split_opts(opts[0]) if opts else (None, None)
    executor.start(Action(kind, args, motivation, continuation))
    return [None]


def _idle(executor, bot):
    _own_bot(executor, bot)
    return [None] if executor.active is None else None


# Every launchable kind: the check of each rule argument after the bot id,
# and whether an options term may follow them.
LAUNCHERS = {
    "goto": ((partial(_given, WAYPOINT),), True),
    "kill": ((partial(_given, (Int, "target bot id")),), True),
    "liberate_hostages": ((), True),
    "guard": ((partial(_given, WAYPOINT),), True),
    "buy": ((_weapon,), False),
    "wait": ((_ticks,), False),
}

# Every action native: (name, arity) -> Native.  A handler takes the bot's
# executor before its rule arguments: the bot id, then a launcher's row of
# arguments and, at the longer arity, options.  Every launcher is a writer.
ACTION_NATIVES = {
    (f"action_{kind}", 1 + len(checks) + extra): Native(partial(_launch, kind, checks), writes=True)
    for kind, (checks, opts) in LAUNCHERS.items()
    for extra in range(2 if opts else 1)
}
ACTION_NATIVES[("idle", 1)] = Native(_idle)

ACTION_NATIVE_SIGNATURES = tuple(ACTION_NATIVES)


def register_action_natives(kb, executor: ActionExecutor) -> None:
    for (name, arity), native in ACTION_NATIVES.items():
        kb.register_native(name, arity, partial(native.handler, executor), native.nondet)
