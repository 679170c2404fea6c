"""Bot minds: the per-tick driver plus two interchangeable brains.

A scripted mind proves a rule-program entry goal to pick actions; a
native mind is the same decision procedure hand-coded in Python.  Both
share one executor, one perception surface and one motivation prover, so
a round driven by either produces the same action lifecycle when the
rule stack is the baseline package.
"""

from __future__ import annotations

import functools
import weakref

from rulebots.logic import Atom, Engine, Int, KnowledgeBase, Struct, Term
from rulebots.sim import CT, IdleIntent, RIFLE, WorldState
from rulebots.agents.actions import ACTION_NATIVES, Action, ActionExecutor, register_action_natives
from rulebots.agents.perception import PERCEPTION_NATIVES, register_perception

REASON_PERIOD = 5  # ticks between re-reasoning while an action runs

# Combinators every mind understands, independent of any rule package.
RUNTIME_PRELUDE = """
and(A, B) :- call(A), call(B).
no_visible_enemy(B) :- \\+ visible_enemy(B, _).
"""

# Predicates the runtime owns and wipes at every round start.
ROUND_SCOPED_DYNAMICS = (
    ("bought_this_round", 1),
    ("voted", 1),
    ("committed_tactic", 1),
    ("last_post", 2),
)


# A match's minds play at most two distinct stacks, and an experiment's
# matches the same few; the bound only keeps a host that plays many one-off
# stacks from growing the cache without limit.
@functools.lru_cache(maxsize=8)
def stack_template(stack: tuple) -> KnowledgeBase:
    """The store every mind playing `stack` forks, built once per process.

    Its native keys are reserved with placeholder handlers, bound to no
    world, so the store refuses what a mind's would; then the round-scoped
    dynamics are declared, the prelude consulted, and the packages'
    dynamics declared and each package consulted.  A stack the store
    refuses raises on every call, and nothing writes the template.
    """
    kb = KnowledgeBase()
    register_perception(kb, None, None)
    register_action_natives(kb, None)
    for name, arity in ROUND_SCOPED_DYNAMICS:
        kb.declare_dynamic(name, arity)
    kb.consult(RUNTIME_PRELUDE)
    for pkg in stack:
        for name, arity in pkg.dynamics:
            kb.declare_dynamic(name, arity)
    for pkg in stack:
        kb.consult(pkg.text)
    return kb


# The calls that make a proof an effect, besides an assert or a retract:
# every writer native, and output.
EFFECTS = frozenset(
    [key for table in (PERCEPTION_NATIVES, ACTION_NATIVES) for key, n in table.items() if n.writes]
    + [("write", 1), ("nl", 0)]
)


class GoalProver:
    """Proves a mind's goals, reusing the last proof of a goal it repeats.

    A proof is a function of the live store and of the answers its native
    calls get, under the engine's fixed budgets.  So when a goal, the same
    object, is proved again, the last result stands if that proof had no
    effect (no assert or retract, no writer native, no output, no error),
    the store's generation is unchanged, and every native call it made,
    asked again in order, gives an equal answer list.  The check stops at
    the first difference and the goal is proved in full.  Only the last
    effect-free proof is kept, as native keys, arguments and answers.
    """

    __slots__ = ("engine", "goal", "generation", "calls", "result", "runs", "reuses")

    def __init__(self, engine: Engine):
        self.engine = engine
        self.goal: Term | None = None  # the kept proof's goal, or None
        self.generation = 0
        self.calls: list = []
        self.result = False
        self.runs = 0
        self.reuses = 0

    def __call__(self, goal: Term) -> bool:
        if goal is self.goal and self.unchanged():
            self.reuses += 1
            return self.result
        self.goal = None
        self.runs += 1
        engine = self.engine
        generation = engine.kb.generation
        engine.log = calls = []
        try:
            result = engine.prove(goal)
        finally:
            engine.log = None
        if engine.kb.generation == generation and not any(c[0] in EFFECTS for c in calls):
            self.goal, self.generation, self.calls, self.result = goal, generation, calls, result
        return result

    def unchanged(self) -> bool:
        """The store is at the kept proof's generation, and each of its
        native calls, asked again in order, answers as it did."""
        kb = self.engine.kb
        if kb.generation != self.generation:
            return False
        natives = kb.natives
        for key, args, answers in self.calls:
            handler, _ = natives[key]
            if handler(*args) != answers:
                return False
        return True


class Mind:
    kind = "abstract"

    def __init__(self, world: WorldState, bot_id: int, board: list, stack: tuple = ()):
        self.world = world
        self.bot_id = bot_id
        self.executor = ActionExecutor(world, bot_id)
        kb = stack_template(stack).fork()
        register_perception(kb, world, board)
        register_action_natives(kb, self.executor)
        self.engine = Engine(kb, output=lambda s: None)
        # The provers reach the engine weakly: the engine's action natives
        # already hold the executor, and a strong edge back would make each
        # mind a reference cycle, left for the cyclic collector to free.
        self.executor.prove = GoalProver(weakref.proxy(self.engine))
        self.provers = [self.executor.prove]
        self.last_reason_tick = -REASON_PERIOD

    def on_round_start(self) -> None:
        self.executor.reset()
        self.last_reason_tick = -REASON_PERIOD
        for name, arity in ROUND_SCOPED_DYNAMICS:
            self.engine.kb.retract_all(name, arity)

    def decide(self) -> None:
        raise NotImplementedError

    def proof_counts(self) -> tuple[int, int]:
        """Proofs run in full and proofs reused, over this mind's provers."""
        return sum(p.runs for p in self.provers), sum(p.reuses for p in self.provers)

    def reason_due(self) -> bool:
        if self.executor.active is None:
            return True
        return self.world.tick - self.last_reason_tick >= REASON_PERIOD

    def tick_agent(self):
        """One agent turn: settle actions, maybe re-reason, emit an intent."""
        self.executor.normalize()
        if not self.world.bots[self.bot_id].alive:
            return IdleIntent()
        if self.reason_due():
            self.last_reason_tick = self.world.tick
            self.decide()
            self.executor.normalize()
        return self.executor.intent()


class ScriptedMind(Mind):
    kind = "scripted"

    def __init__(self, world, bot_id, board, stack):
        super().__init__(world, bot_id, board, tuple(stack))
        self._entry_goal = Struct("do_reasoning", (Int(bot_id),))
        self._prove_entry = GoalProver(weakref.proxy(self.engine))
        self.provers.append(self._prove_entry)

    def decide(self) -> None:
        self._prove_entry(self._entry_goal)


class NativeMind(Mind):
    """Hand-coded mirror of the baseline rule package."""

    kind = "native"

    def __init__(self, world, bot_id, board):
        super().__init__(world, bot_id, board)
        self.bought = False
        self.last_post: int | None = None

    def on_round_start(self) -> None:
        super().on_round_start()
        self.bought = False
        self.last_post = None

    # -- term builders (same shapes the baseline rules produce) ---------

    def _peace(self) -> Term:
        return Struct("no_visible_enemy", (Int(self.bot_id),))

    def _kill_motivation(self, enemy: int) -> Term:
        return Struct(
            "and",
            (
                Struct("bot_alive", (Int(enemy),)),
                Struct("bot_in_fov", (Int(self.bot_id), Int(enemy))),
            ),
        )

    def _liberate_goal(self) -> Term:
        return Struct("action_liberate_hostages", (Int(self.bot_id), self._peace()))

    # -- decision procedure ---------------------------------------------

    def decide(self) -> None:
        if self.executor.active is not None:
            return
        world = self.world
        bot = world.bots[self.bot_id]
        if world.phase == "buy":
            if not self.bought:
                self.bought = True
                if bot.money >= RIFLE.price:
                    self.executor.start(Action("buy", (RIFLE.name,)))
            return
        enemy = self._first_visible_enemy()
        if enemy is not None:
            self.executor.start(
                Action("kill", (enemy,), motivation=self._kill_motivation(enemy))
            )
            return
        if bot.team == CT:
            self._ct_decide()
        else:
            self._t_decide()

    def _first_visible_enemy(self) -> int | None:
        for viewer, seen in self.world.enemy_pairs():
            if viewer == self.bot_id:
                return seen
        return None

    def _ct_decide(self) -> None:
        if any(h.following == self.bot_id for h in self.world.led_hostages()):
            self._head_home()
            return
        target = self._pick_hostage_node()
        if target is not None:
            self._direct_approach(target)
            return
        self._head_home()

    def _pick_hostage_node(self) -> int | None:
        hostage = self.executor.nearest_free_hostage()
        return None if hostage is None else hostage.node

    def _direct_approach(self, node: int) -> None:
        self.executor.start(
            Action(
                "goto",
                (node,),
                motivation=self._peace(),
                continuation=self._liberate_goal(),
            )
        )

    def _head_home(self) -> None:
        world = self.world
        my = world.nearest_wp(world.bots[self.bot_id])
        home = self._nearest_tagged(my, "rescue_zone")
        if my == home:
            self.executor.start(Action("guard", (home,), motivation=self._peace()))
        else:
            self.executor.start(Action("goto", (home,), motivation=self._peace()))

    def _t_decide(self) -> None:
        world = self.world
        my = world.nearest_wp(world.bots[self.bot_id])
        if self.last_post is None:
            post = self._nearest_tagged(my, "hostage_point")
        else:
            cycle = world.map.tagged("ambush_point") or world.map.tagged("hostage_point")
            greater = [w for w in cycle if w > self.last_post]
            post = greater[0] if greater else cycle[0]
        self.last_post = post
        self.executor.start(Action("guard", (post,), motivation=self._peace()))

    def _nearest_tagged(self, from_wp: int, tag: str) -> int:
        mapdef = self.world.map
        return min(mapdef.tagged(tag), key=lambda wid: mapdef.cost(from_wp, wid))


def make_mind(kind: str, world, bot_id, board, stack=None) -> Mind:
    if kind == "scripted":
        if stack is None:
            raise ValueError("a scripted mind needs a rule stack")
        return ScriptedMind(world, bot_id, board, stack)
    if kind == "native":
        return NativeMind(world, bot_id, board)
    raise ValueError(f"unknown mind kind: {kind!r}")
