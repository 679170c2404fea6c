"""The clause store stays bounded without changing what any query sees.

A dead clause is freed once no open query stream can see it: while a
stream is open the clauses of its snapshot stay, and when the last one
closes only live clauses remain stored.  The property tests check the
answers against a reference store that never frees anything, of a store
and of a fork, which must also leave the store it came from as it was.
"""

from hypothesis import given, settings, strategies as st

from rulebots.agents.actions import register_action_natives
from rulebots.agents.minds import ROUND_SCOPED_DYNAMICS, RUNTIME_PRELUDE
from rulebots.agents.perception import register_perception
from rulebots.logic import Engine, Int, KnowledgeBase, iter_list, read_term, term_str
from rulebots.match import ControllerSpec, MatchConfig
from rulebots.match.match import build_match
from rulebots.match.round import run_round

FULL_STACK = ("baseline", "cs_rules", "warehouse_tactics")


def stored_and_live(engine: Engine) -> tuple[int, int]:
    clauses = [c for pred in engine.kb._preds.values() for c in pred.clauses]
    return len(clauses), sum(c.death is None for c in clauses)


def goal(text: str):
    return read_term(text)[0]


def ints(solutions, name="X"):
    return [sol[name].value for sol in solutions]


def p123() -> Engine:
    e = Engine(output=lambda s: None)
    e.consult("p(1). p(2). p(3).")
    return e


def fork_of(e: Engine) -> Engine:
    return Engine(e.kb.fork(), output=lambda s: None)


# -- bounded store ------------------------------------------------------------


def test_counter_updates_leave_one_stored_clause():
    e = Engine(output=lambda s: None)
    e.consult("c(0).")
    turn = goal("retract(c(N)), M is N + 1, assertz(c(M))")
    for _ in range(10_000):
        assert e.prove(turn)
    assert len(e.kb.lookup(("c", 1)).clauses) == 1
    assert ints(e.run("c(X)")) == [10_000]


def test_full_stack_match_stores_only_live_clauses_between_rounds():
    side = ControllerSpec("scripted", FULL_STACK)
    world, boards, minds = build_match(
        MatchConfig(map_name="warehouse", seed=1, rounds=24, ct=side, t=side))
    for round_no in range(24):
        run_round(world, minds, boards, round_no)
        for bot_id, mind in sorted(minds.items()):
            stored, live = stored_and_live(mind.engine)
            assert stored == live, f"round {round_no}, bot {bot_id}"


def test_retract_all_waits_for_open_streams():
    e = p123()
    goal_x, names = read_term("p(X)")
    stream = e.solve(goal_x, names)
    e.kb.retract_all("p", 1)
    assert stored_and_live(e) == (3, 0)
    assert ints(stream) == [1, 2, 3]
    assert stored_and_live(e) == (0, 0)
    assert e.prove(goal("assertz(p(4))"))
    e.kb.retract_all("p", 1)  # with no stream open the list empties at once
    assert stored_and_live(e) == (0, 0)


# -- the update view still holds --------------------------------------------


def test_open_stream_keeps_the_clauses_of_its_snapshot():
    e = p123()
    goal_x, names = read_term("p(X)")
    stream = e.solve(goal_x, names)
    assert stream.next_solution()["X"] == Int(1)
    assert e.prove(goal("retract(p(2))"))
    assert e.prove(goal("retract(p(3))"))
    assert stored_and_live(e) == (3, 1)
    assert ints(stream) == [2, 3]
    assert stored_and_live(e) == (1, 1)


def test_stream_not_yet_started_sees_a_later_retract():
    e = p123()
    goal_x, names = read_term("p(X)")
    stream = e.solve(goal_x, names)
    assert e.prove(goal("retract(p(2))"))
    assert ints(stream) == [1, 2, 3]
    assert stored_and_live(e) == (2, 2)


def test_nested_query_does_not_free_what_the_outer_query_sees():
    e = p123()
    zap = goal("retract(p(3))")
    e.kb.register_native("zap", 0, lambda: [None] if e.prove(zap) else None)
    assert ints(e.run("p(X), (X == 1 -> zap ; true)")) == [1, 2, 3]
    assert ints(e.run("p(X)")) == [1, 2]
    assert stored_and_live(e) == (2, 2)


def test_store_holds_only_live_clauses_after_the_last_close():
    e = p123()
    goal_x, names = read_term("p(X)")
    outer = e.solve(goal_x, names)
    inner = e.solve(goal_x, names)
    assert outer.next_solution()["X"] == Int(1)
    assert e.prove(goal("retract(p(1))"))
    assert ints(inner) == [1, 2, 3]
    assert stored_and_live(e) == (3, 2)  # outer is still open
    del outer
    assert stored_and_live(e) == (2, 2)


# -- forks share clauses until they write ------------------------------------


def full_stack_minds(seed: int) -> dict:
    side = ControllerSpec("scripted", FULL_STACK)
    return build_match(MatchConfig(map_name="warehouse", seed=seed, rounds=1, ct=side, t=side))[2]


def answers(engine: Engine, query: str, name: str) -> list[str]:
    return [term_str(sol[name]) for sol in engine.run(query)]


def test_a_mind_writing_a_consulted_predicate_changes_no_other_mind():
    minds = full_stack_minds(1)
    writer = minds[0].engine
    generation = writer.kb.generation
    assert writer.prove(goal("retract(rifle_price(_)), assertz(slot_pref(0, flank))"))
    assert answers(writer, "rifle_price(P)", "P") == []
    assert answers(writer, "slot_pref(0, T)", "T") == ["rush", "flank"]
    # every other mind, of this build and the next, moves its generation
    # past the writer's before it looks, so a clause the writer added to a
    # list they share would be visible
    others = sorted(minds.items())[1:] + sorted(full_stack_minds(1).items())
    for bot_id, mind in others:
        assert mind.engine.kb.generation == generation, bot_id
        assert mind.engine.prove(goal("assertz(voted(0)), assertz(voted(1))"))
        assert answers(mind.engine, "rifle_price(P)", "P") == ["800"], bot_id
        assert answers(mind.engine, "slot_pref(0, T)", "T") == ["rush"], bot_id


def test_a_minds_store_holds_what_consulting_its_stack_would(full_stack):
    # the store a mind built for itself before stores were shared
    kb = KnowledgeBase()
    register_perception(kb, None, None)
    register_action_natives(kb, None)
    for name, arity in ROUND_SCOPED_DYNAMICS:
        kb.declare_dynamic(name, arity)
    kb.consult(RUNTIME_PRELUDE)
    for pkg in full_stack:
        for name, arity in pkg.dynamics:
            kb.declare_dynamic(name, arity)
    for pkg in full_stack:
        kb.consult(pkg.text)

    def lifetimes(store):
        return {key: [(c.template, c.birth, c.death) for c in pred.clauses]
                for key, pred in store._preds.items()}

    for mind in full_stack_minds(2).values():
        assert mind.engine.kb.generation == kb.generation
        assert lifetimes(mind.engine.kb) == lifetimes(kb)
        assert mind.engine.kb.natives.keys() == kb.natives.keys()


def test_a_stream_on_a_shared_predicate_keeps_its_snapshot_across_the_first_write():
    source = p123()
    fork, sibling = fork_of(source), fork_of(source)
    goal_x, names = read_term("p(X)")
    stream = fork.solve(goal_x, names)
    assert stream.next_solution()["X"] == Int(1)
    assert fork.prove(goal("retract(p(2)), assertz(p(4))"))
    assert ints(stream) == [2, 3]
    assert ints(fork.run("p(X)")) == [1, 3, 4]
    assert ints(sibling.run("p(X)")) == ints(source.run("p(X)")) == [1, 2, 3]


def test_a_fork_frees_its_dead_clauses_when_its_last_stream_closes():
    source = p123()
    fork = fork_of(source)
    goal_x, names = read_term("p(X)")
    stream = fork.solve(goal_x, names)
    fork.kb.retract_all("p", 1)
    assert stored_and_live(fork) == (3, 0)
    assert ints(stream) == [1, 2, 3]
    assert stored_and_live(fork) == (0, 0)
    assert stored_and_live(source) == (3, 3)


def test_a_source_written_after_its_fork_leaves_the_fork_alone():
    source = p123()
    fork = fork_of(source)
    assert source.prove(goal("retract(p(1)), asserta(p(0))"))
    assert ints(source.run("p(X)")) == [0, 2, 3]
    assert ints(fork.run("p(X)")) == [1, 2, 3]


# -- property: answers match a store that never frees ------------------------


class ReferenceStore:
    """p/1 as a plain list of [value, birth, death]; nothing is ever removed."""

    def __init__(self, values):
        self.generation = 0
        self.clauses = []
        for v in values:
            self.add(v, front=False)

    def add(self, value, front):
        self.generation += 1
        entry = [value, self.generation, None]
        if front:
            self.clauses.insert(0, entry)
        else:
            self.clauses.append(entry)

    def visible(self, snap):
        return [v for v, birth, death in self.clauses
                if birth <= snap and (death is None or death > snap)]

    def retract(self, value, snap) -> bool:
        for entry in self.clauses:
            if entry[2] is None and entry[1] <= snap and value in (None, entry[0]):
                self.generation += 1
                entry[2] = self.generation
                return True
        return False

    def update(self, op, value, snap) -> bool:
        if op == "retract":
            return self.retract(value, snap)
        self.add(value, front=op == "asserta")
        return True


VALUES = st.integers(0, 3)
UPDATES = st.one_of(
    st.tuples(st.sampled_from(["assertz", "asserta"]), VALUES),
    st.tuples(st.just("retract"), st.one_of(st.none(), VALUES)),  # None: any clause
)
OPS = st.one_of(
    st.tuples(st.just("update"), UPDATES),  # a query of its own
    st.tuples(st.just("during"), UPDATES),  # once for every answer of p(X)
    st.tuples(st.just("query"), st.none()),
    st.tuples(st.just("open"), st.none()),
    st.tuples(st.just("next"), st.integers(0, 7)),
    st.tuples(st.just("drop"), st.integers(0, 7)),
)


def update_text(op, value) -> str:
    return f"{op}(p({'_' if value is None else value}))"


def p_engine(initial) -> Engine:
    e = Engine(output=lambda s: None)
    e.kb.declare_dynamic("p", 1)
    e.consult("".join(f"p({v}). " for v in initial))
    return e


@settings(max_examples=300, deadline=None)
@given(st.lists(VALUES, max_size=4), st.lists(OPS, max_size=30))
def test_answers_match_a_store_that_never_frees(initial, ops):
    check_against_reference(p_engine(initial), initial, ops)


@settings(max_examples=150, deadline=None)
@given(st.lists(VALUES, max_size=4), st.lists(OPS, max_size=30))
def test_a_fork_answers_as_a_store_of_its_own_and_leaves_its_source_intact(initial, ops):
    source = p_engine(initial)
    check_against_reference(fork_of(source), initial, ops)
    assert ints(source.run("p(X)")) == initial
    assert stored_and_live(source) == (len(initial), len(initial))


def check_against_reference(e: Engine, initial, ops):
    ref = ReferenceStore(initial)
    goal_x, names = read_term("p(X)")
    streams = []  # (engine stream, answers the reference still owes it)
    for kind, arg in ops:
        if kind == "update":
            op, value = arg
            assert e.prove(goal(update_text(op, value))) == ref.update(op, value, ref.generation)
        elif kind == "during":
            op, value = arg
            snap = ref.generation
            want = [v for v in ref.visible(snap) if ref.update(op, value, snap)]
            (sol,) = e.run(f"findall(X, (p(X), {update_text(op, value)}), L)")
            assert [t.value for t in iter_list(sol["L"])[0]] == want
        elif kind == "query":
            assert ints(e.run("p(X)")) == ref.visible(ref.generation)
        elif kind == "open":
            streams.append((e.solve(goal_x, names), ref.visible(ref.generation)))
        elif streams:
            stream, owed = streams[arg % len(streams)]
            if kind == "drop":
                del streams[arg % len(streams)]
                del stream
                continue
            sol = stream.next_solution()
            assert (None if sol is None else sol["X"].value) == (owed.pop(0) if owed else None)
    for stream, owed in streams:  # exhausting a stream closes it
        assert ints(stream) == owed
    assert ints(e.run("p(X)")) == ref.visible(ref.generation)
    stored, live = stored_and_live(e)
    assert stored == live == len(ref.visible(ref.generation))
