"""Rule package manifests, stack loading, and static validation."""

import pytest

import support
from rulebots.agents import make_mind
from rulebots.agents.actions import split_opts
from rulebots.logic import KnowledgeBase, NotPermittedError, TermTypeError, reader
from rulebots.logic.database import BUILTINS
from rulebots.match import ControllerSpec, MatchConfig, cli
from rulebots.match.match import build_match
from rulebots.rules import PackageError, load_package, load_stack, parse_manifest
from rulebots.rules.manifest import RulePackage
from rulebots.rules.validator import GOAL_ARGS, NATIVE_SIGNATURES, validate_stack
from rulebots.sim.mapdef import parse_map


def pkg(name, level, text, entries=(), dynamics=()):
    return RulePackage(name, level, text, tuple(entries), tuple(dynamics))


GAME = pkg(
    "game_core",
    "game",
    "do_reasoning(_).\n",
    entries=[("do_reasoning", 1)],
)


# -- manifest parsing ---------------------------------------------------


def test_parse_manifest_full_record():
    manifest = """
    # tactical add-on
    package demo
    level map_type
    file demo.pl   # rules live next door
    entry pick_target/2
    dynamic seen/1
    dynamic seen/2
    """
    p = parse_manifest(manifest, lambda rel: f"% from {rel}\n")
    assert p.name == "demo"
    assert p.level == "map_type"
    assert p.text == "% from demo.pl\n"
    assert p.entries == (("pick_target", 2),)
    assert p.dynamics == (("seen", 1), ("seen", 2))


@pytest.mark.parametrize(
    "manifest,fragment",
    [
        ("level game\nfile a.pl", "no package record"),
        ("package p\nfile a.pl", "no level record"),
        ("package p\nlevel game", "no file record"),
        ("package p\nlevel boss\nfile a.pl", "unknown level"),
        ("package p\ncolour red\nlevel game\nfile a.pl", "unknown key"),
        ("package p\nlevel game\nfile a.pl\nentry nop", "expected name/arity"),
        ("package p\nlevel game\nfile a.pl\nentry f/x", "bad arity"),
        ("package p\nlevel game\nfile a.pl\ndynamic f/-1", "negative arity"),
        ("package\nlevel game\nfile a.pl", "expected '<key> <value>'"),
    ],
)
def test_parse_manifest_rejects(manifest, fragment):
    with pytest.raises(PackageError, match=fragment):
        parse_manifest(manifest, lambda rel: "")


# -- loading ------------------------------------------------------------


def test_bundled_packages_load():
    levels = {name: load_package(name).level for name in ("baseline", "cs_rules", "warehouse_tactics")}
    assert levels == {
        "baseline": "game",
        "cs_rules": "map_type",
        "warehouse_tactics": "map_specific",
    }


def test_unknown_bundled_package():
    with pytest.raises(PackageError, match="no such package"):
        load_package("no_such_thing")


def test_load_package_from_path(tmp_path):
    (tmp_path / "demo.mf").write_text(
        "package demo\nlevel game\nfile demo.pl\nentry do_reasoning/1\n"
    )
    (tmp_path / "demo.pl").write_text("do_reasoning(_).\n")
    p = load_package(str(tmp_path / "demo.mf"))
    assert p.name == "demo"
    assert "do_reasoning" in p.text


def test_load_stack_orders_and_validates():
    names = [p.name for p in load_stack(["baseline", "cs_rules", "warehouse_tactics"])]
    assert names == ["baseline", "cs_rules", "warehouse_tactics"]
    with pytest.raises(PackageError, match="must be game level"):
        load_stack(["cs_rules"])
    with pytest.raises(PackageError, match="ordered"):
        load_stack(["baseline", "warehouse_tactics", "cs_rules"])
    with pytest.raises(PackageError, match="more than one game-level"):
        load_stack(["baseline", "baseline"])


# -- static validation --------------------------------------------------


def test_validate_empty_stack():
    errors, _ = validate_stack([])
    assert errors == ["stack is empty"]


def test_validate_undefined_call():
    bad = pkg("addon", "map_type", "pick(X) :- ghost(X).\n", entries=[("pick", 1)])
    errors, _ = validate_stack([GAME, bad])
    assert any("undefined ghost/1" in e for e in errors)


def test_validate_wrong_arity_call():
    bad = pkg("addon", "map_type", "pick(X) :- do_reasoning(X, 1).\n", entries=[("pick", 1)])
    errors, _ = validate_stack([GAME, bad])
    assert any("do_reasoning/2 called but do_reasoning exists with arity 1" in e for e in errors)


def _calls_to(keys, extra_arity=0):
    """A package with one `probe` clause calling each key at arity + extra."""
    lines = []
    for name, arity in sorted(keys):
        args = ", ".join("_" for _ in range(arity + extra_arity))
        lines.append(f"probe :- {name}({args}).\n" if args else f"probe :- {name}.\n")
    return pkg("addon", "map_type", "".join(lines), entries=[("probe", 0)])


def test_validate_accepts_every_native_at_its_arity():
    errors, warnings = validate_stack([GAME, _calls_to(NATIVE_SIGNATURES)])
    assert errors == [] and warnings == []


def test_validate_flags_every_native_called_one_arity_up():
    errors, _ = validate_stack([GAME, _calls_to(NATIVE_SIGNATURES, extra_arity=1)])
    # a launcher called one arity up is its options form, itself a native
    wrong = {(name, arity + 1) for name, arity in NATIVE_SIGNATURES} - NATIVE_SIGNATURES
    assert len(errors) == len(wrong) > 0
    for name, arity in wrong:
        assert any(f": {name}/{arity} called but {name} exists with arity" in e for e in errors)


def test_validate_missing_entry_definition():
    bad = pkg("addon", "map_type", "other(1).\n", entries=[("pick", 1)])
    errors, _ = validate_stack([GAME, bad])
    assert any("entry pick/1 is not defined" in e for e in errors)


def test_validate_entry_satisfied_by_dynamic():
    ok = pkg("addon", "map_type", "% facts arrive at runtime\n", entries=[("seen", 1)], dynamics=[("seen", 1)])
    errors, _ = validate_stack([GAME, ok])
    assert errors == []


def test_validate_game_needs_reasoning_entry():
    bare = pkg("core", "game", "do_reasoning(_).\n")
    errors, _ = validate_stack([bare])
    assert any("must declare entry do_reasoning/1" in e for e in errors)


def test_validate_undeclared_assert_is_warning():
    chatty = pkg(
        "addon",
        "map_type",
        "note(X) :- assertz(memo(X)).\n",
        entries=[("note", 1)],
    )
    errors, warnings = validate_stack([GAME, chatty])
    assert errors == []
    assert any("asserts memo/1" in w for w in warnings)


def test_validate_declared_assert_is_clean():
    tidy = pkg(
        "addon",
        "map_type",
        "note(X) :- assertz(memo(X)).\n",
        entries=[("note", 1)],
        dynamics=[("memo", 1)],
    )
    errors, warnings = validate_stack([GAME, tidy])
    assert errors == []
    assert warnings == []


def test_validate_unparseable_package():
    broken = pkg("addon", "map_type", "pick(X :- .\n", entries=[("pick", 1)])
    errors, _ = validate_stack([GAME, broken])
    assert any(e.startswith("package addon: ") for e in errors)


# Packages a match refuses, each stacked on `baseline`: its rules, its
# dynamic declarations and the one error `validate` prints.  A refused
# clause or declaration gets the message of a mind's store, as `run`
# prints it; a call nobody defines names the predicate `run` reports as
# unknown.
REFUSED = {
    "a fact for a native": ("team(_, ct).\n", (), "cannot define native predicate team/2"),
    "a rule for a native": ("idle(_) :- true.\n", (), "cannot define native predicate idle/1"),
    "a fact for a builtin": ("write(_).\n", (), "cannot define reserved predicate write/1"),
    "a native declared dynamic": (
        "% nothing\n", ("team/2",), "cannot declare dynamic native predicate team/2"
    ),
    "a misspelled motivation": (
        "reasoning_hook(B) :- action_guard(B, 0, no_visibel_enemy(B)).\n", (),
        "call to undefined no_visibel_enemy/1",
    ),
    "a misspelled continuation": (
        "reasoning_hook(B) :- action_goto(B, 0, andThen(approch(B))).\n", (),
        "call to undefined approch/1",
    ),
    "a misspelled continuation after a motivation": (
        "reasoning_hook(B) :- action_goto(B, 0, (no_visible_enemy(B), andThen(approch(B)))).\n",
        (), "call to undefined approch/1",
    ),
    "a misspelled goal inside and/2": (
        "reasoning_hook(B) :- action_kill(B, 1, and(bot_alive(1), bot_in_fvo(B, 1))).\n", (),
        "call to undefined bot_in_fvo/2",
    ),
    "a pair without andThen": (
        "reasoning_hook(B) :- action_goto(B, 0, (no_visible_enemy(B), bot_alive(B))).\n", (),
        "expected (motivation, andThen(goal)) pair, got 'no_visible_enemy(B),bot_alive(B)'",
    ),
    "a motivation that is a number": (
        "reasoning_hook(B) :- action_goto(B, 0, 5).\n", (), "expected callable motivation, got '5'",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_validate_refuses_what_a_match_refuses(tmp_path, capsys, case):
    rules, dynamics, error = REFUSED[case]
    (tmp_path / "bad.pl").write_text(rules)
    (tmp_path / "bad.mf").write_text(
        "package bad\nlevel map_type\nfile bad.pl\n" + "".join(f"dynamic {d}\n" for d in dynamics)
    )
    assert cli.main(["validate", "baseline", str(tmp_path / "bad.mf")]) == cli.INVALID
    assert capsys.readouterr().out == f"error: package bad: {error}\n"


def _options_terms(depth):
    """Every ground options term up to `depth`, as text, built from a
    callable goal, an integer, andThen(x) and (x, y)."""
    terms = ["bot_alive(1)", "5"]
    for _ in range(depth):
        terms = [
            "bot_alive(1)", "5",
            *(f"andThen({x})" for x in terms),
            *(f"({x}, {y})" for x in terms for y in terms),
        ]
    return terms


def test_validate_refuses_exactly_the_options_a_launcher_refuses():
    baseline = load_package("baseline")
    for opts in _options_terms(2):
        rules = f"reasoning_hook(B) :- action_goto(B, 0, {opts}).\n"
        errors, _ = validate_stack([baseline, pkg("bad", "map_type", rules)])
        try:
            split_opts(reader.read_term(opts)[0])
            expected = []
        except TermTypeError as exc:
            expected = [f"package bad: {exc}"]
        # an andThen nested inside an accepted goal is run as a goal, and
        # validate rightly reports it as an undefined predicate
        faults = [e for e in errors if e != "package bad: call to undefined andThen/1"]
        assert faults == expected, opts


# Packages `validate` accepts, each stacked on `baseline`: an options term,
# or a part of one, that arrives through a variable is bound only when its
# launcher runs, so the validator cannot refuse it.
ACCEPTED = {
    "a motivation through a variable": "go(B, M) :- action_goto(B, 0, M).\n",
    "the andThen part of a pair through a variable": (
        "go(B, C) :- action_goto(B, 0, (no_visible_enemy(B), C)).\n"
    ),
}


@pytest.mark.parametrize("case", sorted(ACCEPTED))
def test_validate_accepts_options_completed_by_a_variable(tmp_path, capsys, case):
    (tmp_path / "addon.pl").write_text(ACCEPTED[case])
    (tmp_path / "addon.mf").write_text("package addon\nlevel map_type\nfile addon.pl\n")
    assert cli.main(["validate", "baseline", str(tmp_path / "addon.mf")]) == cli.OK
    assert capsys.readouterr().out == "ok: baseline, addon\n"

# Stacks that name one package twice, as `validate` arguments (`{dir}` is
# a scratch directory holding `copy.mf`, a package record that repeats the
# bundled `cs_rules`), and the one error `validate` prints.
REPEATED = {
    "a map_type package twice": (
        ("baseline", "cs_rules", "cs_rules"), "package cs_rules is listed more than once",
    ),
    "a map_specific package twice": (
        ("baseline", "cs_rules", "warehouse_tactics", "warehouse_tactics"),
        "package warehouse_tactics is listed more than once",
    ),
    "a path repeating a bundled name": (
        ("baseline", "cs_rules", "{dir}/copy.mf"), "package cs_rules is listed more than once",
    ),
}


@pytest.mark.parametrize("case", sorted(REPEATED))
def test_validate_refuses_a_repeated_package(tmp_path, capsys, case):
    stack, error = REPEATED[case]
    (tmp_path / "copy.pl").write_text("% nothing\n")
    (tmp_path / "copy.mf").write_text("package cs_rules\nlevel map_specific\nfile copy.pl\n")
    args = [spec.format(dir=tmp_path) for spec in stack]
    assert cli.main(["validate", *args]) == cli.INVALID
    assert capsys.readouterr().out == f"error: {error}\n"
    # a match on the stack stops at the same error, before any mind consults it
    run = ["run", "--ct", "scripted:" + ",".join(args), "--rounds", "1", "--matches", "1"]
    assert cli.main(run) == cli.INVALID
    assert capsys.readouterr().err == f"error: {error}\n"


def test_every_control_construct_has_a_goal_row():
    # a control construct is a builtin whose entry is an opcode, not a test
    controls = {key for key, op in BUILTINS.items() if type(op) is int} - {("!", 0)}
    assert controls and controls <= GOAL_ARGS.keys()


def test_shipped_stack_validates_clean():
    stack = load_stack(["baseline", "cs_rules", "warehouse_tactics"])
    errors, warnings = validate_stack(stack)
    assert errors == []
    assert warnings == []


def test_rebuilding_a_full_stack_match_parses_nothing(monkeypatch):
    # the validator and every mind's store share one parse per text, both
    # sides and every build share one map parse, one validation and one
    # clause store, and the two sides of a mirrored pairing read one stack
    full = ControllerSpec("scripted", ("baseline", "cs_rules", "warehouse_tactics"))
    config = MatchConfig(map_name="warehouse", seed=0, rounds=1, ct=full, t=full)
    first, _, _ = build_match(config)
    calls = []

    def counting(original, name):
        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return counted

    for original in (reader.read_program, parse_map, validate_stack):
        support.patch_everywhere(monkeypatch, original, counting(original, original.__name__))
    for name in ("consult", "_store"):
        monkeypatch.setattr(KnowledgeBase, name, counting(getattr(KnowledgeBase, name), name))
    loads = []
    support.patch_everywhere(monkeypatch, load_package,
                             lambda spec: loads.append(spec) or load_package(spec))
    second, _, _ = build_match(config)
    assert calls == []
    assert loads == list(full.packages)
    assert second.map is first.map


def test_a_stack_defining_a_native_is_refused_on_every_build():
    stack = [GAME, pkg("spy", "map_type", "team(0, ct).\n")]
    messages = []
    for _ in range(3):
        with pytest.raises(NotPermittedError) as info:
            make_mind("scripted", support.line_world(), 0, [], stack)
        messages.append(str(info.value))
    assert messages == ["cannot define native predicate team/2"] * 3


# -- validation once per distinct stack ------------------------------------


def test_an_edited_package_is_validated_again(tmp_path):
    mf, pl = tmp_path / "addon.mf", tmp_path / "addon.pl"
    stack = ["baseline", str(mf)]
    states = [
        ("", "reasoning_hook(B) :- bot_alive(B).\n", None),
        ("", "reasoning_hook(B) :- ghost(B).\n", "undefined ghost/1"),
        ("dynamic team/2\n", "reasoning_hook(B) :- bot_alive(B).\n", "dynamic native predicate team/2"),
        ("", "reasoning_hook(B) :- bot_alive(B).\n", None),
    ]
    for manifest_extra, rules, error in states:
        mf.write_text("package addon\nlevel map_type\nfile addon.pl\n" + manifest_extra)
        pl.write_text(rules)
        if error is None:
            assert [p.text for p in load_stack(stack)][1] == rules
        else:
            with pytest.raises(PackageError, match=error):
                load_stack(stack)


def test_a_refused_stack_raises_the_same_error_on_every_call():
    messages = []
    for _ in range(3):
        with pytest.raises(PackageError) as info:
            load_stack(["baseline", "warehouse_tactics", "cs_rules"])
        messages.append(str(info.value))
    assert "ordered" in messages[0]
    assert messages == [messages[0]] * 3


def test_each_call_returns_its_own_stack():
    names = ["baseline", "cs_rules", "warehouse_tactics"]
    first = load_stack(names)
    first.append(GAME)
    assert [p.name for p in load_stack(names)] == names
