"""Interactive query loop against a live mind, for script debugging."""

from __future__ import annotations

import sys

from rulebots.logic import LogicError, term_str
from rulebots.logic.reader import read_term
from rulebots.match.config import ControllerSpec, MatchConfig
from rulebots.match.match import build_match
from rulebots.match.round import play_tick, start_round

HELP = """\
Enter a query per line, terminated by enter; variables print per solution.
After a solution: ';' asks for the next one, '.' stops the query.
Commands:
  :tick [N]   advance the simulation N ticks (default 1)
  :state      bot and hostage summary
  :help       this text
  :quit       leave
Queries run against bot 0's mind in the live world.
"""


class Repl:
    def __init__(self, map_name: str, packages, seed: int = 0, out=None):
        config = MatchConfig(
            map_name=map_name,
            seed=seed,
            rounds=1,
            ct=ControllerSpec("scripted", tuple(packages)),
            t=ControllerSpec("scripted", tuple(packages)),
        )
        self.world, self.boards, self.minds = build_match(config)
        start_round(self.world, self.minds, self.boards, 0)
        self.out = out if out is not None else sys.stdout
        self.engine = self.minds[0].engine

    def write(self, text: str) -> None:
        self.out.write(text)

    def tick(self, count: int) -> None:
        for _ in range(count):
            if self.world.outcome is not None:
                self.write(f"round over: {self.world.outcome.winner} "
                           f"wins by {self.world.outcome.cause}\n")
                return
            play_tick(self.world, self.minds)
        self.write(f"tick {self.world.tick}, phase {self.world.phase}\n")

    def state(self) -> None:
        for bot in self.world.bots.values():
            where = f"node {bot.node}" if bot.edge is None else f"edge {bot.edge}"
            status = "alive" if bot.alive else "dead"
            self.write(
                f"bot {bot.id} [{bot.team}] {status} {where} hp={bot.health} "
                f"{bot.weapon.name} ammo={bot.ammo} money={bot.money}\n"
            )
        for h in self.world.hostages.values():
            tail = "rescued" if h.rescued else (
                f"following {h.following}" if h.following is not None else "waiting"
            )
            self.write(f"hostage {h.id} node {h.node} {tail}\n")

    def query(self, text: str, read_line) -> None:
        try:
            goal, varmap = read_term(text)
        except LogicError as exc:
            self.write(f"error: {exc}\n")
            return
        names = {n: v for n, v in varmap.items() if not n.startswith("_")}
        try:
            stream = self.engine.solve(goal, names)
            found = False
            for solution in stream:
                found = True
                if not names:
                    self.write("true.\n")
                    return
                for name in sorted(solution):
                    self.write(f"{name} = {term_str(solution[name])}\n")
                answer = read_line("; for next, . to stop> ")
                if answer is None or answer.strip() != ";":
                    self.write(".\n")
                    return
            self.write("false.\n" if not found else "no more solutions.\n")
        except LogicError as exc:
            self.write(f"error: {exc}\n")

    def run(self, in_stream=None) -> None:
        stream = in_stream if in_stream is not None else sys.stdin

        def read_line(prompt: str) -> str | None:
            self.write(prompt)
            line = stream.readline()
            return line if line else None

        self.write(HELP)
        while True:
            line = read_line("?- ")
            if line is None:
                return
            line = line.strip()
            if not line:
                continue
            if line in (":quit", ":q"):
                return
            if line == ":help":
                self.write(HELP)
            elif line == ":state":
                self.state()
            elif line.startswith(":tick"):
                rest = line[len(":tick"):].strip()
                try:
                    count = int(rest) if rest else 1
                    if count < 0:
                        raise ValueError(rest)
                except ValueError:
                    self.write(f"bad tick count: {rest!r}\n")
                    continue
                self.tick(count)
            elif line.startswith(":"):
                self.write(f"unknown command {line!r}; :help lists them\n")
            else:
                self.query(line.rstrip("."), read_line)
