"""Deterministic hostage-rescue simulation on a waypoint graph.

All state is integer valued: positions in centimetres, facings in
degrees, time in ticks.  The only randomness is the hit roll inside
attack resolution; everything else is a pure function of the submitted
intents and the fixed per-tick processing order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from rulebots.sim.geometry import ang_diff, bearing_deg, dist2, turn_toward
from rulebots.sim.mapdef import MapDefinition
from rulebots.sim.rng import SplitMix64, fnv1a64

CT = "ct"
T = "t"

WORLD = -1  # bot key for events not attributable to a single bot


@dataclass(frozen=True)
class WeaponSpec:
    name: str
    accuracy_pct: int
    damage: int
    range_cm: int
    price: int
    ammo: int


PISTOL = WeaponSpec("pistol", 60, 15, 4000, 0, 24)
RIFLE = WeaponSpec("rifle", 80, 25, 4000, 800, 90)
WEAPONS = {w.name: w for w in (PISTOL, RIFLE)}


@dataclass(frozen=True)
class SimConfig:
    team_size: int = 7
    round_ticks: int = 360  # 90 seconds at 4 ticks per second
    buy_ticks: int = 20
    move_cm_per_tick: int = 125
    turn_deg_per_tick: int = 45
    view_range_cm: int = 4000
    fov_half_angle_deg: int = 60
    hearing_range_cm: int = 1500
    start_money: int = 800
    kill_reward: int = 300
    win_reward: int = 3000
    loss_reward: int = 1400
    money_cap: int = 16000
    guard_dwell_ticks: int = 60


@dataclass
class BotState:
    id: int
    team: str
    node: int
    facing_deg: int
    edge: tuple[int, int] | None = None
    progress_cm: int = 0
    trail_node: int = 0
    health: int = 100
    weapon: WeaponSpec = PISTOL
    ammo: int = PISTOL.ammo
    money: int = 0
    alive: bool = True


@dataclass
class HostageState:
    id: int
    node: int
    following: int | None = None
    rescued: bool = False


@dataclass(frozen=True)
class RoundOutcome:
    winner: str
    cause: str
    goal_fulfilled: bool
    tick: int


@dataclass(frozen=True)
class MoveIntent:
    next_node: int


@dataclass(frozen=True)
class AttackIntent:
    target: int


@dataclass(frozen=True)
class FaceIntent:
    bearing: int


@dataclass(frozen=True)
class InteractIntent:
    hostage: int


@dataclass(frozen=True)
class BuyIntent:
    weapon: str


@dataclass(frozen=True)
class IdleIntent:
    pass


Intent = MoveIntent | AttackIntent | FaceIntent | InteractIntent | BuyIntent | IdleIntent


class WorldState:
    def __init__(self, mapdef: MapDefinition, config: SimConfig, seed: int):
        self.map = mapdef
        self.config = config
        self.rng = SplitMix64(seed)
        n = config.team_size
        self.bots: dict[int, BotState] = {
            i: BotState(id=i, team=CT if i < n else T, node=0, facing_deg=0, money=config.start_money)
            for i in range(2 * n)
        }
        self.reset_round(0)

    def _respawn(self) -> None:
        """Put every bot on its team's spawn, facing the first hostage point,
        with full health and a loaded pistol, and the hostages on their points."""
        n = self.config.team_size
        ct_spawns = self.map.tagged("spawn_ct")
        t_spawns = self.map.tagged("spawn_t")
        aim = self.map.waypoints[self.map.tagged("hostage_point")[0]]
        for bot in self.bots.values():
            if bot.team == CT:
                node = ct_spawns[bot.id % len(ct_spawns)]
            else:
                node = t_spawns[(bot.id - n) % len(t_spawns)]
            wp = self.map.waypoints[node]
            bot.node = node
            bot.edge = None
            bot.progress_cm = 0
            bot.facing_deg = bearing_deg(aim.x - wp.x, aim.y - wp.y)
            bot.trail_node = node
            bot.health = 100
            bot.weapon = PISTOL
            bot.ammo = PISTOL.ammo
            bot.alive = True
        self.hostages = {
            hid: HostageState(id=hid, node=node)
            for hid, node in enumerate(self.map.tagged("hostage_point"))
        }

    def reset_round(self, round_no: int) -> None:
        """Start a new round: respawn everyone, keep money and the RNG stream."""
        self.round_no = round_no
        self.tick = 0
        self.outcome: RoundOutcome | None = None
        self.events: list[tuple[int, int, int, str, str]] = []
        self._fov_key: tuple[int, int] | None = None
        self._respawn()
        self._event(WORLD, "round_start", f"round={round_no}")

    # -- clock and phase ------------------------------------------------

    @property
    def clock(self) -> int:
        return self.config.round_ticks - self.tick

    @property
    def phase(self) -> str:
        if self.outcome is not None:
            return "over"
        if self.tick < self.config.buy_ticks:
            return "buy"
        return "play"

    # -- geometry helpers ----------------------------------------------

    def pos_cm(self, bot: BotState) -> tuple[int, int]:
        wp = self.map.waypoints[bot.node]
        if bot.edge is None:
            return (wp.x, wp.y)
        a = self.map.waypoints[bot.edge[0]]
        b = self.map.waypoints[bot.edge[1]]
        cost = self.map.edge_cost[bot.edge]
        x = a.x + (b.x - a.x) * bot.progress_cm // cost
        y = a.y + (b.y - a.y) * bot.progress_cm // cost
        return (x, y)

    def nearest_wp(self, bot: BotState) -> int:
        if bot.edge is None:
            return bot.node
        cost = self.map.edge_cost[bot.edge]
        if 2 * bot.progress_cm <= cost:
            return bot.edge[0]
        return bot.edge[1]

    def _sight(self, dx: int, dy: int, wa: int, wb: int) -> bool | None:
        """The viewer-free part of the field of view, for a seen bot at offset
        (dx, dy) near waypoint `wb` from a viewer near `wa`: False when out of
        range or hidden, True when the two coincide, None when facing decides.
        Range is symmetric and the map loader keeps visibility symmetric, so
        the answer holds for either bot as the viewer."""
        rng_cm = self.config.view_range_cm
        d2 = dx * dx + dy * dy
        if d2 > rng_cm * rng_cm:
            return False
        if d2 == 0:
            return True
        # one set lookup before the bearing arithmetic, which it often saves
        return None if self.map.can_see(wa, wb) else False

    def _faces(self, facing_deg: int, dx: int, dy: int) -> bool:
        """Whether offset (dx, dy) lies in the view cone of a viewer facing `facing_deg`."""
        return ang_diff(bearing_deg(dx, dy), facing_deg) <= self.config.fov_half_angle_deg

    def in_fov(self, viewer_id: int, seen_id: int) -> bool:
        """The one-pair form of `fov_pairs`, for tests made after bots moved."""
        a = self.bots[viewer_id]
        b = self.bots[seen_id]
        (ax, ay), (bx, by) = self.pos_cm(a), self.pos_cm(b)
        dx, dy = bx - ax, by - ay
        sight = self._sight(dx, dy, self.nearest_wp(a), self.nearest_wp(b))
        return self._faces(a.facing_deg, dx, dy) if sight is None else sight

    def fov_pairs(self) -> tuple[tuple[int, int], ...]:
        """Ordered (viewer, seen) pairs among living bots, cached per tick and
        sorted.  One pass over unordered pairs: each bot's position and nearest
        waypoint are worked out once, range and visibility tested once per
        pair, and only the facing test is made from each end."""
        key = (self.round_no, self.tick)
        if self._fov_key != key:
            alive = [(b, self.pos_cm(b), self.nearest_wp(b)) for b in self.bots.values() if b.alive]
            pairs = []
            for i, (a, (ax, ay), wa) in enumerate(alive):
                for b, (bx, by), wb in alive[i + 1 :]:
                    dx, dy = bx - ax, by - ay
                    sight = self._sight(dx, dy, wa, wb)
                    if sight is False:
                        continue
                    if sight or self._faces(a.facing_deg, dx, dy):
                        pairs.append((a.id, b.id))
                    if sight or self._faces(b.facing_deg, -dx, -dy):
                        pairs.append((b.id, a.id))
            pairs.sort()
            self._fov_pairs = tuple(pairs)
            self._enemy_pairs = tuple(
                (a, b) for a, b in self._fov_pairs if self.bots[a].team != self.bots[b].team
            )
            self._fov_key = key
        return self._fov_pairs

    def enemy_pairs(self) -> tuple[tuple[int, int], ...]:
        """The cross-team pairs of `fov_pairs`, in order; built and cached with them."""
        self.fov_pairs()
        return self._enemy_pairs

    def free_hostages(self) -> list[HostageState]:
        """Hostages neither rescued nor led, in ascending id order like ``self.hostages``."""
        return [h for h in self.hostages.values() if not h.rescued and h.following is None]

    def led_hostages(self) -> list[HostageState]:
        """Hostages not yet rescued that follow a bot, in ascending id order."""
        return [h for h in self.hostages.values() if not h.rescued and h.following is not None]

    # -- events ---------------------------------------------------------

    def _event(self, bot_key: int, etype: str, payload: str) -> None:
        self.events.append((self.tick, bot_key, len(self.events), etype, payload))

    def log_agent_event(self, bot_id: int, etype: str, payload: str) -> None:
        self._event(bot_id, etype, payload)

    # -- per-tick processing --------------------------------------------

    def step(self, intents: dict[int, Intent]) -> RoundOutcome | None:
        if self.outcome is not None:
            return self.outcome
        for bot_id in sorted(intents):
            intent = intents[bot_id]
            if isinstance(intent, BuyIntent):
                self._do_buy(bot_id, intent)
        if self.phase == "play":
            for bot_id in sorted(intents):
                intent = intents[bot_id]
                bot = self.bots[bot_id]
                if not bot.alive:
                    continue
                if isinstance(intent, MoveIntent):
                    self._do_move(bot, intent.next_node)
                elif isinstance(intent, AttackIntent):
                    self._turn_at(bot, intent.target)
                elif isinstance(intent, FaceIntent):
                    bot.facing_deg = turn_toward(
                        bot.facing_deg, intent.bearing % 360, self.config.turn_deg_per_tick
                    )
        for bot_id in sorted(intents):
            intent = intents[bot_id]
            if isinstance(intent, AttackIntent) and self.bots[bot_id].alive:
                self.resolve_attack(bot_id, intent.target)
        for bot_id in sorted(intents):
            intent = intents[bot_id]
            if isinstance(intent, InteractIntent):
                self._do_interact(bot_id, intent.hostage)
        self._update_hostages()
        self.tick += 1
        self._fov_key = None
        outcome = self.check_win()
        if outcome is not None:
            self.outcome = outcome
            self._award_round_end(outcome)
            self._event(
                WORLD,
                "round_end",
                f"winner={outcome.winner} cause={outcome.cause} goal={int(outcome.goal_fulfilled)}",
            )
        return self.outcome

    def _do_buy(self, bot_id: int, intent: BuyIntent) -> None:
        bot = self.bots[bot_id]
        spec = WEAPONS.get(intent.weapon)
        if not bot.alive or spec is None:
            self._event(bot_id, "buy_failed", f"weapon={intent.weapon} reason=invalid")
            return
        if bot.money < spec.price:
            self._event(bot_id, "buy_failed", f"weapon={spec.name} reason=funds")
            return
        bot.money -= spec.price
        bot.weapon = spec
        bot.ammo = spec.ammo
        self._event(bot_id, "bought", f"weapon={spec.name} money={bot.money}")

    def _do_move(self, bot: BotState, next_node: int) -> None:
        if bot.edge is None:
            if next_node == bot.node:
                return
            cost = self.map.edge_cost.get((bot.node, next_node))
            if cost is None:
                self._event(bot.id, "move_failed", f"to={next_node} reason=no_edge")
                return
            bot.trail_node = bot.node
            bot.edge = (bot.node, next_node)
            bot.progress_cm = 0
        else:
            if next_node == bot.edge[0]:
                # turn back along the same edge; the trail node is still the
                # last waypoint the bot actually stood on
                cost = self.map.edge_cost[bot.edge]
                bot.edge = (bot.edge[1], bot.edge[0])
                bot.progress_cm = cost - bot.progress_cm
            elif next_node != bot.edge[1]:
                self._event(bot.id, "move_failed", f"to={next_node} reason=off_edge")
                return
        cost = self.map.edge_cost[bot.edge]
        target = self.map.waypoints[bot.edge[1]]
        pos = self.pos_cm(bot)
        desired = bearing_deg(target.x - pos[0], target.y - pos[1])
        bot.facing_deg = turn_toward(bot.facing_deg, desired, self.config.turn_deg_per_tick)
        bot.progress_cm += self.config.move_cm_per_tick
        if bot.progress_cm >= cost:
            # leftover distance is discarded at node arrival
            bot.node = bot.edge[1]
            bot.edge = None
            bot.progress_cm = 0
            bot.trail_node = bot.node

    def _turn_at(self, bot: BotState, target_id: int) -> None:
        target = self.bots.get(target_id)
        if target is None or not target.alive:
            return
        pa = self.pos_cm(bot)
        pb = self.pos_cm(target)
        if pa == pb:
            return
        desired = bearing_deg(pb[0] - pa[0], pb[1] - pa[1])
        bot.facing_deg = turn_toward(bot.facing_deg, desired, self.config.turn_deg_per_tick)

    def resolve_attack(self, attacker_id: int, target_id: int) -> None:
        bot = self.bots[attacker_id]
        if not bot.alive:
            return
        target = self.bots.get(target_id)
        if target is None or not target.alive or target_id == attacker_id:
            self._event(attacker_id, "attack_failed", f"target={target_id} reason=no_target")
            return
        if bot.ammo <= 0:
            self._event(attacker_id, "attack_failed", f"target={target_id} reason=no_ammo")
            return
        if not self.in_fov(attacker_id, target_id):
            self._event(attacker_id, "attack_failed", f"target={target_id} reason=not_in_fov")
            return
        bot.ammo -= 1
        spec = bot.weapon
        pa = self.pos_cm(bot)
        pb = self.pos_cm(target)
        dist = math.isqrt(dist2(pa[0], pa[1], pb[0], pb[1]))
        num = spec.accuracy_pct * max(0, spec.range_cm - dist)
        den = 100 * spec.range_cm
        if self.rng.below(den) < num:
            target.health -= spec.damage
            # getting shot snaps the victim around to face the shooter, so the
            # next perception pass can actually see the threat
            if pa != pb:
                target.facing_deg = bearing_deg(pa[0] - pb[0], pa[1] - pb[1])
            if target.health <= 0:
                target.health = 0
                target.alive = False
                bot.money = min(self.config.money_cap, bot.money + self.config.kill_reward)
                self._event(attacker_id, "shot_hit", f"target={target_id} health=0")
                self._event(attacker_id, "killed", f"target={target_id} money={bot.money}")
            else:
                self._event(attacker_id, "shot_hit", f"target={target_id} health={target.health}")
        else:
            self._event(attacker_id, "shot_missed", f"target={target_id}")

    def _do_interact(self, bot_id: int, hostage_id: int) -> None:
        bot = self.bots[bot_id]
        hostage = self.hostages.get(hostage_id)
        if not bot.alive or bot.team != CT or hostage is None or hostage.rescued:
            return
        if bot.edge is not None or bot.node != hostage.node:
            return
        if hostage.following is None:
            hostage.following = bot_id
            self._event(bot_id, "hostage_grabbed", f"hostage={hostage_id}")
        elif hostage.following == bot_id:
            hostage.following = None
            self._event(bot_id, "hostage_released", f"hostage={hostage_id}")

    def _update_hostages(self) -> None:
        rescue_nodes = set(self.map.tagged("rescue_zone"))
        for hid in sorted(self.hostages):
            hostage = self.hostages[hid]
            if hostage.rescued or hostage.following is None:
                continue
            leader = self.bots[hostage.following]
            if not leader.alive:
                hostage.following = None
                self._event(WORLD, "hostage_freed", f"hostage={hid}")
                continue
            hostage.node = leader.trail_node
            if hostage.node in rescue_nodes:
                hostage.rescued = True
                hostage.following = None
                self._event(WORLD, "hostage_rescued", f"hostage={hid} node={hostage.node}")

    def check_win(self) -> RoundOutcome | None:
        cts_alive = sum(1 for b in self.bots.values() if b.team == CT and b.alive)
        ts_alive = sum(1 for b in self.bots.values() if b.team == T and b.alive)
        all_rescued = all(h.rescued for h in self.hostages.values())
        if all_rescued:
            return RoundOutcome(CT, "all_hostages_rescued", ts_alive > 0, self.tick)
        if ts_alive == 0:
            return RoundOutcome(CT, "t_eliminated", False, self.tick)
        if cts_alive == 0:
            return RoundOutcome(T, "ct_eliminated", False, self.tick)
        if self.tick >= self.config.round_ticks:
            return RoundOutcome(T, "time_expired", cts_alive > 0, self.tick)
        return None

    def _award_round_end(self, outcome: RoundOutcome) -> None:
        for bot in self.bots.values():
            if bot.team == outcome.winner:
                reward = self.config.win_reward
            else:
                reward = self.config.loss_reward
            bot.money = min(self.config.money_cap, bot.money + reward)

    # -- digests ---------------------------------------------------------

    def state_digest(self) -> int:
        parts = [f"r={self.round_no};t={self.tick};p={self.phase};d={self.rng.draws}"]
        for bot_id in sorted(self.bots):
            b = self.bots[bot_id]
            parts.append(
                f"b{b.id}:{b.team},{b.node},{b.edge},{b.progress_cm},{b.facing_deg},"
                f"{b.trail_node},{b.health},{b.weapon.name},{b.ammo},{b.money},{int(b.alive)}"
            )
        for hid in sorted(self.hostages):
            h = self.hostages[hid]
            parts.append(f"h{h.id}:{h.node},{h.following},{int(h.rescued)}")
        return fnv1a64("|".join(parts).encode("ascii"))

