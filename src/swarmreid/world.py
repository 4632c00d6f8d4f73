"""2D arena, ballistic random-walk motion, visibility, and comm topology.

The arena is an axis-aligned rectangle centered at the origin with
axis-aligned rectangular obstacles. Agents move at constant speed and
reflect specularly off walls and obstacle edges; headings are resampled by a
memoryless exponential turn clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError

Vec2 = tuple[float, float]

TAU = 2.0 * math.pi
_EPS = 1e-12
_MAX_REFLECTIONS = 4
# Doubles drawn at a time from each agent's motion stream for turn decisions.
_TURN_BLOCK = 256
# Widening, in arena units, of the boxes that decide whether a straight step
# may reach an obstacle; it only has to exceed _EPS plus rounding.
_NEAR_MARGIN = 1e-9
# Relative widening of the squared sensing range in the visibility prefilter.
_RANGE_MARGIN = 1e-9
# Slack of the prefilter's cone test, relative to the distance: far above
# the rounding of the product with the heading and of the exact bearing
# test in visible_people, a few ulps of the distance.
_CONE_MARGIN = 1e-9
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle (x0, y0) to (x1, y1), x0 < x1 and y0 < y1."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ContractError(f"degenerate rectangle {self!r}")

    def contains_interior(self, x: float, y: float) -> bool:
        return self.x0 < x < self.x1 and self.y0 < y < self.y1


@dataclass(frozen=True)
class Arena:
    """Rectangular world centered at the origin."""

    width: float = 25.0
    height: float = 25.0
    obstacles: tuple[Rect, ...] = ()

    def __post_init__(self) -> None:
        if not (self.width > 0 and self.height > 0):
            raise ContractError("arena width and height must be positive")
        for r in self.obstacles:
            if not (self.xmin <= r.x0 and r.x1 <= self.xmax
                    and self.ymin <= r.y0 and r.y1 <= self.ymax):
                raise ContractError(f"obstacle {r!r} sticks out of the arena")

    @property
    def xmin(self) -> float:
        return -self.width / 2.0

    @property
    def xmax(self) -> float:
        return self.width / 2.0

    @property
    def ymin(self) -> float:
        return -self.height / 2.0

    @property
    def ymax(self) -> float:
        return self.height / 2.0

    def contains(self, x: float, y: float) -> bool:
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    def in_obstacle(self, x: float, y: float) -> bool:
        return any(r.contains_interior(x, y) for r in self.obstacles)


@dataclass
class PersonState:
    person_id: int
    position: Vec2
    heading: float
    speed: float
    lambda_turn: float = 0.0


@dataclass
class RobotState:
    robot_id: int
    position: Vec2
    heading: float
    speed: float
    fov_half_angle: float
    sensing_range: float
    comm_range: float
    lambda_turn: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.fov_half_angle <= math.pi):
            raise ContractError("fov_half_angle must be in (0, pi]")
        if self.sensing_range <= 0 or self.comm_range <= 0:
            raise ContractError("sensing_range and comm_range must be positive")


def _slabs(r: Rect, x: float, y: float, dx: float, dy: float):
    """Where the line (x, y) + t*(dx, dy) lies between ``r``'s edges, per axis.

    Returns (tx0, tx1, ty0, ty1) with tx0 <= tx1 and ty0 <= ty1; an axis the
    line runs parallel to gives (-inf, inf) when the line is strictly inside
    that slab. Returns None when it runs parallel outside or on an edge, so
    the line never enters the interior.
    """
    if dx == 0.0:
        if not (r.x0 < x < r.x1):
            return None
        tx0, tx1 = -math.inf, math.inf
    else:
        a = (r.x0 - x) / dx
        b = (r.x1 - x) / dx
        tx0, tx1 = (a, b) if a < b else (b, a)
    if dy == 0.0:
        if not (r.y0 < y < r.y1):
            return None
        ty0, ty1 = -math.inf, math.inf
    else:
        a = (r.y0 - y) / dy
        b = (r.y1 - y) / dy
        ty0, ty1 = (a, b) if a < b else (b, a)
    return tx0, tx1, ty0, ty1


def _first_hit(x: float, y: float, dx: float, dy: float, limit: float,
               arena: Arena):
    """Earliest surface contact along the ray within ``limit``.

    Returns (t, [(axis, snap_coord), ...]) or None. Multiple entries mean a
    corner hit where both components reflect. Grazing contact that never
    enters an obstacle interior is not a hit.
    """
    hits: list[tuple[float, str, float]] = []
    if dx > 0:
        hits.append(((arena.xmax - x) / dx, "x", arena.xmax))
    elif dx < 0:
        hits.append(((arena.xmin - x) / dx, "x", arena.xmin))
    if dy > 0:
        hits.append(((arena.ymax - y) / dy, "y", arena.ymax))
    elif dy < 0:
        hits.append(((arena.ymin - y) / dy, "y", arena.ymin))
    hits = [(max(t, 0.0), axis, snap) for t, axis, snap in hits if -_EPS <= t <= limit]

    for r in arena.obstacles:
        slabs = _slabs(r, x, y, dx, dy)
        if slabs is None:
            continue
        tx0, tx1, ty0, ty1 = slabs
        enter = max(tx0, ty0)
        leave = min(tx1, ty1)
        # Strict inequality: touching an edge or sliding along it is not entry.
        if enter >= leave or leave <= _EPS or enter > limit or enter < -_EPS:
            continue
        t = max(enter, 0.0)
        if abs(tx0 - ty0) <= _EPS and math.isfinite(tx0) and math.isfinite(ty0):
            hits.append((t, "x", r.x0 if dx > 0 else r.x1))
            hits.append((t, "y", r.y0 if dy > 0 else r.y1))
        elif tx0 > ty0:
            hits.append((t, "x", r.x0 if dx > 0 else r.x1))
        else:
            hits.append((t, "y", r.y0 if dy > 0 else r.y1))

    if not hits:
        return None
    t_min = min(t for t, _, _ in hits)
    chosen = [(axis, snap) for t, axis, snap in hits if t <= t_min + _EPS]
    return t_min, chosen


def _push_out(x: float, y: float, arena: Arena) -> Vec2:
    """Clamp into the arena and nudge out of any obstacle interior."""
    x = min(max(x, arena.xmin), arena.xmax)
    y = min(max(y, arena.ymin), arena.ymax)
    for r in arena.obstacles:
        if r.contains_interior(x, y):
            moves = [
                (x - r.x0, (r.x0, y)), (r.x1 - x, (r.x1, y)),
                (y - r.y0, (x, r.y0)), (r.y1 - y, (x, r.y1)),
            ]
            _, (x, y) = min(moves, key=lambda m: m[0])
    return x, y


def _wrap_angle(a: float) -> float:
    """Map an angle to [0, 2pi).

    ``a % TAU`` rounds to TAU itself for a negative ``a`` smaller in magnitude
    than half an ulp of TAU (a reflection that leaves dy at -0.0 or -1e-146),
    so that case is folded back to 0.
    """
    w = a % TAU
    return 0.0 if w >= TAU else w


def ballistic_step(
    position: Vec2,
    heading: float,
    speed: float,
    dt: float,
    arena: Arena,
    lambda_turn: float,
    rng,
) -> tuple[Vec2, float]:
    """Advance one tick of the ballistic random walk.

    Moves ``speed * dt`` along the heading with specular reflection at walls
    and obstacle edges (at most 4 reflections, then the step is truncated).
    Independently, with probability 1 - exp(-lambda_turn * dt) the heading is
    resampled uniformly from [0, 2pi).
    """
    x, y = position
    if not arena.contains(x, y) or arena.in_obstacle(x, y):
        raise ContractError(f"position {position!r} outside the free space")
    if dt < 0 or speed < 0 or lambda_turn < 0:
        raise ContractError("dt, speed and lambda_turn must be non-negative")

    dx, dy = math.cos(heading), math.sin(heading)
    remaining = speed * dt
    reflected = False
    for _ in range(_MAX_REFLECTIONS):
        if remaining <= 0.0:
            break
        hit = _first_hit(x, y, dx, dy, remaining, arena)
        if hit is None:
            x += dx * remaining
            y += dy * remaining
            remaining = 0.0
            break
        t, surfaces = hit
        x += dx * t
        y += dy * t
        for axis, snap in surfaces:
            if axis == "x":
                x = snap
                dx = -dx
            else:
                y = snap
                dy = -dy
        reflected = True
        remaining -= t
    # Reflections exhausted with distance left: the leftover is dropped.

    x, y = _push_out(x, y, arena)
    new_heading = _wrap_angle(math.atan2(dy, dx)) if reflected else heading
    if rng is not None and rng.random() < -math.expm1(-lambda_turn * dt):
        new_heading = rng.uniform(0.0, TAU)
    return (x, y), new_heading


class AgentArrays:
    """Motion state of many agents as arrays, advanced one tick at a time.

    ``step`` equals calling ``ballistic_step`` on every agent with its own
    speed, turn rate and generator, bit for bit. An agent whose straight step cannot touch a wall
    or come near an obstacle moves in one vector operation; every other agent
    goes through ``ballistic_step`` (with ``rng=None``, so motion only). The
    agents' ``position`` and ``heading`` are written back after each step.

    Each generator must be read by nothing but this object once it is built,
    which holds for the runner's motion streams after spawning. Turn draws can
    then come from a block of ``rng.random(_TURN_BLOCK)`` per agent, read with
    a cursor: ``rng.random()`` and ``rng.uniform(0, TAU)`` each read one
    double ``u``, the latter as ``TAU * u``, so every agent's draws keep their
    order.
    """

    def __init__(self, agents: Sequence[PersonState | RobotState], dt: float,
                 arena: Arena, rngs: Sequence) -> None:
        self.agents = list(agents)
        speeds = [a.speed for a in self.agents]
        turn_rates = [a.lambda_turn for a in self.agents]
        if dt < 0 or min(speeds + turn_rates, default=0.0) < 0:
            raise ContractError("dt, speed and lambda_turn must be non-negative")
        n = len(self.agents)
        self.dt = dt
        self.arena = arena
        # Row 0 holds x and row 1 holds y, one column per agent.
        self.xy = np.array([a.position for a in self.agents],
                           dtype=np.float64).reshape(n, 2).T.copy()
        self._step = np.array([s * dt for s in speeds], dtype=np.float64)
        self._still = np.flatnonzero(self._step == 0.0)
        self._p_turn = np.array([-math.expm1(-lam * dt) for lam in turn_rates],
                                dtype=np.float64)
        self._lo = np.array([[arena.xmin], [arena.ymin]])
        self._hi = np.array([[arena.xmax], [arena.ymax]])
        # Obstacle corners as (2, 1, k), for (2, n, k) comparisons; the near
        # test widens them.
        boxes = np.array([(r.x0, r.y0, r.x1, r.y1) for r in arena.obstacles],
                         dtype=np.float64).reshape(-1, 4).T[:, None, :]
        self._obstacle_lo, self._obstacle_hi = boxes[:2], boxes[2:]
        self._near_lo, self._near_hi = boxes[:2] - _NEAR_MARGIN, boxes[2:] + _NEAR_MARGIN
        # Per agent: cos and sin of the heading, and on each axis the wall its
        # step runs towards with the divisor of _first_hit's wall test. A zero
        # component gets an infinitely far wall instead.
        self._dir = np.empty((2, n))
        self._wall = np.empty((2, n))
        self._div = np.empty((2, n))
        for i, agent in enumerate(self.agents):
            self._set_heading(i, agent.heading)
        self._rngs = list(rngs)
        self._draws = np.array([rng.random(_TURN_BLOCK) for rng in self._rngs],
                               dtype=np.float64).reshape(n, _TURN_BLOCK)
        self._cursor = np.zeros(n, dtype=np.intp)
        self._rows = np.arange(n)

    def _set_heading(self, i: int, heading: float) -> None:
        self.agents[i].heading = heading
        for axis, d in enumerate((math.cos(heading), math.sin(heading))):
            self._dir[axis, i] = d
            self._wall[axis, i], self._div[axis, i] = (
                (self._hi[axis, 0], d) if d > 0 else
                (self._lo[axis, 0], d) if d < 0 else (math.inf, 1.0))

    def _refill(self, i: int) -> None:
        self._draws[i] = self._rngs[i].random(_TURN_BLOCK)
        self._cursor[i] = 0

    def _next_draw(self, i: int) -> float:
        if self._cursor[i] == _TURN_BLOCK:
            self._refill(i)
        c = self._cursor[i]
        self._cursor[i] = c + 1
        return self._draws[i, c].item()

    def step(self, solve: Callable = ballistic_step) -> None:
        """Advance every agent by one tick, calling ``solve`` for surface hits.

        ``solve`` is ``ballistic_step`` or a wrapper of it.
        """
        xy, step = self.xy, self._step
        free = ((self._lo <= xy) & (xy <= self._hi)).all(axis=0)
        if self._obstacle_lo.size:
            p = xy[:, :, None]
            free &= ~((self._obstacle_lo < p) & (p < self._obstacle_hi)).all(axis=0).any(axis=1)
        if not free.all():
            i = int(np.argmin(free))
            raise ContractError(
                f"position {(xy[0, i].item(), xy[1, i].item())!r} outside the free space")

        # _first_hit's wall test, term for term. A direction component below
        # about 1e-290 overflows the quotient to inf, as Python floats do.
        with np.errstate(over="ignore"):
            t = (self._wall - xy) / self._div
        scalar = ((-_EPS <= t) & (t <= step)).any(axis=0)
        new = xy + self._dir * step
        if self._obstacle_lo.size:
            # Conservative: the step's bounding box meets a widened obstacle.
            lo = np.minimum(xy, new)[:, :, None]
            hi = np.maximum(xy, new)[:, :, None]
            scalar |= ((hi >= self._near_lo) & (lo <= self._near_hi)).all(axis=0).any(axis=1)
        # _push_out's clamp; its obstacle nudge cannot apply on this path.
        new = np.minimum(np.maximum(new, self._lo), self._hi)
        if self._still.size:
            # A zero-length step leaves the position as it is (adding 0.0
            # would turn -0.0 into 0.0).
            new[:, self._still] = xy[:, self._still]
        for i in scalar.nonzero()[0].tolist():
            agent = self.agents[i]
            (new[0, i], new[1, i]), heading = solve(
                (xy[0, i].item(), xy[1, i].item()), agent.heading, agent.speed,
                self.dt, self.arena, agent.lambda_turn, None)
            if heading != agent.heading:
                self._set_heading(i, heading)

        # The draw order of ballistic_step: rng.random() for the turn test,
        # then rng.uniform(0, TAU) only if the agent turns.
        for i in (self._cursor == _TURN_BLOCK).nonzero()[0].tolist():
            self._refill(i)
        u = self._draws[self._rows, self._cursor]
        self._cursor += 1
        for i in (u < self._p_turn).nonzero()[0].tolist():
            self._set_heading(i, TAU * self._next_draw(i))

        self.xy = new
        for agent, position in zip(self.agents, zip(*new.tolist())):
            agent.position = position


def segment_blocked(p: Vec2, q: Vec2, obstacles: Iterable[Rect]) -> bool:
    """True iff the open segment (p, q) crosses any obstacle interior.

    Touching a corner or sliding along an edge does not block.
    """
    px, py = p
    dx, dy = q[0] - px, q[1] - py
    for r in obstacles:
        slabs = _slabs(r, px, py, dx, dy)
        if slabs is None:
            continue
        tx0, tx1, ty0, ty1 = slabs
        enter = max(tx0, ty0, 0.0)
        leave = min(tx1, ty1, 1.0)
        if enter < leave:
            return True
    return False


def _angle_diff(a: float, b: float) -> float:
    """Minimal absolute angular difference, in [0, pi]."""
    d = (a - b + math.pi) % TAU - math.pi
    return abs(d)


def visible_people(
    robot: RobotState, people: Sequence[PersonState], arena: Arena
) -> list[int]:
    """IDs of people within range, inside the FOV cone, and unoccluded.

    Distance and angular bounds are inclusive. Order follows the input list.
    """
    rx, ry = robot.position
    out = []
    for person in people:
        px, py = person.position
        d = math.hypot(px - rx, py - ry)
        if d > robot.sensing_range:
            continue
        if d > 0.0:
            bearing = math.atan2(py - ry, px - rx)
            if _angle_diff(bearing, robot.heading) > robot.fov_half_angle:
                continue
        if segment_blocked(robot.position, person.position, arena.obstacles):
            continue
        out.append(person.person_id)
    return out


def sensing_candidates(robots: Sequence[RobotState],
                       people_xy: np.ndarray) -> list[list[int]]:
    """Per robot, the indices of the people that may be visible.

    ``people_xy`` holds the people's x in row 0 and y in row 1.
    A superset, in people order, of those within ``sensing_range`` and the
    FOV cone: the squared distance is compared with a slightly widened
    squared range, and the offset's product with the heading direction
    with ``|d| * cos(fov_half_angle)`` lowered by a relative margin, which
    keeps a person at the robot and, at a half angle of pi, everyone.
    ``visible_people`` over these candidates equals it over all people.
    """
    # Each of these has shape (robots, 1).
    rx, ry, reach, cos_h, sin_h, cos_fov = np.array(
        [(*r.position, r.sensing_range * r.sensing_range * (1.0 + _RANGE_MARGIN),
          math.cos(r.heading), math.sin(r.heading),
          math.cos(r.fov_half_angle) - _CONE_MARGIN) for r in robots],
        dtype=np.float64).T[:, :, None]
    ddx = people_xy[0] - rx
    ddy = people_xy[1] - ry
    squared = ddx * ddx + ddy * ddy
    in_cone = ddx * cos_h + ddy * sin_h >= np.sqrt(squared) * cos_fov
    # Below the smallest normal float the squared distance has lost the
    # offset (it reads 0 for a nonzero one), so the cone test cannot refuse.
    near = (squared <= reach) & (in_cone | (squared < _TINY))
    return [row.nonzero()[0].tolist() for row in near]


def comm_pairs(robots: Sequence[RobotState]) -> list[tuple[int, int]]:
    """Unordered robot pairs within mutual communication range.

    A pair communicates iff their distance is at most the smaller of the two
    comm ranges. Pairs are (lower_id, higher_id), sorted.
    """
    ordered = sorted(robots, key=lambda r: r.robot_id)
    pairs = []
    for i, a in enumerate(ordered):
        ax, ay = a.position
        for b in ordered[i + 1:]:
            if a.robot_id == b.robot_id:
                raise ContractError(f"duplicate robot_id {a.robot_id}")
            bx, by = b.position
            if math.hypot(bx - ax, by - ay) <= min(a.comm_range, b.comm_range):
                pairs.append((a.robot_id, b.robot_id))
    return pairs
