import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmreid.errors import ContractError
from swarmreid.vocab import PersonAttributes
from swarmreid.world import (
    _TURN_BLOCK,
    TAU,
    AgentArrays,
    Arena,
    PersonState,
    Rect,
    RobotState,
    ballistic_step,
    comm_pairs,
    segment_blocked,
    sensing_candidates,
    visible_people,
)

ARENA = Arena(width=25, height=25)

ATTRS = PersonAttributes(
    noun="woman", upper_color="red", upper_type="shirt",
    lower_type="skirt", lower_color="black",
    accessories=frozenset(), hair_color=None,
)


def _person(pid, pos):
    return PersonState(person_id=pid, position=pos, heading=0.0, speed=0.0,
                       attributes=ATTRS)


def _robot(rid, pos, heading=0.0, sensing=8.0, comm=5.0, fov=math.pi / 4):
    return RobotState(robot_id=rid, position=pos, heading=heading, speed=1.0,
                      fov_half_angle=fov, sensing_range=sensing, comm_range=comm)


class TestBallisticStep:
    def test_straight_line(self):
        pos, heading = ballistic_step((0.0, 0.0), 0.0, 1.0, 1.0, ARENA, 0.0, None)
        assert pos == (1.0, 0.0)
        assert heading == 0.0

    def test_wall_reflection_negates_x(self):
        # start on the right wall moving +x: must come back inside
        x_wall = ARENA.xmax
        pos, heading = ballistic_step((x_wall, 0.0), 0.0, 1.0, 1.0, ARENA, 0.0, None)
        assert pos == (x_wall - 1.0, 0.0)
        assert math.cos(heading) == pytest.approx(-1.0)

    def test_oblique_reflection(self):
        h = math.atan2(1.0, 1.0)
        pos, heading = ballistic_step((ARENA.xmax - 0.5, 0.0), h, 1.0,
                                      math.sqrt(2.0), ARENA, 0.0, None)
        assert pos[0] == pytest.approx(ARENA.xmax - 0.5)
        assert pos[1] == pytest.approx(1.0)
        assert math.cos(heading) < 0 < math.sin(heading)

    def test_obstacle_reflection(self):
        arena = Arena(width=25, height=25, obstacles=(Rect(2.0, -1.0, 4.0, 1.0),))
        pos, heading = ballistic_step((0.0, 0.0), 0.0, 1.0, 4.0, arena, 0.0, None)
        assert pos == (0.0, 0.0)
        assert math.cos(heading) == pytest.approx(-1.0)

    def test_outside_position_rejected(self):
        with pytest.raises(ContractError):
            ballistic_step((100.0, 0.0), 0.0, 1.0, 1.0, ARENA, 0.0, None)

    def test_turn_interval_matches_exponential(self):
        # Monte Carlo against the exponential-waiting-time oracle: with
        # lambda 0.1/s the mean gap between heading resamples is 10 s. Small
        # dt keeps the geometric discretization bias inside the 5% band.
        arena = Arena(width=1000, height=1000)
        rng = np.random.default_rng(1234)
        lam, dt = 0.1, 0.1
        pos, heading = (0.0, 0.0), 0.3
        turn_ticks = []
        prev = heading
        for tick in range(200_000):
            pos, heading = ballistic_step(pos, heading, 0.5, dt, arena, lam, rng)
            if heading != prev:
                turn_ticks.append(tick)
                prev = heading
        gaps = np.diff(turn_ticks) * dt
        assert len(gaps) > 1000
        assert 9.5 <= gaps.mean() <= 10.5


class TestSegmentBlocked:
    def test_crossing(self):
        assert segment_blocked((0, 0), (10, 0), [Rect(4, -1, 6, 1)]) is True

    def test_disjoint(self):
        assert segment_blocked((0, 0), (10, 0), [Rect(4, 2, 6, 3)]) is False

    def test_corner_touch_is_not_blocking(self):
        assert segment_blocked((0, 0), (10, 10), [Rect(5, 3, 7, 5)]) is False

    def test_edge_slide_is_not_blocking(self):
        assert segment_blocked((0, 1), (10, 1), [Rect(4, -1, 6, 1)]) is False

    def test_endpoint_inside(self):
        assert segment_blocked((5, 0), (10, 0), [Rect(4, -1, 6, 1)]) is True


class TestVisibility:
    def test_person_ahead(self):
        robot = _robot(0, (0.0, 0.0))
        assert visible_people(robot, [_person(5, (3.0, 0.0))], ARENA) == [5]

    def test_person_behind_obstacle(self):
        arena = Arena(width=25, height=25, obstacles=(Rect(1.0, -1.0, 2.0, 1.0),))
        robot = _robot(0, (0.0, 0.0))
        assert visible_people(robot, [_person(5, (3.0, 0.0))], arena) == []

    def test_range_boundary_inclusive(self):
        robot = _robot(0, (0.0, 0.0), sensing=8.0)
        assert visible_people(robot, [_person(1, (8.0, 0.0))], ARENA) == [1]
        assert visible_people(robot, [_person(1, (8.001, 0.0))], ARENA) == []

    def test_fov_boundary_inclusive(self):
        robot = _robot(0, (0.0, 0.0), fov=math.pi / 4)
        on_edge = (math.cos(math.pi / 4), math.sin(math.pi / 4))
        outside = (math.cos(math.pi / 4 + 0.01), math.sin(math.pi / 4 + 0.01))
        assert visible_people(robot, [_person(1, on_edge)], ARENA) == [1]
        assert visible_people(robot, [_person(1, outside)], ARENA) == []

    def test_zero_distance_always_in_fov(self):
        robot = _robot(0, (1.0, 1.0))
        assert visible_people(robot, [_person(9, (1.0, 1.0))], ARENA) == [9]

    def test_order_follows_input(self):
        robot = _robot(0, (0.0, 0.0), fov=math.pi)
        people = [_person(3, (2.0, 0.0)), _person(1, (3.0, 0.0))]
        assert visible_people(robot, people, ARENA) == [3, 1]


class TestCommPairs:
    def test_in_range(self):
        robots = [_robot(0, (0.0, 0.0)), _robot(1, (1.0, 0.0))]
        assert comm_pairs(robots) == [(0, 1)]

    def test_out_of_range(self):
        robots = [_robot(0, (0.0, 0.0)), _robot(1, (6.0, 0.0))]
        assert comm_pairs(robots) == []

    def test_complete_graph(self):
        robots = [_robot(0, (0.0, 0.0)), _robot(1, (1.0, 0.0)),
                  _robot(2, (0.0, 1.0))]
        assert comm_pairs(robots) == [(0, 1), (0, 2), (1, 2)]

    def test_asymmetric_ranges_use_min(self):
        robots = [_robot(0, (0.0, 0.0), comm=10.0), _robot(1, (6.0, 0.0), comm=5.0)]
        assert comm_pairs(robots) == []

    def test_duplicate_ids_rejected(self):
        robots = [_robot(0, (0.0, 0.0)), _robot(0, (1.0, 0.0))]
        with pytest.raises(ContractError):
            comm_pairs(robots)


_OBSTACLE_ARENA = Arena(
    width=30, height=30,
    obstacles=(Rect(-6.0, -6.0, -2.0, -2.0), Rect(2.0, 3.0, 7.0, 8.0)),
)


def _free_positions(arena):
    return st.tuples(
        st.floats(arena.xmin, arena.xmax, allow_nan=False),
        st.floats(arena.ymin, arena.ymax, allow_nan=False),
    ).filter(lambda p: not arena.in_obstacle(*p))


class TestMotionProperties:
    @given(_free_positions(_OBSTACLE_ARENA),
           st.floats(0.0, TAU, exclude_max=True),
           st.floats(0.0, 3.0),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    @example(pos=(0.0, 15.0), heading=6.9418929803411105e-146, speed=1.0,
             seed=0)
    def test_stays_in_free_space(self, pos, heading, speed, seed):
        rng = np.random.default_rng(seed)
        p, h = pos, heading
        for _ in range(5):
            p, h = ballistic_step(p, h, speed, 0.5, _OBSTACLE_ARENA, 0.5, rng)
            assert _OBSTACLE_ARENA.contains(*p)
            assert not _OBSTACLE_ARENA.in_obstacle(*p)
            assert 0.0 <= h < TAU

    @given(_free_positions(ARENA),
           st.floats(0.0, TAU, exclude_max=True),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_deterministic_given_rng_state(self, pos, heading, seed):
        a = ballistic_step(pos, heading, 1.0, 0.1, ARENA,
                           0.3, np.random.default_rng(seed))
        b = ballistic_step(pos, heading, 1.0, 0.1, ARENA,
                           0.3, np.random.default_rng(seed))
        assert a == b

    @given(_free_positions(ARENA), st.floats(0.0, TAU, exclude_max=True))
    @settings(max_examples=100, deadline=None)
    def test_no_turn_preserves_heading_without_reflection(self, pos, heading):
        x, y = pos
        margin = 0.2
        far_from_walls = (ARENA.xmin + margin < x < ARENA.xmax - margin
                          and ARENA.ymin + margin < y < ARENA.ymax - margin)
        if not far_from_walls:
            return
        _, h = ballistic_step(pos, heading, 1.0, 0.1, ARENA, 0.0, None)
        assert h == heading


# Points on the walls, corners and obstacle edges and corners of
# _OBSTACLE_ARENA: none is inside an obstacle, every one is a surface.
_SURFACE_POINTS = [
    (15.0, 0.0), (-15.0, 3.0), (1.0, 15.0), (0.5, -15.0),
    (15.0, 15.0), (-15.0, -15.0), (15.0, -15.0), (-15.0, 15.0),
    (-6.0, -6.0), (-2.0, -2.0), (-6.0, -2.0), (-2.0, -4.0), (-4.0, -6.0),
    (2.0, 3.0), (7.0, 8.0), (2.0, 5.0), (4.5, 8.0), (7.0, 3.0), (5.0, 3.0),
]
_AXIS_HEADINGS = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2, math.pi / 4]

_agents = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(_SURFACE_POINTS), _free_positions(_OBSTACLE_ARENA)),
        st.one_of(st.sampled_from(_AXIS_HEADINGS),
                  st.floats(0.0, TAU, exclude_max=True)),
        st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0]), st.floats(0.0, 3.0)),
        st.sampled_from([0.0, 0.4, 5.0]),
        st.integers(0, 2**32 - 1),
    ),
    min_size=1, max_size=8,
)


def _bits(position, heading):
    return (position[0].hex(), position[1].hex(), heading.hex())


def _assert_batched_equals_scalar(agents, ticks, dt, arena):
    """Every tick, AgentArrays.step leaves each agent bitwise where
    per-agent ballistic_step with an identically seeded generator does."""
    people = [PersonState(person_id=i, position=pos, heading=h, speed=speed,
                          attributes=ATTRS)
              for i, (pos, h, speed, _, _) in enumerate(agents)]
    batched = AgentArrays(people, [lam for _, _, _, lam, _ in agents], dt, arena,
                          [np.random.default_rng(seed) for *_, seed in agents])
    state = [(pos, h) for pos, h, _, _, _ in agents]
    rngs = [np.random.default_rng(seed) for *_, seed in agents]
    for _ in range(ticks):
        batched.step()
        state = [ballistic_step(pos, h, speed, dt, arena, lam, rng)
                 for (pos, h), (_, _, speed, lam, _), rng in zip(state, agents, rngs)]
        assert [_bits(p.position, p.heading) for p in people] == \
            [_bits(pos, h) for pos, h in state]


class TestAgentArrays:
    @given(_agents, st.sampled_from([0.1, 0.5]))
    @settings(max_examples=200, deadline=None)
    # Head-on into an obstacle edge; into a wall from on it (t = 0); a still
    # agent at x = -0.0, which x + 0.0 would turn into 0.0.
    @example(agents=[((0.0, 4.0), 0.0, 0.5, 0.0, 0)], dt=0.5)
    @example(agents=[((15.0, 0.0), 0.0, 0.5, 0.0, 0)], dt=0.1)
    @example(agents=[((-0.0, 1.0), 0.0, 0.0, 0.0, 0)], dt=0.1)
    def test_step_equals_per_agent_ballistic_step(self, agents, dt):
        _assert_batched_equals_scalar(agents, 12, dt, _OBSTACLE_ARENA)

    def test_turn_draws_cross_block_boundaries(self):
        # lambda 20/s at dt 0.5 turns almost every tick, so each agent reads
        # about two doubles per tick and refills its block several times,
        # at different ticks for different agents.
        agents = [((0.0, 0.0), 0.0, 1.0, 20.0, 1), ((15.0, 15.0), 1.0, 2.0, 20.0, 2),
                  ((-2.0, -4.0), math.pi / 2, 0.0, 0.0, 3), ((2.0, 5.0), 2.5, 0.7, 0.4, 4)]
        _assert_batched_equals_scalar(agents, 3 * _TURN_BLOCK, 0.5, _OBSTACLE_ARENA)

    def test_outside_position_rejected(self):
        agents = [_person(0, (0.0, 0.0)), _person(1, (-4.0, -4.0))]
        batched = AgentArrays(agents, [0.0, 0.0], 0.1, _OBSTACLE_ARENA,
                              [np.random.default_rng(0), np.random.default_rng(1)])
        with pytest.raises(ContractError):
            batched.step()

    def test_negative_speed_rejected(self):
        agent = PersonState(person_id=0, position=(0.0, 0.0), heading=0.0,
                            speed=-1.0, attributes=ATTRS)
        with pytest.raises(ContractError):
            AgentArrays([agent], [0.0], 0.1, ARENA, [np.random.default_rng(0)])


_coords = st.floats(-15.0, 15.0, allow_nan=False)


class TestSensingCandidates:
    @given(st.tuples(_coords, _coords).filter(lambda p: not _OBSTACLE_ARENA.in_obstacle(*p)),
           st.one_of(st.sampled_from(_AXIS_HEADINGS), st.floats(0.0, TAU, exclude_max=True)),
           st.floats(0.1, math.pi),
           st.floats(0.5, 10.0),
           st.lists(st.tuples(_coords, _coords), max_size=12))
    @settings(max_examples=300, deadline=None)
    # The people 1e-9 rad past the cone edges are at distance 1.5 by hypot,
    # but their float sums of squares exceed 1.5 ** 2.
    @example(pos=(0.0, 0.0), heading=0.0, fov=0.1015625, sensing=1.5, extra=[])
    def test_prefiltered_visibility_equals_full(self, pos, heading, fov, sensing, extra):
        robot = _robot(0, pos, heading=heading, sensing=sensing, fov=fov)
        rx, ry = pos
        # People exactly at the sensing range, on and just past both cone
        # edges, and at the robot itself, plus arbitrary ones.
        rim = [(rx + sensing * math.cos(a), ry + sensing * math.sin(a))
               for a in (heading, heading + fov, heading - fov,
                         heading + fov + 1e-9, heading - fov - 1e-9)]
        ring = [(rx + sensing, ry), (rx, ry - sensing), (rx, ry)]
        points = rim + ring + extra
        people = [_person(i, p) for i, p in enumerate(points)]
        xy = np.array(points, dtype=np.float64).T
        (candidates,) = sensing_candidates([robot], xy)
        assert candidates == sorted(candidates)
        assert {i for i, (px, py) in enumerate(points)
                if math.hypot(px - rx, py - ry) <= sensing} <= set(candidates)
        assert (visible_people(robot, [people[j] for j in candidates], _OBSTACLE_ARENA)
                == visible_people(robot, people, _OBSTACLE_ARENA))
