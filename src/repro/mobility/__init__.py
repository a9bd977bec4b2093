"""Mobility substrate: movement models and trajectory generation.

The paper "employ[s] the random waypoint model [7] to control each human
object's movement in terms of location, velocity and acceleration
change" (Sec. VI-A).  :class:`RandomWaypoint` is the model the
benchmarks use; :class:`RandomWalk` and :class:`GaussMarkov` are
standard alternatives from the same survey (Camp et al. [7]) provided
for sensitivity studies.
"""

from repro.mobility.base import MobilityModel, Walker
from repro.mobility.random_waypoint import RandomWaypoint, RandomWaypointConfig
from repro.mobility.random_walk import RandomWalk, RandomWalkConfig
from repro.mobility.gauss_markov import GaussMarkov, GaussMarkovConfig
from repro.mobility.hotspot import HotspotConfig, HotspotWaypoint
from repro.mobility.trace import Trajectory, TraceSet, generate_traces

__all__ = [
    "GaussMarkov",
    "GaussMarkovConfig",
    "HotspotConfig",
    "HotspotWaypoint",
    "MobilityModel",
    "RandomWalk",
    "RandomWalkConfig",
    "RandomWaypoint",
    "RandomWaypointConfig",
    "TraceSet",
    "Trajectory",
    "Walker",
    "generate_traces",
]
