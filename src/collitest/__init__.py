"""Collision-based uniformity testers over comparison graphs.

Decide from samples whether a distribution over {1, .., n} is uniform
or eps-far from it, by counting collisions along the edges of a
comparison graph.  The package certifies graphs structurally, plans
near-optimal graphs under centralized, simultaneous, asymmetric-rate,
streaming and CONGEST constraints, simulates each model with exact
resource accounting, and validates the closed-form moments by exact
enumeration and seeded Monte Carlo.
"""

from .conditions import (COARSE_TAU_GRID, CliqueFamilyReport, ConditionReport,
                         ConjecturedFloor, CounterexampleResult, Plan,
                         PlanResources, certify_disjoint_cliques,
                         certify_graph, certify_stats, conjectured_floor,
                         cycle_plus_hub_counterexample, plan_asymmetric,
                         plan_centralized, plan_simultaneous,
                         plan_simultaneous_streaming, plan_streaming)
from .dist import (Distribution, l1_distance, make_bump, make_heavy,
                   make_uniform)
from .errors import (CapacityError, InvalidNetworkError, ModelViolationError,
                     ProtocolRefusedError)
from .graph import (ComparisonGraph, GraphInequalityReport,
                    check_graph_inequalities, graph_power, make_bipartite,
                    make_clique, make_clique_union, make_cycle,
                    make_disjoint_cliques, make_matching, make_path, make_star,
                    random_connected_graph, random_simple_graph)
from .models import (Message, ResourceLedger, SimulationRun,
                     simulate_asymmetric, simulate_simultaneous,
                     simulate_simultaneous_streaming, simulate_streaming)
from .rng import Stream
from .tester import (TestOutcome, TesterSpec, count_collisions, draw_labeling,
                     evaluate, exact_error_probability, expected_collisions,
                     run, threshold, variance_collisions)

__all__ = [name for name in dir() if not name.startswith("_")]
