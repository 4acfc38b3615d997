"""Activation scheduling for battery-limited monitoring devices on graphs."""

from .coverage import CoverageGraph, build_detection, build_isolation, restrict_x
from .domination import (
    KSigmaConfig,
    disjoint_config,
    greedy_domatic_partition,
    search_config,
    verify_config,
)
from .errors import (
    BatteryViolation,
    InputError,
    ParseError,
    SearchSpaceError,
    SenschedError,
    VerificationError,
)
from .game import (
    BlllParams,
    BlllResult,
    GameState,
    blll_place_and_schedule,
    blll_schedule,
    check_potential_identity,
    greedy_max_coverage_placement,
)
from .graph import NetworkGraph, Target, all_edge_targets, all_node_targets
from .greedy import GreedyResult, greedy_schedule
from .oracle import OracleResult, exact_optimal_schedule
from .randnet import (
    ErdosRenyiSpec,
    GeometricGraphSpec,
    closed_form,
    gen_connected_gnm,
    gen_erdos_renyi,
    gen_geometric,
    simulate_random_schedule,
)
from .schedule import Labeling, ProblemInstance, ScheduleReport, score

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
