"""Activation scheduling for battery-limited monitoring devices on graphs."""

from .coverage import CoverageGraph, build_detection, build_isolation, restrict_x
from .domination import (
    DomaticPartition,
    KSigmaConfig,
    config_from_domatic,
    greedy_domatic_partition,
    is_dominating,
    search_config,
    verify_config,
)
from .errors import (
    BatteryViolation,
    InputError,
    ModeError,
    ParseError,
    SearchSpaceError,
    SenschedError,
    VerificationError,
)
from .game import (
    BlllParams,
    BlllResult,
    GameState,
    PlacementResult,
    blll_place_and_schedule,
    blll_schedule,
    check_potential_identity,
    greedy_max_coverage_placement,
    potential,
    utility,
)
from .graph import (
    NetworkGraph,
    Target,
    all_edge_targets,
    all_node_targets,
    bfs_distances,
    covered_targets,
    node_edge_distance,
)
from .greedy import GreedyResult, greedy_schedule
from .oracle import (
    OracleResult,
    exact_optimal_schedule,
    max_cut_brute,
    reduced_instance,
    reduction_check,
)
from .randnet import (
    ErdosRenyiSpec,
    GeometricGraphSpec,
    closed_form_er,
    closed_form_geometric,
    gen_connected_gnm,
    gen_erdos_renyi,
    gen_geometric,
    simulate_random_schedule,
)
from .schedule import (
    Labeling,
    ProblemInstance,
    ScheduleReport,
    expected_detection,
    labeling_from_slots,
    score,
    slot_sets,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
