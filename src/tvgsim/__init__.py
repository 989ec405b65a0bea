"""Deterministic simulation and analysis of distributed algorithms on
time-varying graphs."""

from .engine import Protocol, Simulation, Trace, TraceEvent, TraceWriter, run
from .errors import (
    CapacityError,
    DomainError,
    GenerationError,
    NotConvergedError,
    ParseError,
    TvgsimError,
)
from .graphs import (
    StaticGraph,
    cache_stats,
    clear_caches,
    diameter,
    enumerate_minimal_dominating_sets,
    find_smds,
    is_connected,
    is_dominating,
    is_minimal_dominating,
    make_edge,
    smds_witness,
)
from .io import load_graph_file, load_scenario, parse_graph_text, save_scenario
from .metrics import (
    ComplexityReport,
    NpsFamily,
    ReportFold,
    convergence_steps,
    nps_broadcast,
    nps_ug,
)
from .protocols import FloodProtocol, MdstProtocol, UgProtocol, get_protocol
from .scenarios import adversary_destabilize, generate_gk, generate_random_cot, named_graph
from .tvg import (
    PeriodicTail,
    PresenceSchedule,
    Tvg,
    earliest_arrival,
    eventual_underlying_graph,
    is_connected_over_time,
    restrict,
)

__version__ = "0.1.0"
