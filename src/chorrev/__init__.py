"""chorrev: compile choreographies with recovery guards to reversible machines.

The package covers the whole pipeline: a small textual language for
global protocols with reversion guards, projection of each participant
onto a reversible communicating machine, an asynchronous runtime that
can undo a tried branch together with everything that causally depends
on it, and bounded exploration that cross-checks the reversible
semantics against the plain one.
"""

from .causality import CausalityAnalyzer, audit_configuration
from .explore import (
    Bound,
    CheckResult,
    plain_reachable,
    reachable,
    run_checks,
)
from .machine import (
    Branch,
    DeterminizationConflict,
    ProjectionError,
    RCfsm,
    Transition,
    Unit,
    finalize,
    forget_machine,
    to_dot,
)
from .model import (
    Channel,
    Choice,
    ChoiceBranch,
    Chor,
    Guard,
    Interaction,
    Loop,
    Par,
    Seq,
    control_points,
    guard_text,
    participants,
    pretty,
    validate,
)
from .order import (
    CommEvent,
    EventOrder,
    GateEvent,
    UndefinedSemantics,
    semantics,
    well_branched,
)
from .parse import ParseError, parse_choreography, parse_guard
from .projection import System, project_system
from .reverse import ReversalCandidate, RollbackFailed, enabled_reversals, rho, step_reverse
from .runtime import (
    BookEntry,
    ChannelState,
    Configuration,
    Log,
    NotEnabled,
    enabled_forward,
    eval_guard,
    find_transition,
    forget_config,
    initial_configuration,
    step_input,
    step_output,
)

__version__ = "0.1.0"

__all__ = [
    "Bound",
    "BookEntry",
    "Branch",
    "CausalityAnalyzer",
    "Channel",
    "ChannelState",
    "CheckResult",
    "Choice",
    "ChoiceBranch",
    "Chor",
    "CommEvent",
    "Configuration",
    "DeterminizationConflict",
    "EventOrder",
    "GateEvent",
    "Guard",
    "Interaction",
    "Log",
    "Loop",
    "NotEnabled",
    "Par",
    "ParseError",
    "ProjectionError",
    "RCfsm",
    "ReversalCandidate",
    "RollbackFailed",
    "Seq",
    "System",
    "Transition",
    "UndefinedSemantics",
    "Unit",
    "audit_configuration",
    "control_points",
    "enabled_forward",
    "enabled_reversals",
    "eval_guard",
    "finalize",
    "find_transition",
    "forget_config",
    "forget_machine",
    "guard_text",
    "initial_configuration",
    "parse_choreography",
    "parse_guard",
    "participants",
    "plain_reachable",
    "pretty",
    "project_system",
    "reachable",
    "rho",
    "run_checks",
    "semantics",
    "step_input",
    "step_output",
    "step_reverse",
    "to_dot",
    "validate",
    "well_branched",
]
