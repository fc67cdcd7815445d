"""Exact algebra of delay conditions for asynchronous switching signals.

The package models two-level signals over integer ticks, the window
conditions that relate a gate's input to its admissible outputs, the
closed-form parameter algebra on those conditions, a brute-force grid
oracle used to validate every law, and a small gate-level simulator
with VCD output.  The public names are the ones imported below.
"""

from .circuit import (
    BridcDelay,
    Envelope,
    FixedDelay,
    Gate,
    Netlist,
    NetlistError,
    envelope_propagate,
    netlist_from_dict,
    netlist_to_dict,
    simulate,
)
from .conditions import (
    AicParams,
    BdcParams,
    CondExpr,
    ConsistencyError,
    FdcParams,
    RicParams,
    aic_member,
    baidc_consistent,
    bdc_as_translation,
    bdc_compose,
    bdc_includes,
    bdc_intersection,
    bdc_is_deterministic,
    bdc_is_symmetrical,
    bdc_jointly_solvable,
    bdc_lower,
    bdc_max_solution,
    bdc_member,
    bdc_min_solution,
    bdc_union_envelope,
    bdc_upper,
    bridc_consistency_cases,
    bridc_consistent,
    bridc_det_output,
    cc_failures,
    cc_holds,
    cond_member,
    fdc_member,
    ric_member,
    ric_to_aic,
)
from .oracle import (
    GridConfig,
    HorizonError,
    enumerate_solutions,
    find_empty_witness,
    find_empty_witnesses,
    pointwise_bounds,
    solution_count,
    solution_counts,
)
from .signals import (
    Signal,
    SignalError,
    forward_window_and,
    pointwise,
    window_and,
    window_or,
)
from .verify import THEOREM_CHECKS, CheckReport, run_check
from .waveio import (
    RunConfig,
    WaveParseError,
    emit_vcd,
    emit_waveforms,
    parse_config,
    parse_waveforms,
)

__version__ = "0.1.0"
