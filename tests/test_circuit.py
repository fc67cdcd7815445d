"""Gate-level netlists: structure checks, simulation, envelopes.

The switch-list simulator is played against the dense tick sweep in
`dense_reference`, run from each constant state, on random small
netlists.  The envelope kernel is played against a dense box
enumeration, and both engines are judged by the oracle gate by gate: a
gate's trace is the one output that its window and edge licensing
admit, and every output that its window admits lies inside the
propagated envelope.
"""

import json
import random
import time
from collections import Counter
from itertools import islice, permutations, product

import pytest
from dense_reference import dense_runs, dense_simulate
from hypothesis import given, settings, strategies as st

from inertia import circuit
from inertia.circuit import (
    BridcDelay,
    Envelope,
    FixedDelay,
    Gate,
    Netlist,
    NetlistError,
    _components,
    _table_envelope,
    delay_from_dict,
    delay_to_dict,
    envelope_propagate,
    netlist_from_dict,
    netlist_to_dict,
    simulate,
)
from inertia.conditions import (
    AicParams,
    BdcParams,
    CondExpr,
    ConsistencyError,
    FdcParams,
    RicParams,
    atom_from_dict,
)
from inertia.oracle import GridConfig, enumerate_solutions
from inertia.signals import Signal, pointwise

NOT = (1, 0)
AND = (0, 0, 0, 1)
NOR = (1, 0, 0, 0)
OR = (0, 1, 1, 1)
NAND = (1, 1, 1, 0)
XOR = (0, 1, 1, 0)
BUF = (0, 1)
MAJORITY = (0, 0, 0, 1, 0, 1, 1, 1)  # a Muller C-element when it reads its output


def has_loop(n):
    """Whether the netlist's read graph has a feedback loop."""
    return any(loop for _, loop in _components(n.gates))


def single(gate):
    return Netlist(tuple(gate.inputs), (gate,), (gate.name,))


# -- worked examples ----------------------------------------------------------


def test_not_gate_with_fixed_delay():
    n = single(Gate("y", ("a",), NOT, FixedDelay(1)))
    out = simulate(n, {"a": Signal(0, (0, 2))}, (-2, 8))
    assert out["y"] == Signal(1, (1, 3))


def test_and_gate_with_fixed_delay():
    n = Netlist(("a", "b"), (Gate("y", ("a", "b"), AND, FixedDelay(2)),), ("y",))
    out = simulate(n, {"a": Signal(0, (0,)), "b": Signal(0, (1,))}, (-2, 10))
    assert out["y"] == Signal(0, (3,))


def test_not_gate_with_windowed_delay_swallows_the_pulse():
    n = single(Gate("y", ("a",), NOT, BridcDelay(BdcParams(1, 2, 1, 2))))
    out = simulate(n, {"a": Signal(0, (0, 1))}, (-2, 10))
    assert out["y"] == Signal.const(1)


# -- delay models -------------------------------------------------------------


def test_delay_validation():
    with pytest.raises(NetlistError):
        FixedDelay(-1)
    with pytest.raises(ConsistencyError):
        BridcDelay(BdcParams(0, 3, 0, 2))


def test_delay_dict_round_trip():
    for model in (FixedDelay(2), BridcDelay(BdcParams(1, 3, 0, 2))):
        assert delay_from_dict(delay_to_dict(model)) == model
    with pytest.raises(NetlistError):
        delay_from_dict({"kind": "bogus"})


def test_delay_latency_bounds():
    assert FixedDelay(3).min_latency == 3
    assert BridcDelay(BdcParams(2, 3, 1, 4)).min_latency == 1


def test_fixed_delay_is_the_zero_memory_window():
    assert FixedDelay(3).params == BdcParams(0, 3, 0, 3)
    assert FixedDelay(3).d == 3
    assert isinstance(FixedDelay(3), BridcDelay)


# -- structural validation ------------------------------------------------------


def test_gate_table_must_match_arity():
    with pytest.raises(NetlistError):
        Gate("y", ("a", "b"), NOT, FixedDelay(0))
    with pytest.raises(NetlistError):
        Gate("y", ("a",), (0, 2), FixedDelay(0))


def test_undriven_net_is_rejected():
    with pytest.raises(NetlistError):
        Netlist(("a",), (Gate("y", ("ghost",), BUF, FixedDelay(1)),), ("y",))
    with pytest.raises(NetlistError):
        Netlist(("a",), (), ("ghost",))


def test_double_driver_is_rejected():
    with pytest.raises(NetlistError):
        Netlist(
            ("a",),
            (
                Gate("y", ("a",), BUF, FixedDelay(1)),
                Gate("y", ("a",), NOT, FixedDelay(1)),
            ),
            ("y",),
        )


def test_zero_delay_cycle_is_rejected():
    with pytest.raises(NetlistError, match=r"^zero-delay cycle through gates x -> y -> x$"):
        Netlist(
            ("a",),
            (
                Gate("x", ("y",), BUF, FixedDelay(0)),
                Gate("y", ("x",), BUF, FixedDelay(0)),
            ),
            ("x",),
        )


def test_a_cycle_is_named_from_its_smallest_gate():
    # a is not on the loop but reads it, so the walk starts there
    gates = [
        Gate("a", ("c",), BUF, FixedDelay(0)),
        Gate("b", ("c",), BUF, FixedDelay(0)),
        Gate("c", ("i", "d"), AND, FixedDelay(0)),
        Gate("d", ("b",), NOT, BridcDelay(BdcParams(1, 1, 1, 1))),
    ]
    with pytest.raises(NetlistError, match=r"^zero-delay cycle through gates b -> c -> d -> b$"):
        Netlist(("i",), tuple(gates), ("a",))


def reverse_chain(size, delay):
    """size NOT gates named against the signal flow: the largest name
    reads the stimulus a, and each smaller name reads the next larger."""
    names = [f"g{k:05d}" for k in range(size, 0, -1)]
    gates = [Gate(name, (src,), NOT, delay) for name, src in zip(names, ["a", *names])]
    return Netlist(("a",), tuple(gates), (names[-1],))


def test_a_long_zero_delay_chain_named_against_the_flow_builds_and_simulates():
    n = reverse_chain(1100, FixedDelay(0))
    out = simulate(n, {"a": Signal(0, (3,))}, (0, 5))
    assert out["g00001"] == Signal(0, (3,))  # an even number of inverters
    assert out["g01100"] == Signal(1, (3,))


def test_a_long_lagging_chain_has_no_feedback_and_propagates_envelopes():
    n = reverse_chain(1100, FixedDelay(1))
    assert not has_loop(n)
    env = envelope_propagate(n, {"a": Envelope.exact(Signal(0, (3,)))})
    assert env["g00001"] == Envelope.exact(Signal(0, (1103,)))


def test_a_chain_that_feeds_a_loop_evaluates_each_gate_at_most_twice(monkeypatch):
    # the loop reads the chain's constant off its trace: sweeping the chain
    # with the loop, one stage per sweep, made 2,000 evaluations per gate
    calls = []
    eval_bits = Gate.eval_bits
    monkeypatch.setattr(Gate, "eval_bits",
                        lambda self, bits: calls.append(self.name) or eval_bits(self, bits))
    chain = reverse_chain(2000, FixedDelay(1))
    n = Netlist(("a",), (*chain.gates, Gate("c", ("g00001", "c"), OR, FixedDelay(1))), ("c",))
    out = simulate(n, {"a": Signal(0, (3,))}, (0, 3000))
    assert out["c"] == Signal(0, (2004,))
    assert max(Counter(calls).values()) <= 2


def test_netlist_dict_round_trip():
    n = Netlist(
        ("a", "b"),
        (Gate("y", ("a", "b"), AND, BridcDelay(BdcParams(1, 2, 1, 2))),),
        ("y",),
    )
    d = netlist_to_dict(n)
    assert d["gates"][0]["delay"] == {"kind": "bridc", "mr": 1, "dr": 2, "mf": 1, "df": 2}
    assert netlist_from_dict(d) == n


@pytest.mark.parametrize(
    "key, value",
    [("delay", {"kind": "fixed", "d": 1.5}), ("table", [0.7, 1.2]), ("table", [False, True])],
)
def test_netlist_from_dict_refuses_numbers_that_are_not_integers(key, value):
    d = netlist_to_dict(single(Gate("y", ("a",), BUF, FixedDelay(1))))
    d["gates"][0][key] = value
    with pytest.raises(NetlistError, match="gate 'y'.*must be an integer"):
        netlist_from_dict(d)


# a value of each JSON type, to put in place of a key's value or a list's item
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.floats(-2, 3), st.text("abyz", max_size=2),
    st.lists(st.integers(0, 1), max_size=2),
    st.dictionaries(st.sampled_from("dk"), st.integers(0, 2), max_size=1),
)
KEYS = st.sampled_from(["kind", "name", "d", "mr", "dr", "deltar", "mur", "note"])


def _mutate(data, record: dict) -> None:
    """Drop, add or rename one of record's keys, or put a JSON value of any
    type in place of its value or of one item of a list it holds."""
    key = data.draw(st.sampled_from(sorted(record)))
    how = data.draw(st.sampled_from(["drop", "add", "rename", "value", "item"]))
    if how == "drop":
        del record[key]
    elif how == "add":
        record[data.draw(KEYS)] = data.draw(JSON_VALUES)
    elif how == "rename":
        record[data.draw(KEYS)] = record.pop(key)
    elif how == "item" and isinstance(record[key], list) and record[key]:
        items = record[key]
        items[data.draw(st.integers(0, len(items) - 1))] = data.draw(JSON_VALUES)
    else:
        record[key] = data.draw(JSON_VALUES)


def _read_back(read, write, d) -> None:
    """read(d) either refuses d with one short line or reads what write turns back into d."""
    try:
        value = read(d)
    except ValueError as exc:  # NetlistError is one
        assert "\n" not in str(exc) and len(str(exc)) < 200, str(exc)
    else:  # as JSON text, so that 1 is not taken for True or 1.0
        assert json.dumps(write(value), sort_keys=True) == json.dumps(d, sort_keys=True)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_a_json_netlist_is_refused_in_one_line_or_read_back_exactly(data):
    n = Netlist(
        ("a", "b"),
        (Gate("y", ("a", "b"), AND, BridcDelay(BdcParams(1, 2, 1, 2))),
         Gate("z", ("a",), NOT, FixedDelay(1))),
        ("y",),
    )
    d = netlist_to_dict(n)
    records = [d, *d["gates"], *(g["delay"] for g in d["gates"])]
    for _ in range(data.draw(st.integers(1, 3))):
        record = data.draw(st.sampled_from(records))
        if record:  # drops may have emptied it
            _mutate(data, record)
    _read_back(netlist_from_dict, netlist_to_dict, d)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data(), st.sampled_from([FdcParams(3), BdcParams(1, 2, 1, 2), AicParams(2, 0),
                                   RicParams(1, 3, 0, 2)]))
def test_a_json_atom_is_refused_in_one_line_or_read_back_exactly(data, atom):
    d = {**atom.as_dict(), "kind": atom.kind}
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate(data, d)
        if not d:
            break
    _read_back(atom_from_dict, lambda a: {**a.as_dict(), "kind": a.kind}, d)


# -- simulation ------------------------------------------------------------------


def test_a_loop_is_named_by_its_first_8_gates_each_cut_short():
    # each gate reads the one named before it, so the loop runs backwards
    names = [f"g{k:02d}" for k in range(12)]
    gates = tuple(Gate(n, (names[k - 1],), BUF, FixedDelay(0)) for k, n in enumerate(names))
    with pytest.raises(NetlistError) as caught:
        Netlist((), gates, ())
    assert str(caught.value) == (
        "zero-delay cycle through gates g00 -> g11 -> g10 -> g09 -> g08 -> g07 -> g06 -> g05"
        " -> ... (12 gates)"
    )
    short, long = "x" * 40, "y" * 41
    gates = (Gate(short, (long,), BUF, FixedDelay(0)), Gate(long, (short,), BUF, FixedDelay(0)))
    with pytest.raises(NetlistError) as caught:
        Netlist((), gates, ())
    assert str(caught.value) == (
        f"zero-delay cycle through gates {short} -> '{long[:20]}'... (41 chars) -> {short}"
    )


def test_a_loop_message_stays_one_short_line_whatever_the_names():
    # 8 names of 40 characters once made a line of 430
    for size, length in product(range(1, 13), range(1, 50)):
        names = [chr(97 + k) * length for k in range(size)]
        gates = tuple(Gate(n, (names[k - 1],), BUF, FixedDelay(0)) for k, n in enumerate(names))
        with pytest.raises(NetlistError) as caught:
            Netlist((), gates, ())
        assert len(f"error: {caught.value}\n") < 200, (size, length)


def test_inputs_at_fault_are_named_at_most_3_and_cut_short():
    ins = tuple(f"i{k}" for k in range(5))
    n = Netlist(ins, (Gate("y", ("i0",), BUF, FixedDelay(1)),), ("y",))
    with pytest.raises(NetlistError, match=r"^missing stimuli for inputs: 'i0', 'i1', 'i2', "
                                           r"\.\.\. \(5 inputs\)$"):
        simulate(n, {}, (0, 5))
    stim = dict.fromkeys(ins + ("z" * 3000,), Signal.const(0))
    with pytest.raises(NetlistError) as caught:
        simulate(n, stim, (0, 5))
    assert str(caught.value) == f"stimuli for unknown inputs: '{'z' * 40}'... (3000 chars)"
    with pytest.raises(NetlistError, match=r"^missing envelopes for inputs: 'i1', 'i2', 'i3', "):
        envelope_propagate(n, {"i0": Envelope.exact(Signal.const(0))})


def test_simulation_input_checks():
    n = single(Gate("y", ("a",), BUF, FixedDelay(1)))
    with pytest.raises(NetlistError):
        simulate(n, {}, (0, 5))
    with pytest.raises(NetlistError):
        simulate(n, {"a": Signal.const(0), "zz": Signal.const(0)}, (0, 5))
    with pytest.raises(NetlistError):
        simulate(n, {"a": Signal.const(0)}, (5, 0))


def test_many_stimuli_are_checked_in_linear_time():
    ins = tuple(f"i{k}" for k in range(20000))
    n = Netlist(ins, (Gate("y", ("i0",), BUF, FixedDelay(1)),), ("y",))
    stim = dict.fromkeys(ins, Signal.const(0))
    t0 = time.perf_counter()
    simulate(n, stim, (0, 5))
    # about 0.1 s; scanning the input tuple per stimulus took 4 s
    assert time.perf_counter() - t0 < 1.0


def test_horizon_placement_does_not_change_the_traces():
    n = single(Gate("y", ("a",), NOT, BridcDelay(BdcParams(1, 3, 1, 3))))
    stim = {"a": Signal(0, (0, 2, 4, 9))}
    full = simulate(n, stim, (-5, 20))
    part = simulate(n, stim, (3, 11))
    assert full["y"] == Signal(1, (3, 5, 7, 12))
    assert part["y"].values_on(3, 11) == full["y"].values_on(3, 11)


def test_feedback_latch_holds_its_state():
    latch = Netlist(
        ("s", "r"),
        (
            Gate("q", ("r", "qb"), NOR, FixedDelay(1)),
            Gate("qb", ("s", "q"), NOR, FixedDelay(1)),
        ),
        ("q", "qb"),
    )
    assert has_loop(latch)
    out = simulate(latch, {"s": Signal(0, (5, 7)), "r": Signal(1, (2,))}, (0, 14))
    # the set pulse ends at 7, yet q stays up: the loop is storing it
    assert out["q"] == Signal(0, (7,))
    assert out["qb"] == Signal(1, (6,))


def test_same_tick_flips_of_the_table_output_cancel():
    # g and s both switch at 4, so q's table output rises and falls within
    # that tick: a zero-width glitch that must not reach q
    n = Netlist(
        ("a", "s"),
        (
            Gate("g", ("a",), BUF, FixedDelay(1)),
            Gate("q", ("g", "s"), AND, BridcDelay(BdcParams(1, 2, 1, 2))),
        ),
        ("q",),
    )
    stim = {"a": Signal(1, (4,)), "s": Signal(0, (2, 4, 5))}
    assert simulate(n, stim, (0, 10))["q"] == Signal(0, (4, 6))
    assert dense_simulate(n, stim, (0, 10))["q"] == Signal(0, (4, 6))


def test_a_net_read_at_two_positions_moves_the_table_index_at_once():
    n = Netlist(
        ("a",),
        (
            Gate("x", ("a", "a"), XOR, BridcDelay(BdcParams(0, 1, 0, 1))),
            Gate("y", ("a", "a"), AND, FixedDelay(2)),
        ),
        ("x", "y"),
    )
    stim = {"a": Signal(0, (1, 4, 5))}
    out = simulate(n, stim, (0, 10))
    assert out["x"] == Signal.const(0)
    assert out["y"] == Signal(0, (3, 6, 7))


def test_same_tick_stimuli_give_traces_independent_of_the_stimuli_order():
    # a and b switch together at 2 and 5, so x's table output never moves
    # there, and q sees both of its inputs change in one tick
    n = Netlist(
        ("a", "b"),
        (
            Gate("x", ("a", "b"), XOR, FixedDelay(1)),
            Gate("q", ("b", "a"), AND, BridcDelay(BdcParams(1, 2, 1, 2))),
        ),
        ("x", "q"),
    )
    stim = {"a": Signal(0, (2, 5, 8)), "b": Signal(0, (2, 5, 9))}
    out = simulate(n, stim, (0, 12))
    assert out["x"] == Signal(0, (9, 10))
    assert out["q"] == Signal(0, (4, 7, 11))
    assert simulate(n, dict(reversed(stim.items())), (0, 12)) == out
    assert dense_simulate(n, stim, (0, 12)) == out


def test_events_do_not_rebuild_the_table_index(monkeypatch):
    calls = []
    eval_bits = Gate.eval_bits

    def counted(self, bits):
        calls.append(self.name)
        return eval_bits(self, bits)

    monkeypatch.setattr(Gate, "eval_bits", counted)
    n = Netlist(
        ("a", "b"),
        (
            Gate("m", ("a", "b"), AND, BridcDelay(BdcParams(1, 2, 1, 2))),
            Gate("y", ("m", "a"), XOR, FixedDelay(1)),
            Gate("c", ("a", "y", "c"), MAJORITY, FixedDelay(1)),  # a loop
        ),
        ("y", "c"),
    )
    evals = []
    for k in (1, 100):
        stim = {"a": Signal(0, tuple(range(0, 4 * k, 2))), "b": Signal(0, (1,))}
        calls.clear()
        simulate(n, stim, (0, 4 * k))
        evals.append(Counter(calls))
    # a gate on no loop evaluates its table at most once per table index
    # and the loop only moves its index, however many events there are
    assert evals[0] == evals[1], evals
    assert evals[1]["m"] <= 4 and evals[1]["y"] <= 4 and evals[1]["c"] == 0, evals


def test_a_stimulus_far_before_the_horizon_costs_no_ticks():
    n = single(Gate("y", ("a",), NOT, BridcDelay(BdcParams(1, 3, 1, 3))))
    out = simulate(n, {"a": Signal(0, (-(10**12),))}, (0, 10))
    assert out["y"] == Signal.const(0)
    assert out["a"] == Signal.const(1)


def test_unsettled_feedback_is_reported():
    # a ring of one or three inversions has no constant state; the message
    # names its smallest gate, whatever the listing
    ring = Netlist((), (Gate("y", ("y",), NOT, FixedDelay(1)),), ("y",))
    with pytest.raises(NetlistError, match="^the loop through gate 'y' does not settle"):
        simulate(ring, {}, (0, 5))
    gates = [Gate(f"r{k}", (f"r{k - 1 if k else 2}",), NOT, FixedDelay(k + 1)) for k in range(3)]
    for order in permutations(gates):
        with pytest.raises(NetlistError) as err:
            simulate(Netlist((), order, ("r0",)), {}, (0, 5))
        assert str(err.value) == "the loop through gate 'r0' does not settle to a constant prehistory"


def test_a_loop_of_one_constant_state_that_sweeps_in_parallel_missed_simulates():
    # g0 = NOR(g1, g0) and g1 = NOR(g0, i1), with i1 at 0, hold only at
    # g0 = 0, g1 = 1; sweeping both gates at once from zeros oscillated
    n, stim, horizon = random_circuit(random.Random(109))
    assert simulate(n, stim, horizon) == dense_simulate(n, stim, horizon)


def latch(q, qb, s, r):
    """A NOR latch of outputs q and qb, set by s and reset by r."""
    return [Gate(q, (r, qb), NOR, FixedDelay(1)), Gate(qb, (s, q), NOR, FixedDelay(1))]


def test_a_latch_held_by_neither_input_gets_one_of_its_two_states():
    # ROADMAP item 1: which of the two it gets, it does not say
    n = Netlist(("s", "r"), tuple(latch("q", "qb", "s", "r")), ("q",))
    stim = {"s": Signal.const(0), "r": Signal.const(0)}
    runs = dense_runs(n, stim, (0, 10))
    assert len(runs) == 2 and simulate(n, stim, (0, 10)) in runs


WORKED = {
    # a latch, a gate on no loop reading it, and a latch fed by that gate
    "loop-gate-loop": (
        Netlist(
            ("s", "r"),
            (*latch("q", "qb", "s", "r"),
             Gate("g", ("q", "s"), XOR, BridcDelay(BdcParams(1, 2, 1, 2))),
             *latch("p", "pb", "g", "r")),
            ("p",),
        ),
        {"s": Signal(0, (3, 5, 9, 10, 14)), "r": Signal(1, (1, 12, 13))},
    ),
    # z has no delay and sits between the latch and its reader w; s
    # switches at ticks where q does, so z's table output flips and flips
    # back within one tick
    "zero-delay-gate-between-a-loop-and-its-reader": (
        Netlist(
            ("s", "r"),
            (*latch("q", "qb", "s", "r"),
             Gate("z", ("q", "s"), XOR, FixedDelay(0)),
             Gate("w", ("z", "w", "r"), MAJORITY, FixedDelay(1))),
            ("w",),
        ),
        {"s": Signal(0, (4, 5, 8, 9, 12)), "r": Signal(1, (2, 10, 11))},
    ),
    "c-element-fed-by-a-chain": (
        Netlist(
            ("a", "b"),
            (Gate("n1", ("a",), NOT, FixedDelay(1)),
             Gate("n2", ("n1",), BUF, BridcDelay(BdcParams(1, 2, 1, 2))),
             Gate("c", ("n2", "b", "c"), MAJORITY, FixedDelay(1))),
            ("c",),
        ),
        {"a": Signal(1, (2, 3, 6, 12, 13, 16)), "b": Signal(0, (5, 9, 15))},
    ),
    "zero-memory-window-off-the-loops": (
        Netlist(
            ("a", "b"),
            (Gate("x", ("a", "b"), AND, BridcDelay(BdcParams(0, 2, 0, 2))),
             Gate("y", ("x",), NOT, BridcDelay(BdcParams(0, 0, 0, 0)))),
            ("y",),
        ),
        {"a": Signal(0, (1, 4, 5, 9)), "b": Signal(1, (3, 4, 8))},
    ),
    "a-constant-gate-of-no-inputs": (
        Netlist(
            ("a",),
            (Gate("k", (), (1,), FixedDelay(2)),
             Gate("y", ("k", "a"), AND, BridcDelay(BdcParams(1, 2, 1, 2)))),
            ("y",),
        ),
        {"a": Signal(0, (2, 3, 7))},
    ),
}


@pytest.mark.parametrize("name", WORKED)
def test_worked_netlists_match_the_dense_reference(name):
    n, stim = WORKED[name]
    for horizon in ((0, 20), (-3, 6), (8, 8)):
        assert simulate(n, stim, horizon) in dense_runs(n, stim, horizon), horizon


def test_only_feedback_loops_are_simulated_event_by_event(monkeypatch):
    loops = []
    event_loop = circuit._event_loop

    def counted(gates, *args):
        loops.append(sorted(g.name for g in gates))
        return event_loop(gates, *args)

    monkeypatch.setattr(circuit, "_event_loop", counted)
    for name, (n, stim) in WORKED.items():
        loops.clear()
        simulate(n, stim, (0, 20))
        want = [sorted(g.name for g in c) for c, loop in _components(n.gates) if loop]
        assert sorted(loops) == sorted(want), name
    n, stim = WORKED["zero-memory-window-off-the-loops"]
    assert not loops and not has_loop(n)  # a netlist without loops runs no event loop


def random_delay(rng):
    """Fixed (including 0) or a CC window pair, with mr == dr and
    mf == df among the cases drawn."""
    if rng.random() < 0.3:
        return FixedDelay(rng.randint(0, 3))
    dr, df = rng.randint(1, 4), rng.randint(1, 4)
    mr = dr if rng.random() < 0.15 else rng.randint(0, dr - 1)
    mf = df if rng.random() < 0.15 else rng.randint(0, df - 1)
    return BridcDelay(BdcParams(mr, max(dr, df - mf), mf, max(df, dr - mr)))


def random_circuit(rng, inputs=3, span=(0, 20), switches=6):
    """1 to `inputs` inputs and up to 5 gates of arity <= 3 reading any
    net, so feedback loops (and rejected zero-delay cycles) occur; the
    horizon spans `span` ticks more than one, each input switches up to
    `switches` times."""
    ins = [f"i{k}" for k in range(rng.randint(1, inputs))]
    names = [f"g{k}" for k in range(rng.randint(1, 5))]
    gates = []
    for name in names:
        k = rng.randint(1, 3)
        table = [rng.randint(0, 1) for _ in range(1 << k)]
        reads = tuple(rng.choice(ins + names) for _ in range(k))
        gates.append(Gate(name, reads, tuple(table), random_delay(rng)))
    lo = rng.randint(-10, 10)
    hi = lo + rng.randint(*span)
    stim = {}
    for i in ins:
        times = rng.sample(range(lo - 8, hi + 1), rng.randint(0, switches))
        stim[i] = Signal(rng.randint(0, 1), tuple(sorted(times)))
    return Netlist(tuple(ins), tuple(gates), tuple(ins)), stim, (lo, hi)


def parity_circuit(rng):
    """2 to 4 inputs that switch every 1 to 3 ticks from one start, so
    they often switch at the same tick, and up to 5 gates behind random
    delays: mostly XOR or XNOR of 2 to 8 reads, which often read one net
    twice, else a random table of up to 3 reads.  A gate reads the inputs
    and the gates before it, and now and then any gate, closing a loop."""
    ins = [f"i{k}" for k in range(rng.randint(2, 4))]
    names = [f"g{k}" for k in range(rng.randint(1, 5))]
    gates = []
    for j, name in enumerate(names):
        if rng.random() < 0.75:
            k, flip = rng.randint(2, 8), rng.randint(0, 1)
            table = [bin(ix).count("1") & 1 ^ flip for ix in range(1 << k)]
        else:
            k = rng.randint(1, 3)
            table = [rng.randint(0, 1) for _ in range(1 << k)]
        pool = ins + (names if rng.random() < 0.15 else names[:j])
        reads = tuple(rng.choice(pool) for _ in range(k))
        gates.append(Gate(name, reads, tuple(table), random_delay(rng)))
    lo = rng.randint(-10, 10)
    hi = lo + rng.randint(20, 50)
    stim = {}
    for i in ins:
        times = [lo - 8]
        while times[-1] < hi:
            times.append(times[-1] + rng.randint(1, 3))
        stim[i] = Signal(rng.randint(0, 1), tuple(times[1:]))
    return Netlist(tuple(ins), tuple(gates), tuple(ins)), stim, (lo, hi)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.integers(0, 2**32))
def test_simulation_matches_the_dense_reference(seed):
    # random tables on few stimulus switches, then parity gates on dense ones
    for draw in (random_circuit, parity_circuit):
        try:
            n, stim, horizon = draw(random.Random(seed))
        except NetlistError:
            continue  # a zero-delay cycle: neither engine gets to run
        case = f"{netlist_to_dict(n)} {stim} {horizon}"
        runs = dense_runs(n, stim, horizon)
        try:
            out = simulate(n, stim, horizon)
        except NetlistError:
            # a draw of no constant state must be refused, and one that has
            # some may be (ROADMAP item 1, counted over the long horizons)
            continue
        # the runs are built by the validating constructor, so equality
        # also shows that simulate's unchecked outputs are canonical
        assert out in runs, case


def test_parity_gates_of_two_inputs_or_more_skip_pointwise(monkeypatch):
    arities = []
    real = circuit.pointwise
    monkeypatch.setattr(
        circuit, "pointwise", lambda fn, *ops: arities.append(len(ops)) or real(fn, *ops)
    )
    xnor3 = (1, 0, 0, 1, 0, 1, 1, 0)
    n = Netlist(
        ("a", "b"),
        (
            Gate("x", ("a", "b"), XOR, FixedDelay(1)),
            Gate("xn", ("a", "b", "a"), xnor3, BridcDelay(BdcParams(1, 2, 1, 2))),
            Gate("n", ("x",), NOT, FixedDelay(1)),  # a parity table of one input
            Gate("y", ("a", "xn"), AND, FixedDelay(0)),
        ),
        ("y",),
    )
    stim = {"a": Signal(0, (1, 3, 4, 8)), "b": Signal(1, (2, 3, 6))}
    assert simulate(n, stim, (0, 15)) == dense_simulate(n, stim, (0, 15))
    assert sorted(arities) == [1, 2]  # n and y; x and xn take the symmetric difference


# -- periodic stretches of a loop ------------------------------------------------

# en = 0 holds r0 at 1; once en rises the three inversions oscillate, each
# net switching every 5 ticks
RING = Netlist(
    ("en",),
    (
        Gate("r0", ("en", "r2"), NAND, FixedDelay(1)),
        Gate("r1", ("r0",), NOT, BridcDelay(BdcParams(1, 2, 1, 2))),
        Gate("r2", ("r1",), NOT, FixedDelay(2)),
    ),
    ("r2",),
)


@pytest.fixture
def copies(monkeypatch):
    """The islice calls of `simulate`: only `_event_loop`'s copy of a
    periodic stretch makes them, one per net of the loop."""
    calls = []

    def counted(*args):
        calls.append(args)
        return islice(*args)

    monkeypatch.setattr(circuit, "islice", counted)
    return calls


def test_long_horizons_match_the_dense_reference(copies):
    # few stimulus switches over long horizons leave loops oscillating
    # undisturbed for many periods, which the copy then writes at once.
    # Each draw also runs with its gates listed in reverse: the traces, the
    # refusals and the copy must not depend on the order of the listing
    taken, refused = [0, 0], []
    for seed in range(2000):
        try:
            n, stim, horizon = random_circuit(random.Random(seed), 2, (50, 300), 4)
        except NetlistError:
            continue
        case = f"{netlist_to_dict(n)} {stim} {horizon}"
        runs = dense_runs(n, stim, horizon)
        outs = []
        for k, net in enumerate((n, Netlist(n.inputs, n.gates[::-1], n.outputs))):
            before = len(copies)
            try:
                outs.append(simulate(net, stim, horizon))
            except NetlistError as exc:
                outs.append(str(exc))
            taken[k] += len(copies) > before
        assert outs[0] == outs[1], case  # the same traces, or the same refusal
        if isinstance(outs[0], str):
            refused += [seed] if runs else []
        else:
            assert outs[0] in runs, case
    assert min(taken) >= 50, taken
    # a loop whose sweeps do not reach one of its constant states is
    # refused (ROADMAP item 1); sweeping in parallel refused 66 draws here
    assert len(refused) <= 17, refused


def test_a_gated_ring_over_a_million_ticks_pops_few_events(copies, monkeypatch):
    pops = []
    heappop = circuit.heappop
    monkeypatch.setattr(circuit, "heappop", lambda heap: pops.append(1) or heappop(heap))
    stim = {"en": Signal(0, (5,))}
    out = simulate(RING, stim, (0, 10**6))
    assert len(pops) < 1000 and copies
    want = dense_simulate(RING, stim, (0, 2000))
    assert out["en"] == want["en"]
    for net in ("r0", "r1", "r2"):
        sig, head = out[net], want[net].switches
        assert sig.initial == want[net].initial and sig.switches[:len(head)] == head, net
        tail = sig.switches[len(head) - 1:]
        assert all(b - a == 5 for a, b in zip(tail, tail[1:])) and tail[-1] > 10**6 - 5, net


def test_a_loop_is_copied_in_every_order_of_its_gates(copies, monkeypatch):
    # a reads r1 and r0 reads a, so all three are one loop, but k holds a
    # at 0 and r0 ignores it: a gate of the loop that never switches
    pops = []
    heappop = circuit.heappop
    monkeypatch.setattr(circuit, "heappop", lambda heap: pops.append(1) or heappop(heap))
    nand_ignoring_a = (1, 1, 1, 1, 1, 1, 0, 0)  # NAND of en and r1
    gates = (
        Gate("a", ("k", "r1"), AND, FixedDelay(1)),
        Gate("r0", ("en", "r1", "a"), nand_ignoring_a, FixedDelay(1)),
        Gate("r1", ("r0",), BUF, FixedDelay(2)),
    )
    stim = {"en": Signal(0, (5,)), "k": Signal.const(0)}
    for order in permutations(gates):
        n = Netlist(("en", "k"), order, ("r1",))
        pops.clear()
        out = simulate(n, stim, (0, 10**5))
        assert len(pops) < 100, [g.name for g in order]
        want = dense_simulate(n, stim, (0, 500))
        for net, sig in want.items():
            head = tuple(t for t in out[net].switches if t <= 500)
            assert out[net].initial == sig.initial and head == sig.switches, net
        # after that, r1 switches every 3 ticks to the end
        tail = out["r1"].switches[len(want["r1"].switches) - 1:]
        assert all(b - a == 3 for a, b in zip(tail, tail[1:])) and tail[-1] > 10**5 - 3


def test_a_horizon_that_ends_mid_period(copies):
    stim = {"en": Signal(0, (5,))}
    for hi in range(300, 311):  # every phase of the 10-tick period
        before = len(copies)
        assert simulate(RING, stim, (0, hi)) == dense_simulate(RING, stim, (0, hi)), hi
        assert len(copies) > before


def test_an_enable_pulse_just_after_a_copied_stretch(copies):
    for off in range(200, 211):  # every phase of the period, and one more
        for width in (1, 3):
            before = len(copies)
            stim = {"en": Signal(0, (5, off, off + width))}
            assert simulate(RING, stim, (0, 320)) == dense_simulate(RING, stim, (0, 320)), stim
            assert len(copies) > before  # the stretch after the pulse is copied too


def test_a_period_with_a_same_tick_flip_and_flip_back_of_y(copies):
    # a and b are r0 delayed alike, so z's table output flips and flips
    # back whenever r0 has switched: the cancelled flip leaves a stale
    # candidate on the heap in every period that is copied
    n = Netlist(
        ("en",),
        (
            Gate("r0", ("en", "w"), NAND, FixedDelay(1)),
            Gate("a", ("r0",), BUF, FixedDelay(2)),
            Gate("b", ("r0",), BUF, BridcDelay(BdcParams(1, 2, 1, 2))),
            Gate("z", ("a", "b"), XOR, FixedDelay(1)),
            Gate("w", ("a", "z"), XOR, FixedDelay(1)),
        ),
        ("w",),
    )
    stim = {"en": Signal(0, (5, 140, 142))}
    out = simulate(n, stim, (0, 300))
    assert out == dense_simulate(n, stim, (0, 300))
    assert out["z"] == Signal.const(0) and len(out["w"].switches) > 40 and copies


def test_a_copy_past_the_switch_limit_is_refused():
    for order in permutations(RING.gates):  # the smallest name, whatever the listing
        with pytest.raises(NetlistError) as err:
            simulate(Netlist(RING.inputs, order, RING.outputs), {"en": Signal(0, (5,))}, (0, 10**9))
        assert str(err.value) == (
            "the loop through gate 'r0' switches more than 10000000 times before the horizon ends"
        )


# -- envelopes --------------------------------------------------------------------


def test_envelope_of_a_single_windowed_wire():
    n = single(Gate("x", ("u",), BUF, BridcDelay(BdcParams(1, 3, 1, 3))))
    env = envelope_propagate(n, {"u": Envelope.exact(Signal(0, (0, 5)))})
    assert env["x"].low == Signal(0, (3, 7))
    assert env["x"].high == Signal(0, (2, 8))


def test_envelope_of_an_ideal_wire_is_exact():
    n = single(Gate("x", ("u",), BUF, BridcDelay(BdcParams(0, 2, 0, 2))))
    env = envelope_propagate(n, {"u": Envelope.exact(Signal(0, (0, 5)))})
    assert env["x"].low == env["x"].high == Signal(0, (2, 7))


def test_envelope_and_with_a_constant_zero_pins_the_output():
    n = Netlist(
        ("a", "b"),
        (Gate("y", ("a", "b"), AND, FixedDelay(2)),),
        ("y",),
    )
    unknown = Envelope(Signal.const(0), Signal.const(1))
    env = envelope_propagate(
        n, {"a": Envelope.exact(Signal.const(0)), "b": unknown}
    )
    assert env["y"].low == env["y"].high == Signal.const(0)


def test_envelope_requires_an_acyclic_netlist():
    latch = Netlist(
        ("s",),
        (
            Gate("q", ("s", "qb"), NOR, FixedDelay(1)),
            Gate("qb", ("q",), NOT, FixedDelay(1)),
        ),
        ("q",),
    )
    assert has_loop(latch)
    with pytest.raises(
        NetlistError,
        match=r"^envelope propagation requires an acyclic netlist: "
        r"cycle through gates q -> qb -> q$",
    ):
        envelope_propagate(latch, {"s": Envelope.exact(Signal.const(0))})


def test_envelope_brackets_the_simulation():
    n = Netlist(
        ("a", "b"),
        (
            Gate("m", ("a", "b"), AND, BridcDelay(BdcParams(1, 2, 1, 2))),
            Gate("y", ("m",), NOT, FixedDelay(1)),
        ),
        ("y",),
    )
    stims = {"a": Signal(0, (0, 6)), "b": Signal(0, (1, 9))}
    traces = simulate(n, stims, (-2, 16))
    envs = envelope_propagate(n, {k: Envelope.exact(v) for k, v in stims.items()})
    for net in ("m", "y"):
        assert envs[net].low.leq(traces[net])
        assert traces[net].leq(envs[net].high)


def test_envelope_ordering_is_validated():
    with pytest.raises(NetlistError):
        Envelope(Signal.const(1), Signal.const(0))


# -- the envelope kernel against a dense box enumeration --------------------------


def dense_table_envelope(g, envs, lo, hi):
    """Per tick lo..hi, the min and max of g.table over the box of input
    bits between the envelopes' bounds there."""
    lows = [e.low.values_on(lo, hi) for e in envs]
    highs = [e.high.values_on(lo, hi) for e in envs]
    out = []
    for j in range(hi - lo + 1):
        box = product(*(range(low[j], high[j] + 1) for low, high in zip(lows, highs)))
        vals = [g.eval_bits(bits) for bits in box]
        out.append((min(vals), max(vals)))
    return out


def check_table_envelope(g, envs):
    ticks = [t for e in envs for s in (e.low, e.high) for t in s.switches]
    lo, hi = min(ticks, default=0) - 2, max(ticks, default=0) + 2
    low, high = _table_envelope(g, envs)
    # the kernel's signals skip the canonical-form check, so rebuild them
    assert (Signal(*low._key), Signal(*high._key)) == (low, high)
    got = list(zip(low.values_on(lo, hi), high.values_on(lo, hi)))
    assert got == dense_table_envelope(g, envs, lo, hi), f"{g} {envs}"


def random_table(rng, k):
    """Random bits, or a threshold on the count of 1 inputs (AND, OR and
    majorities among them), whose extremes over a box vary more."""
    if rng.random() < 0.5:
        return tuple(rng.randint(0, 1) for _ in range(1 << k))
    least = rng.randint(0, k + 1)
    return tuple(int(i.bit_count() >= least) for i in range(1 << k))


def table_gate(table):
    """A gate of the table, reading inputs i0, i1, ..."""
    k = len(table).bit_length() - 1
    return Gate("y", tuple(f"i{i}" for i in range(k)), table, FixedDelay(0))


def random_bracket(rng, pool, size):
    """An exact envelope, or a & b <= a | b, of signals switching on the pool."""
    a, b = (Signal(rng.randint(0, 1), tuple(sorted(rng.sample(pool, size)))) for _ in "ab")
    return Envelope.exact(a) if rng.random() < 0.3 else Envelope(a & b, a | b)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_table_envelope_matches_the_dense_box_enumeration(seed):
    rng = random.Random(seed)
    k = rng.randint(0, 8)
    # a few shared ticks, negative ones included, so that several bounds
    # switch on one tick
    pool = rng.sample(range(-12, 13), rng.randint(1, 8))
    envs = [random_bracket(rng, pool, rng.randint(0, len(pool))) for _ in range(k)]
    check_table_envelope(table_gate(random_table(rng, k)), envs)


def test_an_arity_8_gate_with_100_switch_unknown_bounds_matches_the_dense_box_enumeration():
    rng = random.Random(8)
    envs = []
    for _ in range(8):
        a = Signal(rng.randint(0, 1), tuple(sorted(rng.sample(range(-800, 800, 4), 100))))
        # a, unknown from two ticks before each rise to the tick of it: the
        # runs of a last 4 ticks or more, so none vanishes or merges
        envs.append(Envelope(a & a.translate(1), a | a.translate(-2)))
    assert {len(s.switches) for e in envs for s in (e.low, e.high)} == {100}
    # OR, a majority and AND, whose extremes over a box differ, and random bits
    tables = [tuple(int(i.bit_count() >= least) for i in range(256)) for least in (1, 4, 8)]
    tables.append(tuple(rng.randint(0, 1) for _ in range(256)))
    for table in tables:
        check_table_envelope(table_gate(table), envs)


def random_acyclic(rng, exact):
    """Up to 4 gates of arity 1 or 2, each reading inputs a and b or an
    earlier gate, and an envelope for each input: exact, or unknown on
    one to three ticks.  Every switch of the inputs lies within 0..30, and
    a gate's delay moves a switch by at most 4 ticks."""
    nets, gates = ["a", "b"], []
    for name in ("g0", "g1", "g2", "g3")[: rng.randint(1, 4)]:
        k = rng.randint(1, 2)
        reads = tuple(rng.choice(nets) for _ in range(k))
        table = tuple(rng.randint(0, 1) for _ in range(1 << k))
        gates.append(Gate(name, reads, table, random_delay(rng)))
        nets.append(name)
    envs = {}
    for net in "ab":
        s = Signal(rng.randint(0, 1), tuple(sorted(rng.sample(range(0, 27), rng.randint(0, 3)))))
        if exact or rng.random() < 0.5:
            envs[net] = Envelope.exact(s)
        else:  # unknown on a short pulse
            t = rng.randint(0, 27)
            pulse = Signal(0, (t, t + rng.randint(1, 3)))
            envs[net] = Envelope(s & ~pulse, s | pulse)
    return Netlist(("a", "b"), tuple(gates), tuple(nets[2:])), envs


def between(env, lo, hi, rng):
    """Signals from env.low to env.high whose switches all lie in (lo,
    hi]: every one when there are at most 8, else the two ends and 6
    drawn at random."""
    low, high = env.low.values_on(lo, hi), env.high.values_on(lo, hi)
    free = [j for j, (x, y) in enumerate(zip(low, high)) if x < y]
    if len(free) <= 3:
        picks = [[j for j, b in zip(free, bits) if b] for bits in product((0, 1), repeat=len(free))]
    else:
        picks = [[], free] + [rng.sample(free, rng.randint(1, len(free))) for _ in range(6)]
    out = []
    for ones in picks:
        bits = list(low)
        for j in ones:
            bits[j] = 1
        sw = [lo + j for j in range(1, len(bits)) if bits[j] != bits[j - 1]]
        out.append(Signal(bits[0], tuple(sw)))
    return out


GRID = GridConfig(-1, 47)  # covers every switch of random_acyclic's traces and envelopes


def table_output(g, signals):
    return pointwise(lambda *bits: g.eval_bits(bits), *signals)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_a_gate_outputs_the_only_solution_of_its_window_and_its_edge_licensing(seed):
    n, envs = random_acyclic(random.Random(seed), exact=True)
    traces = simulate(n, {net: e.low for net, e in envs.items()}, (GRID.lo, GRID.hi))
    for g in n.gates:
        p = g.delay.params
        expr = CondExpr((p, RicParams(p.mr, p.dr, p.mf, p.df)))
        y = table_output(g, [traces[net] for net in g.inputs])
        assert enumerate_solutions(y, expr, GRID) == [traces[g.name]], (netlist_to_dict(n), g)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.booleans())
def test_every_output_a_gate_window_admits_lies_inside_the_envelopes(seed, exact):
    """Each gate is judged on its own, on every choice of its input
    signals from their envelopes; with exact inputs a single gate's
    envelope ends are solutions themselves."""
    rng = random.Random(seed)
    n, inputs = random_acyclic(rng, exact)
    envs = envelope_propagate(n, inputs)
    assert all(GRID.lo < t <= GRID.hi for e in envs.values() for t in e.low.switches + e.high.switches)
    for g in n.gates:
        env = envs[g.name]
        expr = CondExpr((g.delay.params,))
        choices = [between(envs[net], GRID.lo, GRID.hi, rng) for net in g.inputs]
        for signals in product(*choices):
            sols = enumerate_solutions(table_output(g, signals), expr, GRID)
            assert all(env.low.leq(x) and x.leq(env.high) for x in sols), (netlist_to_dict(n), g)
            if all(len(c) == 1 for c in choices):  # exact inputs: the ends are tight
                assert env.low in sols and env.high in sols
