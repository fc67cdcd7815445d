"""The immutable records: construction, equality, hashing, repr, copies.

Every record class shares one value base, so one table drives the whole
contract: each row builds a record by keyword and by position, and its
repr is pinned to the text the package has always printed.  No record
stores its hash: each hashes its `_key` when asked, so a record of ints
alone keeps its hash in a process of another hash seed.
"""

import copy
import os
import pickle
import subprocess
import sys

import pytest

from inertia import (
    AicParams,
    BdcParams,
    BridcDelay,
    CondExpr,
    Envelope,
    FdcParams,
    FixedDelay,
    Gate,
    GridConfig,
    Netlist,
    RicParams,
    RunConfig,
    Signal,
)

BDC = BdcParams(1, 2, 1, 2)
AND = Gate("y", ("a", "b"), (0, 0, 0, 1), BridcDelay(BDC))
BDC_TEXT = "BdcParams(mr=1, dr=2, mf=1, df=2)"
AND_TEXT = (
    f"Gate(name='y', inputs=('a', 'b'), table=(0, 0, 0, 1), delay=BridcDelay(params={BDC_TEXT}))"
)

RECORDS = [
    (Signal, {"initial": 0, "switches": (1, 3)}, "Signal(0, [1, 3])"),
    (RunConfig, {"time_unit": "10ps", "resolution": 3},
     "RunConfig(time_unit='10ps', resolution=3)"),
    (GridConfig, {"lo": 0, "hi": 4}, "GridConfig(lo=0, hi=4)"),
    (FdcParams, {"d": 3}, "FdcParams(d=3)"),
    (BdcParams, {"mr": 1, "dr": 2, "mf": 1, "df": 2}, BDC_TEXT),
    (AicParams, {"delta_r": 1, "delta_f": 2}, "AicParams(delta_r=1, delta_f=2)"),
    (RicParams, {"mu_r": 1, "delta_r": 2, "mu_f": 0, "delta_f": 3},
     "RicParams(mu_r=1, delta_r=2, mu_f=0, delta_f=3)"),
    (CondExpr, {"atoms": (BDC, AicParams(1, 1))},
     f"CondExpr(atoms=({BDC_TEXT}, AicParams(delta_r=1, delta_f=1)))"),
    (BridcDelay, {"params": BDC}, f"BridcDelay(params={BDC_TEXT})"),
    (FixedDelay, {"d": 3}, "FixedDelay(3)"),
    (Gate, {"name": "y", "inputs": ("a", "b"), "table": (0, 0, 0, 1),
            "delay": BridcDelay(BDC)}, AND_TEXT),
    (Netlist, {"inputs": ("a", "b"), "gates": (AND,), "outputs": ("y",)},
     f"Netlist(inputs=('a', 'b'), gates=({AND_TEXT},), outputs=('y',))"),
    (Envelope, {"low": Signal(0, (2, 4)), "high": Signal(0, (1, 5))},
     "Envelope(low=Signal(0, [2, 4]), high=Signal(0, [1, 5]))"),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_a_record_is_an_immutable_value(cls, fields, text):
    value = cls(**fields)
    twin = cls(*fields.values())
    assert twin == value and not twin != value
    assert hash(twin) == hash(value)
    assert repr(value) == text
    for name in fields:
        assert getattr(value, name) == fields[name]
        with pytest.raises(AttributeError):
            setattr(value, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is cls and copied == value
        assert hash(copied) == hash(value) and repr(copied) == text


KEYED = [(cls, fields) for cls, fields, _ in RECORDS]
KEYED.append((Signal._trusted, {"initial": 0, "switches": (1, 3)}))


@pytest.mark.parametrize("make, fields", KEYED, ids=[r[0].__name__ for r in KEYED])
def test_a_record_keys_on_its_fields_in_order(make, fields):
    # `==`, the hash and the repr read `_key` against `_fields`
    value = make(**fields)
    assert value._key == tuple(getattr(value, f) for f in value._fields)


def test_records_of_different_classes_differ_on_equal_fields():
    # the oracle's per-atom table cache is keyed on the atom itself
    assert BdcParams(1, 2, 1, 2) != RicParams(1, 2, 1, 2)
    assert FixedDelay(2) != BridcDelay(BdcParams(0, 2, 0, 2))
    assert GridConfig(0, 4) != (0, 4)


NOT_INTS = [
    (GridConfig, (0.5, 3), "lo"), (GridConfig, (True, 3), "lo"), (GridConfig, (0, "3"), "hi"),
    (FdcParams, (2.0,), "d"), (BdcParams, (0.5, 1, 0, 1), "mr"), (BdcParams, (0, 1, 0, True), "df"),
    (AicParams, (1, None), "delta_f"), (RicParams, (0, "1", 0, 1), "delta_r"),
]


@pytest.mark.parametrize("cls, args, field", NOT_INTS,
                         ids=[f"{cls.__name__}-{field}" for cls, _, field in NOT_INTS])
def test_a_record_of_ints_refuses_a_bool_or_other_non_int_by_its_field(cls, args, field):
    # the oracle reads these fields as ints: a float or bool would reach it
    # as a raw TypeError, or be taken as the int it stands for
    with pytest.raises(ValueError) as err:
        cls(*args)
    value = dict(zip(cls._fields, args))[field]
    assert str(err.value) == f"{field} must be an integer, got {value!r}"


def test_cond_expr_reach_is_derived_and_kept_by_copies():
    expr = CondExpr([BdcParams(0, 3, 0, 2), RicParams(0, 5, 0, 1)])
    assert expr.atoms == (BdcParams(0, 3, 0, 2), RicParams(0, 5, 0, 1))
    assert expr.reach == 5
    assert pickle.loads(pickle.dumps(expr)).reach == copy.copy(expr).reach == 5


@pytest.mark.parametrize("atom, reach", [
    (FdcParams(3), 3), (BdcParams(1, 2, 0, 4), 4), (AicParams(5, 6), 0), (RicParams(0, 3, 1, 2), 3),
], ids=["fdc", "bdc", "aic", "ric"])
def test_an_atom_reaches_back_to_its_largest_window_bound(atom, reach):
    # a fixed delay is a window bound without a memory; hold times read no input
    assert CondExpr((atom,)).reach == reach


@pytest.mark.parametrize("value, shown", [
    (3, "3"), ("x" * 10**6, f"{'x' * 40!r}... (1000000 chars)"),
], ids=["int", "str-of-10**6-chars"])
def test_a_condition_refuses_a_value_that_is_no_atom(value, shown):
    with pytest.raises(TypeError) as err:
        CondExpr((BDC, value))
    assert str(err.value) == f"not a condition atom: {shown}"


def _ints_only(value) -> bool:
    if isinstance(value, tuple):
        return all(map(_ints_only, value))
    return _ints_only(value._key) if hasattr(value, "_key") else type(value) is int


def _holds_a_str(value) -> bool:
    if isinstance(value, tuple):
        return any(map(_holds_a_str, value))
    return _holds_a_str(value._key) if hasattr(value, "_key") else type(value) is str


def _other_hash_seed_env() -> dict:
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    return {**os.environ, "PYTHONHASHSEED": seed}


@pytest.fixture(scope="module")
def hashes_elsewhere():
    """The hash of each record of RECORDS in a process of another hash seed."""
    values = [cls(**fields) for cls, fields, _ in RECORDS]
    code = "import pickle, sys\nprint(*map(hash, pickle.loads(sys.stdin.buffer.read())))\n"
    proc = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(values),
                          capture_output=True, env=_other_hash_seed_env())
    assert proc.returncode == 0, proc.stderr
    return [int(h) for h in proc.stdout.split()]


@pytest.mark.parametrize("row", range(len(RECORDS)), ids=[r[0].__name__ for r in RECORDS])
def test_only_a_record_of_ints_keeps_its_hash(row, hashes_elsewhere):
    # no record stores a hash: it is its `_key`'s, computed when asked.  A
    # string's hash changes with the hash seed, and None's may change from
    # one process to the next, so only a record of ints keeps its hash
    cls, fields, _ = RECORDS[row]
    value = cls(**fields)
    assert not hasattr(value, "_hash") and hash(value) == hash(value._key)
    if _ints_only(value._key):
        assert hashes_elsewhere[row] == hash(value)
    elif _holds_a_str(value._key):
        assert hashes_elsewhere[row] != hash(value)


def test_building_a_condition_does_not_hash_its_atoms():
    # a law suite builds tens of thousands of expressions and hashes none
    atoms = (BDC, RicParams(1, 2, 0, 3), AicParams(1, 1))
    calls = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "__hash__":
            calls.append(frame.f_locals["self"])

    sys.setprofile(count)
    try:
        expr = CondExpr(atoms)
    finally:
        sys.setprofile(None)
    assert calls == [] and hash(expr) == hash((atoms,))


def test_a_kept_hash_holds_in_a_process_of_another_hash_seed():
    # the child looks up records pickled here in a dict keyed by equal
    # records of its own; that the name's hash differs shows the seeds do
    expr = CondExpr((BDC, RicParams(1, 2, 0, 3)))
    code = (
        "import pickle, sys\n"
        "from inertia import BdcParams, BridcDelay, CondExpr, Gate, RicParams\n"
        "expr, gate, name_hash = pickle.loads(sys.stdin.buffer.read())\n"
        "bdc = BdcParams(1, 2, 1, 2)\n"
        "fresh = {CondExpr((bdc, RicParams(1, 2, 0, 3))): 'expr',\n"
        "         Gate('y', ('a', 'b'), (0, 0, 0, 1), BridcDelay(bdc)): 'gate'}\n"
        "print(fresh.get(expr), fresh.get(gate), hash('y') != name_hash)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], input=pickle.dumps((expr, AND, hash("y"))),
        capture_output=True, env=_other_hash_seed_env(),
    )
    assert (proc.returncode, proc.stdout) == (0, b"expr gate True\n"), proc.stderr


def test_importing_the_cli_loads_neither_dataclasses_nor_fractions():
    # their imports cost more start-up time than all of the package's own code
    code = "import sys, inertia.cli; print({'dataclasses', 'fractions'} & set(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "set()\n")
