"""Delay-condition types and decision procedures.

Four atomic conditions relate a gate input u to an admissible output x:

* FDC  - fixed (ideal) delay: x(t) = u(t - d).
* BDC  - bounded delay: x is wedged pointwise between a windowed AND and
  a windowed OR of u.  Rising transmission is bounded by [df - mf, dr],
  falling by [dr - mr, df]; mr and mf act as memories.
* AIC  - absolute inertia: after an edge of x, the new value holds for a
  minimum number of ticks regardless of u.
* RIC  - relative inertia: an edge of x is allowed only when u held the
  corresponding value over a bounded past window.

Parameter tuples are immutable values and only validate their own
ranges; consistency (solvability for every input) is decided separately,
so inconsistent tuples can be constructed, queried and reported.
CondExpr conjoins atoms, which is how inertial conditions (BDC + AIC,
BDC + RIC) are expressed.  `json_fields` is the one reader of JSON
records, here and in `circuit`: atoms, delays, gates and netlists.
"""

from bisect import bisect_right
from itertools import islice

from .signals import Signal, Value, _set_key, shown, shown_int, window_and, window_or


class ConsistencyError(ValueError):
    """An operation required a consistent parameter set and did not get one."""


# -- parameter tuples ------------------------------------------------------


_MISSING = object()  # the value of a field that a record lacks
_JSON_TYPES = {int: "an integer", str: "a JSON string"}  # as refusals name them


def _fits(value, want) -> bool:  # whether a value of another type than want fits it all the same
    if type(want) is not list or type(value) is not list:
        return want is object and value is not _MISSING
    for item in value:  # a list of items of type want[0]; a loop beats all() on a few
        if type(item) is not want[0]:
            return False
    return True


def json_fields(obj, fields: dict, what: str, kinds: str | None = None) -> list:
    """The values of a JSON record in the order of `fields`, which maps each
    key to the type JSON reads it as: int (not a bool), str, list, `[int]`
    or `[str]` (a list of such items), or object (any value; its reader
    checks it).  A ValueError names the first fault: a record that is no
    object (`what` names it), a key that is no field, so that a misspelt
    key does not pass unnoticed, a missing field or a value of another type.
    A record of several kinds (an atom, a delay) has its kind under `kind`,
    first among the values: `fields` maps each kind to its fields, and
    `kinds` names them when the record's is unknown."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object, got {shown(obj)}")
    values = []
    if kinds is not None:
        kind = obj.get("kind")
        if type(kind) is not str or kind not in fields:
            raise ValueError(f"unknown {kinds} kind in {shown(obj)}")
        fields = fields[kind]
        values.append(kind)
    for key, want in fields.items():
        value = obj.get(key, _MISSING)
        if type(value) is not want and not _fits(value, want):
            break
        values.append(value)
    else:
        if len(values) == len(obj):  # no stray key: a kind counts among the values
            return values
    for stray in obj:  # named first, so that a misspelt key is not taken for the one it misses
        if stray not in fields and (stray != "kind" or kinds is None):
            raise ValueError(f"unknown key {shown(stray)}; expected {', '.join(fields)}")
    if value is _MISSING:
        raise ValueError(f"missing key {key!r}")
    if want is list or type(want) is list and type(value) is not list:
        raise ValueError(f"{key!r} must be a JSON list")
    if type(want) is list:  # named by its first item of another type
        key, want = f"an item of {key!r}", want[0]
        value = next(v for v in value if type(v) is not want)
    raise ValueError(f"{key} must be {_JSON_TYPES[want]}, got {shown(value)}")


class _Params(Value):
    """A condition atom of int fields, and its JSON form: its fields in
    order, each under the matching key of the class's `json_keys`, and its
    `kind`.  Beside its fields each class states their ranges: `windows`,
    the (memory, bound) field pairs that need 0 <= memory <= bound (a bound
    without a memory is a fixed delay, which must be >= 0), and `holds`,
    the fields that need only be >= 0.  The bounds say how far back the
    atom reads its input, so an atom without windows does not read it."""

    __slots__ = ()
    kind: str
    json_keys: tuple[str, ...]
    windows: tuple[tuple[str | None, str], ...] = ()
    holds: tuple[str, ...] = ()

    def _set(self, *values):
        """Refuse a bool or non-int field by name, then a field out of its
        class's ranges, window by window, so `__init__` calls it first."""
        for name, value in zip(self._fields, values):
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {shown(value)}")
        super()._set(*values)
        if any(getattr(self, h) < 0 for h in self.holds):
            raise ValueError(f"hold times must be >= 0, got {self._got(*self.holds)}")
        for m, b in self.windows:
            if m is None and getattr(self, b) < 0:
                raise ValueError(f"fixed delay must be >= 0, got {self._got(b)}")
            if m is not None and not 0 <= getattr(self, m) <= getattr(self, b):
                raise ValueError(f"need 0 <= {m} <= {b}, got {self._got(m, b)}")

    def _got(self, *names) -> str:  # the named fields' values, cut short
        return " ".join(f"{n}={shown_int(getattr(self, n))}" for n in names)

    def as_dict(self) -> dict:
        return dict(zip(self.json_keys, self._key))


class FdcParams(_Params):
    """Fixed transmission delay of d ticks."""

    __slots__ = _fields = ("d",)
    kind = "fdc"
    json_keys = ("d",)
    windows = ((None, "d"),)

    def __init__(self, d: int):
        self._set(d)


class BdcParams(_Params):
    """Bounded-delay parameters (rise memory/bound, fall memory/bound)."""

    __slots__ = _fields = ("mr", "dr", "mf", "df")
    kind = "bdc"
    json_keys = _fields
    windows = (("mr", "dr"), ("mf", "df"))

    def __init__(self, mr: int, dr: int, mf: int, df: int):
        self._set(mr, dr, mf, df)


class AicParams(_Params):
    """Absolute inertia: hold times after a rise / a fall of the output."""

    __slots__ = _fields = ("delta_r", "delta_f")
    kind = "aic"
    json_keys = ("deltar", "deltaf")
    holds = _fields

    def __init__(self, delta_r: int, delta_f: int):
        self._set(delta_r, delta_f)


class RicParams(_Params):
    """Relative inertia: input-hold windows that license output edges."""

    __slots__ = _fields = ("mu_r", "delta_r", "mu_f", "delta_f")
    kind = "ric"
    json_keys = ("mur", "deltar", "muf", "deltaf")
    windows = (("mu_r", "delta_r"), ("mu_f", "delta_f"))

    def __init__(self, mu_r: int, delta_r: int, mu_f: int, delta_f: int):
        self._set(mu_r, delta_r, mu_f, delta_f)


Atom = FdcParams | BdcParams | AicParams | RicParams

# the one registry of atoms, by kind
ATOM_KINDS = {cls.kind: cls for cls in (FdcParams, BdcParams, AicParams, RicParams)}
ATOM_FIELDS = {kind: dict.fromkeys(cls.json_keys, int) for kind, cls in ATOM_KINDS.items()}


def atom_from_dict(obj: dict) -> Atom:
    """The atom of a JSON object: its `kind`, then the class's fields under `json_keys`."""
    kind, *values = json_fields(obj, ATOM_FIELDS, "an atom", "condition")
    return ATOM_KINDS[kind](*values)


class CondExpr(Value):
    """Conjunction of condition atoms over the same input/output pair.

    reach, the largest bound of the atoms' windows, is how many ticks
    back from t they read the input to constrain the output at t; `_rule`
    is the oracle's tick rule once a query has built it.  `==`, the hash
    and the repr leave both out.
    """

    __slots__ = ("atoms", "reach", "_rule")
    _fields = ("atoms",)

    def __init__(self, atoms: tuple[Atom, ...]):
        atoms = tuple(atoms)
        if not atoms:
            raise ValueError("a condition expression needs at least one atom")
        back = 0
        for a in atoms:
            if not isinstance(a, _Params):
                raise TypeError(f"not a condition atom: {shown(a)}")
            for _, b in a.windows:
                if getattr(a, b) > back:
                    back = getattr(a, b)
        _set_atoms(self, atoms)
        _set_reach(self, back)
        _set_rule(self, None)
        _set_key(self, (atoms,))


_set_atoms, _set_reach, _set_rule = CondExpr._setters("atoms", "reach", "_rule")


# -- consistency of BDC parameters ----------------------------------------


def cc_failures(p: BdcParams, show=str) -> list[str]:
    """The consistency inequalities that p violates (empty when
    consistent), each with its values written by `show`."""
    bad = []
    if not p.dr >= p.df - p.mf:
        bad.append(f"dr >= df - mf fails ({show(p.dr)} >= {show(p.df)} - {show(p.mf)})")
    if not p.df >= p.dr - p.mr:
        bad.append(f"df >= dr - mr fails ({show(p.df)} >= {show(p.dr)} - {show(p.mr)})")
    return bad


def cc_holds(p: BdcParams) -> bool:
    """Consistency: every input admits at least one output."""
    return p.dr >= p.df - p.mf and p.df >= p.dr - p.mr


def require_cc(p: BdcParams) -> None:
    if not cc_holds(p):  # values cut short: the message may echo long integers
        raise ConsistencyError("CC violated: " + "; ".join(cc_failures(p, shown_int)))


# -- membership predicates -------------------------------------------------


def fdc_member(u: Signal, x: Signal, d: int) -> bool:
    """x is the fixed-delay image of u: x(t) = u(t - d)."""
    return x == u.translate(FdcParams(d).d)


def bdc_lower(u: Signal, p: BdcParams) -> Signal:
    return window_and(u, p.dr, p.mr)


def bdc_upper(u: Signal, p: BdcParams) -> Signal:
    return window_or(u, p.df, p.mf)


def bdc_member(u: Signal, x: Signal, p: BdcParams) -> bool:
    """Pointwise windowed-AND <= x <= windowed-OR.  Does not need CC."""
    return bdc_lower(u, p).leq(x) and x.leq(bdc_upper(u, p))


def aic_member(x: Signal, a: AicParams) -> bool:
    """Every rise of x holds 1 for delta_r ticks, every fall holds 0 for delta_f.

    A run-length test: the gap from a rise to the next switch must be at
    least delta_r + 1 ticks, from a fall at least delta_f + 1.
    """
    sw = x.switches
    # switches alternate rise/fall, starting with a rise when x starts at 0
    first, second = (a.delta_r, a.delta_f) if x.initial == 0 else (a.delta_f, a.delta_r)
    return all(b - t > first for t, b in zip(sw[::2], sw[1::2])) and all(
        b - t > second for t, b in zip(sw[1::2], sw[2::2])
    )


def ric_member(u: Signal, x: Signal, r: RicParams) -> bool:
    """Edges of x only where u held the matching value over the past window:
    a rise at t needs u == 1 on [t - delta_r, t - delta_r + mu_r], a fall
    u == 0 on [t - delta_f, t - delta_f + mu_f]."""
    us = u.switches
    level = x.initial
    for t in x.switches:
        level ^= 1
        d, m = (r.delta_r, r.mu_r) if level else (r.delta_f, r.mu_f)
        k = bisect_right(us, t - d)  # u's switches up to the window start
        if u.initial ^ (k & 1) != level or (k < len(us) and us[k] <= t - d + m):
            return False
    return True


def violations(u: Signal | None, x: Signal, atom: Atom) -> list[str]:
    """The bounds of `atom` that x breaks for input u, one line each;
    empty exactly when x is a member.  AIC does not read u (it may be
    None there)."""
    if isinstance(atom, FdcParams):
        delayed = fdc_member(u, x, atom.d)
        checks = [(delayed, f"output is not the input delayed by {atom.d}")]
    elif isinstance(atom, BdcParams):
        checks = [
            (bdc_lower(u, atom).leq(x), "lower window bound violated"),
            (x.leq(bdc_upper(u, atom)), "upper window bound violated"),
        ]
    elif isinstance(atom, AicParams):
        # a zero hold always holds, so each half is checked on its own
        checks = [
            (aic_member(x, AicParams(atom.delta_r, 0)), "hold after rise violated"),
            (aic_member(x, AicParams(0, atom.delta_f)), "hold after fall violated"),
        ]
    else:
        checks = [(ric_member(u, x, atom), "an edge lacks its licensing input window")]
    return [line for ok, line in checks if not ok]


def cond_member(u: Signal, x: Signal, expr: CondExpr) -> bool:
    return not any(violations(u, x, atom) for atom in expr.atoms)


# -- canonical solutions ---------------------------------------------------


def bdc_min_solution(u: Signal, p: BdcParams) -> Signal:
    """Least admissible output; requires CC."""
    require_cc(p)
    return bdc_lower(u, p)


def bdc_max_solution(u: Signal, p: BdcParams) -> Signal:
    """Greatest admissible output; requires CC."""
    require_cc(p)
    return bdc_upper(u, p)


# -- parameter algebra -----------------------------------------------------


def bdc_jointly_solvable(p: BdcParams, q: BdcParams) -> bool:
    """Whether every input admits an output meeting both conditions.

    Decided by the four cross inequalities pairing each side's window
    bounds with the other's: the pointwise lower bound of one condition
    can only collide with the upper bound of the other when their index
    windows are disjoint, which these rule out.
    """
    require_cc(p)
    require_cc(q)
    return (
        q.df >= p.dr - p.mr
        and p.dr >= q.df - q.mf
        and p.df >= q.dr - q.mr
        and q.dr >= p.df - p.mf
    )


def _windows_nested(d1: int, m1: int, d2: int, m2: int) -> bool:
    # index windows [t-d, t-d+m]: containment one way or the other
    return (d1 <= d2 and d1 - m1 >= d2 - m2) or (d2 <= d1 and d2 - m2 >= d1 - m1)


def bdc_intersection(p: BdcParams, q: BdcParams) -> BdcParams | None:
    """Parameters whose solution sets realize Sol(p) & Sol(q), or None.

    The conjunction of two window conditions is itself a window
    condition exactly when, per side, one index window contains the
    other (the tighter window then decides that side).  On top of that
    the merged tuple must stay consistent, else the joint set is empty
    for some input.  In every other case no parameter tuple matches the
    conjunction on all inputs and None is returned: short input runs
    dropped by both component windows can survive the merged one.
    """
    require_cc(p)
    require_cc(q)
    if not _windows_nested(p.dr, p.mr, q.dr, q.mr):
        return None
    if not _windows_nested(p.df, p.mf, q.df, q.mf):
        return None
    if not bdc_jointly_solvable(p, q):
        return None
    dr = min(p.dr, q.dr)
    df = min(p.df, q.df)
    mr = dr - max(p.dr - p.mr, q.dr - q.mr)
    mf = df - max(p.df - p.mf, q.df - q.mf)
    return BdcParams(mr, dr, mf, df)


def bdc_union_envelope(p: BdcParams, q: BdcParams) -> BdcParams:
    """Tightest single condition containing Sol(p) | Sol(q).

    Always consistent.  It equals the union exactly when one family
    includes the other; otherwise it is a strict superset, because a
    member may combine rise behavior admissible only under p with fall
    behavior admissible only under q.
    """
    require_cc(p)
    require_cc(q)
    dr = max(p.dr, q.dr)
    df = max(p.df, q.df)
    mr = dr - min(p.dr - p.mr, q.dr - q.mr)
    mf = df - min(p.df - p.mf, q.df - q.mf)
    return BdcParams(mr, dr, mf, df)


def bdc_is_deterministic(p: BdcParams) -> bool:
    """Exactly one output per input; under CC this forces a pure shift."""
    require_cc(p)
    return p.mr == 0 and p.mf == 0


def bdc_as_translation(p: BdcParams) -> int | None:
    """The shift d when p is deterministic (then dr == df), else None."""
    if not bdc_is_deterministic(p):
        return None
    return p.dr


def bdc_includes(p: BdcParams, q: BdcParams) -> bool:
    """Sol(p) subset of Sol(q) for every input, decided on parameters."""
    require_cc(p)
    require_cc(q)
    return (
        q.dr - q.mr <= p.dr - p.mr <= p.df <= q.df
        and q.df - q.mf <= p.df - p.mf <= p.dr <= q.dr
    )


def bdc_is_symmetrical(p: BdcParams) -> bool:
    """Invariant under swapping the roles of 0 and 1."""
    return p.dr == p.df and p.mr == p.mf


def bdc_compose(p: BdcParams, q: BdcParams) -> BdcParams:
    """Serial connection (p feeding q): parameters add componentwise.

    Every two-stage output satisfies the summed condition, and the summed
    condition's least and greatest solutions factor back through the
    stages, but the containment can be strict: a candidate may fit the
    summed windows while no intermediate signal splits it into stages.
    A stage without memory makes it an equality.
    """
    require_cc(p)
    require_cc(q)
    return BdcParams(p.mr + q.mr, p.dr + q.dr, p.mf + q.mf, p.df + q.df)


# -- inertial conditions ---------------------------------------------------


def baidc_consistent(p: BdcParams, a: AicParams) -> bool:
    """Solvability of BDC + absolute inertia: hold times fit the memories."""
    require_cc(p)
    return a.delta_r + a.delta_f <= p.mr + p.mf


def ric_to_aic(r: RicParams) -> AicParams | None:
    """Absolute hold times implied by a relative condition, when its own
    bounds are consistent (delta_r >= delta_f - mu_f and dually)."""
    if r.delta_r >= r.delta_f - r.mu_f and r.delta_f >= r.delta_r - r.mu_r:
        return AicParams(
            r.delta_f - r.delta_r + r.mu_r, r.delta_r - r.delta_f + r.mu_f
        )
    return None


def bridc_consistency_cases(p: BdcParams, r: RicParams) -> tuple[str, ...]:
    """Which of the four solvability regimes hold for BDC + relative inertia.

    Each case is a chain of inequalities between the bounded-delay bounds
    and the inertia windows; the condition is solvable for every input iff
    at least one case fires.  All four are reported so sweeps can show
    coverage of every regime.
    """
    mr, dr, mf, df = p.mr, p.dr, p.mf, p.df
    ur, er, uf, ef = r.mu_r, r.delta_r, r.mu_f, r.delta_f
    fired = []
    if (df - mf <= er <= dr <= er - ur + mr) and (dr - mr <= ef <= df <= ef - uf + mf):
        fired.append("b.i")
    if (dr - mr + ur <= er <= df - mf <= dr) and (df - mf + uf <= ef <= dr - mr <= df):
        fired.append("b.ii")
    if (df - mf <= er <= dr - mr + ur <= dr) and (dr - mr <= ef <= df - mf + uf <= df):
        fired.append("b.iii")
    if (er <= df - mf <= er + mr - ur <= dr) and (ef <= dr - mr <= ef + mf - uf <= df):
        fired.append("b.iv")
    return tuple(fired)


def bridc_consistent(p: BdcParams, r: RicParams) -> bool:
    """Whether bounded delay plus edge licensing is solvable for every
    input.

    Exact criterion: the window pair must be consistent, each licensing
    window must fit inside the matching memory (mu <= m, delta <= d),
    and a minimal forcing run must still contain a licensed edge tick
    (delta + m - mu reaches the opposite bound).  Every named regime
    implies this; the regimes do not cover all solvable tuples.
    """
    return (
        cc_holds(p)
        and r.mu_r <= p.mr
        and r.mu_f <= p.mf
        and r.delta_r <= p.dr
        and r.delta_f <= p.df
        and r.delta_r + p.mr - r.mu_r >= p.df - p.mf
        and r.delta_f + p.mf - r.mu_f >= p.dr - p.mr
    )


def bridc_det_output(u: Signal, p: BdcParams) -> Signal:
    """The unique output of the deterministic inertial condition (mu = m,
    delta = d) for input u.

    Tick recurrence: a low output rises when u held 1 over the rise
    window, a high output falls when u held 0 over the fall window; CC
    makes the two windows overlap, so both commands never fire at once.
    The output starts at u's initial value, which is the unique constant
    prehistory.  So one pass over u's runs (each switch starts one, the
    last never ends) gives it: a run of a value v the output does not
    hold moves it to v at start + dr (v = 1) or start + df (v = 0) when
    it lasts more than mr or mf ticks; shorter runs are swallowed.  The
    moves strictly increase: a kept 1-run starts at least mf + 1 ticks
    after the kept 0-run before it, so dr >= df - mf puts its rise after
    that fall, and df >= dr - mr does the same for a fall.
    """
    require_cc(p)
    sw = u.switches
    keep, delay = (p.mf, p.mr), (p.df, p.dr)  # by the run's value
    val = v = u.initial
    out = []
    for start, end in zip(sw, islice(sw, 1, None)):
        v ^= 1
        if v != val and end - start > keep[v]:
            out.append(start + delay[v])
            val = v
    if sw and u.final != val:  # the last run never ends, so it is kept
        out.append(sw[-1] + delay[u.final])
    return Signal._trusted(u.initial, tuple(out))
