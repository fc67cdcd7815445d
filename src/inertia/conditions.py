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

Parameter tuples are frozen dataclasses and only validate their own
ranges; consistency (solvability for every input) is decided separately,
so inconsistent tuples can be constructed, queried and reported.
CondExpr conjoins atoms, which is how inertial conditions (BDC + AIC,
BDC + RIC) are expressed.
"""

from dataclasses import dataclass

from .signals import Signal, Tick, forward_window_and, switch_walk, window_and, window_or


class ConsistencyError(ValueError):
    """An operation required a consistent parameter set and did not get one."""


# -- parameter tuples ------------------------------------------------------


@dataclass(frozen=True)
class FdcParams:
    """Fixed transmission delay of d ticks."""

    d: int

    def __post_init__(self):
        if self.d < 0:
            raise ValueError(f"fixed delay must be >= 0, got {self.d}")

    def as_dict(self) -> dict:
        return {"d": self.d}

    @classmethod
    def from_dict(cls, obj: dict) -> "FdcParams":
        return cls(int(obj["d"]))


@dataclass(frozen=True)
class BdcParams:
    """Bounded-delay parameters (rise memory/bound, fall memory/bound)."""

    mr: int
    dr: int
    mf: int
    df: int

    def __post_init__(self):
        if not (0 <= self.mr <= self.dr):
            raise ValueError(f"need 0 <= mr <= dr, got mr={self.mr} dr={self.dr}")
        if not (0 <= self.mf <= self.df):
            raise ValueError(f"need 0 <= mf <= df, got mf={self.mf} df={self.df}")

    def as_dict(self) -> dict:
        return {"mr": self.mr, "dr": self.dr, "mf": self.mf, "df": self.df}

    @classmethod
    def from_dict(cls, obj: dict) -> "BdcParams":
        return cls(int(obj["mr"]), int(obj["dr"]), int(obj["mf"]), int(obj["df"]))


@dataclass(frozen=True)
class AicParams:
    """Absolute inertia: hold times after a rise / a fall of the output."""

    delta_r: int
    delta_f: int

    def __post_init__(self):
        if self.delta_r < 0 or self.delta_f < 0:
            raise ValueError(
                f"hold times must be >= 0, got ({self.delta_r}, {self.delta_f})"
            )

    def as_dict(self) -> dict:
        return {"deltar": self.delta_r, "deltaf": self.delta_f}

    @classmethod
    def from_dict(cls, obj: dict) -> "AicParams":
        return cls(int(obj["deltar"]), int(obj["deltaf"]))


@dataclass(frozen=True)
class RicParams:
    """Relative inertia: input-hold windows that license output edges."""

    mu_r: int
    delta_r: int
    mu_f: int
    delta_f: int

    def __post_init__(self):
        if not (0 <= self.mu_r <= self.delta_r):
            raise ValueError(
                f"need 0 <= mu_r <= delta_r, got mu_r={self.mu_r} delta_r={self.delta_r}"
            )
        if not (0 <= self.mu_f <= self.delta_f):
            raise ValueError(
                f"need 0 <= mu_f <= delta_f, got mu_f={self.mu_f} delta_f={self.delta_f}"
            )

    def as_dict(self) -> dict:
        return {
            "mur": self.mu_r,
            "deltar": self.delta_r,
            "muf": self.mu_f,
            "deltaf": self.delta_f,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "RicParams":
        return cls(
            int(obj["mur"]), int(obj["deltar"]), int(obj["muf"]), int(obj["deltaf"])
        )


Atom = FdcParams | BdcParams | AicParams | RicParams

_ATOM_KINDS = {
    "fdc": FdcParams,
    "bdc": BdcParams,
    "aic": AicParams,
    "ric": RicParams,
}


def atom_kind(atom: Atom) -> str:
    for kind, cls in _ATOM_KINDS.items():
        if isinstance(atom, cls):
            return kind
    raise TypeError(f"not a condition atom: {atom!r}")


def atom_to_dict(atom: Atom) -> dict:
    d = {"kind": atom_kind(atom)}
    d.update(atom.as_dict())
    return d


def atom_from_dict(obj: dict) -> Atom:
    try:
        cls = _ATOM_KINDS[obj["kind"]]
    except KeyError:
        raise ValueError(f"unknown condition kind in {obj!r}") from None
    return cls.from_dict(obj)


@dataclass(frozen=True)
class CondExpr:
    """Conjunction of condition atoms over the same input/output pair."""

    atoms: tuple[Atom, ...]

    def __post_init__(self):
        if not isinstance(self.atoms, tuple):
            object.__setattr__(self, "atoms", tuple(self.atoms))
        if not self.atoms:
            raise ValueError("a condition expression needs at least one atom")
        for a in self.atoms:
            atom_kind(a)

    @property
    def reach(self) -> int:
        """How many ticks back from t the atoms read the input to
        constrain the output at t."""
        back = 0
        for a in self.atoms:
            if isinstance(a, BdcParams):
                back = max(back, a.dr, a.df)
            elif isinstance(a, FdcParams):
                back = max(back, a.d)
            elif isinstance(a, RicParams):
                back = max(back, a.delta_r, a.delta_f)
        return back

    def as_dict(self) -> dict:
        return {"atoms": [atom_to_dict(a) for a in self.atoms]}

    @classmethod
    def from_dict(cls, obj: dict) -> "CondExpr":
        return cls(tuple(atom_from_dict(a) for a in obj["atoms"]))


# -- consistency of BDC parameters ----------------------------------------


def cc_failures(p: BdcParams) -> list[str]:
    """The consistency inequalities that p violates (empty when consistent)."""
    bad = []
    if not p.dr >= p.df - p.mf:
        bad.append(f"dr >= df - mf fails ({p.dr} >= {p.df} - {p.mf})")
    if not p.df >= p.dr - p.mr:
        bad.append(f"df >= dr - mr fails ({p.df} >= {p.dr} - {p.mr})")
    return bad


def cc_holds(p: BdcParams) -> bool:
    """Consistency: every input admits at least one output."""
    return p.dr >= p.df - p.mf and p.df >= p.dr - p.mr


def require_cc(p: BdcParams) -> None:
    bad = cc_failures(p)
    if bad:
        raise ConsistencyError(f"CC violated for {p}: " + "; ".join(bad))


# -- membership predicates -------------------------------------------------


def rising_edges(x: Signal) -> Signal:
    """Indicator signal: 1 exactly at ticks where x rises."""
    return x & ~x.translate(1)


def falling_edges(x: Signal) -> Signal:
    """Indicator signal: 1 exactly at ticks where x falls."""
    return ~x & x.translate(1)


def fdc_member(u: Signal, x: Signal, d: int) -> bool:
    """x is the fixed-delay image of u: x(t) = u(t - d)."""
    if d < 0:
        raise ValueError(f"fixed delay must be >= 0, got {d}")
    return x == u.translate(d)


def bdc_lower(u: Signal, p: BdcParams) -> Signal:
    return window_and(u, p.dr, p.mr)


def bdc_upper(u: Signal, p: BdcParams) -> Signal:
    return window_or(u, p.df, p.mf)


def bdc_member(u: Signal, x: Signal, p: BdcParams) -> bool:
    """Pointwise windowed-AND <= x <= windowed-OR.  Does not need CC."""
    return bdc_lower(u, p).leq(x) and x.leq(bdc_upper(u, p))


def aic_member(x: Signal, a: AicParams) -> bool:
    """Every rise of x holds 1 for delta_r ticks, every fall holds 0 for delta_f."""
    if not rising_edges(x).leq(forward_window_and(x, a.delta_r)):
        return False
    return falling_edges(x).leq(forward_window_and(~x, a.delta_f))


def ric_member(u: Signal, x: Signal, r: RicParams) -> bool:
    """Edges of x only where u held the matching value over the past window."""
    if not rising_edges(x).leq(window_and(u, r.delta_r, r.mu_r)):
        return False
    return falling_edges(x).leq(window_and(~u, r.delta_f, r.mu_f))


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


_BRIDC_CASES = ("b.i", "b.ii", "b.iii", "b.iv")


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
    prehistory.  With mr == mf == 0 this reproduces a pure shift.
    """
    require_cc(p)
    rise_cmd = window_and(u, p.dr, p.mr)
    fall_cmd = window_and(~u, p.df, p.mf)
    val = u.initial
    out = []
    for t, (rise, fall) in switch_walk(rise_cmd, fall_cmd):
        assert not (rise and fall), "rise and fall windows overlap under CC"
        if val == 0 and rise:
            out.append(t)
            val = 1
        elif val == 1 and fall:
            out.append(t)
            val = 0
    return Signal(u.initial, tuple(out))
