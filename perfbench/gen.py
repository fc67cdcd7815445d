"""Seeded input generators for the benchmark workloads.

Everything here is plain data (ints, lists, dicts, text) built from a
`random.Random`; nothing imports `inertia`, so the program under test
only ever sees the generated files and arguments.  The same seed and
size always give the same inputs.
"""

from random import Random

BUF, INV = [0, 1], [1, 0]
AND, OR, XOR, NAND = [0, 0, 0, 1], [0, 1, 1, 1], [0, 1, 1, 0], [1, 1, 1, 0]
MAJ = [0, 0, 0, 1, 0, 1, 1, 1]  # Muller C-element c = maj(a, b, c)

SIZES = {
    # trace: switches per waveform; sim_*: gates and ticks
    "full": {
        "trace_switches": 20_000,
        "trace_waves": 3,
        "sparse_chain": 64,
        "sparse_side": 8,
        "sparse_horizon": 10_000,
        "sparse_far": 10_000,
        "sparse_switches": 24,
        "dense_rings": 6,
        "dense_stimuli": 6,
        "dense_bank": 16,
        "dense_horizon": 20_000,
    },
    "tiny": {
        "trace_switches": 300,
        "trace_waves": 2,
        "sparse_chain": 10,
        "sparse_side": 2,
        "sparse_horizon": 400,
        "sparse_far": 400,
        "sparse_switches": 6,
        "dense_rings": 1,
        "dense_stimuli": 2,
        "dense_bank": 3,
        "dense_horizon": 300,
    },
}


def wave_line(name: str, initial: int, switches) -> str:
    """One waveform in the canonical text form `name initial t1 ... tn`."""
    return " ".join([name, str(initial)] + [str(t) for t in switches])


def bdc_params(rng: Random, mmin: int = 1, mmax: int = 4, spread: int = 4) -> dict:
    """Random window parameters meeting the consistency inequalities."""
    while True:
        mr, mf = rng.randint(mmin, mmax), rng.randint(mmin, mmax)
        dr, df = rng.randint(mr, mr + spread), rng.randint(mf, mf + spread)
        if dr >= df - mf and df >= dr - mr:
            return {"mr": mr, "dr": dr, "mf": mf, "df": df}


# -- trace ---------------------------------------------------------------------


def trace_waves(seed: int, size: str) -> list[dict]:
    """Long random waveforms mixing short pulses with long runs.

    Half the gaps are 1-3 ticks, which the memories of the drawn window
    parameters swallow; the rest are 8-60 tick runs that pass through.
    """
    cfg = SIZES[size]
    rng = Random(f"trace:{seed}")
    waves = []
    for k in range(cfg["trace_waves"]):
        t = rng.randint(-100, 100)
        switches = []
        for _ in range(cfg["trace_switches"]):
            t += rng.randint(1, 3) if rng.random() < 0.5 else rng.randint(8, 60)
            switches.append(t)
        waves.append(
            {
                "name": f"u{k}",
                "initial": rng.randint(0, 1),
                "switches": switches,
                "params": bdc_params(rng),
            }
        )
    return waves


# -- sim_sparse ----------------------------------------------------------------


def _delay(rng: Random, k: int, inertial: dict) -> dict:
    if k % 2 == 0:
        return {"kind": "fixed", "d": rng.randint(1, 3)}
    return {"kind": "bridc", **inertial}


def table_value(table, bits) -> int:
    """A gate's truth-table entry, indexed most-significant-bit first."""
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    return table[idx]


def _sparse_stimulus(rng: Random, lo: int, hi: int, count: int) -> list[int]:
    """`count` switches in (lo, hi): short pulses mixed with long runs."""
    room = (hi - lo) // (count + 1)
    times, t = [], lo + rng.randint(50, room)
    while len(times) < count and t < hi - 50:
        times.append(t)
        short = rng.random() < 0.3
        t += rng.randint(1, 3) if short else rng.randint(room // 2, room + room // 2)
    return times


def sparse_circuit(seed: int, size: str) -> dict:
    """A long buffer/inverter chain with reconvergent fan-out, a side
    chain, and a Muller C-element closing a feedback loop over both.

    Delays alternate between fixed shifts and inertial windows.  The
    C-element's two data inputs share their quiescent value, so its
    prehistory is unique.  Stimulus `b` switches once far before the
    horizon; every other switch sits inside it, well after a quiet lead-in.
    """
    cfg = SIZES[size]
    rng = Random(f"sparse:{seed}")
    lo, hi = 0, cfg["sparse_horizon"]
    a_init, b_init = rng.randint(0, 1), rng.randint(0, 1)
    quiet = {"a": a_init, "b": b_init}
    gates = []

    def add(name, inputs, table, delay):
        gates.append({"name": name, "inputs": inputs, "table": table, "delay": delay})
        quiet[name] = table_value(table, [quiet[i] for i in inputs])

    chain = ["a"]
    for k in range(cfg["sparse_chain"]):
        name = f"n{k:03d}"
        delay = _delay(rng, k, bdc_params(rng, 0, 3, 3))
        if k % 8 == 7:  # reconverge with a tap five stages back
            add(name, [chain[-1], chain[-6]], rng.choice([AND, OR, XOR]), delay)
        else:
            add(name, [chain[-1]], rng.choice([BUF, INV]), delay)
        chain.append(name)
    side = ["b"]
    for k in range(cfg["sparse_side"]):
        name = f"m{k:03d}"
        table = rng.choice([BUF, INV])
        if k == cfg["sparse_side"] - 1:
            # pick the last stage's polarity so the C-element inputs agree
            table = BUF if table_value(BUF, [quiet[side[-1]]]) == quiet[chain[-1]] else INV
        add(name, [side[-1]], table, _delay(rng, k, bdc_params(rng, 0, 3, 3)))
        side.append(name)
    quiet["c"] = quiet[chain[-1]]
    add("c", [chain[-1], side[-1], "c"], MAJ, {"kind": "fixed", "d": 2})

    stimuli = {
        "a": (a_init, _sparse_stimulus(rng, lo, hi, cfg["sparse_switches"])),
        "b": (
            b_init,
            [lo - cfg["sparse_far"]]
            + _sparse_stimulus(rng, lo, hi, cfg["sparse_switches"] // 4),
        ),
    }
    netlist = {"inputs": ["a", "b"], "gates": gates, "outputs": [chain[-1], side[-1], "c"]}
    acyclic = {
        "inputs": ["a"],
        "gates": [g for g in gates if g["name"].startswith("n")],
        "outputs": [chain[-1]],
    }
    return {"netlist": netlist, "acyclic": acyclic, "stimuli": stimuli, "horizon": (lo, hi)}


# -- sim_dense -----------------------------------------------------------------


def dense_circuit(seed: int, size: str) -> dict:
    """Gated ring oscillators plus a bank of gates on fast stimuli.

    Each ring is g0 = NAND(en, g4) feeding four inverters, with short
    fixed and inertial delays, so once `en` rises every ring net toggles
    every few ticks.  The bank reads stimuli that switch every 1-3 ticks
    and taps of the rings.  Everything is quiet until shortly after the
    horizon starts, so the prehistory is unique.
    """
    cfg = SIZES[size]
    rng = Random(f"dense:{seed}")
    lo, hi = 0, cfg["dense_horizon"]
    inertial = {"mr": 1, "dr": 2, "mf": 1, "df": 2}
    gates, inputs, stimuli, taps = [], [], {}, []

    def add(name, ins, table, delay):
        gates.append({"name": name, "inputs": ins, "table": table, "delay": delay})

    for r in range(cfg["dense_rings"]):
        en = f"en{r}"
        inputs.append(en)
        on = lo + rng.randint(10, 40)
        off = rng.randint(hi // 2, hi - hi // 8)
        # one short pause keeps the gating path busy
        stimuli[en] = (0, [on, off, off + rng.randint(20, 60)])
        ring = [f"r{r}g{k}" for k in range(5)]
        for k, name in enumerate(ring):
            ins = [en, ring[4]] if k == 0 else [ring[k - 1]]
            delay = {"kind": "fixed", "d": rng.randint(1, 2)} if k % 2 else {
                "kind": "bridc", **inertial
            }
            add(name, ins, NAND if k == 0 else INV, delay)
        taps.append(ring[rng.randint(1, 4)])
    for j in range(cfg["dense_stimuli"]):
        name = f"s{j}"
        inputs.append(name)
        t, times = lo + rng.randint(10, 40), []
        while t < hi - 5:
            times.append(t)
            t += rng.randint(1, 3)
        stimuli[name] = (rng.randint(0, 1), times)
    sources = [f"s{j}" for j in range(cfg["dense_stimuli"])] + taps
    bank = []
    for k in range(cfg["dense_bank"]):
        name = f"q{k:02d}"
        ins = rng.sample(sources, 2)
        delay = {"kind": "fixed", "d": 1} if k % 2 else {"kind": "bridc", **inertial}
        add(name, ins, rng.choice([AND, OR, XOR, NAND]), delay)
        bank.append(name)
    for k in range(0, len(bank) - 1, 2):
        add(f"z{k // 2:02d}", [bank[k], bank[k + 1]], XOR, {"kind": "fixed", "d": 1})
    netlist = {
        "inputs": inputs,
        "gates": gates,
        "outputs": [g["name"] for g in gates if g["name"].startswith("z")] + taps,
    }
    return {"netlist": netlist, "stimuli": stimuli, "horizon": (lo, hi)}


# -- verify --------------------------------------------------------------------


def suite_order(seed: int, names) -> list[str]:
    """The order the law suites run in, shuffled by the benchmark seed.

    Each suite runs at its own default seed: a suite's cost depends on
    its seed (t1 took 0.9 to 2.5 s over seeds 0-5, from a few trials
    with large solution sets), and a benchmark seed must not change how
    much work a run does.
    """
    order = list(names)
    Random(f"verify:{seed}").shuffle(order)
    return order
