"""The simulator's prehistory, audited against every constant state.

Draws `random_circuit` netlists (tests/test_circuit.py) of seeds 0 to
19,999, finds each one's constant states by brute force and holds
`simulate` to the dense runs from them: its output must be one of those
runs, or a refusal.  Prints the draws by number of constant states and
outcome, and exits 1 on any wrong output, or on more than
MAX_REFUSED_WITH_A_STATE refusals of draws that have a constant state.

    python tests/prehistory_audit.py

Tier-1 does not collect this file; it takes several seconds.
"""

import random
import sys
from collections import Counter

from dense_reference import dense_runs
from test_circuit import random_circuit

from inertia.circuit import NetlistError, simulate

SEEDS = 20_000
# sweeps settle a loop in place in name order from all zeros, and take the
# first constant state they reach; no settle rule that sweeps finds them all
MAX_REFUSED_WITH_A_STATE = 171


def audit(seeds: int) -> Counter:
    """(states, outcome) -> draws, with states "none", "one" or "several"
    and outcome "simulates", "refused" or "wrong"; draws that build no
    netlist are counted under ("-", "not built")."""
    counts: Counter = Counter()
    for seed in range(seeds):
        try:
            n, stim, horizon = random_circuit(random.Random(seed))
        except NetlistError:
            counts["-", "not built"] += 1
            continue
        runs = dense_runs(n, stim, horizon)
        states = "none" if not runs else "one" if len(runs) == 1 else "several"
        try:
            out = simulate(n, stim, horizon)
        except NetlistError:
            outcome = "refused"
        else:
            outcome = "simulates" if out in runs else "wrong"
        counts[states, outcome] += 1
    return counts


def main() -> int:
    counts = audit(SEEDS)
    for (states, outcome), draws in sorted(counts.items()):
        print(f"{states:>8} {outcome:>10} {draws:6d}")
    wrong = sum(draws for (_, outcome), draws in counts.items() if outcome == "wrong")
    refused = counts["one", "refused"] + counts["several", "refused"]
    print(f"{wrong} wrong outputs, {refused} refused draws with a constant state"
          f" (at most {MAX_REFUSED_WITH_A_STATE})")
    return 1 if wrong or refused > MAX_REFUSED_WITH_A_STATE else 0


if __name__ == "__main__":
    sys.exit(main())
