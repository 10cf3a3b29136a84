"""The DES kernel reproduces the legacy engine's pinned schedules.

250 seeded random event programs (timeouts, cooperative pauses,
``AllOf`` joins, fire-and-forget spawns and waited-on children) were
run on the legacy global-heap engine when the kernel still had two
interchangeable cores; ``fixtures/des_programs.json`` pins each
program's completion log, final clock and processed-event count.  The
single kernel must reproduce every one exactly.  The canonical
scenarios' dumps are pinned separately by the golden traces
(``tests/obs/test_golden_traces.py``).  Any future change to the
kernel must clear this gate (see docs/DES.md).
"""

import json
import random
from pathlib import Path

from repro.runtime.events import AllOf, Environment

FIXTURE = Path(__file__).parent / "fixtures" / "des_programs.json"

#: delays drawn from a small grid so same-instant ties occur constantly
_DELAYS = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.75)

N_PROGRAMS = 250


def _random_action(rng: random.Random, depth: int):
    kinds = ["timeout", "pause", "allof"]
    if depth > 0:
        kinds += ["spawn", "wait"]
    kind = rng.choice(kinds)
    if kind == "timeout":
        return ("timeout", rng.choice(_DELAYS))
    if kind == "pause":
        return ("pause",)
    if kind == "allof":
        return ("allof", [rng.choice(_DELAYS) for _ in range(rng.randint(1, 3))])
    child = [_random_action(rng, depth - 1) for _ in range(rng.randint(1, 3))]
    return (kind, child)


def random_program(seed: int):
    """A program: 1-4 process specs of 1-4 actions, nested two deep."""
    rng = random.Random(seed)
    return [
        [_random_action(rng, 2) for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(1, 4))
    ]


def run_program(program):
    """Interpret one program; returns (completion log, final clock,
    events processed)."""
    env = Environment()
    log = []

    def exec_spec(spec, path):
        for index, action in enumerate(spec):
            kind = action[0]
            if kind == "timeout":
                yield env.timeout(action[1])
            elif kind == "pause":
                yield None
            elif kind == "allof":
                yield AllOf(env, [env.timeout(d) for d in action[1]])
            elif kind == "spawn":
                env.process(exec_spec(action[1], path + (index,)))
            elif kind == "wait":
                yield env.process(exec_spec(action[1], path + (index,)))
        log.append((env.now, path))

    for slot, spec in enumerate(program):
        env.process(exec_spec(spec, (slot,)))
    final = env.run()
    return log, final, env.n_processed


def test_random_programs_equivalent():
    """Every seeded program completes in the pinned order, at the
    pinned instants, after the pinned number of events."""
    pinned = json.loads(FIXTURE.read_text())
    assert len(pinned) == N_PROGRAMS
    for seed, want in enumerate(pinned):
        log, final, n_processed = run_program(random_program(seed))
        got_log = [[at, list(path)] for at, path in log]
        assert got_log == want["log"], seed  # repro: noqa[FLT001] - bit-identity with the pinned schedule is the contract under test
        assert final == want["final"], seed  # repro: noqa[FLT001] - bit-identity with the pinned schedule is the contract under test
        assert n_processed == want["n_processed"], seed
