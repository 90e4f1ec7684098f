"""The ``sim_tamper`` workload: seeded bit-flip runs of ``happy_path``.

Set-up runs the scenario once on a clean wire and draws a fixed-size sample of
single-bit flips, one from each of ``FLIPS`` equal slices of all the bits the
clean run put on the wire, so every frame and header is covered at the same
density.  Ops replay the sample in a seeded order; every ``CLEAN_EVERY``-th op is a
clean rerun instead, which must reproduce the first report byte for byte.
"""

from __future__ import annotations

from kerbpk.scenario import load_scenario, run_scenario
from kerbpk.transport import FlipBit

FLIPS = 2048
CLEAN_EVERY = 16
WARM_UP = 32
FRAMES = 8


class SilentAcceptance(Exception):
    """A run with a flipped bit completed with no step failed and no server event."""


class SimSetup:
    def __init__(self, rng):
        self.script = load_scenario("happy_path")
        self.seed = rng.getrandbits(31)
        clean = run_scenario(self.script, seed=self.seed)
        if not clean.ok or len(clean.transcript) != FRAMES:
            raise RuntimeError(f"happy_path is not a clean {FRAMES}-frame run:\n{clean.render()}")
        self.clean_json = clean.to_json()
        bits = [(record.index, byte, bit) for record in clean.transcript
                for byte in range(len(record.wire)) for bit in range(8)]
        self.flips = [FlipBit(*bits[rng.randrange(i * len(bits) // FLIPS,
                                                  (i + 1) * len(bits) // FLIPS)])
                      for i in range(FLIPS)]
        rng.shuffle(self.flips)   # run order must not follow wire position
        self.clients = [SimClient(self)]
        for _ in range(WARM_UP):
            self.clients[0].next()
        self.clients[0].ops = 0

    def close(self) -> None:
        pass


class SimClient:
    def __init__(self, setup: SimSetup):
        self.setup = setup
        self.ops = 0
        self.flip_index = 0

    def next(self) -> str:
        setup = self.setup
        self.ops += 1
        if self.ops % CLEAN_EVERY == 0:
            report = run_scenario(setup.script, seed=setup.seed)
            if report.to_json() != setup.clean_json:
                raise RuntimeError("a clean rerun differs from the first clean run")
            return "clean"
        flip = setup.flips[self.flip_index % len(setup.flips)]
        self.flip_index += 1
        report = run_scenario(setup.script, seed=setup.seed, extra_faults=(flip,))
        if report.ok and not report.events:
            raise SilentAcceptance(f"{flip} was accepted silently")
        return "flip"
