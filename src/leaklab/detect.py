"""Relational leak detection.

A speculative leak is witnessed by two inputs with equal contract traces but
unequal hardware traces. Random inputs rarely share a contract trace once a
program reads memory, so each input is "boosted": a sibling is derived with
the same registers, fresh random memory, and the bytes the program actually
loads copied over from the original, iterated until the sibling provably
produces the same contract trace. Hardware-trace divergence inside such a
class is a violation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .arch import (
    DEFAULT_STEP_BUDGET,
    OBS_LOAD,
    REJECTED,
    ContractSpec,
    Input,
    SANDBOX_SIZE,
    Xorshift64Star,
    contract_trace,
    stream_seed,
)
from .errors import ConfigError
from .isa import Program, parse_program, render_program
from .uarch import (
    CACHE_SETS,
    InputObservation,
    ResumePoints,
    SpecConfig,
    htrace_hex,
    hw_run,
    observe,
)

__all__ = [
    "BOOST_ROUNDS",
    "MAX_BOOSTS_PER_INPUT",
    "ViolationReport",
    "boost_input",
    "detect_violation",
]

BOOST_ROUNDS = 10
# Sibling j of input i draws from stream (i << 8) | j, which is one stream per
# sibling only while j fits in 8 bits.
MAX_BOOSTS_PER_INPUT = 255


@dataclass(frozen=True)
class ViolationReport:
    """Witness for a contract violation: equal contract traces, unequal
    hardware traces. Everything needed to re-check the claim is kept."""

    program: Program
    contract: ContractSpec
    spec_config: SpecConfig
    witness: tuple[Input, Input]
    htraces: tuple[int, int]
    diverging_sets: tuple[int, ...]

    def revalidate(self, budget: int = DEFAULT_STEP_BUDGET) -> bool:
        """Re-simulate both witnesses from scratch and confirm the claim."""
        a, b = self.witness
        ct_a = contract_trace(self.program, a, self.contract, budget)
        ct_b = contract_trace(self.program, b, self.contract, budget)
        if ct_a is REJECTED or ct_b is REJECTED or ct_a != ct_b:
            return False
        hw_a = hw_run(self.program, a, self.spec_config, budget)
        hw_b = hw_run(self.program, b, self.spec_config, budget)
        if hw_a is REJECTED or hw_b is REJECTED:
            return False
        if (hw_a.htrace, hw_b.htrace) != self.htraces:
            return False
        diff = hw_a.htrace ^ hw_b.htrace
        return diff != 0 and tuple(s for s in range(CACHE_SETS) if diff >> s & 1) == self.diverging_sets

    def to_json(self) -> str:
        def enc(inp: Input) -> dict:
            return {
                "seed": inp.seed,
                "r0": inp.r0,
                "r1": inp.r1,
                "r2": inp.r2,
                "mem_hex": inp.mem.hex(),
            }

        a, b = self.witness
        return json.dumps(
            {
                "program": render_program(self.program),
                "contract": self.contract.name,
                "window": self.spec_config.window,
                "input_seeds": [a.seed, b.seed],
                "inputs": [enc(a), enc(b)],
                "htraces": [htrace_hex(self.htraces[0]), htrace_hex(self.htraces[1])],
                "diverging_sets": list(self.diverging_sets),
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ViolationReport":
        d = json.loads(text)
        witness = tuple(
            Input(r0=i["r0"], r1=i["r1"], r2=i["r2"], mem=bytes.fromhex(i["mem_hex"]), seed=i["seed"])
            for i in d["inputs"]
        )
        return cls(
            program=parse_program(d["program"]),
            contract=ContractSpec.from_name(d["contract"]),
            spec_config=SpecConfig(window=d["window"]),
            witness=witness,  # type: ignore[arg-type]
            htraces=tuple(int(h, 16) for h in d["htraces"]),  # type: ignore[arg-type]
            diverging_sets=tuple(d["diverging_sets"]),
        )


def boost_input(
    p: Program,
    base: Input,
    contract: ContractSpec,
    rng: Xorshift64Star,
    budget: int = DEFAULT_STEP_BUDGET,
    cells: dict | None = None,
    points: dict | None = None,
) -> Input | None:
    """Derive a contract-equivalent sibling of `base` for `p`.

    The sibling keeps the base's registers and gets fresh random memory. Each
    round first returns the sibling if its memory equals the base's at every
    address the base's contract trace loads; otherwise it simulates the
    sibling and copies the base's bytes at every address the sibling's own
    trace loads. Returns None if no round starts with that agreement within
    BOOST_ROUNDS rounds.

    The agreement proves the sibling's contract trace equals the base's
    without simulating it. Both runs start from the same registers, and
    every memory read (CT_COND's explored paths included) emits a load
    observation. By induction over steps, the runs read equal values at
    equal addresses, since stores write equal values to equal addresses
    and every other address read holds its initial value, on which the two
    agree. So the runs take the same path, emit the same trace and
    terminate alike.

    Every copy writes the base's bytes, so a round's sibling is the
    generator's bytes with the base's at the addresses copied before it.
    The agreement test is therefore one set inclusion: the addresses where
    the generator's bytes differ from the base's must all have been copied.

    `cells`, when given, must map every address that the base's contract
    trace loads to the base's 8 bytes there; it saves simulating the base
    and rebuilding that map in each call for one base input.

    `points`, when given, is a dict keyed by round index, each value
    (copied addresses, TracePoint, addresses the run loaded before the
    point). Round k's `contract_trace` resumes from entry k if no address
    that entry's run loaded before its point was copied in one of the two
    rounds and not in the other, and a round that terminates replaces
    entry k with what it captures, so the dict holds at most BOOST_ROUNDS
    entries. Each entry must have been captured by such a round, for the
    same base and a fresh `rng` of the same seed, on a prefix of `p`; one
    left by an earlier call on a prefix of `p` qualifies. The result is
    then the same as without them: the two siblings hold equal bytes at
    every address the stored run read before its point, so by the
    induction above the runs agree up to it, and the runs of a prefix and
    of `p` agree there too (see `contract_trace`).
    """
    if cells is None:
        base_trace = contract_trace(p, base, contract, budget)
        if base_trace is REJECTED:
            raise ValueError("boost_input requires a terminating base input")
        cells = _load_cells(base, base_trace)
    copied: set = set()
    fresh = rng.next_bytes(SANDBOX_SIZE)
    need = {addr for addr, cell in cells.items() if fresh[addr : addr + 8] != cell}
    mem = bytearray(fresh)
    for k in range(BOOST_ROUNDS):
        sibling = Input(r0=base.r0, r1=base.r1, r2=base.r2, mem=bytes(mem), seed=rng.seed)
        if need <= copied:
            return sibling
        start, before, resume, captured = 0, frozenset(), None, None
        if points is not None:
            captured = []
            stored = points.get(k)
            if stored is not None and not (copied ^ stored[0]) & stored[2]:
                _, resume, before = stored
                _, point_trace, _ = resume
                start = len(point_trace)
        tr = contract_trace(p, sibling, contract, budget, resume, captured)
        if tr is REJECTED:
            # No trace to guide the copy; pull the sibling toward the base's
            # path using the base's own load set instead.
            loads = cells.keys()
        elif captured:
            # A resumed run captures its point at or after the one it
            # resumed from, so the load set of the prefix up to it extends
            # `before` by the loads between the two.
            cut = len(captured[0].trace)
            point_loads = before | _load_set(tr[start:cut])
            points[k] = (frozenset(copied), captured[0], point_loads)
            loads = point_loads | _load_set(tr[cut:])
        else:
            loads = _load_set(tr)
        for addr in loads - copied:
            mem[addr : addr + 8] = base.mem[addr : addr + 8]
        copied.update(loads)
    return None


def _load_set(trace: tuple) -> set:
    """Every address that `trace` loads."""
    return {obs[1] for obs in trace if obs[0] == OBS_LOAD}


def _load_cells(base: Input, base_trace: tuple) -> dict:
    """The base's 8 bytes at every address its contract trace loads."""
    return {obs[1]: base.mem[obs[1] : obs[1] + 8] for obs in base_trace if obs[0] == OBS_LOAD}


def _filter_tier(observations: list[InputObservation]) -> str:
    """Classify measured observations as "none" (no misspeculation at all),
    "misspec", or "observable" (some transient access changed the probe
    vector relative to a speculation-free run)."""
    if all(o.br_misses == 0 and o.tran_uops == 0 for o in observations):
        return "none"
    if any(o.htrace != o.committed_htrace for o in observations):
        return "observable"
    return "misspec"


def detect_violation(
    p: Program,
    inputs: list[Input],
    contract: ContractSpec = ContractSpec(),
    cfg: SpecConfig = SpecConfig(),
    boosts_per_input: int = 2,
    seed: int = 0,
    budget: int = DEFAULT_STEP_BUDGET,
    exhaustive: bool = False,
    observations: list[InputObservation] | None = None,
    resume: ResumePoints | None = None,
):
    """Search for a contract violation of `p` over `inputs`.

    Builds contract-equivalence classes from the given inputs plus up to
    `boosts_per_input` boosted siblings each, and reports the first pair
    within a class whose hardware traces differ. Members are ordered by
    (input index, sibling index) so the witness is deterministic.

    Returns a ViolationReport, None, or REJECTED if `p` exhausts a simulator
    budget on any base input.

    `observations`, when given, must be what `observe(p, inputs, contract,
    cfg, budget)` returns for an accepted program, one per input: boosting
    takes the base inputs' contract traces from it. REJECTED or a list of
    another length raises ConfigError.

    The default mode gates on observability: when no base input shows an
    observable transient cache footprint, boosting is skipped and None
    returned. Committed accesses are fixed by the contract trace, so only
    transient accesses can diverge within a class; but the gate reads the
    base inputs only, and a boosted sibling can take a different transient
    path (a transient load reads a cell boosting never copies, and a later
    transient load uses that value as its address). The gate can therefore
    miss a violation. `exhaustive=True` disables that gate and always runs
    the full class construction; it exists as a test oracle.

    `resume`, when given, lets boosting resume its sibling runs. It holds
    one live entry per sibling stream (i, j), input index and sibling
    index, which a call that boosts updates in place: `arch[(i, j)]` is
    the stream's round points (see `boost_input`), and `hw[(i, j)]` is
    (bytes, HwPoint) for its last final sibling, which the next final
    sibling's `hw_run` resumes from only if its bytes are equal. A later
    call on an extension of `p` with equal inputs, contract, `cfg`,
    `budget` and `seed` gets the same result as without the store, since:
    - an entry that survives from an earlier boosted call was captured on
      a prefix of the store's program, which each call extends or `usable`
      hands out empty dicts, so on a prefix of `p`; the round rule is
      unchanged (see `boost_input`, `contract_trace` and `hw_run`);
    - a sibling is fixed by base i's registers, stream (i, j)'s seed and
      its bytes, so equal bytes mean an identical input;
    - each stream holds at most BOOST_ROUNDS round entries and one
      hardware entry, and no call builds a second store.
    Like every point, these hold no memory: their memory is the write log
    of the committed path's stores, over the sibling's bytes.
    """
    if not inputs:
        raise ConfigError("detect_violation needs at least one input")
    if not 1 <= boosts_per_input <= MAX_BOOSTS_PER_INPUT:
        raise ConfigError(f"boosts_per_input must be in 1..{MAX_BOOSTS_PER_INPUT}")
    if observations is None:
        observations = observe(p, inputs, contract, cfg, budget)
        if observations is REJECTED:
            return REJECTED
    elif observations is REJECTED or len(observations) != len(inputs):
        raise ConfigError("observations must hold one observation per input")

    if not exhaustive and _filter_tier(observations) != "observable":
        return None

    # classes[ctrace] = [(input, htrace)] over the base inputs, in input
    # order; classes keyed by ctrace in first-occurrence order
    classes: dict[tuple, list] = {}
    for inp, o in zip(inputs, observations):
        classes.setdefault(o.ctrace, []).append((inp, o.htrace))

    def report_from(ma, mb):
        (a, ha), (b, hb) = ma, mb
        diff = ha ^ hb
        return ViolationReport(
            program=p,
            contract=contract,
            spec_config=cfg,
            witness=(a, b),
            htraces=(ha, hb),
            diverging_sets=tuple(s for s in range(CACHE_SETS) if diff >> s & 1),
        )

    # pass 1: divergence among the base inputs. If any pair in a class
    # differs, the first member differs from someone: same witness as an
    # all-pairs scan.
    for members in classes.values():
        for m in members[1:]:
            if m[1] != members[0][1]:
                return report_from(members[0], m)

    # pass 2: boosted siblings, in (input index, sibling index) order. After
    # pass 1 a class shares its first member's htrace, and that member, at
    # (input i0, sibling 0), sorts before any sibling (i >= i0, j >= 1).
    if resume is not None:
        setting = (list(inputs), contract, cfg, budget, seed)
        rounds, finals = resume.usable(p, setting)
        resume.keep(p, setting, rounds, finals)
    points = hw_start = hw_points = None
    for i, (base, base_obs) in enumerate(zip(inputs, observations)):
        first = classes[base_obs.ctrace][0]
        cells = _load_cells(base, base_obs.ctrace)
        for j in range(1, boosts_per_input + 1):
            rng = Xorshift64Star(stream_seed(seed, (i << 8) | j))
            if resume is not None:
                points = rounds.setdefault((i, j), {})
            sibling = boost_input(p, base, contract, rng, budget, cells=cells, points=points)
            if sibling is None:
                continue
            if resume is not None:
                held = finals.get((i, j))
                hw_start = held[1] if held is not None and held[0] == sibling.mem else None
                hw_points = []
            hw = hw_run(p, sibling, cfg, budget, hw_start, hw_points)
            if hw_points:
                finals[(i, j)] = (sibling.mem, hw_points[0])
            if hw is REJECTED:
                continue  # cannot happen for a verified sibling, but stay safe
            if hw.htrace != first[1]:
                return report_from(first, (sibling, hw.htrace))
    return None
