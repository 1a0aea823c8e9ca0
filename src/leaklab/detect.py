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
    NON_TERMINATING,
    OBS_LOAD,
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
    REJECTED,
    InputObservation,
    SpecConfig,
    htrace_hex,
    hw_run,
    observe,
)

__all__ = [
    "BOOST_ROUNDS",
    "ViolationReport",
    "boost_input",
    "detect_violation",
]

BOOST_ROUNDS = 10


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
        if ct_a is NON_TERMINATING or ct_b is NON_TERMINATING or ct_a != ct_b:
            return False
        hw_a = hw_run(self.program, a, self.spec_config, budget)
        hw_b = hw_run(self.program, b, self.spec_config, budget)
        if hw_a is NON_TERMINATING or hw_b is NON_TERMINATING:
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
    base_trace: tuple | None = None,
    cells: dict | None = None,
) -> Input | None:
    """Derive a contract-equivalent sibling of `base` for `p`.

    The sibling keeps the base's registers and gets fresh random memory. Each
    round first returns the sibling if its memory equals the base's at every
    address `base_trace` loads; otherwise it simulates the sibling and copies
    the base's bytes at every address the sibling's own trace loads. Returns
    None if no round starts with that agreement within BOOST_ROUNDS rounds.

    The agreement proves the sibling's contract trace equals the base's
    without simulating it. Both runs start from the same registers, and
    every memory read (CT_COND's explored paths included) emits a load
    observation. By induction over steps, the runs read equal values at
    equal addresses, since stores write equal values to equal addresses
    and every other address read holds its initial value, on which the two
    agree. So the runs take the same path, emit the same trace and
    terminate alike.

    `base_trace`, when given, must be `contract_trace(p, base, contract,
    budget)`; it saves recomputing that trace. `cells`, when given, must map
    every address that trace loads to the base's 8 bytes there; it saves
    rebuilding that map in each call for one base input.
    """
    if cells is None:
        if base_trace is None:
            base_trace = contract_trace(p, base, contract, budget)
        if base_trace is NON_TERMINATING:
            raise ValueError("boost_input requires a terminating base input")
        cells = _load_cells(base, base_trace)
    mem = bytearray(rng.next_bytes(SANDBOX_SIZE))
    for _ in range(BOOST_ROUNDS):
        sibling = Input(r0=base.r0, r1=base.r1, r2=base.r2, mem=bytes(mem), seed=rng.seed)
        if all(mem[addr : addr + 8] == cell for addr, cell in cells.items()):
            return sibling
        tr = contract_trace(p, sibling, contract, budget)
        if tr is NON_TERMINATING:
            # No trace to guide the copy; pull the sibling toward the base's
            # path using the base's own load set instead.
            for addr, cell in cells.items():
                mem[addr : addr + 8] = cell
            continue
        for obs in tr:
            if obs[0] == OBS_LOAD:
                addr = obs[1]
                mem[addr : addr + 8] = base.mem[addr : addr + 8]
    return None


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
):
    """Search for a contract violation of `p` over `inputs`.

    Builds contract-equivalence classes from the given inputs plus up to
    `boosts_per_input` boosted siblings each, and reports the first pair
    within a class whose hardware traces differ. Members are ordered by
    (input index, sibling index) so the witness is deterministic.

    Returns a ViolationReport, None, or REJECTED if `p` exhausts a simulator
    budget on any base input.

    `observations`, when given, must be what `observe(p, inputs, contract,
    cfg, budget)` returns: boosting takes the base inputs' contract traces
    from it.

    The default mode gates on observability: when no base input shows an
    observable transient cache footprint, boosting is skipped and None
    returned. Committed accesses are fixed by the contract trace, so only
    transient accesses can diverge within a class; but the gate reads the
    base inputs only, and a boosted sibling can take a different transient
    path (a transient load reads a cell boosting never copies, and a later
    transient load uses that value as its address). The gate can therefore
    miss a violation. `exhaustive=True` disables that gate and always runs
    the full class construction; it exists as a test oracle.
    """
    if not inputs:
        raise ConfigError("detect_violation needs at least one input")
    if boosts_per_input < 1:
        raise ConfigError("boosts_per_input must be >= 1")
    if observations is None:
        observations = observe(p, inputs, contract, cfg, budget)
        if observations is REJECTED:
            return REJECTED

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
    for i, (base, base_obs) in enumerate(zip(inputs, observations)):
        first = classes[base_obs.ctrace][0]
        cells = _load_cells(base, base_obs.ctrace)
        for j in range(1, boosts_per_input + 1):
            rng = Xorshift64Star(stream_seed(seed, (i << 8) | j))
            sibling = boost_input(p, base, contract, rng, budget, cells=cells)
            if sibling is None:
                continue
            hw = hw_run(p, sibling, cfg, budget)
            if hw is NON_TERMINATING:
                continue  # cannot happen for a verified sibling, but stay safe
            if hw.htrace != first[1]:
                return report_from(first, (sibling, hw.htrace))
    return None
