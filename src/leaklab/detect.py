"""Relational leak detection.

A speculative leak is witnessed by two inputs with equal contract traces but
unequal hardware traces. Random inputs rarely share a contract trace once a
program reads memory, so each input is "boosted" (as in Revizor): a sibling
is derived with the same registers and fresh random memory, with the
original's bytes copied over at every address the original's contract trace
loads, so that the sibling provably produces the same contract trace.
Hardware-trace divergence inside such a class is a violation.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

from .arch import (
    DEFAULT_STEP_BUDGET,
    DEFAULT_WINDOW,
    OBS_LOAD,
    REJECTED,
    ContractSpec,
    Input,
    Xorshift64Star,
    contract_trace,
    stream_seed,
)
from .errors import ConfigError
from .isa import Program, parse_program, render_program
from .uarch import (
    CACHE_SETS,
    InputObservation,
    _is_quiet,
    htrace_hex,
    hw_run,
    observe,
)

__all__ = [
    "MAX_BOOSTS_PER_INPUT",
    "SIBLING_MEMO_SIZE",
    "ViolationReport",
    "boost_input",
    "detect_violation",
]

# Sibling j of input i draws from stream (i << 8) | j, which is one stream per
# sibling only while j fits in 8 bits.
MAX_BOOSTS_PER_INPUT = 255
# How many siblings `boost_input` keeps, and how many sibling runs
# `_sibling_htrace` holds, most recently used first: more than the 40 streams
# of a default env (20 inputs x 2 boosts), at 4 KB each.
SIBLING_MEMO_SIZE = 128

# sibling -> (chain point, window, budget, instrs, HwPoint) of the sibling's
# last run, least recently used first
_sibling_runs: OrderedDict = OrderedDict()


@dataclass(frozen=True)
class ViolationReport:
    """Witness for a contract violation: equal contract traces, unequal
    hardware traces. Everything needed to re-check the claim is kept."""

    program: Program
    contract: ContractSpec
    window: int
    witness: tuple[Input, Input]
    htraces: tuple[int, int]
    diverging_sets: tuple[int, ...]

    def __post_init__(self):
        if self.window < 0:
            raise ConfigError("speculation window must be >= 0")

    def revalidate(self, budget: int = DEFAULT_STEP_BUDGET) -> bool:
        """Re-simulate both witnesses from scratch and confirm the claim."""
        a, b = self.witness
        ct_a = contract_trace(self.program, a, self.contract, budget)
        ct_b = contract_trace(self.program, b, self.contract, budget)
        if ct_a is REJECTED or ct_b is REJECTED or ct_a != ct_b:
            return False
        hw_a = hw_run(self.program, a, self.window, budget)
        hw_b = hw_run(self.program, b, self.window, budget)
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
                "window": self.window,
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
            window=d["window"],
            witness=witness,  # type: ignore[arg-type]
            htraces=tuple(int(h, 16) for h in d["htraces"]),  # type: ignore[arg-type]
            diverging_sets=tuple(d["diverging_sets"]),
        )


@lru_cache(maxsize=SIBLING_MEMO_SIZE)
def boost_input(base: Input, loads: frozenset, seed: int, index: int) -> Input:
    """Derive a contract-equivalent sibling of `base` on sibling stream
    `index` under detection seed `seed`, where `loads` is the frozenset of
    addresses that the base's contract trace loads.

    The sibling keeps the base's registers and takes the stream's fresh
    SANDBOX_SIZE bytes, from `Xorshift64Star(stream_seed(seed, index))`, as
    memory, with the base's bytes written over them at every address in
    `loads`. Boosting never fails and simulates nothing.

    The sibling's contract trace equals the base's. Both runs start from the
    same registers, and every memory read (CT_COND's explored paths
    included) emits a load observation. By induction over steps, the runs
    read equal values at equal addresses: stores write equal values to equal
    addresses, and every other address read is one the base's trace loads,
    where the two start with equal bytes. So the runs take the same path,
    emit the same trace and terminate alike.

    The sibling is a function of its arguments alone, so it comes from a
    memo of the SIBLING_MEMO_SIZE most recently used argument tuples: a
    repeated call returns the same object and draws no bytes. The memo keys
    a keyword call apart from a positional one.
    """
    rng = Xorshift64Star(stream_seed(seed, index))
    mem = bytearray(rng.next_bytes())
    for addr in loads:
        mem[addr : addr + 8] = base.mem[addr : addr + 8]
    return Input(r0=base.r0, r1=base.r1, r2=base.r2, mem=bytes(mem), seed=rng.seed)


def _sibling_htrace(p: Program, sibling: Input, window: int, budget: int, chain) -> int:
    """The probe vector of `sibling`'s `hw_run` of `p` resumed from its
    base's chain point `chain`.

    The run starts from the point that the sibling's last run captured
    instead, when that run started from this very chain point (`is`: equal
    points from other runs are not looked for) with the same window and
    budget, on a prefix of `p`. That is exact (see `hw_run`): the point is
    where the run from `chain` of that prefix ended, with the windows still
    open there, and the run of `p` continues them and then its committed
    path. The last SIBLING_MEMO_SIZE siblings run keep their runs' points.
    """
    start = chain
    held = _sibling_runs.pop(sibling, None)
    if held is not None:
        held_chain, held_window, held_budget, instrs, point = held
        if (held_chain is chain and (held_window, held_budget) == (window, budget)
                and p.instrs[: len(instrs)] == instrs):
            start = point
    capture = []
    htrace = hw_run(p, sibling, window, budget, start, capture).htrace
    _sibling_runs[sibling] = (chain, window, budget, p.instrs, capture[0])
    if len(_sibling_runs) > SIBLING_MEMO_SIZE:
        _sibling_runs.popitem(last=False)
    return htrace


def _load_set(trace: tuple) -> frozenset:
    """Every address that `trace` loads."""
    return frozenset({obs[1] for obs in trace if obs[0] == OBS_LOAD})


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
    window: int = DEFAULT_WINDOW,
    boosts_per_input: int = 2,
    seed: int = 0,
    budget: int = DEFAULT_STEP_BUDGET,
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
    window, budget)` returns for an accepted program, one per input: boosting
    takes the base inputs' contract traces and chain points from it.
    REJECTED or a list of another length raises ConfigError.

    Without `observations`, the call first settles what the program's text
    alone decides, and runs `observe` only when neither rule does; the
    result is the same either way. A program with no control-flow path
    from pc 0 to its end (`p.can_halt` is False) halts on no input, so
    every contract trace is REJECTED, and so is the call: nothing runs. A
    program is quiet when no mispredicted window can issue a memory access
    (`uarch._is_quiet`). A window's instructions are fixed by its start,
    since a JNS ends it and JMP targets are static, so a quiet program
    issues no transient access on any input: each probe vector is its
    committed part, the gate's tier is never "observable", and no window is
    a chain. `hw_run` rejects exactly the runs `contract_trace`
    rejects with the same budget. So a quiet program runs only its contract
    traces, in input order: REJECTED at the first rejected one, and None
    otherwise.

    Detection gates on observability: when no base input shows an
    observable transient cache footprint, it boosts nothing and returns
    None. Committed accesses are fixed by the contract trace, so only
    transient accesses can diverge within a class; but the gate reads the
    base inputs only, and a boosted sibling can take a different transient
    path (a transient load reads a cell boosting never copies, and a later
    transient load uses that value as its address). The gate can therefore
    miss a violation: the tests pin one, GATE_GAP. An exact gate ("some
    base is observable or has a chain") finds it, but on the random search
    it reported nothing more, boosted on a fifth of all calls, which this
    gate stops, and ran a sixth slower (see the README).

    A sibling's probe vector comes from its base's observation, never from
    a run from the reset. The sibling has the base's registers and the
    base's bytes at every address the base's contract trace loads, so (see
    `hw_run`) its hardware run equals the base's, except in memory, up to
    the base's first mispredicted chain window. With no chain
    (`base_obs.chain` is None) the sibling's probe vector is the base's;
    otherwise it is that of the sibling's `hw_run` resumed from the chain
    point. That run terminates, since it commits the base's path, which
    terminates within `budget`. It continues from where the sibling's last
    run from the same chain point stopped, when that run was of a prefix of
    `p` (`_sibling_htrace`): on an env step whose appended instruction kept
    the sibling and its base's chain point, only the new end is simulated.
    Only a call given `observations` holds its sibling runs: a call that
    observes `p` itself finds new chain points, so no later call could
    resume from what it held. Each base's load set is built once per call,
    for all its streams.
    """
    if not inputs:
        raise ConfigError("detect_violation needs at least one input")
    if not 1 <= boosts_per_input <= MAX_BOOSTS_PER_INPUT:
        raise ConfigError(f"boosts_per_input must be in 1..{MAX_BOOSTS_PER_INPUT}")
    if window < 0:
        raise ConfigError("speculation window must be >= 0")
    # only an env step's siblings can meet their held runs again: a call
    # that observes `p` itself finds new chain points
    hold = observations is not None
    if observations is None:
        if budget < 1:
            raise ConfigError("budget must be >= 1")
        if not p.can_halt:
            return REJECTED
        if _is_quiet(p.instrs, window):
            for inp in inputs:
                if contract_trace(p, inp, contract, budget) is REJECTED:
                    return REJECTED
            return None
        observations = observe(p, inputs, contract, window, budget)
        if observations is REJECTED:
            return REJECTED
    elif observations is REJECTED or len(observations) != len(inputs):
        raise ConfigError("observations must hold one observation per input")

    if _filter_tier(observations) != "observable":
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
            window=window,
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
        loads = _load_set(base_obs.ctrace)
        for j in range(1, boosts_per_input + 1):
            sibling = boost_input(base, loads, seed, (i << 8) | j)
            if base_obs.chain is None:
                htrace = base_obs.htrace
            elif hold:
                htrace = _sibling_htrace(p, sibling, window, budget, base_obs.chain)
            else:
                htrace = hw_run(p, sibling, window, budget, base_obs.chain).htrace
            if htrace != first[1]:
                return report_from(first, (sibling, htrace))
    return None
