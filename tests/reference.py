"""A from-scratch relational detector, the tests' oracle for
`detect_violation`.

It shares nothing with the product's detector but the two simulators, the
stream generator and the report type: every member's contract trace and
probe vector come from runs from the reset, and each sibling is derived
here from its stream. It has no observability gate and no chain rule, so it
sees what they miss.
"""

from leaklab.arch import (
    DEFAULT_STEP_BUDGET,
    SANDBOX_SIZE,
    ContractSpec,
    Input,
    Xorshift64Star,
    contract_trace,
    stream_seed,
)
from leaklab.detect import ViolationReport
from leaklab.uarch import CACHE_SETS, REJECTED, SpecConfig, hw_run


def reference_sibling(base: Input, base_trace: tuple, seed: int, index: int) -> Input:
    """Stream `index`'s fresh bytes under `seed`, with the base's bytes at
    every address that `base_trace` loads, and the base's registers."""
    mem = bytearray(Xorshift64Star(stream_seed(seed, index)).next_bytes(SANDBOX_SIZE))
    for obs in base_trace:
        if obs[0] == "L":
            mem[obs[1] : obs[1] + 8] = base.mem[obs[1] : obs[1] + 8]
    return Input(base.r0, base.r1, base.r2, bytes(mem), stream_seed(seed, index))


def reference_violation(
    p,
    inputs,
    contract=ContractSpec(),
    cfg=SpecConfig(),
    boosts_per_input=2,
    seed=0,
    budget=DEFAULT_STEP_BUDGET,
):
    """The first witness in `detect_violation`'s documented order, found
    without a gate: pass 1 compares each class of base inputs, in order of
    first occurrence, with its first member; pass 2 compares sibling j of
    input i, in (i, j) order, with the first member of its own contract
    trace's class. Returns a ViolationReport, None, or REJECTED if some base
    input exhausts a simulator's budget."""
    members = []  # (input, contract trace, probe vector) of each base input
    for inp in inputs:
        trace = contract_trace(p, inp, contract, budget)
        run = hw_run(p, inp, cfg, budget)
        if trace is REJECTED or run is REJECTED:
            return REJECTED
        members.append((inp, trace, run.htrace))

    classes = {}  # contract trace -> the class's members, in input order
    for member in members:
        classes.setdefault(member[1], []).append(member)
    for head, *rest in classes.values():
        for member in rest:
            if member[2] != head[2]:
                return _report(p, contract, cfg, head, member)

    for i, (base, base_trace, _) in enumerate(members):
        for j in range(1, boosts_per_input + 1):
            sibling = reference_sibling(base, base_trace, seed, (i << 8) | j)
            trace = contract_trace(p, sibling, contract, budget)
            run = hw_run(p, sibling, cfg, budget)
            assert trace is not REJECTED and run is not REJECTED, "a sibling's run did not terminate"
            head = classes.setdefault(trace, [(sibling, trace, run.htrace)])[0]
            if run.htrace != head[2]:
                return _report(p, contract, cfg, head, (sibling, trace, run.htrace))
    return None


def _report(p, contract, cfg, a, b) -> ViolationReport:
    diff = a[2] ^ b[2]
    return ViolationReport(
        program=p,
        contract=contract,
        spec_config=cfg,
        witness=(a[0], b[0]),
        htraces=(a[2], b[2]),
        diverging_sets=tuple(s for s in range(CACHE_SETS) if diff >> s & 1),
    )
