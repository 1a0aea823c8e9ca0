"""Anatomy of a speculative leak.

Runs the planted witness program on the speculative hardware model, shows
the transient cache footprint and performance counters, and then lets the
relational detector produce (and re-validate) a violation report.
"""

from leaklab import ContractMode, ContractSpec, detect_violation, generate_inputs
from leaklab.harness import planted_fixture
from leaklab.uarch import htrace_hex, hw_run

program, env_cfg = planted_fixture()
print("planted program:")
for i, instr in enumerate(program):
    print(f"  {i}: {instr}")

inputs = generate_inputs(env_cfg.input_seed, env_cfg.num_inputs)

# Hardware view: the predictor resets weakly not-taken, SBB clears SF, so
# the JNS is taken but predicted not-taken. The fall-through load issues
# transiently, touches a cache set that depends on R2, and is squashed;
# the cache keeps the footprint.
print("\nper-input hardware runs (first 5 inputs):")
for i, inp in enumerate(inputs[:5]):
    r = hw_run(program, inp)
    c = r.counters
    print(
        f"  input {i}: probe={htrace_hex(r.htrace)} committed={htrace_hex(r.committed_htrace)}"
        f" br_misses={c.br_misses} tran_uops={c.tran_uops}"
    )

# All inputs share the contract trace (one taken-branch observation), so any
# probe-vector divergence between them is a Definition-style violation.
report = detect_violation(program, inputs)
print("\ndetector verdict: VIOLATION" if report else "no violation")
print(f"  diverging cache sets: {report.diverging_sets}")
print(f"  probe vectors: {htrace_hex(report.htraces[0])} vs {htrace_hex(report.htraces[1])}")
print(f"  report re-validates: {report.revalidate()}")

# Two control experiments. With the speculation window at zero nothing ever
# issues transiently, and a contract that exposes the speculated load makes
# equal-trace inputs share its address; both kill the witness.
no_spec = detect_violation(program, inputs, window=0)
print(f"\nwindow=0 -> {no_spec}")
covering = detect_violation(
    program, inputs, contract=ContractSpec(ContractMode.CT_COND, spec_depth=8)
)
print(f"covering CT-COND contract -> {covering}")
