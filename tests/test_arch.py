import hashlib
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leaklab.arch import (
    MASK64,
    REJECTED,
    SANDBOX_SIZE,
    ArchState,
    ContractMode,
    ContractSpec,
    Input,
    Xorshift64Star,
    contract_trace,
    generate_inputs,
    input_from_seed,
    load_input,
    mix64,
    step_instruction,
    stream_seed,
)
from leaklab.errors import ConfigError
from leaklab.harness import scaling_action_config
from leaklab.isa import (
    ActionSpaceConfig,
    Instruction,
    Mem,
    Opcode,
    Program,
    Register,
    build_action_space,
    parse_program,
)

from conftest import input_blob, make_input, memory

R0, R1, R2 = Register.R0, Register.R1, Register.R2
CT_SEQ = ContractSpec(ContractMode.CT_SEQ)

M64 = (1 << 64) - 1


def _state(r0=0, r1=0, r2=0, sf=1, cf=0, zf=0, pc=0) -> ArchState:
    return ArchState([r0, r1, r2, 0], sf, cf, zf, pc, bytes(SANDBOX_SIZE))


def _step(state: ArchState, instr: Instruction, n: int):
    """step_instruction on a copy of `state`: (new state, observations)."""
    new = state.copy(state.mem)
    return new, step_instruction(new, instr, n)


def test_sbb_self_is_zero():
    s = _state(r0=12345, cf=0)
    new, obs = _step(s, Instruction(Opcode.SBB, dst=R0, src=R0), 1)
    assert new.regs[0] == 0
    assert (new.zf, new.sf, new.cf) == (1, 0, 0)
    assert obs == ()  # no PC observation: not a branch


def test_sbb_self_with_borrow():
    s = _state(r0=7, cf=1)
    new, _ = _step(s, Instruction(Opcode.SBB, dst=R0, src=R0), 1)
    assert new.regs[0] == M64
    assert (new.sf, new.cf, new.zf) == (1, 1, 0)


def test_load_address_wraps_and_aligns():
    s = _state(r1=4100)
    new, obs = _step(s, Instruction(Opcode.SBB, dst=R0, src=Mem(R1)), 1)
    # 4100 mod 4096 = 4, aligned down to 8 = 0
    assert obs == (("L", 0),)


def test_memory_destination_is_read_modify_write():
    s = _state(r0=1, r1=16)
    s.written[16] = 100
    new, obs = _step(s, Instruction(Opcode.SBB, dst=Mem(R1), src=R0), 1)
    assert obs == (("L", 16), ("S", 16))
    assert new.written == {16: 99}
    assert s.written == {16: 100}
    assert new.mem is s.mem == bytes(SANDBOX_SIZE)  # a store never writes the input's bytes


def test_imul_flags():
    s = _state(r0=3, r1=5)
    new, _ = _step(s, Instruction(Opcode.IMUL, dst=R0, src=R1), 1)
    assert new.regs[0] == 15
    assert (new.sf, new.cf, new.zf) == (0, 0, 0)

    # -1 * -1 = 1 fits; (2^62) * 4 overflows signed 64
    s = _state(r0=M64, r1=M64)
    new, _ = _step(s, Instruction(Opcode.IMUL, dst=R0, src=R1), 1)
    assert new.regs[0] == 1 and new.cf == 0

    s = _state(r0=1 << 62, r1=4)
    new, _ = _step(s, Instruction(Opcode.IMUL, dst=R0, src=R1), 1)
    assert new.cf == 1


def test_jns_taken_iff_sf_clear():
    s = _state(sf=0)
    new, obs = _step(s, Instruction(Opcode.JNS, disp=2), 5)
    assert obs == (("P", 2, 1),)
    assert obs[0][2] == 1  # the taken bit
    assert new.pc == 2

    s = _state(sf=1)
    new, obs = _step(s, Instruction(Opcode.JNS, disp=2), 5)
    assert obs == (("P", 2, 0),)
    assert obs[0][2] == 0
    assert new.pc == 1


def test_jmp_always_taken_and_clamped():
    s = _state(pc=0)
    new, obs = _step(s, Instruction(Opcode.JMP, disp=-2), 3)
    assert obs == (("P", -2, 1),)  # observation keeps the raw target
    assert new.pc == 0  # execution clamps into [0, n]
    assert obs[0][2] == 1


def test_empty_program_trace_is_empty():
    assert contract_trace(Program(), make_input(), CT_SEQ) == ()


def test_self_loop_hits_budget():
    p = parse_program("JMP -2")
    assert contract_trace(p, make_input(), CT_SEQ) is REJECTED
    assert contract_trace(p, make_input(), CT_SEQ, step_budget=17) is REJECTED


def test_planted_program_trace_seq_and_cond():
    # SBB R0,R0 clears SF, so JNS +2 is taken with raw target 1+2=3, which
    # clamps to the program end; the load at index 2 never runs sequentially.
    p = parse_program("SBB R0, R0\nJNS +2\nSBB R1, [BASE+R2]")
    inp = make_input(r2=130)
    seq = contract_trace(p, inp, CT_SEQ)
    assert seq == (("P", 3, 1),)
    # CT_COND additionally explores the fall-through and sees the load of
    # [BASE+R2]: 130 mod 4096 aligned down to 8 = 128.
    cond = contract_trace(p, inp, ContractSpec(ContractMode.CT_COND, spec_depth=8))
    assert cond == (("P", 3, 1), ("L", 128))


def test_cond_exploration_restores_state():
    p = parse_program("SBB R0, R0\nJNS +2\nSBB [BASE+R1], R0")
    inp = make_input(r1=64, mem_byte=7)
    cond = contract_trace(p, inp, ContractSpec(ContractMode.CT_COND, spec_depth=4))
    seq = contract_trace(p, inp, CT_SEQ)
    # the explored store shows up in the trace but not in any later behavior
    assert ("S", 64) in cond
    assert seq == tuple(o for o in cond if o[1] != 64)


def test_explored_path_runs_through_a_branch():
    # SBB R0,R0 clears SF, so JNS +4 is taken to the end (raw target 5).
    # CT_COND explores its fall-through from pc 2. The JNS +2 there runs
    # (taken, raw target 4) and counts toward the depth, but its own other
    # direction is not explored: the load of [BASE+R1] at pc 3 never shows.
    # The path goes on to the load of [BASE+R2] at pc 4 and ends.
    p = parse_program("SBB R0, R0\nJNS +4\nJNS +2\nSBB R1, [BASE+R1]\nSBB R1, [BASE+R2]")
    inp = make_input(r1=64, r2=130)
    deep, shallow = (ContractSpec(ContractMode.CT_COND, spec_depth=d) for d in (8, 1))
    assert contract_trace(p, inp, deep) == (("P", 5, 1), ("P", 4, 1), ("L", 128))
    assert contract_trace(p, inp, shallow) == (("P", 5, 1), ("P", 4, 1))


def test_budget_soundness():
    p = parse_program("SBB R0, R0\nJNS -2\nSBB R1, R1")
    inp = make_input(r0=99)
    small = contract_trace(p, inp, CT_SEQ, step_budget=5000)
    big = contract_trace(p, inp, CT_SEQ, step_budget=50_000)
    if small is not REJECTED:
        assert small == big


def _reference_trace(p: Program, inp: Input, contract: ContractSpec, budget: int):
    """contract_trace with no loop detection: every run goes to the budget.
    CT_COND's other direction runs on a discarded copy of the state."""
    instrs = p.instrs
    n = len(instrs)
    state = ArchState.from_input(inp)
    trace: list = []
    steps = 0
    while state.pc < n:
        if steps >= budget:
            return REJECTED
        branch_pc = state.pc
        instr = instrs[branch_pc]
        obs = step_instruction(state, instr, n)
        trace.extend(obs)
        if contract.mode is ContractMode.CT_COND and instr.opcode is Opcode.JNS:
            shadow = state.copy(state.mem)
            shadow.pc = branch_pc + 1 if obs[0][2] else min(max(branch_pc + instr.disp, 0), n)
            for _ in range(contract.spec_depth):
                if shadow.pc >= n:
                    break
                trace.extend(step_instruction(shadow, instrs[shadow.pc], n))
        steps += 1
    return tuple(trace)


def test_store_between_repeats_is_not_a_loop():
    # At each JNS the registers and flags repeat, but the store has changed
    # memory, so the run is not periodic: it leaves the loop on the fourth
    # pass. Comparing registers alone would report REJECTED.
    p = parse_program("SBB [BASE+R2], R0\nJNS -2\nSBB R0, [BASE+R2]")
    inp = input_from_seed(263010161)
    trace = contract_trace(p, inp, CT_SEQ)
    assert trace is not REJECTED
    assert len(trace) == 13
    assert trace == _reference_trace(p, inp, CT_SEQ, 300)


SCALING_MENU = build_action_space(scaling_action_config())
CONTRACTS = [CT_SEQ] + [ContractSpec(ContractMode.CT_COND, spec_depth=d) for d in range(1, 9)]
# a loop whose state never repeats: R1 counts down through the loaded word
COUNTING_LOOP = parse_program("SBB R1, [BASE+R2]\nJMP -1")


@settings(max_examples=300, deadline=None)
@given(
    menu=st.sampled_from([build_action_space(), SCALING_MENU]),
    picks=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=16),
    contract=st.sampled_from(CONTRACTS),
    budget=st.sampled_from([1, 7, 300, 10_000]),
    seed=st.integers(0, M64),
)
@example(
    menu=build_action_space(ActionSpaceConfig(COUNTING_LOOP.instrs)),
    picks=[0, 1],
    contract=CT_SEQ,
    budget=10_000,
    seed=1,
)
def test_loop_exit_matches_reference(menu, picks, contract, budget, seed):
    p = Program(tuple(menu[i % menu.size] for i in picks))
    inp = input_from_seed(seed)
    assert contract_trace(p, inp, contract, budget) == _reference_trace(p, inp, contract, budget)


@settings(max_examples=300, deadline=None)
@given(
    menu=st.sampled_from([build_action_space(), SCALING_MENU]),
    picks=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=32),
    seed=st.integers(0, M64),
)
@example(menu=build_action_space(ActionSpaceConfig(COUNTING_LOOP.instrs)), picks=[0, 1], seed=1)
def test_rejected_run_stops_within_two_passes(menu, picks, seed):
    # A program with no path to its end is rejected within 2 * len(p)
    # steps whatever the budget: the first non-forward move takes the
    # cycle check's snapshot and the second consults can_halt.
    from leaklab import arch

    p = Program(tuple(menu[i % menu.size] for i in picks))
    if p.can_halt:
        return
    calls = 0
    step = arch.step_instruction

    def counting(*args):
        nonlocal calls
        calls += 1
        return step(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arch, "step_instruction", counting)
        assert contract_trace(p, input_from_seed(seed), CT_SEQ, 10_000) is REJECTED
    assert calls <= 2 * len(p)


@pytest.mark.parametrize("text", ["SBB R2, R2\nJMP -1", "JMP -2"])
def test_periodic_run_exits_early(text, monkeypatch):
    # "JMP -2" at pc 0 clamps to pc 0: a loop with no backward move
    from leaklab import arch

    calls = 0
    step = arch.step_instruction

    def counting(*args):
        nonlocal calls
        calls += 1
        return step(*args)

    monkeypatch.setattr(arch, "step_instruction", counting)
    assert contract_trace(parse_program(text), input_from_seed(1), CT_SEQ, 10**6) is REJECTED
    assert calls <= 30


def test_prefix_monotonicity_loop_free():
    # For programs with only forward branches, the trace of a prefix that
    # terminates is a prefix of the next longer program's trace.
    rng = random.Random(7)
    from leaklab.isa import build_action_space

    space = build_action_space()
    forward = [a for a in space.actions if not a.is_branch or a.disp > 0]
    for _ in range(100):
        instrs = tuple(rng.choice(forward) for _ in range(rng.randrange(1, 10)))
        inp = input_from_seed(rng.randrange(1 << 32))
        prev = None
        for i in range(1, len(instrs) + 1):
            cur = contract_trace(Program(instrs[:i]), inp, CT_SEQ)
            assert cur is not REJECTED
            if prev is not None:
                assert cur[: len(prev)] == prev
            prev = cur


def test_sandbox_totality():
    rng = random.Random(11)
    from leaklab.isa import build_action_space

    space = build_action_space()
    for _ in range(200):
        instrs = tuple(space[rng.randrange(space.size)] for _ in range(rng.randrange(1, 8)))
        inp = input_from_seed(rng.randrange(1 << 32))
        tr = contract_trace(Program(instrs), inp, CT_SEQ, step_budget=500)
        if tr is REJECTED:
            continue
        for obs in tr:
            if obs[0] in ("L", "S"):
                assert 0 <= obs[1] < SANDBOX_SIZE
                assert obs[1] % 8 == 0


@pytest.mark.parametrize(
    "contract",
    [CT_SEQ] + [ContractSpec(ContractMode.CT_COND, spec_depth=d) for d in range(1, 17)],
    ids=lambda c: c.name,
)
def test_contract_name_round_trip(contract):
    assert ContractSpec.from_name(contract.name) == contract


def test_contract_from_name_defaults_and_errors():
    assert ContractSpec.from_name("ct-cond") == ContractSpec(ContractMode.CT_COND)
    for bad in ("ct-cond:x", "ct-cond:0", "ct-foo", "ct-seq:1", "ct-cond:", "ct-cond:-1",
                "ct-cond:08", "ct-cond:0008", "ct-cond:" + "1" * 5000, {"mode": "ct-seq"}, None, 8):
        with pytest.raises(ConfigError):
            ContractSpec.from_name(bad)


def test_contract_has_one_value_per_meaning():
    # CT-SEQ explores nothing, so its depth is 0 however it is built, and a
    # nonzero one is refused; CT-COND's default depth is 8
    assert ContractSpec() == ContractSpec(ContractMode.CT_SEQ, 0) == ContractSpec.from_name("ct-seq")
    assert ContractSpec().spec_depth == 0
    assert hash(ContractSpec()) == hash(ContractSpec.from_name("ct-seq"))
    assert ContractSpec(ContractMode.CT_COND) == ContractSpec(ContractMode.CT_COND, 8)
    for depth in (-7, -1, 1, 3, 8):
        with pytest.raises(ConfigError, match="CT_SEQ"):
            ContractSpec(ContractMode.CT_SEQ, depth)


def test_generate_inputs_deterministic():
    a = generate_inputs(seed=42, count=20)
    b = generate_inputs(seed=42, count=20)
    assert len(a) == 20
    assert a == b
    c = generate_inputs(seed=43, count=20)
    assert a != c
    with pytest.raises(ConfigError):
        generate_inputs(seed=42, count=1)


def test_input_expansion_matches_documented_prng():
    # Independent re-derivation of the documented scheme: xorshift64* seeded
    # through the splitmix64 finalizer; registers first, then 512 words.
    def smix(x):
        m = (1 << 64) - 1
        x &= m
        x ^= x >> 30
        x = (x * 0xBF58476D1CE4E5B9) & m
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & m
        return x ^ (x >> 31)

    def xs_stream(seed, k):
        m = (1 << 64) - 1
        s = smix(seed) or 0x9E3779B97F4A7C15
        out = []
        for _ in range(k):
            s ^= s >> 12
            s ^= (s << 25) & m
            s ^= s >> 27
            out.append((s * 0x2545F4914F6CDD1D) & m)
        return out

    sub = stream_seed(42, 0)
    expected = xs_stream(sub, 3)
    inp = generate_inputs(seed=42, count=2)[0]
    assert [inp.r0, inp.r1, inp.r2] == expected
    assert inp.seed == sub
    assert input_from_seed(sub) == inp


def test_input_expansion_frozen_values():
    # Snapshot of the expansion for seed 42; guards the documented format
    # against accidental reshuffling.
    inp = generate_inputs(seed=42, count=2)[0]
    assert inp.r0 == 0x7D4344F3125DD760
    assert inp.r1 == 0xEF618471E40B1792
    assert inp.r2 == 0xBB97623FE2FB5D19
    assert inp.mem[:8] == (0x3499EFDE712FDC19).to_bytes(8, "little")
    assert hashlib.sha256(inp.mem).hexdigest() == (
        "d7ebf7a3431c0bdf28fa2f2e60183f70e5d78c20a90ae84c7e65d4ecbec4de22"
    )


def _generator_at(state: int) -> Xorshift64Star:
    rng = Xorshift64Star(0)
    rng.state = state
    return rng


def _check_next_bytes_against_loop(state: int):
    fast, slow = _generator_at(state), _generator_at(state)
    expected = b"".join(slow.next_u64().to_bytes(8, "little") for _ in range(SANDBOX_SIZE // 8))
    assert fast.next_bytes() == expected
    assert fast.state == slow.state
    assert fast.next_u64() == slow.next_u64()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, M64))
def test_next_bytes_matches_next_u64_loop(state):
    _check_next_bytes_against_loop(state)


@pytest.mark.parametrize("advance", [0, 3])
def test_next_bytes_memo_matches_next_u64_loop(advance):
    # a new generator and one already advanced, with the memo cold, then warm
    from leaklab import arch

    arch._expand.cache_clear()
    for _ in range(2):
        fast, slow = Xorshift64Star(77), Xorshift64Star(77)
        for _ in range(advance):
            assert fast.next_u64() == slow.next_u64()
        expected = b"".join(slow.next_u64().to_bytes(8, "little") for _ in range(SANDBOX_SIZE // 8))
        assert fast.next_bytes() == expected
        assert fast.state == slow.state
        assert fast.next_u64() == slow.next_u64()
    assert arch._expand.cache_info()[:2] == (1, 1)  # (hits, misses)


def test_next_bytes_memo_stays_within_its_cap():
    from leaklab import arch

    arch._expand.cache_clear()
    cap = arch._expand.cache_info().maxsize
    for seed in list(range(cap + 10)) + [0, 1]:
        _check_next_bytes_against_loop(Xorshift64Star(seed).state)
        assert arch._expand.cache_info().currsize <= cap
    assert arch._expand.cache_info().currsize == cap


def test_input_dump_load_round_trip():
    inp = generate_inputs(seed=5, count=2)[1]
    blob = input_blob(inp)
    assert len(blob) == 24 + SANDBOX_SIZE
    back = load_input(blob)
    assert (back.r0, back.r1, back.r2, back.mem) == (inp.r0, inp.r1, inp.r2, inp.mem)
    with pytest.raises(ValueError):
        load_input(blob[:100])


def test_input_from_a_bytearray_holds_bytes_and_hashes():
    # a bytearray-backed Input was unhashable, so it could not key the
    # sibling memo, and writing the bytearray changed the Input
    raw = bytearray(generate_inputs(seed=5, count=2)[0].mem)
    inp = Input(r0=1, r1=2, r2=3, mem=raw)
    assert type(inp.mem) is bytes and inp.mem == raw
    assert hash(inp) == hash(Input(r0=1, r1=2, r2=3, mem=bytes(raw)))
    raw[0] ^= 1
    assert inp.mem != raw
    mem = bytes(SANDBOX_SIZE)
    assert Input(r0=0, r1=0, r2=0, mem=mem).mem is mem


@pytest.mark.parametrize("reg", ["r0", "r1", "r2"])
@pytest.mark.parametrize("value", [-1, 1 << 64, (1 << 64) + 5])
def test_input_rejects_out_of_range_registers(reg, value):
    regs = {"r0": 0, "r1": 0, "r2": 0, reg: value}
    with pytest.raises(ValueError, match="registers"):
        Input(**regs, mem=bytes(SANDBOX_SIZE))
    with pytest.raises(ValueError, match="registers"):
        replace(make_input(), **{reg: value})
    top = replace(make_input(), **{reg: MASK64})
    assert getattr(top, reg) == MASK64
    assert load_input(input_blob(top)) == top


def test_trace_is_pure():
    p = parse_program("SBB R1, [BASE+R2]\nJNS +2")
    inp = make_input(r2=512, mem_byte=3)
    t1 = contract_trace(p, inp, CT_SEQ)
    t2 = contract_trace(p, inp, CT_SEQ)
    assert t1 == t2


# --- step_instruction against the documented semantics ---------------------

ALL_REGS = (R0, R1, R2, Register.BASE)


def _valid(opcode, dst=None, src=None, disp=None):
    try:
        return [Instruction(opcode, dst=dst, src=src, disp=disp)]
    except ValueError:
        return []


ALL_INSTRUCTIONS = tuple(
    [i for op in (Opcode.JNS, Opcode.JMP) for d in (-3, -2, -1, 1, 2, 3) for i in _valid(op, disp=d)]
    + [
        i
        for op in (Opcode.SBB, Opcode.IMUL)
        for d in ALL_REGS
        for s in ALL_REGS
        for dst, src in ((d, s), (d, Mem(s)), (Mem(d), s))
        for i in _valid(op, dst, src)
    ]
)

WORDS = st.one_of(
    st.integers(0, M64),
    st.sampled_from([0, 1, 7, 8, 4095, 4096, 4100, (1 << 63) - 1, 1 << 63, M64]),
)


def _reference_step(regs, flags, pc, mem, instr, n):
    """One step written from the module docstring, on copies of the state."""
    regs, mem = list(regs), bytearray(mem)
    sf, cf, zf = flags
    if instr.opcode in (Opcode.JNS, Opcode.JMP):
        taken = int(instr.opcode is Opcode.JMP or sf == 0)
        target = pc + instr.disp
        new_pc = min(max(target, 0), n) if taken else pc + 1
        return regs, flags, new_pc, mem, (("P", target, taken),)

    def operand(op):
        if isinstance(op, Mem):
            addr = (regs[op.index] % SANDBOX_SIZE) & ~7
            return int.from_bytes(mem[addr : addr + 8], "little"), addr
        return regs[op], None

    s, src_addr = operand(instr.src)
    d, dst_addr = operand(instr.dst)
    if instr.opcode is Opcode.SBB:
        full = d - s - cf
        res, cf = full % (1 << 64), int(full < 0)  # CF = borrow out
    else:
        signed = lambda x: x - (1 << 64) if x >> 63 else x  # noqa: E731
        prod = signed(d) * signed(s)
        res, cf = prod % (1 << 64), int(not -(1 << 63) <= prod < (1 << 63))
    flags = (res >> 63, cf, int(res == 0))
    if dst_addr is None:
        regs[instr.dst] = res
        obs = (("L", src_addr),) if src_addr is not None else ()
    else:
        mem[dst_addr : dst_addr + 8] = res.to_bytes(8, "little")
        obs = (("L", dst_addr), ("S", dst_addr))
    return regs, flags, pc + 1, mem, obs


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(ALL_INSTRUCTIONS),
    st.tuples(WORDS, WORDS, WORDS),
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
    st.integers(1, 12),
    st.data(),
)
def test_step_instruction_matches_reference(instr, r, flags, n, data):
    pc = data.draw(st.integers(0, n - 1))
    mem = random.Random(data.draw(st.integers(0, 1 << 32))).randbytes(SANDBOX_SIZE)
    # earlier stores, often at the addresses the registers point to
    near = st.sampled_from([(x % SANDBOX_SIZE) & ~7 for x in r])
    addrs = st.one_of(near, st.integers(0, SANDBOX_SIZE // 8 - 1).map(lambda i: 8 * i))
    written = data.draw(st.dictionaries(addrs, WORDS, max_size=4))
    regs = [*r, 0]
    state = ArchState(regs[:], *flags, pc, mem, dict(written))
    before = memory(state)
    want_regs, want_flags, want_pc, want_mem, want_obs = _reference_step(regs, flags, pc, before, instr, n)

    obs = step_instruction(state, instr, n)
    assert obs == want_obs
    assert (state.regs, (state.sf, state.cf, state.zf), state.pc) == (want_regs, want_flags, want_pc)
    assert memory(state) == want_mem
    assert state.mem is mem  # stores go to the write log alone
    stores = {o[1] for o in obs if o[0] == "S"}
    assert state.written.keys() == written.keys() | stores


def test_states_without_memory_compare_by_their_write_logs():
    # resume points hold no memory: two of them are equal iff their write
    # logs are, and neither equals a state with memory; comparing them never
    # reads memory
    regs = [0, 0, 0, 0]
    point = ArchState(regs[:], 1, 0, 0, 0, None, {0: 1})
    assert point == ArchState(regs[:], 1, 0, 0, 0, None, {0: 1})
    assert point != ArchState(regs[:], 1, 0, 0, 0, None, {})
    assert ArchState(regs[:], 1, 0, 0, 0, None, {}) != point
    assert point != ArchState(regs[:], 1, 0, 0, 0, bytes(SANDBOX_SIZE), {0: 1})
    assert ArchState(regs[:], 1, 0, 0, 0, bytes(SANDBOX_SIZE), {0: 1}) != point
    # states with memory still compare by the memory they read
    zeros = bytes(SANDBOX_SIZE)
    assert ArchState(regs[:], 1, 0, 0, 0, zeros, {0: 0}) == ArchState(regs[:], 1, 0, 0, 0, zeros, {})
    assert ArchState(regs[:], 1, 0, 0, 0, zeros, {0: 1}) != ArchState(regs[:], 1, 0, 0, 0, zeros, {})
