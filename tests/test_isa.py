import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaklab.errors import ConfigError, ParseError
from leaklab.isa import (
    KIND_IMUL,
    KIND_JNS,
    KIND_SBB,
    MEM_DST,
    MEM_NONE,
    MEM_SRC,
    ActionSpaceConfig,
    Instruction,
    Mem,
    Opcode,
    Program,
    Register,
    append_action,
    build_action_space,
    parse_program,
    render_program,
)

R0, R1, R2 = Register.R0, Register.R1, Register.R2


def test_default_space_has_40_actions(default_space):
    assert default_space.size == 40


def test_default_space_layout(default_space):
    # 9 SBB r,r then 9 SBB r,[BASE+r] then 9 SBB [BASE+r],r then 9 IMUL r,r,
    # then JNS -2, JNS +2, JMP -2, JMP +2. Registers enumerate dst-major.
    assert default_space[0] == Instruction(Opcode.SBB, dst=R0, src=R0)
    assert default_space[1] == Instruction(Opcode.SBB, dst=R0, src=R1)
    assert default_space[8] == Instruction(Opcode.SBB, dst=R2, src=R2)
    assert default_space[9] == Instruction(Opcode.SBB, dst=R0, src=Mem(R0))
    assert default_space[14] == Instruction(Opcode.SBB, dst=R1, src=Mem(R2))
    assert default_space[18] == Instruction(Opcode.SBB, dst=Mem(R0), src=R0)
    assert default_space[27] == Instruction(Opcode.IMUL, dst=R0, src=R0)
    # first branch template lands right after the 36 ALU actions
    assert default_space[36] == Instruction(Opcode.JNS, disp=-2)
    assert default_space[37] == Instruction(Opcode.JNS, disp=2)
    assert default_space[38] == Instruction(Opcode.JMP, disp=-2)
    assert default_space[39] == Instruction(Opcode.JMP, disp=2)


def test_single_register_single_template():
    cfg = ActionSpaceConfig(
        registers=(R0,),
        alu_templates=((Opcode.SBB, "rr"),),
        branch_opcodes=(),
        displacements=(),
    )
    space = build_action_space(cfg)
    assert space.size == 1
    assert space[0] == Instruction(Opcode.SBB, dst=R0, src=R0)


def test_empty_config_rejected():
    with pytest.raises(ConfigError):
        build_action_space(ActionSpaceConfig(registers=()))
    with pytest.raises(ConfigError):
        build_action_space(ActionSpaceConfig(alu_templates=(), branch_opcodes=()))


def test_action_space_is_deterministic(default_space):
    again = build_action_space()
    assert again.actions == default_space.actions


def test_parse_simple():
    p = parse_program("SBB R0, R1")
    assert len(p) == 1
    assert p[0] == Instruction(Opcode.SBB, dst=R0, src=R1)


def test_parse_zero_displacement_rejected():
    with pytest.raises(ParseError) as exc:
        parse_program("JNS +0")
    assert exc.value.line == 1


def test_parse_round_trip_two_instructions():
    text = "SBB [BASE+R2], R0\nJMP -2"
    p = parse_program(text)
    assert len(p) == 2
    assert render_program(p) == text


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_program("SBB R0, R1\nFOO R0, R1")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_program("SBB R0, banana")
    with pytest.raises(ParseError) as exc:
        parse_program("; comment\nSBB BASE, R0")
    assert exc.value.line == 2


def test_parse_case_and_whitespace_insensitive():
    p = parse_program("  sbb   r0 ,  [ base + r1 ]   ; trailing comment")
    assert p[0] == Instruction(Opcode.SBB, dst=R0, src=Mem(R1))


def test_render_empty_program():
    assert render_program(Program()) == ""


def test_render_single_imul():
    p = Program((Instruction(Opcode.IMUL, dst=R1, src=R2),))
    assert render_program(p) == "IMUL R1, R2"


def test_instruction_validation():
    with pytest.raises(ValueError):
        Instruction(Opcode.SBB, dst=Mem(R0), src=Mem(R1))
    with pytest.raises(ValueError):
        Instruction(Opcode.SBB, dst=Register.BASE, src=R0)
    with pytest.raises(ValueError):
        Instruction(Opcode.JNS, disp=0)
    with pytest.raises(ValueError):
        Instruction(Opcode.JMP, dst=R0, src=R1, disp=2)


def test_decoded_form():
    assert Instruction(Opcode.SBB, dst=R0, src=Mem(R2)).decoded == (KIND_SBB, 0, 2, MEM_SRC, 0)
    assert Instruction(Opcode.IMUL, dst=Mem(R1), src=R0).decoded == (KIND_IMUL, 1, 0, MEM_DST, 0)
    assert Instruction(Opcode.JNS, disp=-2).decoded == (KIND_JNS, 0, 0, MEM_NONE, -2)
    changed = dataclasses.replace(Instruction(Opcode.SBB, dst=R0, src=R1), src=R2)
    assert changed.decoded == (KIND_SBB, 0, 2, MEM_NONE, 0)
    assert all(type(v) is int for v in changed.decoded)


def test_decoded_field_is_invisible(default_space):
    a = Instruction(Opcode.SBB, dst=R0, src=Mem(R1))
    b = Instruction(Opcode.SBB, dst=R0, src=Mem(R1))
    object.__setattr__(b, "decoded", None)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == (
        "Instruction(opcode=<Opcode.SBB: 'SBB'>, dst=<Register.R0: 0>, "
        "src=Mem(index=<Register.R1: 1>), disp=None)"
    )
    with pytest.raises(TypeError):
        Instruction(Opcode.JMP, disp=2, decoded=())
    with pytest.raises(ConfigError):
        build_action_space(ActionSpaceConfig(explicit_actions=(a, b)))
    for i, instr in enumerate(default_space.actions):
        fresh = Instruction(instr.opcode, instr.dst, instr.src, instr.disp)
        assert default_space.index_of(fresh) == i


def test_append_action_examples(default_space):
    empty = Program()
    p1 = append_action(empty, 0, default_space)
    assert p1[0] == Instruction(Opcode.SBB, dst=R0, src=R0)
    assert len(empty) == 0  # input untouched

    base = Program(tuple(default_space[i] for i in range(5)))
    p6 = append_action(base, 36, default_space)
    assert len(p6) == 6
    assert p6[5] == Instruction(Opcode.JNS, disp=-2)
    assert len(base) == 5

    with pytest.raises(IndexError):
        append_action(empty, 40, default_space)
    with pytest.raises(IndexError):
        append_action(empty, -1, default_space)


def _random_program(rng, space, max_len=12) -> Program:
    n = rng.randrange(0, max_len + 1)
    return Program(tuple(space[rng.randrange(space.size)] for _ in range(n)))


def test_round_trip_1000_random_programs(default_space):
    import random

    rng = random.Random(20240817)
    for _ in range(1000):
        p = _random_program(rng, default_space)
        assert parse_program(render_program(p)) == p


@settings(max_examples=200)
@given(st.data())
def test_round_trip_property(data):
    space = build_action_space()
    ids = data.draw(st.lists(st.integers(0, space.size - 1), max_size=30))
    p = Program(tuple(space[i] for i in ids))
    assert parse_program(render_program(p)) == p
