"""Toy instruction set: registers, instructions, programs, and the action space.

The assembly text format is one instruction per line, ``;`` starts a comment,
everything outside comments is ASCII, mnemonics are case-insensitive, branch
targets are relative displacements (``JNS +2``, ``JMP -2``), and the only
addressing mode is ``[BASE+reg]``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import cached_property
from typing import Iterator, Union

from .errors import ConfigError, ParseError

__all__ = [
    "Register",
    "Opcode",
    "Mem",
    "Operand",
    "Instruction",
    "Program",
    "ActionSpaceConfig",
    "build_action_space",
    "parse_program",
    "render_program",
    "append_action",
    "DEFAULT_ACTION_CONFIG",
]


class Register(IntEnum):
    """General-purpose registers. BASE is the read-only sandbox base."""

    R0 = 0
    R1 = 1
    R2 = 2
    BASE = 3


class Opcode(Enum):
    SBB = "SBB"
    IMUL = "IMUL"
    JNS = "JNS"
    JMP = "JMP"


BRANCH_OPCODES = frozenset({Opcode.JNS, Opcode.JMP})

# Decoded opcode kinds, the first element of `Instruction.decoded`. Branch
# kinds sort below ALU kinds.
KIND_JMP = 0
KIND_JNS = 1
KIND_SBB = 2
KIND_IMUL = 3
_KIND = {Opcode.JMP: KIND_JMP, Opcode.JNS: KIND_JNS, Opcode.SBB: KIND_SBB, Opcode.IMUL: KIND_IMUL}

# Which ALU operand, if any, is the memory operand (`Instruction.decoded[3]`).
MEM_NONE = 0
MEM_SRC = 1
MEM_DST = 2


@dataclass(frozen=True)
class Mem:
    """Memory operand ``[BASE+index]``; the effective address is computed at
    execution time from the index register, reduced into the sandbox."""

    index: Register

    def __str__(self) -> str:
        return f"[BASE+{self.index.name}]"


Operand = Union[Register, Mem]


@dataclass(frozen=True)
class Instruction:
    """One instruction. ALU opcodes carry dst/src operands, branches carry a
    nonzero relative displacement."""

    opcode: Opcode
    dst: Operand | None = None
    src: Operand | None = None
    disp: int | None = None
    # Flat form read by the simulators: (kind, dst register, src register,
    # memory operand, disp) with plain ints; a memory operand contributes its
    # index register. Branches decode as (kind, 0, 0, MEM_NONE, disp).
    decoded: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.opcode in BRANCH_OPCODES:
            if self.dst is not None or self.src is not None:
                raise ValueError(f"{self.opcode.value} takes no register operands")
            if self.disp is None:
                raise ValueError(f"{self.opcode.value} requires a displacement")
            if self.disp == 0:
                raise ValueError("zero displacement")
        else:
            if self.dst is None or self.src is None:
                raise ValueError(f"{self.opcode.value} requires dst and src operands")
            if self.disp is not None:
                raise ValueError(f"{self.opcode.value} takes no displacement")
            if isinstance(self.dst, Mem) and isinstance(self.src, Mem):
                raise ValueError("at most one operand may be a memory operand")
            if self.dst == Register.BASE:
                raise ValueError("BASE is read-only")
        object.__setattr__(self, "decoded", self._decode())

    def _decode(self) -> tuple:
        kind = _KIND[self.opcode]
        if kind <= KIND_JNS:
            return (kind, 0, 0, MEM_NONE, self.disp)
        dst, src = self.dst, self.src
        if isinstance(src, Mem):
            return (kind, int(dst), int(src.index), MEM_SRC, 0)
        if isinstance(dst, Mem):
            return (kind, int(dst.index), int(src), MEM_DST, 0)
        return (kind, int(dst), int(src), MEM_NONE, 0)

    @property
    def is_branch(self) -> bool:
        return self.opcode in BRANCH_OPCODES

    def __str__(self) -> str:
        if self.is_branch:
            return f"{self.opcode.value} {self.disp:+d}"
        dst = str(self.dst) if isinstance(self.dst, Mem) else self.dst.name
        src = str(self.src) if isinstance(self.src, Mem) else self.src.name
        return f"{self.opcode.value} {dst}, {src}"


@dataclass(frozen=True)
class Program:
    """Immutable instruction sequence. Branch targets are clamped into
    ``[0, len]`` at execution time; target ``len`` means fall off the end."""

    instrs: tuple[Instruction, ...] = ()

    def __len__(self) -> int:
        return len(self.instrs)

    def __getitem__(self, i: int) -> Instruction:
        return self.instrs[i]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instrs)

    def append(self, instr: Instruction) -> "Program":
        return Program(self.instrs + (instr,))

    @cached_property
    def can_halt(self) -> bool:
        """Whether some control-flow path from pc 0 reaches pc ``len``: a
        depth-first walk over clamped branch targets, where a JMP has one
        successor and a JNS two, that stops at the end. A program without
        such a path never halts, on any input."""
        instrs = self.instrs
        n = len(instrs)
        seen = bytearray(n)
        stack = [0]
        while stack:
            pc = stack.pop()
            while pc < n and not seen[pc]:
                seen[pc] = 1
                kind, _, _, _, disp = instrs[pc].decoded
                if kind > KIND_JNS:
                    pc += 1
                    continue
                target = min(max(pc + disp, 0), n)
                if kind == KIND_JMP:
                    pc = target
                else:
                    stack.append(target)
                    pc += 1
            if pc >= n:
                return True
        return False


# --- action space ---------------------------------------------------------

_REGS = (Register.R0, Register.R1, Register.R2)

# The default menu in action-id order: SBB r,r / SBB r,[BASE+r] /
# SBB [BASE+r],r / IMUL r,r over R0-R2 (9 each, dst-major, src-minor), then
# JNS -2, JNS +2, JMP -2, JMP +2.
_DEFAULT_ACTIONS = (
    tuple(Instruction(Opcode.SBB, dst=d, src=s) for d in _REGS for s in _REGS)
    + tuple(Instruction(Opcode.SBB, dst=d, src=Mem(s)) for d in _REGS for s in _REGS)
    + tuple(Instruction(Opcode.SBB, dst=Mem(d), src=s) for d in _REGS for s in _REGS)
    + tuple(Instruction(Opcode.IMUL, dst=d, src=s) for d in _REGS for s in _REGS)
    + tuple(Instruction(op, disp=disp) for op in (Opcode.JNS, Opcode.JMP) for disp in (-2, 2))
)


@dataclass(frozen=True)
class ActionSpaceConfig:
    """The action menu: exactly these instructions, in order, so index i
    always maps to the same instruction. The default is the 40-action menu;
    reduced menus such as the leak fixture's list their own instructions."""

    actions: tuple[Instruction, ...] = _DEFAULT_ACTIONS

    @property
    def size(self) -> int:
        return len(self.actions)

    def __getitem__(self, i: int) -> Instruction:
        return self.actions[i]


DEFAULT_ACTION_CONFIG = ActionSpaceConfig()


def build_action_space(config: ActionSpaceConfig = DEFAULT_ACTION_CONFIG) -> ActionSpaceConfig:
    """`config` itself, once checked: its instructions must be a non-empty
    list without duplicates."""
    if not config.actions:
        raise ConfigError("action list is empty")
    if len(set(config.actions)) != len(config.actions):
        raise ConfigError("action space contains duplicate instructions")
    return config


# --- assembly text --------------------------------------------------------

_MEM_RE = re.compile(r"^\[\s*BASE\s*\+\s*(R0|R1|R2|BASE)\s*\]$", re.IGNORECASE)
_DISP_RE = re.compile(r"^[+-]?\d+$")


def _parse_operand(token: str, line: int) -> Operand:
    token = token.strip()
    upper = token.upper()
    if upper in Register.__members__:
        return Register[upper]
    m = _MEM_RE.match(token)
    if m:
        return Mem(Register[m.group(1).upper()])
    raise ParseError(f"malformed operand {token!r}", line)


def parse_program(text: str) -> Program:
    """Parse assembly text into a Program.

    Raises ParseError (with the offending line number) on a non-ASCII
    character outside a comment, unknown mnemonics, malformed operands, zero
    displacements, or writes to BASE.
    """
    instrs: list[Instruction] = []
    # CR, LF or CRLF only: str.splitlines also splits at \v, \f, \x1c-\x1e, U+0085, U+2028, U+2029
    for lineno, raw in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        code = raw.split(";", 1)[0]
        # `\d`, `upper()` and IGNORECASE match more than ASCII: `JNS ３`
        # would read as `JNS +3`, `ſbb` as `SBB`
        if not code.isascii():
            bad = next(c for c in code if not c.isascii())
            raise ParseError(f"non-ASCII character {bad!r} (U+{ord(bad):04X})", lineno)
        line = code.strip()
        if not line:
            continue
        parts = line.split(None, 1)
        mnemonic = parts[0].upper()
        rest = parts[1] if len(parts) > 1 else ""
        try:
            opcode = Opcode(mnemonic)
        except ValueError:
            raise ParseError(f"unknown mnemonic {parts[0]!r}", lineno) from None
        if opcode in BRANCH_OPCODES:
            token = rest.strip()
            if not _DISP_RE.match(token):
                raise ParseError(f"malformed displacement {token!r}", lineno)
            try:
                disp = int(token)
            except ValueError:  # past int()'s limit on decimal digits
                raise ParseError(f"displacement of {len(token)} characters is too long", lineno) from None
            if disp == 0:
                raise ParseError("zero displacement", lineno)
            instrs.append(Instruction(opcode, disp=disp))
        else:
            operands = [t for t in rest.split(",")] if rest.strip() else []
            if len(operands) != 2:
                raise ParseError(f"{mnemonic} expects two operands", lineno)
            dst = _parse_operand(operands[0], lineno)
            src = _parse_operand(operands[1], lineno)
            try:
                instrs.append(Instruction(opcode, dst=dst, src=src))
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
    return Program(tuple(instrs))


def render_program(p: Program) -> str:
    """Canonical text form; ``parse_program(render_program(p)) == p``."""
    return "\n".join(str(instr) for instr in p)


def append_action(p: Program, action_id: int, space: ActionSpaceConfig) -> Program:
    """Return a new Program with action `action_id` appended; `p` is unchanged."""
    if not 0 <= action_id < space.size:
        raise IndexError(f"action id {action_id} out of range [0, {space.size})")
    return p.append(space.actions[action_id])
