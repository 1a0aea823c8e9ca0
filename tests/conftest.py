import pytest

from leaklab import detect
from leaklab.arch import Input, SANDBOX_SIZE, generate_inputs
from leaklab.isa import build_action_space


@pytest.fixture(autouse=True)
def empty_sibling_memo():
    """Start every test with an empty sibling memo (`boost_input`'s own
    cache), so that assertions on which siblings are the same object or
    draw no bytes do not depend on the tests run before."""
    detect.boost_input.cache_clear()


@pytest.fixture(scope="session")
def default_space():
    return build_action_space()


@pytest.fixture(scope="session")
def inputs20():
    return generate_inputs(seed=42, count=20)


def make_input(r0=0, r1=0, r2=0, mem_byte=0) -> Input:
    return Input(r0=r0, r1=r1, r2=r2, mem=bytes([mem_byte]) * SANDBOX_SIZE)


def memory(state) -> bytes:
    """A state's effective sandbox memory: its input's bytes with the write
    log written over them."""
    mem = bytearray(state.mem)
    for addr, word in state.written.items():
        mem[addr : addr + 8] = word.to_bytes(8, "little")
    return bytes(mem)


def input_blob(inp: Input) -> bytes:
    """The binary form `load_input` and `simulate --input-file` read: the
    three registers as 8 bytes little-endian each, then the sandbox bytes."""
    return b"".join(r.to_bytes(8, "little") for r in (inp.r0, inp.r1, inp.r2)) + inp.mem
