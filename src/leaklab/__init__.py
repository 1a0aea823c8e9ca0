"""leaklab: find speculative-execution leaks in a simulated processor.

A deterministic architectural simulator provides contract traces, a
speculative hardware model provides Prime+Probe cache observations and
performance counters, a relational detector turns trace divergence into leak
witnesses, and an episodic environment lets a from-scratch PPO agent (or a
random fuzzer) assemble programs that trigger violations.
"""

from .arch import (
    ContractMode,
    ContractSpec,
    Input,
    contract_trace,
    generate_inputs,
)
from .agent import TrainerConfig, TrainingLog, random_search, train
from .detect import ViolationReport, boost_input, detect_violation
from .env import EnvConfig, LeakEnv, Observation, RewardSpec, StepResult, encode_observation
from .errors import ConfigError, ParseError, TrainingFault
from .harness import (
    ExperimentConfig,
    expected_fuzz_count,
    fuzz_campaign,
    planted_fixture,
    random_program,
    scaling_study,
)
from .isa import (
    ActionSpaceConfig,
    Instruction,
    Program,
    append_action,
    build_action_space,
    parse_program,
    render_program,
)
from .uarch import (
    REJECTED,
    HwResult,
    PerfCounters,
    hw_run,
    observe,
)

__version__ = "0.1.0"
