"""Datalog evaluation over semirings via polynomial-equation groundings."""

from importlib import resources

from .semirings import (
    Semiring,
    SemiringTypeError,
    UserInputError,
    access,
    axiom_suite,
    boolean,
    naturals,
    semiring_from_token,
    set_semiring,
    tropical,
)
from .frontend import (
    Instance,
    Program,
    build_instance,
    check_instance_against,
    classify,
    parse_facts,
    parse_program,
)
from .grounding import (
    CapExceeded,
    CyclicRuleError,
    Grounding,
    StrategyNotApplicable,
    ground_program,
)
from .solver import (
    NonConvergence,
    Solution,
    SolverCapabilityError,
    kleene_grounding,
    kleene_program,
    solve_grounding,
    to_two_canonical,
)

__version__ = "0.1.0"

# The anbncn program is naturals-only and excluded from the random
# cross-check corpus (its target counts paths, which diverges on cycles).
CORPUS = (
    "eq1_pcomplete",
    "eq2_tc",
    "ex31_node_weights",
    "ex51_star",
    "apsp",
    "sssp",
    "same_generation",
    "andersen",
)
CORPUS_ALL = CORPUS + ("anbncn",)


def corpus_text(name: str) -> str:
    if name not in CORPUS_ALL:
        raise UserInputError(f"unknown corpus program {name!r}")
    return (resources.files(__name__) / "corpus" / f"{name}.dl").read_text()


def corpus_program(name: str) -> Program:
    return parse_program(corpus_text(name))
