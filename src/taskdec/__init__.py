"""Decide whether a global task automaton splits across cooperating agents,
and whether the split survives event failures."""

from .automata import (
    EPSILON,
    Automaton,
    AutomatonError,
    DistributedAlphabet,
    accessible,
    bounded_language,
    build_alphabet,
    build_automaton,
    compose_all,
    determinize,
    run,
)
from .decomposability import (
    ConditionReport,
    ConditionWitness,
    DecompReport,
    decomposability_report,
    is_decomposable,
)
from .failure import (
    FailureReport,
    FailureSpec,
    apply_failure,
    build_failures,
    passivity,
    refined_alphabet,
    remains_decomposable,
    two_agent_analysis,
)
from .projection import (
    enumerate_sync_product,
    project_automaton,
    project_string,
    state_classes,
    sync_product_contains,
)
from .relations import (
    RelationVerdict,
    Witness,
    bisimilar,
    language_included,
    replay_witness,
    simulates,
    state_language_equal,
)
from .scenario import Scenario, ScenarioError, emit, parse_scenario
from .testkit import GenParams, differential_suite, gen_scenario
from .topdown import TeamDesign, verify_team_under_failure
from .dot import dot_export

__version__ = "0.1.0"
