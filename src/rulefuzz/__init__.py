"""Rule-guided fuzzing of SDN-style control channels.

The package couples a man-in-the-middle fuzzing proxy with an
interpretable rule learner: fuzzed control messages and their observed
outcomes accumulate into a labeled dataset, a RIPPER-style learner
distills failure-inducing rules from it, and a planner turns those rules
into the next iteration's fuzzing budget.  A simulated switch/controller
pair with a planted failure rule makes the whole loop runnable on one
machine.
"""
from .codec import (
    ControlMessage,
    FieldSpec,
    MessageSchema,
    SchemaRegistry,
    builtin_registry,
    encode,
    load_schema_file,
    load_schemas,
)
from .dataset import ABSENCE, PRESENCE, LabeledDataset, LabeledSample, read_csv
from .rules import Atom, Condition, DecisionRule, RuleSet, format_ruleset, parse_condition, parse_ruleset
from .learner import RipperParams, cross_validate, learn
from .planner import plan, progress, should_stop
from .fuzzer import FuzzAction, apply_plan, make_guided_plan, make_initial_plan
from .sampler import evaluate, solve

__version__ = "0.1.0"
