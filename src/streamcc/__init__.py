"""Memory-bounded online conformance checking of event streams.

The names below are the quick-start API; everything else is imported
from its own module (``streamcc.petri``, ``streamcc.streams``, ...).
"""

# set before the imports: evaluation writes it into experiment manifests
__version__ = "0.1.0"

from .alignment import (
    DEFAULT_COST_MODEL,
    CostModel,
    PrefixAlignment,
    extend_model_semantics,
    shortest_path_prefix_alignment,
)
from .errors import ParseError, SearchBudgetExceeded, StreamccError, ValidationError
from .evaluation import evaluate_policies
from .petri import PetriNet
from .pnml import load_model
from .policies import ConformanceEngine, Policy, PolicyConfig
from .streams import parse_csv_log, replay, replicate_events
from .synthetic import StreamSpec, cyclic_sequence_net, generate_log

__all__ = [
    "ConformanceEngine",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "ParseError",
    "PetriNet",
    "Policy",
    "PolicyConfig",
    "PrefixAlignment",
    "SearchBudgetExceeded",
    "StreamSpec",
    "StreamccError",
    "ValidationError",
    "cyclic_sequence_net",
    "evaluate_policies",
    "extend_model_semantics",
    "generate_log",
    "load_model",
    "parse_csv_log",
    "replay",
    "replicate_events",
    "shortest_path_prefix_alignment",
]
