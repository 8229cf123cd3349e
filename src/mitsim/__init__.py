"""mitsim: deterministic simulator of disturbance-resilient multimodal transport.

Edge devices detect disturbances, exchange relevance-filtered warnings and
execute coordinated adaptation strategies; the simulator quantifies trip
delay mitigation and communication savings against broadcast and
no-response baselines.
"""

from .disturbance import (
    DISTURBANCE_KINDS,
    DetectionSource,
    DisturbanceEvent,
    SeverityMeasure,
    affected_pairs,
    default_effect_matrix,
    detect,
    direct_effects,
    displaced_volume,
    escalate,
    severity_index_from,
)
from .dissemination import (
    DevicePosition,
    DisseminationRecord,
    EdgeDevice,
    RelevanceDecision,
    RelevancePolicy,
    RsuTopology,
    WarningScope,
    distribute,
    is_relevant,
    predict_trajectory,
)
from .errors import CodecError, InfeasibleError, ValidationError
from .messages import (
    AffectedEntry,
    WarningMessage,
    decode,
    encode,
    make_warning,
    revise,
)
from .network import (
    MultiLayerNetwork,
    MultimodalNode,
    ModeSpec,
    Segment,
    UsageEntry,
    build_network,
)
from .routing import JourneyPlan, RoutingPreferences, route
from .scenario import Scenario, load_scenario, load_scenario_file
from .simulation import (
    MODE_BROADCAST,
    MODE_NO_ADAPT,
    MODE_TARGETED,
    Metrics,
    RunConfig,
    RunResult,
    compare,
    ground_truth_affected,
    run,
)
from .state import NetworkState, SimDefaults, WorldState

__all__ = [name for name in dir() if not name.startswith("_")]
