"""QKD resource-efficiency toolkit.

Closed-form efficiency and optimality evaluation for BB84-style QKD, a
bit-exact channel-squeezing codec for biased classical announcements, and
Monte-Carlo simulations of a biased-basis BB84 session and a relay-mediated
(twin-field style) session.
"""

from .core import (
    ChannelParams,
    CurvePoint,
    EfficiencyReport,
    ProtocolParams,
    SessionLedger,
    binary_entropy,
    classical_bits,
    determine_optimality,
    efficiency_curve,
    optimality_bb84,
    qber,
    single_photon_yield,
    total_efficiency,
    transmittance,
)
from .errors import (
    ConfigError,
    DegenerateChannelError,
    MalformedStreamError,
    ParameterError,
    SimulationIntegrityError,
)
from .proto_bb84 import SessionConfig, run_session
from .proto_tf import TfConfig, run_tf_session
from .session import SessionReport
from .squeeze import (
    Codebook,
    CompressionStats,
    OnePositions,
    PackedBits,
    build_codebook,
    decode,
    decode_positions,
    encode,
    sigma_curve,
    sigma_expected,
    squeeze_bits,
    unsqueeze_bits,
)

__version__ = "0.1.0"
