"""Latency-aware state estimation and perception-method scheduling.

A tracked target evolves as a linear SDE while a bank of perception methods
trades detection latency against accuracy and CPU cost. This package provides
the latency-aware Kalman filter, exact and quantized dynamic-programming
schedulers over the filter's covariance dynamics, covariance-boundedness
certificates, a moving-horizon online controller with measurement-noise
adaptation, and a seeded simulation harness with Monte-Carlo drivers.
"""

from .bounds import LyapunovCertificate, bound_bs, lmi_feasible, synthesize_certificate
from .config import ScenarioConfig, load_scenario, parse_scenario
from .covgraph import CovarianceGraph, expand_graph, quantize, sample_region
from .dynamics import (
    ContinuousModel,
    DiscretizedDynamics,
    PerceptionMethod,
    build_dynamics,
    cost_gram,
    discretize,
)
from .errors import (
    ConfigError,
    ExplosionGuardError,
    GraphExpansionError,
    IncompleteScheduleError,
    InfeasibleCertificateError,
    InvalidModelError,
    LatschedError,
    SingularUpdateError,
    SourceExhausted,
)
from .estimator import (
    BeliefState,
    Measurement,
    correct,
    predict,
    riccati_step,
    steady_state,
)
from .exact import (
    Schedule,
    dyn_prog_exact,
    enumerate_covering_schedules,
    evaluate_schedule,
    schedule_cpu_load,
    static_schedule,
)
from .experiments import monte_carlo, rows_to_csv
from .horizon import InnovationWindow, TrackingTrace, adaptive_R, run_loop
from .qdp import (
    DPTables,
    attach_policy,
    backward_tables,
    evaluate_on_graph,
    qdp,
    qdp_matrices,
)
from .sim import GridMeasurementSource, RunMetrics, metrics, simulate_sde

__version__ = "0.1.0"
