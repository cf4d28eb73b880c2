"""luxmote: battery-free, light-harvesting BLE sensor node simulation.

A library for studying the energy behaviour of indoor photovoltaic sensor
motes that adapt their duty cycle to the stored-energy level: supercapacitor
and converter models, the 7-level adaptive QoS controller, a deterministic
discrete-event node simulator, multi-node deployments with a base station,
and a design-space explorer for lifetime/service/light trade-offs.
"""

from .deployment import (
    DeploymentConfig,
    DeploymentReport,
    NodeMetrics,
    link_delivery,
    run_deployment,
    write_deployment_report,
)
from .energy import (
    ConverterModel,
    HarvesterModel,
    LoadModel,
    SupercapState,
    standby_power,
)
from .explore import (
    SweepGrid,
    SweepRow,
    min_lux_for_perpetual,
    steady_state_power,
    survival_at_lux_s,
    sweep,
    write_frontier_csv,
)
from .qos import (
    DEFAULT_TABLE,
    ApplicationMode,
    ControllerState,
    QosRow,
    QosTable,
    lookup_state,
    reset,
    step,
    trend,
)
from .simulate import (
    EnergyLedger,
    NodeConfig,
    NodeLog,
    ledger_summary,
    run_node,
    write_ledger_json,
)
from .traces import Trace, TraceError, load_trace_csv
from .config import (
    ConfigError,
    load_any_config,
    load_deployment_config,
    load_node_config,
    load_sweep_grid,
)

__version__ = "0.1.0"
