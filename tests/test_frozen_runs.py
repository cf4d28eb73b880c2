"""Exact results of four fixed runs, pinned bit for bit.

Each scenario covers a brown-out and a recovery: (a) an advertising node
at 300 lux; (b) an event-detection node under dense motion events, which
dies with a wakeup pending; (c) a node pinned at QoS state 7, which also
dies with wakeups pending; (d) a node with 1 µA leaky storage under stepped
light, which charges onto its ``v_rated`` clamp, dies in the dark, leaks
below ``v_boost_min`` and cold-starts back past it to recover.  The expected
values of (a) come from an event loop that queued every wakeup on a heap,
and those of (a) and (d) from one that queued deaths, recoveries and motion
events there: they check that the cursors and slots that replaced the queue
change no result.  (b) and (c) were recorded again when a wakeup pending at
a death stopped ending an integration segment of the dead node's recharge:
their times and voltages moved by at most 3e-15 relative, and no count,
state or action changed.  (a) was recorded again when each wakeup came due
at anchor + n·interval instead of by repeated addition of the 0.1 s
advertising interval: its wakeup times moved by at most 1.5e-7 s, its
summary floats by at most 7.7e-12 relative (9.2e-13 for the summary run),
and no count, state or action changed.  Floats are compared by ``repr``, detail records
by the SHA-256 of their ``repr`` lines.  Each scenario is also pinned as a summary
run (``detail=False``), whose fast-forward books skipped wakeups as sums
taken in another order: its floats may differ from the detailed run's in
the last digits, and are pinned as they are.  The summary pins of (a), (c)
and (d), and the fleet digest below, were recorded again when a skip's
replayed period became exactly one interval, with no rest stretch after its
copies: no count, state or histogram changed, no ledger term, voltage or
time moved by more than 3e-15 relative, and the residuals stayed below
1e-15 J.

The shipped 15-node fleet over 15 days (acceptance criterion 5) is pinned
as a summary run too, by the SHA-256 of its report.
"""

import hashlib
import json
from pathlib import Path

import pytest

from luxmote.config import load_deployment_config
from luxmote.deployment import report_summary, run_deployment
from luxmote.energy import LoadModel, SupercapState
from luxmote.qos import ApplicationMode
from luxmote.simulate import NodeConfig, ledger_summary, run_node
from luxmote.traces import Trace, load_trace_csv

REPO = Path(__file__).resolve().parents[1]


def _advertising(detail):
    cfg = NodeConfig(
        node_id="adv",
        mode=ApplicationMode.ADVERTISING,
        supercap=SupercapState(capacitance_f=1.0, voltage_v=2.5),
    )
    return run_node(cfg, Trace.constant(300.0), duration_s=25_000.0, detail=detail)


def _event_detection(detail):
    cfg = NodeConfig(
        node_id="pir",
        mode=ApplicationMode.EVENT_DETECTION,
        supercap=SupercapState(capacitance_f=0.05, voltage_v=2.6),
        load=LoadModel(e_event_detect_j=2e-3),
    )
    times = [5.0 * k for k in range(1, 4000)]
    events = Trace(times, [1.0] * len(times))
    light = Trace([0.0, 3000.0, 6000.0, 12000.0], [150.0, 0.0, 150.0, 0.0])
    return run_node(cfg, light, events, duration_s=20_000.0, detail=detail)


def _pinned(detail):
    cfg = NodeConfig(
        node_id="pin",
        pinned_qos=7,
        supercap=SupercapState(capacitance_f=0.01, voltage_v=3.0),
    )
    light = Trace([0.0, 1000.0], [100.0, 10.0])
    return run_node(cfg, light, duration_s=30_000.0, detail=detail)


def _leaky(detail):
    cfg = NodeConfig(
        node_id="leaky",
        supercap=SupercapState(
            capacitance_f=0.01, voltage_v=3.0, v_rated=3.6, leak_current_a=1e-6
        ),
    )
    light = Trace([0.0, 2000.0, 13000.0, 16000.0], [3000.0, 0.0, 300.0, 150.0])
    return run_node(cfg, light, duration_s=20_000.0, detail=detail)


SCENARIOS = {
    "advertising": _advertising,
    "event_detection": _event_detection,
    "pinned": _pinned,
    "leaky": _leaky,
}


def _frozen(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {key: _frozen(item) for key, item in value.items()}
    return value


def _records_sha256(log):
    text = "".join(f"{tuple(rec)!r}\n" for rec in log.records)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_matches_recorded_results(name):
    log = SCENARIOS[name](detail=True)
    expected = EXPECTED[name]
    assert _frozen(ledger_summary(log)) == expected["summary"]
    assert log.qos_histogram == expected["qos_histogram"]
    assert len(log.records) == expected["records"]
    assert _records_sha256(log) == expected["records_sha256"]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_summary_run_matches_recorded_results(name):
    # Without detail, three of the scenarios fast-forward over wakeups
    # (advertising twice, pinned six times, the first skip running up to its
    # light sample at 1000 s, and leaky three times), so this pins the skip
    # path bit for bit; the event-detection node never skips.
    log = SCENARIOS[name](detail=False)
    expected = EXPECTED[name]["summary_run"]
    assert _frozen(ledger_summary(log)) == expected["summary"]
    assert log.qos_histogram == expected["qos_histogram"]


def test_summary_fleet_matches_recorded_digest():
    # report.json's content, as the CI step that checks the same digest dumps it.
    config = load_deployment_config(REPO / "configs" / "deployment_15node.json")
    traces = REPO / "configs" / "traces"
    light = {n.node_id: load_trace_csv(traces / f"{n.node_id}_light.csv") for n in config.nodes}
    report = run_deployment(config, light, duration_s=15 * 86_400.0, detail=False)
    text = json.dumps(report_summary(report), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == FLEET_SHA256


FLEET_SHA256 = "cf0c95e826a1a00a684b491dc58edc80fdd3c06e7d6d61319307235e771896b8"

EXPECTED = {'advertising': {'summary': {'node_id': 'adv',
                             'mode': 'advertising',
                             'duration_s': '25000.0',
                             'initial_voltage_v': '2.5',
                             'final_voltage_v': '2.1571459453065347',
                             'alive_at_end': True,
                             'uptime_fraction': '0.5161282236464978',
                             'dead_seconds': '12096.794408837555',
                             'deaths': 1,
                             'recoveries': 1,
                             'controller_steps': 129021,
                             'packets_emitted': 129020,
                             'qos_histogram': {'1': 0,
                                               '2': 0,
                                               '3': 0,
                                               '4': 2,
                                               '5': 0,
                                               '6': 2,
                                               '7': 129017},
                             'events_detected': 0,
                             'events_missed_dead': 0,
                             'notifications_emitted': 0,
                             'events_unnotified': 0,
                             'ledger': {'harvest_panel_j': '1.7437499999986104',
                                        'harvest_stored_j': '1.3949999999960563',
                                        'drain_stored_j': '2.1933606853223644',
                                        'load_j': '1.9740246167817925',
                                        'leak_j': '0.0',
                                        'conversion_loss_j': '0.5680860685431259',
                                        'throughput_j': '3.5883606853184205'},
                             'energy_residual_j': '2.5195401320843303e-12',
                             'energy_residual_relative': '7.021423856283148e-13'},
                 'qos_histogram': [0, 0, 0, 0, 2, 0, 2, 129017],
                 'records': 129023,
                 'records_sha256': '4def4dca83378e1ca7b70e634a195c652385e0ddea374418312fd8811c2871d4',
                 'summary_run': {'summary': {'node_id': 'adv',
                                             'mode': 'advertising',
                                             'duration_s': '25000.0',
                                             'initial_voltage_v': '2.5',
                                             'final_voltage_v': '2.15714594529914',
                                             'alive_at_end': True,
                                             'ledger': {'harvest_panel_j': '1.7437499999999997',
                                                        'harvest_stored_j': '1.395',
                                                        'drain_stored_j': '2.1933606853397403',
                                                        'load_j': '1.974024616805766',
                                                        'leak_j': '0.0',
                                                        'conversion_loss_j': '0.5680860685339739',
                                                        'throughput_j': '3.5883606853397403'},
                                             'qos_histogram': {'1': 0,
                                                               '2': 0,
                                                               '3': 0,
                                                               '4': 2,
                                                               '5': 0,
                                                               '6': 2,
                                                               '7': 129017},
                                             'controller_steps': 129021,
                                             'packets_emitted': 129020,
                                             'dead_seconds': '12096.794408759808',
                                             'deaths': 1,
                                             'recoveries': 1,
                                             'events_detected': 0,
                                             'events_missed_dead': 0,
                                             'notifications_emitted': 0,
                                             'events_unnotified': 0,
                                             'uptime_fraction': '0.5161282236496076',
                                             'energy_residual_j': '8.881784197001252e-16',
                                             'energy_residual_relative': '2.475164838720871e-16'},
                                 'qos_histogram': [0,
                                                   0,
                                                   0,
                                                   0,
                                                   2,
                                                   0,
                                                   2,
                                                   129017]}},
 'event_detection': {'summary': {'node_id': 'pir',
                                 'mode': 'event_detection',
                                 'duration_s': '20000.0',
                                 'initial_voltage_v': '2.6',
                                 'final_voltage_v': '2.2723431336908435',
                                 'alive_at_end': False,
                                 'uptime_fraction': '0.03183792270480734',
                                 'dead_seconds': '19363.241545903853',
                                 'deaths': 7,
                                 'recoveries': 6,
                                 'controller_steps': 30,
                                 'packets_emitted': 24,
                                 'qos_histogram': {'1': 0,
                                                   '2': 0,
                                                   '3': 0,
                                                   '4': 6,
                                                   '5': 1,
                                                   '6': 6,
                                                   '7': 17},
                                 'events_detected': 130,
                                 'events_missed_dead': 3869,
                                 'notifications_emitted': 24,
                                 'events_unnotified': 3,
                                 'ledger': {'harvest_panel_j': '0.3138750000000058',
                                            'harvest_stored_j': '0.25109999999998905',
                                            'drain_stored_j': '0.2910114170692078',
                                            'load_j': '0.26191027536228684',
                                            'leak_j': '0.0',
                                            'conversion_loss_j': '0.0918761417069377',
                                            'throughput_j': '0.5421114170691969'},
                                 'energy_residual_j': '1.6785184353551585e-14',
                                 'energy_residual_relative': '3.096260994519706e-14'},
                     'qos_histogram': [0, 0, 0, 0, 6, 1, 6, 17],
                     'records': 176,
                     'records_sha256': 'c7c8bbeffd3aa8d88836a31672ee560c24b97ac9f0ea80f2c538c72fae5fb0bb',
                     'summary_run': {'summary': {'node_id': 'pir',
                                                 'mode': 'event_detection',
                                                 'duration_s': '20000.0',
                                                 'initial_voltage_v': '2.6',
                                                 'final_voltage_v': '2.2723431336908435',
                                                 'alive_at_end': False,
                                                 'ledger': {'harvest_panel_j': '0.3138750000000058',
                                                            'harvest_stored_j': '0.25109999999998905',
                                                            'drain_stored_j': '0.2910114170692078',
                                                            'load_j': '0.26191027536228684',
                                                            'leak_j': '0.0',
                                                            'conversion_loss_j': '0.0918761417069377',
                                                            'throughput_j': '0.5421114170691969'},
                                                 'qos_histogram': {'1': 0,
                                                                   '2': 0,
                                                                   '3': 0,
                                                                   '4': 6,
                                                                   '5': 1,
                                                                   '6': 6,
                                                                   '7': 17},
                                                 'controller_steps': 30,
                                                 'packets_emitted': 24,
                                                 'dead_seconds': '19363.241545903853',
                                                 'deaths': 7,
                                                 'recoveries': 6,
                                                 'events_detected': 130,
                                                 'events_missed_dead': 3869,
                                                 'notifications_emitted': 24,
                                                 'events_unnotified': 3,
                                                 'uptime_fraction': '0.03183792270480734',
                                                 'energy_residual_j': '1.6785184353551585e-14',
                                                 'energy_residual_relative': '3.096260994519706e-14'},
                                     'qos_histogram': [0,
                                                       0,
                                                       0,
                                                       0,
                                                       6,
                                                       1,
                                                       6,
                                                       17]}},
 'pinned': {'summary': {'node_id': 'pin',
                        'mode': 'periodic_sensing',
                        'duration_s': '30000.0',
                        'initial_voltage_v': '3.0',
                        'final_voltage_v': '2.1417720641261657',
                        'alive_at_end': True,
                        'uptime_fraction': '0.5149295101553111',
                        'dead_seconds': '14552.11469534067',
                        'deaths': 4,
                        'recoveries': 4,
                        'controller_steps': 776,
                        'packets_emitted': 773,
                        'qos_histogram': {'1': 0,
                                          '2': 0,
                                          '3': 0,
                                          '4': 0,
                                          '5': 0,
                                          '6': 0,
                                          '7': 776},
                        'events_detected': 0,
                        'events_missed_dead': 0,
                        'notifications_emitted': 0,
                        'events_unnotified': 0,
                        'ledger': {'harvest_panel_j': '0.09067500000000069',
                                   'harvest_stored_j': '0.07254000000000084',
                                   'drain_stored_j': '0.09460406212664496',
                                   'load_j': '0.08514365591397903',
                                   'leak_j': '0.0',
                                   'conversion_loss_j': '0.027595406212665777',
                                   'throughput_j': '0.1671440621266458'},
                        'energy_residual_j': '4.0245584642661925e-16',
                        'energy_residual_relative': '2.407838132602501e-15'},
            'qos_histogram': [0, 0, 0, 0, 0, 0, 0, 776],
            'records': 785,
            'records_sha256': 'c54bf3a416bf3d386de48a8e8c1dcb2694b55e694b1c5cd78637c5e690c0fc00',
            'summary_run': {'summary': {'node_id': 'pin',
                                        'mode': 'periodic_sensing',
                                        'duration_s': '30000.0',
                                        'initial_voltage_v': '3.0',
                                        'final_voltage_v': '2.141772064126342',
                                        'alive_at_end': True,
                                        'ledger': {'harvest_panel_j': '0.090675',
                                                   'harvest_stored_j': '0.07254000000000002',
                                                   'drain_stored_j': '0.09460406212663998',
                                                   'load_j': '0.08514365591397592',
                                                   'leak_j': '0.0',
                                                   'conversion_loss_j': '0.027595406212664042',
                                                   'throughput_j': '0.16714406212664001'},
                                        'qos_histogram': {'1': 0,
                                                          '2': 0,
                                                          '3': 0,
                                                          '4': 0,
                                                          '5': 0,
                                                          '6': 0,
                                                          '7': 776},
                                        'controller_steps': 776,
                                        'packets_emitted': 773,
                                        'dead_seconds': '14552.114695339951',
                                        'deaths': 4,
                                        'recoveries': 4,
                                        'events_detected': 0,
                                        'events_missed_dead': 0,
                                        'notifications_emitted': 0,
                                        'events_unnotified': 0,
                                        'uptime_fraction': '0.514929510155335',
                                        'energy_residual_j': '1.3877787807814457e-17',
                                        'energy_residual_relative': '8.302890112422705e-17'},
                            'qos_histogram': [0, 0, 0, 0, 0, 0, 0, 776]}},
 'leaky': {'summary': {'node_id': 'leaky',
                       'mode': 'periodic_sensing',
                       'duration_s': '20000.0',
                       'initial_voltage_v': '3.0',
                       'final_voltage_v': '3.6',
                       'alive_at_end': True,
                       'ledger': {'harvest_panel_j': '1.7437500000000106',
                                  'harvest_stored_j': '0.1454877439150443',
                                  'drain_stored_j': '0.06892125439045775',
                                  'load_j': '0.062029128951414124',
                                  'leak_j': '0.056766489524586516',
                                  'conversion_loss_j': '1.60515438152401',
                                  'throughput_j': '0.27117548783008855'},
                       'qos_histogram': {'1': 11,
                                         '2': 0,
                                         '3': 1,
                                         '4': 1,
                                         '5': 1,
                                         '6': 1,
                                         '7': 370},
                       'controller_steps': 385,
                       'packets_emitted': 385,
                       'dead_seconds': '5740.290349528239',
                       'deaths': 1,
                       'recoveries': 1,
                       'events_detected': 0,
                       'events_missed_dead': 0,
                       'notifications_emitted': 0,
                       'events_unnotified': 0,
                       'uptime_fraction': '0.7129854825235881',
                       'energy_residual_j': '-2.0816681711721685e-17',
                       'energy_residual_relative': '7.676461422930996e-17'},
           'qos_histogram': [0, 11, 0, 1, 1, 1, 1, 370],
           'records': 390,
           'records_sha256': '8bcb0bad5a86fa018cfe26c2d2bcaba9e8762615a6aa4ad434a34494060e1c83',
           'summary_run': {'summary': {'node_id': 'leaky',
                                       'mode': 'periodic_sensing',
                                       'duration_s': '20000.0',
                                       'initial_voltage_v': '3.0',
                                       'final_voltage_v': '3.6',
                                       'alive_at_end': True,
                                       'ledger': {'harvest_panel_j': '1.7437500000000024',
                                                  'harvest_stored_j': '0.14548774391504596',
                                                  'drain_stored_j': '0.06892125439045857',
                                                  'load_j': '0.062029128951412715',
                                                  'leak_j': '0.05676648952458726',
                                                  'conversion_loss_j': '1.6051543815240024',
                                                  'throughput_j': '0.27117548783009177'},
                                       'qos_histogram': {'1': 11,
                                                         '2': 0,
                                                         '3': 1,
                                                         '4': 1,
                                                         '5': 1,
                                                         '6': 1,
                                                         '7': 370},
                                       'controller_steps': 385,
                                       'packets_emitted': 385,
                                       'dead_seconds': '5740.290349528239',
                                       'deaths': 1,
                                       'recoveries': 1,
                                       'events_detected': 0,
                                       'events_missed_dead': 0,
                                       'notifications_emitted': 0,
                                       'events_unnotified': 0,
                                       'uptime_fraction': '0.7129854825235881',
                                       'energy_residual_j': '-1.249000902703301e-16',
                                       'energy_residual_relative': '4.605876853758543e-16'},
                           'qos_histogram': [0, 11, 0, 1, 1, 1, 1, 370]}}}
