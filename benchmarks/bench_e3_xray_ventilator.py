"""E3: X-ray / ventilator synchronisation (Section II(b)).

Compares the three coordination designs the paper discusses -- uncoordinated
manual operation, automatic pause/restart, and ventilator-state broadcasting --
on image quality and apnoea (ventilation interruption) hazard, including the
effect of command loss on the pause/restart design and of transmission delay
on the state-broadcast design.
"""

from conftest import emit

from repro.analysis.tables import Table
from repro.scenarios.xray_vent import XRayVentilatorConfig, XRayVentilatorScenario

IMAGES = 10
PERIOD_S = 120.0


def _run(mode, **overrides):
    config = XRayVentilatorConfig(mode=mode, image_requests=IMAGES, request_period_s=PERIOD_S,
                                  seed=11, **overrides)
    return XRayVentilatorScenario(config).run()


def _all_modes():
    rows = []
    rows.append(("manual (5% forget restart)", _run("manual", forget_restart_probability=0.05)))
    rows.append(("manual (20% forget restart)", _run("manual", forget_restart_probability=0.20)))
    rows.append(("pause_restart (reliable network)", _run("pause_restart")))
    rows.append(("pause_restart (30% command loss)", _run("pause_restart", command_loss_probability=0.3)))
    rows.append(("pause_restart + apnea watchdog", _run("pause_restart", command_loss_probability=0.3,
                                                        apnea_watchdog_enabled=True)))
    rows.append(("state_broadcast (50 ms latency)", _run("state_broadcast", network_latency_s=0.05)))
    rows.append(("state_broadcast (400 ms latency)", _run("state_broadcast", network_latency_s=0.4)))
    return rows


def test_e3_xray_ventilator_coordination():
    rows = _all_modes()

    table = Table(
        "E3: X-ray/ventilator coordination modes",
        ["configuration", "sharp", "blurred", "skipped_windows", "apnea_episodes",
         "max_apnea_s", "unsafe_apnea", "left_paused"],
        notes="state_broadcast removes the apnoea hazard; pause_restart depends on the resume reaching the ventilator",
    )
    by_name = {}
    for name, result in rows:
        by_name[name] = result
        table.add_row(name, result.sharp_images, result.blurred_images, result.skipped_windows,
                      result.apnea_episodes, result.max_apnea_time_s, result.unsafe_apnea_events,
                      result.ventilator_left_paused)
    emit(table)

    # Paper-shape checks.
    assert by_name["state_broadcast (50 ms latency)"].apnea_episodes == 0
    assert by_name["state_broadcast (50 ms latency)"].unsafe_apnea_events == 0
    assert (by_name["pause_restart (30% command loss)"].unsafe_apnea_events
            >= by_name["pause_restart (reliable network)"].unsafe_apnea_events)
    assert (by_name["pause_restart + apnea watchdog"].max_apnea_time_s
            <= by_name["pause_restart (30% command loss)"].max_apnea_time_s)
