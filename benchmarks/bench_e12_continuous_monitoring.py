"""E12: real-time closed-loop monitoring vs store-and-forward telemonitoring (Section II(d)).

The paper notes that most home / mobile monitoring systems "operate in
store-and-forward mode, with no real-time diagnostic capability" and argues
that real-time evaluation "will allow diagnostic evaluation of vital signs in
real-time".  This bench sweeps the store-and-forward upload period and
reports detection latency for deterioration episodes, against the real-time
streaming architecture.
"""

from conftest import emit

from repro.analysis.tables import Table
from repro.scenarios.home import HomeMonitoringConfig, HomeMonitoringScenario

UPLOAD_PERIODS_H = (1.0, 4.0, 8.0, 12.0)
USEFUL_WINDOW_S = 3600.0  # an hour from onset is clinically actionable


def _sweep():
    rows = []
    real_time = HomeMonitoringScenario(HomeMonitoringConfig(mode="real_time", seed=17)).run()
    rows.append(("real_time (streaming)", real_time))
    for hours in UPLOAD_PERIODS_H:
        config = HomeMonitoringConfig(mode="store_and_forward", upload_period_s=hours * 3600.0, seed=17)
        rows.append((f"store_and_forward ({hours:.0f} h uploads)", HomeMonitoringScenario(config).run()))
    return rows


def test_e12_continuous_monitoring():
    rows = _sweep()

    table = Table(
        "E12: deterioration detection latency by telemonitoring architecture",
        ["architecture", "episodes", "detected", "mean_latency_s", "detected_within_1h"],
        notes="real-time latency is set by sampling + network; store-and-forward by the upload batch",
    )
    for name, result in rows:
        table.add_row(name, result.episodes, result.detected_episodes,
                      result.mean_detection_latency_s or float("nan"),
                      result.detected_within(USEFUL_WINDOW_S))
    emit(table)

    real_time = rows[0][1]
    batched = [result for name, result in rows[1:]]
    assert real_time.detected_episodes == real_time.episodes
    assert real_time.detected_within(USEFUL_WINDOW_S) == real_time.episodes
    assert all(real_time.mean_detection_latency_s <= result.mean_detection_latency_s
               for result in batched if result.mean_detection_latency_s is not None)
    # Latency grows with the upload period.
    latencies = [result.mean_detection_latency_s for result in batched]
    assert latencies == sorted(latencies)
