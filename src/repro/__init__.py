"""repro: an open medical cyber-physical systems (MCPS) framework.

This library reproduces the system envisioned in Lee & Sokolsky, "Medical
Cyber Physical Systems" (DAC 2010): interoperable medical devices composed
into verified, physiologically closed-loop clinical scenarios.

Quickstart::

    from repro.core import ClosedLoopPCASystem, PCASystemConfig

    result = ClosedLoopPCASystem(PCASystemConfig(mode="closed_loop")).run()
    print(result.min_spo2, result.harmed)

Subpackages
-----------
``repro.sim``
    Discrete-event simulation kernel (clock, processes, channels, faults).
``repro.patient``
    Pharmacokinetic / pharmacodynamic patient models and populations.
``repro.devices``
    Virtual medical devices (PCA pump, pulse oximeter, ventilator, ...).
``repro.middleware``
    ICE-style interoperability: bus, registry, clock sync, supervisor hosting.
``repro.core``
    Closed-loop PCA supervision (the paper's Figure 1 system).
``repro.control``
    Supervisory adaptive control and baseline controllers.
``repro.alarms``
    Threshold, patient-adaptive, and multivariate smart alarms.
``repro.ehr``
    Electronic health record store with access control.
``repro.workflow``
    Executable clinical workflow language, analysis, and compilation.
``repro.verification``
    Transition systems, reachability, BMC, k-induction, assume-guarantee.
``repro.security``
    Device authentication, command authorisation, attack models.
``repro.certification``
    GSN-style assurance cases and incremental re-certification.
``repro.scenarios``
    End-to-end clinical scenarios used by the experiments.
``repro.campaign``
    Population-scale Monte Carlo campaigns: scenario registry, parallel
    execution engine, streamed results with resume, and aggregation.
``repro.analysis``
    Metrics, statistics, and report-table formatting.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
