"""Longitudinal study: how certificate rotation erodes the paper's numbers.

Runs the same 120-site study at epochs 0..5 of the ``cert-rotation``
churn policy (certificates renew, SAN sets split and merge, services
re-key credential modes) and prints the attribution-drift report:
reuse trajectory per dataset, CERT/IP/CRED drift per epoch, the
reuse-opportunity half-life, and the churn ledger.

Epoch 0 is byte-identical to a plain ``Study.run`` of the same config —
the evolution engine is provably inert until the first epoch.

Run:  python examples/longitudinal_study.py
"""

from __future__ import annotations

from repro.analysis.study import StudyConfig
from repro.evolve import run_longitudinal


def main() -> None:
    config = StudyConfig(seed=7, n_sites=120, dns_study_days=0.25)
    print("Measuring 6 epochs of certificate rotation "
          f"(seed={config.seed}, n_sites={config.n_sites})...")
    result = run_longitudinal(
        config, policy="cert-rotation", epochs=5, progress=print
    )

    print()
    print(result.render())

    alexa_series = [
        cell.datasets["alexa"].redundant_connections for cell in result.cells
    ]
    print()
    print(
        "Takeaway: routine rotation leaves SAN sets (and hence reuse "
        "opportunities) intact, while the rarer SAN splits/merges and "
        f"credential re-keys drift Alexa redundancy {alexa_series[0]} -> "
        f"{alexa_series[-1]} connections over 5 epochs — ecosystem churn "
        "moves the paper's numbers without any change in browser "
        "behaviour."
    )


if __name__ == "__main__":
    main()
