#!/usr/bin/env python3
"""Print the reference-point gate fidelities and composite protocol products.

The gate is scored at [g, kappa] = [0.3, 26] GHz with the emitter decay rate
read either as the total rate (0.013 GHz) or as the zero-phonon-line rate
(0.0004 GHz), under both fidelity input conventions, against the target
fidelities 99.6% (plus readout) and 99.5% (minus readout).  Composite numbers
multiply per-gate fidelities over the gate count of each conversion scenario,
quoted under both recovery re-entry conventions.
"""

from entconv.cnot import BENCHMARK_TOLERANCE_PP, benchmark_report
from entconv.protocols import COMPOSITE_GATE_FIDELITY, composite_fidelity_report


def main() -> None:
    print(f"reference-point gate fidelity (tolerance {BENCHMARK_TOLERANCE_PP} pp)")
    print(f"{'convention':44s} {'fidelity':>10s} {'target':>7s} {'dev pp':>7s}  verdict")
    for key, row in sorted(benchmark_report().items()):
        verdict = "matched" if row["matched"] else "deviates"
        print(f"{key:44s} {row['fidelity']:10.6f} {row['target']:7.3f} {row['deviation_pp']:7.3f}  {verdict}")

    print()
    print(f"composite products at per-gate fidelity {COMPOSITE_GATE_FIDELITY}")
    print(f"{'scenario':24s} {'gates(suffix/full)':>18s} {'suffix':>9s} {'full':>9s} {'reference':>10s}")
    for row in composite_fidelity_report():
        gates = f"{row['suffix_gates']}/{row['full_gates']}"
        print(
            f"{row['label']:24s} {gates:>18s} {row['product_suffix']:9.4f} "
            f"{row['product_full']:9.4f} {row['reference']:10.3f}"
        )
    print()
    print("note: the executed recovery re-enters at the tagging suffix (fewer gates);")
    print("the reference composite numbers correspond to re-running the whole circuit.")


if __name__ == "__main__":
    main()
