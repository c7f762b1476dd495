#!/usr/bin/env python3
"""LAMMPS scaling study: regenerate the paper's Figures 2-5 and Listing 4.

The paper's flagship evaluation: the official LAMMPS Lennard-Jones
benchmark with the box multiplied by 30 (864 million atoms), swept over
three InfiniBand VM types up to 1,920 cores.  This example runs the sweep
through :class:`repro.api.AdvisorSession`, writes the four chart types as
SVG files, and prints the advice table.

Run with::

    python examples/lammps_scaling_study.py [output_dir]
"""

import sys

from repro.api import AdvisorSession
from repro.core.plotdata import efficiency, speedup

OUTPUT_DIR = sys.argv[1] if len(sys.argv) > 1 else "lammps_plots"

session = AdvisorSession()
info = session.deploy({
    "subscription": "scaling-study",
    "skus": ["Standard_HC44rs", "Standard_HB120rs_v2",
             "Standard_HB120rs_v3"],
    "rgprefix": "lammpsstudy",
    "appsetupurl": "https://example.org/lammps.sh",
    "nnodes": [1, 2, 3, 4, 6, 8, 10, 12, 14, 16],
    "appname": "lammps",
    "region": "southcentralus",
    "ppr": 100,
    # Listing 2 rewrites the in.lj box multipliers from $BOXFACTOR;
    # 30^3 x 32,000 = 864M atoms (the paper's "860M" subtitle).
    "appinputs": {"BOXFACTOR": ["30"]},
    "tags": {"experiment": "figures-2-to-5"},
})

print(f"running {info.scenario_count} scenarios "
      f"(up to {16 * 120} cores per job)...")
report = session.collect(deployment=info.name)
print(f"completed {report.completed}, failed {report.failed}; "
      f"sweep task cost ${report.task_cost_usd:.2f}")

# The four plot types of Sec. III-D plus the Fig. 6 Pareto chart.
plots = session.plot(deployment=info.name, output_dir=OUTPUT_DIR)
for path in plots.paths:
    print(f"wrote {path}")

# Console view of the headline series.
dataset = session.snapshot(info.name)
for builder in (speedup, efficiency):
    data = builder(dataset)
    print(f"\n{data.title} [{data.subtitle}]")
    for series in data.series:
        formatted = "  ".join(
            f"{int(x)}:{y:.2f}" for x, y in series.points
        )
        print(f"  {series.label}: {formatted}")

# Listing 4: advice restricted to the paper's node counts.
advice = session.advise(deployment=info.name, appname="lammps",
                        nnodes=(3, 4, 8, 16))
print("\nAdvice (cf. paper Listing 4):")
print(advice.render_table())
