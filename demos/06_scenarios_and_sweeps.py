"""
Scenario files and parameter sweeps
===================================

The batch surface: a scenario JSON bundles parameters, history, integration
controls and the analyses to run; a sweep repeats a base scenario along one
parameter axis and tabulates derived columns. The same files drive the
command line tool:

    malaria-dde simulate demos/scenarios/endemic.json --out out_endemic
    malaria-dde sweep demos/scenarios/sweep_c_vh.json --out out_sweep
    malaria-dde report demos/scenarios/endemic.json --only stability
"""

import os

from malaria_dde import load_scenario, load_sweep, run_scenario, run_sweep

here = os.path.dirname(os.path.abspath(__file__))

# run one scenario: prints the report and writes trajectory/report files
scn = load_scenario(os.path.join(here, "scenarios", "endemic.json"))
lines = run_scenario(scn, out_dir="out_endemic")
print("scenario report:")
for ln in lines:
    print(" ", ln)

# sweep the vector-to-host transmission rate across the R0 = 1 threshold:
# the endemic column switches from absent to LAS as R0 crosses 1
sweep = load_sweep(os.path.join(here, "scenarios", "sweep_c_vh.json"))
path = run_sweep(sweep, out_dir="out_sweep")
print("\nsweep table:")
with open(path) as fh:
    for row in fh:
        print(" ", row.rstrip())
