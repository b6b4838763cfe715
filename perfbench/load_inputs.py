"""Set-up probe: import the CLI, then load and validate input files.

    PYTHONPATH=src python3 perfbench/load_inputs.py FILE.json ...

Each file goes through the public loader the CLI would use for it. No
dynamics run; the wall time of this process is the benchmark's set-up
time.
"""

import json
import sys

import threshold_lab.cli  # noqa: F401  (importing the CLI is part of set-up)
from threshold_lab.dynamics import weighted_graph_from_dict
from threshold_lab.graph_core import instance_from_dict
from threshold_lab.reductions import formula_from_dict

for path in sys.argv[1:]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if "clauses" in data:
        formula_from_dict(data)
    elif "weighted_edges" in data:
        weighted_graph_from_dict(data)
    else:
        instance_from_dict(data)
