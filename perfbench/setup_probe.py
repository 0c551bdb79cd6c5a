"""Time what a fresh interpreter pays before its first command.

Usage: python3 setup_probe.py SRC_DIR SPEC_FILE...

Measures ``import killing3`` plus parsing each spec file the way the CLI does
(catalog construction, the grid CSV load, the cf_family twist-ODE solve), and
prints ``{"setup_s": seconds}``.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from killing3.cli import parse_metric_spec  # noqa: E402

for path in sys.argv[2:]:
    with open(path) as fh:
        parse_metric_spec(fh.read())
print(json.dumps({"setup_s": time.perf_counter() - t0}))
