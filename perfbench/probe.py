"""Host-speed probe: a fixed amount of work that does not touch the
program under test.

Before every op the harness starts two copies of this script together
and times each from spawn to exit.  Its cost moves only with the host
(CPU contention, cache pressure, the speed of the physical core behind
each vCPU), so the probes around an op measure how fast the host ran
while the op ran.  The work mirrors
what the ops spend their time on: interpreter start-up, module imports,
JSON encoding and parsing, and dictionary churn.

On the 2-vCPU host the benchmark was tuned on, host speed halved and
recovered within minutes.  Over 57 ops spread across 10 minutes of such
swings, every kind of op (set-up, pass 1 and pass 2 of each workload)
moved with this probe one for one (log-log slope 0.85-1.08,
correlation 0.88-0.99).  A tight in-process loop, alone or in two
parallel processes, swung a third more than the ops did.
"""

import argparse  # noqa: F401 - imports are part of the fixed work
import csv  # noqa: F401
import decimal  # noqa: F401
import email.parser  # noqa: F401
import fractions  # noqa: F401
import http.client  # noqa: F401
import json
import logging  # noqa: F401
import statistics  # noqa: F401
import tarfile  # noqa: F401
import unittest  # noqa: F401
import xml.dom.minidom  # noqa: F401
import zipfile  # noqa: F401


def work() -> float:
    """Deterministic JSON and dictionary work (result-file shaped)."""
    doc = {"cells": [{"i": i, "lat": [j * 0.001 + i for j in range(40)],
                      "name": f"cell{i}", "stats": {"a": i, "b": i * 2.5}}
                     for i in range(300)]}
    total = 0.0
    for _ in range(3):
        total += len(json.loads(json.dumps(doc))["cells"])
    sums = {}
    for i in range(20_000):
        key = (i % 97, i % 13)
        sums[key] = sums.get(key, 0.0) + i * 0.5
    return total + sum(sums.values())


if __name__ == "__main__":
    work()
