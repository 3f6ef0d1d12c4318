"""Set-up probe: import moboga, build a workload's problem and EngineConfig.

Prints the CLOCK_MONOTONIC time at which that is done, so the parent that
started this process can measure set-up from process start. Usage:
``python3 perfbench/setup_probe.py <workload>``.
"""
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402  (imports moboga)

w = WORKLOADS[sys.argv[1]]
problem, cfg = w.build(), w.engine_config(0)
print(time.clock_gettime(time.CLOCK_MONOTONIC))
