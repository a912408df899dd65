"""Fresh-interpreter set-up of one workload, timed from outside by run.py.

Usage: python3 perfbench/setup_probe.py <workload>   (from the checkout root,
with src on PYTHONPATH).  For pia-readme the set-up is importing
phaseintegral.cli; for the library workloads it is problems.set_up().
"""

import sys

if __name__ == "__main__":
    if sys.argv[1] == "pia-readme":
        import phaseintegral.cli  # noqa: F401
    else:
        import problems
        problems.set_up(sys.argv[1])
