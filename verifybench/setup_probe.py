"""Time the explore workloads' set-up in a fresh interpreter.

Prints the seconds from this script's first statement to the end of
:func:`verifybench.explore_workload.set_up` (imports, systems, a tiny
warm-up exploration).  ``run.py`` runs it a few times for ``setup_s``.
"""

import os
import sys
import time


def main() -> None:
    started = time.perf_counter()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [root, os.path.join(root, "src")]
    from verifybench.explore_workload import set_up

    set_up()
    print(time.perf_counter() - started)


if __name__ == "__main__":
    main()
