"""Set-up probe: import safecut and load one workload's inputs, then exit.

Run in a fresh interpreter by run.py, which times the whole process:

    python3 perfbench/probe.py {sweep|deep|cli} WORKDIR
"""

import os
import sys


def main(workload, workdir):
    from safecut import load_network
    from safecut.bounds import load_bounds
    from safecut.milp import load_query

    if workload == "cli":
        for tag in ("well", "under"):
            load_network(os.path.join(workdir, f"net_{tag}.json"))
            load_query(os.path.join(workdir, f"query_{tag}.json"))
        load_network(os.path.join(workdir, "mon_net.json"))
        load_bounds(os.path.join(workdir, "mon_bounds.json"))
        return
    for name in sorted(os.listdir(workdir)):
        load_network(os.path.join(workdir, name, "net.json"))
        load_query(os.path.join(workdir, name, "query.json"))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
