#!/usr/bin/env python3
"""Scan every orbital graph of S_6 acting on the 30 cosets of S_4.

Enumerates every selection of non-trivial suborbits closed under the
pairing, and runs the exact Hamilton solver on every connected union.
Prints one line per selection with the verdict and search effort.
"""

import time

from hamvt import (find_hamilton_cycle, orbital_graph, pair_closed_selections,
                   suborbits, verify_hamilton)
from hamvt.fixtures import s6_on_s4_cosets


def main():
    act = s6_on_s4_cosets()
    A = act.group
    tbl = suborbits(A, 0)
    print(f"degree {act.degree}, group order {A.order()}, "
          f"suborbit lengths {tbl.lengths()}")
    print(f"pairing {tbl.pairing}")

    t0 = time.perf_counter()
    hamiltonian = disconnected = 0
    for sel in pair_closed_selections(tbl):
        og = orbital_graph(A, 0, sel)
        label = ",".join(map(str, sel))
        if not og.connected:
            disconnected += 1
            print(f"  {label:28s} disconnected, skipped")
            continue
        res = find_hamilton_cycle(og.graph)
        ok = res.status == "found" and \
            verify_hamilton(og.graph, res.certificate)
        hamiltonian += ok
        print(f"  {label:28s} valency {og.graph.degree(0):2d}  "
              f"{res.status:8s} nodes {res.nodes:7d}  verified {ok}")
        assert ok, f"selection {label} not Hamiltonian"
    print(f"{hamiltonian} connected selections, all Hamiltonian; "
          f"{disconnected} disconnected; "
          f"{time.perf_counter() - t0:.1f}s total")


if __name__ == "__main__":
    main()
