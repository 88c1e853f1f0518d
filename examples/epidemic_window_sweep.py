#!/usr/bin/env python3
"""Epidemic reachability as the observation window slides forward.

Section 2.3: ``MST_a`` is "useful for the study of epidemiology, the
spread of infectious diseases ... when the network is about individual
contacts".  Section 2.3 also notes that "as the time window slides
forward, we can predict the minimum cost for the future".

This example slides a fixed-length window across a contact network and
tracks, per window, how many individuals patient zero can infect and
how quickly.  The sweep runs through the sliding-window engine
(:mod:`repro.incremental`): each window is one earliest-arrival query
over the contact network's columns, with output identical to the
per-window computation on the window's own subgraph.

Run:  python examples/epidemic_window_sweep.py
"""

from repro.core.sliding import iter_windows
from repro.datasets.registry import load_dataset
from repro.incremental import SlidingEngine


def main() -> None:
    # Call-detail records as the proxy contact network (the paper's
    # Phone dataset shape): durations are call lengths.
    contacts = load_dataset("phone", scale=0.15)
    t_start, t_end = contacts.time_span()
    span = t_end - t_start
    window_length = span * 0.5
    step = span * 0.01  # fine-grained slide
    patient_zero = max(
        contacts.vertices,
        key=lambda v: len(contacts.out_edges(v)),
    )
    print(
        f"contact network: {contacts.num_vertices} individuals, "
        f"{contacts.num_edges} contacts, patient zero {patient_zero}"
    )
    print(f"sliding a {window_length:.0f}-unit window across [{t_start:.0f}, {t_end:.0f}]")
    print()
    print(f"{'window start':>12} | {'infected':>8} | {'peak arrival':>12} | {'mean delay':>10}")
    print("-" * 54)

    engine = SlidingEngine(contacts, patient_zero)
    windows = 0
    for i, window in enumerate(iter_windows(contacts, window_length, step)):
        measurement = engine.measure_msta(window)
        windows += 1
        if i % 5:  # every window is measured; print every 5th
            continue
        tree = measurement.tree
        if tree is None or measurement.coverage == 0:
            print(f"{window.t_alpha:>12.0f} | {0:>8} | {'-':>12} | {'-':>10}")
            continue
        arrivals = [
            t - window.t_alpha
            for v, t in tree.arrival_times.items()
            if v != patient_zero
        ]
        print(
            f"{window.t_alpha:>12.0f} | {measurement.coverage:>8} | "
            f"{max(arrivals):>12.0f} | {sum(arrivals) / len(arrivals):>10.0f}"
        )

    print()
    print(
        f"each row is one MST_a query (every 5th of {windows} windows shown):\n"
        "the set of infected individuals is exactly V_r, and per-individual\n"
        "infection times are the earliest arrival times of the tree."
    )


if __name__ == "__main__":
    main()
