#!/usr/bin/env python3
"""Re-plot the paper figures from the bench runner's JSON.

Usage:
    ./build/bench/bench_runner --out run.json fig05_throughput_test
    scripts/plot_figures.py run.json out/

Writes one SVG per entry holding every run's per-minute average
processing time: the "<run>.proc_ms" series, whose element i covers
minute i. Requires matplotlib; degrades to printing a summary table if it
is unavailable.
"""
import json
import os
import sys


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 1
    src, out = sys.argv[1], sys.argv[2]
    with open(src) as f:
        entries = json.load(f)["entries"]
    figures = {}
    for name, entry in entries.items():
        series = {key[:-len(".proc_ms")]: values
                  for key, values in entry["sim"].items()
                  if key.endswith(".proc_ms")}
        if series:
            figures[name] = series
    if not figures:
        print(f"no per-minute series in {src}")
        return 1
    try:
        import matplotlib
        matplotlib.use("SVG")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib unavailable; summary instead:")
        for name, series in figures.items():
            for label, ys in series.items():
                ys = [y for y in ys if y is not None]
                mean = sum(ys) / len(ys) if ys else 0.0
                print(f"  {name} {label}: {len(ys)} windows, "
                      f"mean {mean:.2f} ms")
        return 0
    os.makedirs(out, exist_ok=True)
    for name, series in figures.items():
        fig, ax = plt.subplots(figsize=(7, 4))
        for label, ys in series.items():
            points = [(60 * (i + 1), y) for i, y in enumerate(ys)
                      if y is not None]
            ax.plot([x for x, _ in points], [y for _, y in points],
                    marker="o", markersize=3, label=label)
        ax.set_xlabel("Running Time (s)")
        ax.set_ylabel("Avg. Proc. Time (ms)")
        ax.legend()
        ax.grid(True, alpha=0.3)
        fig.tight_layout()
        path = os.path.join(out, name + ".svg")
        fig.savefig(path)
        plt.close(fig)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
