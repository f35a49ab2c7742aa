#!/usr/bin/env python3
"""Plot the paper's figures from bench output.

The bench binaries print machine-readable rows prefixed with ``csv,<tag>``.
Pipe their combined output (or a saved log) through this script to produce
one PNG per figure when matplotlib is available, falling back to plain-text
summaries otherwise:

    for b in build/bench/*; do "$b"; done | tee bench.log
    python3 scripts/plot_figures.py bench.log --outdir plots/

Only the ``fig*`` tags are plotted (the ablation tables are text-first);
values like ``34.31 +/- 0.08`` are split into mean and 95% CI error bars.

A per-slot log CSV (sim::SlotLog::write_csv) can be plotted with
``--trace``: the slot's Eq. (23) bound gap (``bound_gap`` column,
precomputed by the simulator) over time:

    python3 scripts/plot_figures.py --trace trace.csv --outdir plots/
"""

import argparse
import collections
import os
import re
import sys

MEAN_CI = re.compile(r"^\s*(-?\d+(?:\.\d+)?)\s*\+/-\s*(\d+(?:\.\d+)?)\s*$")

# Figures whose first column is the x axis and remaining columns are series.
SWEEP_TAGS = {
    "fig4b": ("number of licensed channels M", "Y-PSNR (dB)"),
    "fig4c": ("channel utilization eta", "Y-PSNR (dB)"),
    "fig6a": ("channel utilization eta", "Y-PSNR (dB)"),
    "fig6b": ("false-alarm probability eps", "Y-PSNR (dB)"),
    "fig6c": ("common channel bandwidth B0 (Mbps)", "Y-PSNR (dB)"),
}


def parse_csv_rows(lines):
    """Group `csv,<tag>,...` rows into {tag: [row, ...]} (header first)."""
    tables = collections.OrderedDict()
    for line in lines:
        line = line.strip()
        if not line.startswith("csv,"):
            continue
        cells = line.split(",")
        tag = cells[1]
        tables.setdefault(tag, []).append(cells[2:])
    return tables


def split_mean_ci(cell):
    m = MEAN_CI.match(cell)
    if m:
        return float(m.group(1)), float(m.group(2))
    try:
        return float(cell), 0.0
    except ValueError:
        return None, None


def plot_sweep(tag, rows, outdir, plt):
    header, data = rows[0], rows[1:]
    xs = [float(r[0]) for r in data]
    fig, ax = plt.subplots(figsize=(5.2, 3.6))
    for col in range(1, len(header)):
        means, cis = [], []
        for r in data:
            mean, ci = split_mean_ci(r[col])
            means.append(mean)
            cis.append(ci)
        if any(m is None for m in means):
            continue
        ax.errorbar(xs, means, yerr=cis, marker="o", capsize=3,
                    label=header[col])
    xlabel, ylabel = SWEEP_TAGS[tag]
    ax.set_xlabel(xlabel)
    ax.set_ylabel(ylabel)
    ax.set_title(tag)
    ax.grid(True, alpha=0.3)
    ax.legend(fontsize=8)
    fig.tight_layout()
    path = os.path.join(outdir, f"{tag}.png")
    fig.savefig(path, dpi=150)
    print(f"wrote {path}")


def plot_fig3(rows, outdir, plt):
    header, data = rows[0], rows[1:]
    users = [f"{r[0]} ({r[1]})" for r in data]
    fig, ax = plt.subplots(figsize=(5.2, 3.6))
    width = 0.25
    for k, col in enumerate(range(2, len(header))):
        means = [split_mean_ci(r[col])[0] for r in data]
        positions = [i + (k - 1) * width for i in range(len(users))]
        ax.bar(positions, means, width, label=header[col])
    ax.set_xticks(range(len(users)))
    ax.set_xticklabels(users, fontsize=8)
    ax.set_ylabel("Y-PSNR (dB)")
    ax.set_ylim(28, None)
    ax.set_title("fig3 — per-user quality, single FBS")
    ax.legend(fontsize=8)
    fig.tight_layout()
    path = os.path.join(outdir, "fig3.png")
    fig.savefig(path, dpi=150)
    print(f"wrote {path}")


def plot_fig4a(rows, outdir, plt):
    header, data = rows[0], rows[1:]
    iters = [float(r[0]) for r in data]
    fig, ax = plt.subplots(figsize=(5.2, 3.6))
    for col in range(1, len(header)):
        ax.plot(iters, [float(r[col]) for r in data], label=header[col])
    ax.set_xlabel("iteration")
    ax.set_ylabel("dual variables")
    ax.set_title("fig4a — Table I convergence")
    ax.grid(True, alpha=0.3)
    ax.legend(fontsize=8)
    fig.tight_layout()
    path = os.path.join(outdir, "fig4a.png")
    fig.savefig(path, dpi=150)
    print(f"wrote {path}")


def parse_trace_csv(lines):
    """Per-slot (slot, bound_gap) pairs from a SlotLog CSV dump.

    The trace repeats slot-level columns once per user; slots deduplicate
    on the slot id. Returns [] when there is no bound_gap column.
    """
    header = lines[0].strip().split(",") if lines else []
    if "bound_gap" not in header or "slot" not in header:
        return []
    slot_col = header.index("slot")
    gap_col = header.index("bound_gap")
    seen = {}
    for line in lines[1:]:
        cells = line.strip().split(",")
        if len(cells) <= max(slot_col, gap_col):
            continue
        seen[int(cells[slot_col])] = float(cells[gap_col])
    return sorted(seen.items())


def plot_trace(pairs, outdir, plt):
    slots = [s for s, _ in pairs]
    gaps = [g for _, g in pairs]
    fig, ax = plt.subplots(figsize=(5.2, 3.6))
    ax.plot(slots, gaps, marker=".", linewidth=1)
    ax.set_xlabel("slot")
    ax.set_ylabel("Eq. (23) bound gap (Q_ub - Q)")
    ax.set_title("per-slot greedy optimality gap")
    ax.grid(True, alpha=0.3)
    fig.tight_layout()
    path = os.path.join(outdir, "trace_bound_gap.png")
    fig.savefig(path, dpi=150)
    print(f"wrote {path}")


def run_trace_mode(path, outdir):
    with open(path) as f:
        lines = f.readlines()
    pairs = parse_trace_csv(lines)
    if not pairs:
        print("no bound_gap column found — is this a SlotLog CSV?",
              file=sys.stderr)
        return 1
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib unavailable — text summary only:\n")
        worst = max(pairs, key=lambda p: p[1])
        mean = sum(g for _, g in pairs) / len(pairs)
        print(f"slots: {len(pairs)}  mean bound_gap: {mean:.6g}  "
              f"worst: {worst[1]:.6g} (slot {worst[0]})")
        return 0
    os.makedirs(outdir, exist_ok=True)
    plot_trace(pairs, outdir, plt)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("log", nargs="?", help="bench log (default: stdin)")
    parser.add_argument("--outdir", default="plots")
    parser.add_argument("--trace", metavar="CSV",
                        help="plot the bound_gap column of a per-slot "
                             "trace CSV instead of bench figures")
    args = parser.parse_args()

    if args.trace:
        return run_trace_mode(args.trace, args.outdir)

    if args.log:
        with open(args.log) as f:
            lines = f.readlines()
    else:
        lines = sys.stdin.readlines()
    tables = parse_csv_rows(lines)
    if not tables:
        print("no csv rows found — pipe bench output through this script",
              file=sys.stderr)
        return 1

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib unavailable — text summary only:\n")
        for tag, rows in tables.items():
            print(f"== {tag} ==")
            for row in rows:
                print("  " + " | ".join(row))
        return 0

    os.makedirs(args.outdir, exist_ok=True)
    for tag, rows in tables.items():
        if tag in SWEEP_TAGS and len(rows) > 2:
            plot_sweep(tag, rows, args.outdir, plt)
        elif tag == "fig3" and len(rows) > 1:
            plot_fig3(rows, args.outdir, plt)
        elif tag == "fig4a" and len(rows) > 2:
            plot_fig4a(rows, args.outdir, plt)
    return 0


if __name__ == "__main__":
    sys.exit(main())
