"""Correctness checks on the text vliw_vp prints.

Every measured operation's output is compared byte for byte with a
reference produced by a different path (no result store, or the CLI
instead of the daemon). The reference itself must pass the invariants
below, which hold for any correct simulator whatever the seed.
"""

ALL_SECTIONS = [
    "Table 2:",
    "Table 3:",
    "Table 4:",
    "Figure 8:",
    "Comparison with the static-recovery scheme",
    "Region extension:",
    "Overlap validation:",
    "The paper's worked example",
]


def _table(text, title):
    """Rows of the '|'-separated table whose title line starts with
    [title], as lists of stripped cells (header, rule and summary rows
    excluded)."""
    lines = text.split("\n")
    start = next((i for i, l in enumerate(lines) if l.startswith(title)), None)
    if start is None:
        return None
    rows = []
    # lines[start + 1] is the column header; rule lines use '+', not '|'
    for line in lines[start + 2:]:
        if line.startswith("-"):
            continue
        if "|" not in line:
            break
        cells = [c.strip() for c in line.split("|")]
        if cells[0] != "mean":
            rows.append(cells)
    return rows


def _float(cell):
    return float(cell.rstrip("x%"))


def check_all(text, models):
    """Problems found in the output of `vliw_vp all` over [models]
    benchmarks; empty when the output is sound."""
    problems = [f"missing section {s!r}" for s in ALL_SECTIONS if s not in text]
    if problems:
        return problems
    for title in ("Table 2:", "Table 3:"):
        rows = _table(text, title)
        if len(rows) != models:
            problems.append(f"{title} has {len(rows)} rows, expected {models}")
        for r in rows:
            best, worst = _float(r[1]), _float(r[2])
            if not (0 < best <= 2 and 0 < worst <= 2):
                problems.append(f"{title} row {r[0]} out of range: {r}")
    overlap = _table(text, "Overlap validation:")
    if len(overlap) != models:
        problems.append(f"overlap table has {len(overlap)} rows")
    for r in overlap:
        if r[-1] != "ok":
            problems.append(f"overlap state of {r[0]} is {r[-1]!r}")
    # Figure 8: each benchmark's five buckets are shares of its executions.
    fig = text.split("Figure 8:", 1)[1].split("Comparison with", 1)[0]
    for block in fig.split("\n\n")[1:]:
        if not block.strip():
            continue
        shares = [
            float(l.split()[1].rstrip("%"))
            for l in block.strip().split("\n")[1:]
            if l.strip()
        ]
        if len(shares) != 5 or abs(sum(shares) - 100.0) > 0.1:
            problems.append(f"figure 8 shares do not sum to 100: {block[:40]!r}")
    return problems


def check_ablation(text, sweep, models):
    """Problems found in the output of `vliw_vp ablate --sweep [sweep]`."""
    problems = []
    titles = [l for l in text.split("\n") if l.endswith(f": {sweep} sweep")]
    if len(titles) != models:
        problems.append(f"{len(titles)} sweep tables, expected {models}")
    for title in titles:
        rows = _table(text, title)
        if not rows:
            problems.append(f"empty sweep table {title!r}")
        for r in rows:
            speedup = _float(r[-2])
            if not 0.5 < speedup < 4.0:
                problems.append(f"{title}: implausible speedup {r[-2]!r}")
    return problems
