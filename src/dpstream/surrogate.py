"""Deterministic census-style surrogate data for demos and acceptance runs.

The real census income file may not be available offline, so this module can
materialize a categorical dataset of the same shape: 13 attributes with
realistic cardinalities and cross-attribute correlation induced by a small
latent-class mixture. Same seed, same file, byte for byte.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

SCHEMA: list[tuple[str, list[str]]] = [
    ("age", ["17-24", "25-29", "30-34", "35-39", "40-44", "45-49", "50-54", "55-64", "65+"]),
    ("workclass", ["private", "self-emp", "self-emp-inc", "federal", "local", "state",
                   "without-pay", "never-worked"]),
    ("education", ["preschool", "1st-4th", "5th-6th", "7th-8th", "9th", "10th", "11th", "12th",
                   "hs-grad", "some-college", "assoc-voc", "assoc-acdm", "bachelors", "masters",
                   "prof-school", "doctorate"]),
    ("marital_status", ["married", "divorced", "never-married", "separated", "widowed",
                        "spouse-absent", "af-spouse"]),
    ("occupation", ["tech-support", "craft-repair", "other-service", "sales", "exec-managerial",
                    "prof-specialty", "handlers-cleaners", "machine-op", "adm-clerical",
                    "farming-fishing", "transport", "priv-house-serv", "protective-serv",
                    "armed-forces"]),
    ("relationship", ["wife", "own-child", "husband", "not-in-family", "other-relative",
                      "unmarried"]),
    ("race", ["white", "black", "asian-pac", "amer-indian", "other"]),
    ("sex", ["female", "male"]),
    ("capital_gain", ["none", "low", "high"]),
    ("capital_loss", ["none", "low", "high"]),
    ("hours_per_week", ["<20", "20-34", "35-39", "40", "41-59", "60+"]),
    ("native_country", ["united-states", "mexico", "philippines", "germany", "canada",
                        "puerto-rico", "el-salvador", "india", "cuba", "england", "china",
                        "jamaica", "south", "italy", "dominican-republic", "vietnam",
                        "guatemala", "japan", "poland", "columbia"]),
    ("income", ["<=50K", ">50K"]),
]

_CLASS_WEIGHTS = np.array([0.5, 0.3, 0.2])


def schema_spec(columns: list[str] | None = None) -> list[dict]:
    """Schema-file entries, optionally restricted to a column subset."""
    entries = [{"name": name, "values": values} for name, values in SCHEMA]
    if columns is None:
        return entries
    by_name = {e["name"]: e for e in entries}
    return [by_name[c] for c in columns]


def lowest_cardinality_columns(n: int) -> list[str]:
    """The n smallest attributes by cardinality (ties in schema order)."""
    ranked = sorted(range(len(SCHEMA)), key=lambda i: (len(SCHEMA[i][1]), i))
    picked = sorted(ranked[:n])
    return [SCHEMA[i][0] for i in picked]


def generate_rows(num_rows: int, seed: int = 7) -> list[list[str]]:
    """Sample rows from a 3-class mixture with peaked per-class categoricals."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))
    class_dists = []
    for _ in range(len(_CLASS_WEIGHTS)):
        dists = []
        for _, values in SCHEMA:
            probs = rng.dirichlet(np.full(len(values), 0.5))
            dists.append(probs)
        class_dists.append(dists)
    classes = rng.choice(len(_CLASS_WEIGHTS), size=num_rows, p=_CLASS_WEIGHTS)
    rows = []
    for c in classes:
        row = []
        for (name, values), probs in zip(SCHEMA, class_dists[c]):
            row.append(values[rng.choice(len(values), p=probs)])
        rows.append(row)
    return rows


def write_surrogate(
    out_dir: str | Path, num_rows: int = 10_000, seed: int = 7
) -> tuple[Path, Path]:
    """Write the surrogate CSV and its schema file; returns their paths."""
    rows = generate_rows(num_rows, seed=seed)  # first: a bad seed leaves no directory behind
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "census_surrogate.csv"
    schema_path = out / "census_surrogate_schema.json"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in SCHEMA])
        writer.writerows(rows)
    with open(schema_path, "w", encoding="utf-8") as fh:
        json.dump(schema_spec(), fh, indent=2)
        fh.write("\n")
    return csv_path, schema_path
