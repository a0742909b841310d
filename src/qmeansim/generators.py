"""Named distribution generators and the JSON distribution file format.

Generator strings understood by the harness:

* ``point:v`` -- unit mass at v;
* ``bernoulli:q`` -- mass q at 1, the rest at 0;
* ``uniform:a..b:k`` -- k equally likely, equally spaced atoms from a to b;
* ``pareto:alpha:xmin:atoms`` -- a Pareto(alpha, xmin) tail discretized into
  ``atoms`` equal-probability quantile midpoints (finite support by
  construction);
* ``hard-subgaussian:m:sigma`` / ``hard-statebased:m:sigma`` -- the first
  member of the corresponding hard instance pair.

A distribution file is a JSON array of ``{"value": number, "prob": number}``
records; duplicates merge.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .dist import (
    FiniteDist,
    hard_instance_statebased,
    hard_instance_subgaussian,
    make_dist,
)

__all__ = ["hard_pair", "named_dist", "load_dist_file", "resolve_distribution",
           "pareto_discretized"]


def pareto_discretized(alpha: float, xmin: float, atoms: int) -> FiniteDist:
    """Equal-probability quantile-midpoint discretization of Pareto(alpha, xmin)."""
    if alpha <= 0 or xmin <= 0 or atoms < 1:
        raise ValueError("need alpha > 0, xmin > 0 and at least one atom")
    u = (np.arange(atoms) + 0.5) / atoms
    values = xmin * (1.0 - u) ** (-1.0 / alpha)
    return make_dist(values, np.full(atoms, 1.0 / atoms))


def hard_pair(spec: str) -> tuple[FiniteDist, FiniteDist] | None:
    """The pair ``hard-subgaussian:m:sigma`` or ``hard-statebased:m:sigma``
    names, or None for any other spec."""
    kind, *args = spec.split(":")
    make = {"hard-subgaussian": hard_instance_subgaussian,
            "hard-statebased": hard_instance_statebased}.get(kind)
    return make(float(args[0]), float(args[1]))[:2] if make and len(args) == 2 else None


def named_dist(spec: str) -> FiniteDist:
    parts = spec.split(":")
    kind, args = parts[0], parts[1:]
    if kind == "point" and len(args) == 1:
        return make_dist([float(args[0])], [1.0])
    if kind == "bernoulli" and len(args) == 1:
        q = float(args[0])
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"bernoulli parameter must be in [0, 1], got {q}")
        return make_dist([0.0, 1.0], [1.0 - q, q])
    if kind == "uniform" and len(args) == 2:
        lo_hi, k = args[0].split(".."), int(args[1])
        if len(lo_hi) != 2 or k < 1:
            raise ValueError(f"bad uniform spec {spec!r}")
        lo, hi = float(lo_hi[0]), float(lo_hi[1])
        values = np.linspace(lo, hi, k) if k > 1 else [lo]
        return make_dist(values, np.full(k, 1.0 / k))
    if kind == "pareto" and len(args) == 3:
        return pareto_discretized(float(args[0]), float(args[1]), int(args[2]))
    if pair := hard_pair(spec):
        return pair[0]
    raise ValueError(f"unknown distribution spec {spec!r}")


def load_dist_file(path: str) -> FiniteDist:
    with open(path) as fh:
        records = json.load(fh)
    if not isinstance(records, list) or not records:
        raise ValueError(f"{path}: expected a non-empty JSON array")
    try:
        values = [r["value"] for r in records]
        probs = [r["prob"] for r in records]
    except (TypeError, KeyError) as exc:
        raise ValueError(f"{path}: records need 'value' and 'prob' fields") from exc
    return make_dist(values, probs)


def resolve_distribution(spec: str) -> FiniteDist:
    """Interpret ``spec`` as a file path when one exists, else a generator name."""
    if os.path.exists(spec):
        return load_dist_file(spec)
    return named_dist(spec)
