import json
import math

import numpy as np
import pytest

from qmeansim import hard_instance_statebased, hard_instance_subgaussian, make_dist, moments
from qmeansim.generators import (
    hard_pair,
    load_dist_file,
    named_dist,
    pareto_discretized,
    resolve_distribution,
)


def test_point_and_bernoulli():
    d = named_dist("point:5")
    assert d.values.tolist() == [5.0] and d.probs.tolist() == [1.0]
    b = named_dist("bernoulli:0.3")
    assert b.values.tolist() == [0.0, 1.0]
    assert b.probs.tolist() == [0.7, 0.3]


def test_uniform_range():
    d = named_dist("uniform:1..100:100")
    assert len(d) == 100
    assert d.values[0] == 1.0 and d.values[-1] == 100.0
    assert np.allclose(d.probs, 0.01)


def test_pareto_quantile_midpoints():
    alpha, xmin, atoms = 2.5, 1.0, 64
    d = named_dist(f"pareto:{alpha}:{xmin}:{atoms}")
    assert len(d) == atoms
    # midpoint recipe: atom i sits at the ((i+0.5)/atoms)-quantile
    u = (np.arange(atoms) + 0.5) / atoms
    expect = xmin * (1 - u) ** (-1 / alpha)
    assert np.allclose(d.values, expect)
    # finite support with finite mean for alpha > 1
    assert math.isfinite(moments(d).mean)


def test_hard_instance_generators():
    d = named_dist("hard-subgaussian:10:1")
    assert len(d) == 2 and d.values[0] == 0.0
    s = named_dist("hard-statebased:10:1")
    assert len(s) == 2 and s.values[-1] == pytest.approx(10 / 3)


def test_hard_pair_parses_both_members():
    # the one parser of hard-instance specs: named_dist takes the first
    # member, the bounds command the pair
    for spec, make in (("hard-subgaussian:10:1", hard_instance_subgaussian),
                       ("hard-statebased:7.5:2", hard_instance_statebased)):
        pair, want = hard_pair(spec), make(*map(float, spec.split(":")[1:]))
        assert len(pair) == 2
        for got, exp in zip(pair, want):
            assert got.values.tolist() == exp.values.tolist()
            assert got.probs.tolist() == exp.probs.tolist()
        assert named_dist(spec).values.tolist() == pair[0].values.tolist()
    for spec in ("hard-subgaussian:10", "hard-statebased:10:1:2", "bernoulli:0.5", "hard-x:1:2"):
        assert hard_pair(spec) is None
    with pytest.raises(ValueError):
        hard_pair("hard-subgaussian:1:1")  # m must exceed 1


def test_unknown_spec_rejected():
    with pytest.raises(ValueError, match="unknown distribution"):
        named_dist("gaussian:0:1")
    with pytest.raises(ValueError):
        named_dist("uniform:1..2")  # missing atom count


def test_load_dist_file_roundtrip(tmp_path):
    records = [
        {"value": 2.0, "prob": 0.25},
        {"value": 1.0, "prob": 0.5},
        {"value": 2.0, "prob": 0.25},
    ]
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(records))
    d = load_dist_file(str(path))
    assert d.values.tolist() == [1.0, 2.0]
    assert d.probs.tolist() == [0.5, 0.5]
    # resolve_distribution prefers the file when the path exists
    same = resolve_distribution(str(path))
    assert same.values.tolist() == d.values.tolist()


def test_load_dist_file_validation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"value": 1.0}]))
    with pytest.raises(ValueError, match="records need"):
        load_dist_file(str(path))
    path.write_text(json.dumps({}))
    with pytest.raises(ValueError, match="non-empty JSON array"):
        load_dist_file(str(path))


def test_load_dist_file_refuses_nan_prob(tmp_path):
    # json writes and reads NaN, and make_dist names it
    path = tmp_path / "nan.json"
    path.write_text(json.dumps([{"value": 1.0, "prob": math.nan}, {"value": 2.0, "prob": 1.0}]))
    with pytest.raises(ValueError, match="non-finite probability: nan"):
        load_dist_file(str(path))


def test_resolve_falls_back_to_generator():
    d = resolve_distribution("bernoulli:0.5")
    assert make_dist([0, 1], [0.5, 0.5]).values.tolist() == d.values.tolist()
