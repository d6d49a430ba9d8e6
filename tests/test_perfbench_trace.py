"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps
functions by name at the cascade's import sites. These tests fail when a
refactor removes or bypasses one of those names."""
import importlib.util
from pathlib import Path

import pytest

from repro.core.pipeline import geqo_set_local
from repro.filters.schema_filter import sf_groups
from repro.workload.labeler import make_planted_workload
from repro.workload.schema import TPCH_LITE

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(tracing):
    patches = tracing.layer_patches(tracing.Tracer())
    assert patches
    for owner, attr, _ in patches:
        assert attr in owner.__dict__


def test_traced_call_sees_every_filter_layer(tracing, emf_model):
    w = make_planted_workload(TPCH_LITE, n_subexpr=40, n_equiv=4, seed=3)
    tracer = tracing.Tracer()
    patches = tracing.layer_patches(tracer)
    originals = [owner.__dict__[attr] for owner, attr, _ in patches]
    with tracer.call(patches):
        res = geqo_set_local(w.plans, emf_model, tau=1.0)
    summary = tracer.summary(tracer.call_id)
    multi = [ids for ids in sf_groups(w.plans).values() if len(ids) > 1]
    groups = len(multi)
    assert summary["vmf.group"]["count"] == groups
    assert summary["vmf.embed_group"]["count"] == groups
    assert summary["nn.embed_eval"]["count"] == groups
    assert tracer.counts["vmf.embed_rows"] == sum(map(len, multi))
    assert summary["emf.scores"]["count"] == groups
    assert tracer.counts["emf.pairs"] == res.survivors["VMF"]
    # the EMF converts the group's instance encodings; no pair is
    # encoded from scratch
    assert "emf.encode_pair" not in summary
    assert summary.get("av.equivalent", {}).get("count", 0) == res.av_pairs_checked
    assert [owner.__dict__[attr] for owner, attr, _ in patches] == originals
