import nystream
import nystream.linalg
import nystream.pipeline
import numpy as np

from perfbench import tracing
from perfbench.tracing import Span, self_times


def test_self_time_subtracts_nested_children():
    spans = [
        Span(0, "run", 0.0, 10.0, -1, None),
        Span(1, "step", 1.0, 5.0, 0, 0),
        Span(2, "solve", 2.0, 3.0, 1, 0),
        Span(3, "solve", 3.5, 4.0, 1, 0),
        Span(4, "step", 6.0, 9.0, 0, 1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == 10.0 - 4.0 - 3.0  # grandchildren are inside the children
    assert selfs[1] == 4.0 - 1.0 - 0.5
    assert selfs[2] == 1.0
    assert selfs[4] == 3.0


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, "outer", 0.0, 4.0, -1, None),
        Span(1, "a", 1.0, 3.0, 0, None),
        Span(2, "b", 2.0, 5.0, 0, None),  # overlaps a and runs past the parent
    ]
    assert self_times(spans)[0] == 1.0


def test_tracer_records_parents_and_restores_originals():
    orig_solve = nystream.linalg.regularized_solve
    orig_begin = nystream.pipeline.EstimateOracle.__dict__["begin_step"]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        # leverage imported regularized_solve by name; it must be patched too.
        assert nystream.leverage.regularized_solve is not orig_solve
        tracer.group = 7
        nystream.exact_rls(np.eye(3), 0.5)
    assert nystream.linalg.regularized_solve is orig_solve
    assert nystream.leverage.regularized_solve is orig_solve
    assert nystream.pipeline.EstimateOracle.__dict__["begin_step"] is orig_begin
    by_name = {s.name: s for s in tracer.spans}
    outer = by_name["leverage.exact_rls"]
    assert outer.parent == -1
    assert by_name["linalg.regularized_solve"].parent == outer.id
    assert by_name["linalg.validate_psd"].parent == outer.id
    assert {s.group for s in tracer.spans} == {7}
    calls, incl, excl = tracing.totals(tracer.spans)
    assert calls["linalg.symmetrize"] == 2
    assert excl["leverage.exact_rls"] < incl["leverage.exact_rls"]
