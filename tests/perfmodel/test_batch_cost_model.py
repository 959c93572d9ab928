"""Tests for the precomputed-coefficient decode model and its closed
forms (``BatchCostModel``)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import replica_resources
from repro.methods import get_method
from repro.methods.registry import METHODS
from repro.methods.spec import resolve_method
from repro.model import get_model
from repro.perfmodel import (
    BatchCostModel,
    iteration_latency,
    request_decode_costs,
)

L = get_model("L")
A100 = replica_resources(L, "A100")
V100 = replica_resources(L, "V100")


def _model(method_name: str, replica=A100) -> BatchCostModel:
    return BatchCostModel(L, replica, get_method(method_name))


class TestWrapperEquivalence:
    """The legacy functions are thin wrappers — results are identical."""

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_request_costs_bit_identical(self, method):
        model = _model(method)
        for ctx in (1, 63, 64, 65, 1000, 16000):
            a = model.request_costs(ctx)
            b = request_decode_costs(L, A100, get_method(method), ctx)
            assert a == b

    @pytest.mark.parametrize("method", ("baseline", "cachegen", "hack",
                                        "hack_nose", "hack_norqe"))
    def test_iteration_bit_identical(self, method):
        ctxs = [100, 5000, 16000, 321]
        a = _model(method).iteration(ctxs)
        b = iteration_latency(L, A100, get_method(method), ctxs)
        assert a.latency_s == b.latency_s
        assert a.per_request == b.per_request

    def test_no_int8_on_v100(self):
        """V100 lacks INT8 tensor cores; HACK falls back to FP16 rates."""
        hack = _model("hack", V100).request_costs(16000)
        base = _model("baseline", V100).request_costs(16000)
        assert hack.compute_s >= base.compute_s


class TestSpanClosedForm:
    """span(ctx0, k) must equal the k iterated per-token evaluations."""

    def _iterated(self, model, ctx0, k):
        shared = kv = compute = dequant = approx = requant = 0.0
        for i in range(k):
            timing = model.iteration([c + i for c in ctx0])
            shared += timing.shared_s
            kv += sum(c.kv_read_s for c in timing.per_request)
            compute += sum(c.compute_s for c in timing.per_request)
            dequant += sum(c.dequant_s for c in timing.per_request)
            approx += sum(c.approx_s for c in timing.per_request)
            requant += sum(c.requant_s for c in timing.per_request)
        return {
            "latency": shared + kv + compute + dequant + approx + requant,
            "decode": shared + kv + compute + requant,
            "dequant": dequant,
            "approx": approx,
            "kv": kv,
        }

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_totals_match_iterated(self, method):
        model = _model(method)
        ctx0 = [120, 4000, 63, 64, 16000]
        k = 257
        totals = model.span(ctx0, k)
        ref = self._iterated(model, ctx0, k)
        assert totals.k == k and totals.batch == len(ctx0)
        assert totals.latency_s == pytest.approx(ref["latency"], rel=1e-12)
        assert totals.decode_s == pytest.approx(ref["decode"], rel=1e-12)
        assert totals.kv_read_s == pytest.approx(ref["kv"], rel=1e-12)
        assert totals.dequant_s == pytest.approx(ref["dequant"],
                                                 rel=1e-12, abs=1e-18)
        assert totals.approx_s == pytest.approx(ref["approx"],
                                                rel=1e-12, abs=1e-18)

    def test_staircase_spans_partition_boundaries(self):
        """Spans crossing many ceil(ctx/Π) steps still sum exactly."""
        model = _model("hack")
        pi = model.method.partition_size
        for ctx_start in (1, pi - 1, pi, pi + 1):
            totals = model.span([ctx_start], 3 * pi + 5)
            ref = self._iterated(model, [ctx_start], 3 * pi + 5)
            assert totals.approx_s == pytest.approx(ref["approx"],
                                                    rel=1e-12)

    def test_span_of_one_is_an_iteration(self):
        model = _model("cachegen")
        ctxs = [100, 2000, 16000]
        assert model.span(ctxs, 1).latency_s == \
            pytest.approx(model.iteration(ctxs).latency_s, rel=1e-12)

    def test_latency_is_bucket_sum(self):
        totals = _model("kvquant").span([500, 600], 40)
        assert totals.latency_s == pytest.approx(
            totals.decode_s + totals.dequant_s + totals.approx_s, rel=1e-15)

    def test_validation(self):
        model = _model("baseline")
        with pytest.raises(ValueError):
            model.span([], 5)
        with pytest.raises(ValueError):
            model.span([100], 0)
        with pytest.raises(ValueError):
            model.span([0], 5)
        with pytest.raises(ValueError):
            model.request_costs(0)
        with pytest.raises(ValueError):
            model.iteration([])


class TestFindBoundary:
    @pytest.mark.parametrize("method", ("baseline", "hack", "cachegen"))
    def test_matches_linear_scan(self, method):
        model = _model(method)
        ctx0 = np.array([200, 1500, 70], dtype=np.int64)
        k = 50
        lat = [model.span(ctx0, j).latency_s for j in range(1, k + 1)]
        for elapsed in (0.0, lat[0] * 0.5, lat[0], lat[3] * 1.0001,
                        lat[-1] * 0.999, lat[-1], lat[-1] * 1.01):
            expected = next((j for j in range(1, k + 1)
                             if lat[j - 1] >= elapsed), k)
            assert model.find_boundary(ctx0, k, elapsed) == expected

    def test_zero_elapsed_is_first_boundary(self):
        model = _model("baseline")
        assert model.find_boundary(np.array([100]), 10, 0.0) == 1


class TestStaircaseCumsum:
    def test_exact_against_bruteforce(self):
        model = _model("hack")
        pi = model.method.partition_size
        n = np.arange(0, 4 * pi + 3, dtype=np.int64)
        expected = np.array(
            [sum(math.ceil(c / pi) for c in range(1, int(m) + 1))
             for m in n], dtype=np.int64)
        np.testing.assert_array_equal(model._stair_cumsum(n), expected)


#: The paper comparison plus HACK with SE off and with RQE off.
CUMLAT_METHODS = ("baseline", "cachegen", "kvquant", "hack", "hack_nose",
                  "hack_norqe")


def _contexts(seed: int, batch: int, pi: int) -> np.ndarray:
    """``batch`` context lengths, most within two tokens of a multiple
    of ``pi`` (so spans start on, just before and just after partition
    boundaries), the rest uniform up to 16k."""
    rng = np.random.default_rng(seed)
    near = rng.integers(1, 256, batch) * pi + rng.integers(-2, 3, batch)
    uniform = rng.integers(1, 16_001, batch)
    return np.where(rng.random(batch) < 0.7, near, uniform).astype(np.int64)


SPAN_DRAWS = dict(seed=st.integers(0, 2**32 - 1),
                  batch=st.integers(1, 256),
                  k=st.integers(1, 2000),
                  frac=st.floats(0.0, 1.0))


class TestSpanCumlat:
    """``span_cumlat(ctx0, k)[i-1]`` is ``span(ctx0, i).latency_s``
    bitwise: the engine's token times, join boundaries and crash
    cut-offs all read this vector."""

    @pytest.mark.parametrize("method", CUMLAT_METHODS)
    @settings(max_examples=100, deadline=None)
    @given(**SPAN_DRAWS)
    def test_elements_are_span_latencies(self, method, seed, batch, k,
                                         frac):
        model = _model(method)
        ctx0 = _contexts(seed, batch, model.method.partition_size)
        cum = model.span_cumlat(ctx0, k)
        assert cum.shape == (k,)
        for i in {1, 1 + int(frac * (k - 1)), k}:
            assert cum[i - 1] == model.span(ctx0, i).latency_s, i

    @pytest.mark.parametrize("method", CUMLAT_METHODS)
    @settings(max_examples=100, deadline=None)
    @given(**SPAN_DRAWS)
    def test_find_boundary_matches_linear_scan(self, method, seed, batch,
                                               k, frac):
        model = _model(method)
        ctx0 = _contexts(seed, batch, model.method.partition_size)
        lat = model.span_cumlat(ctx0, k).tolist()
        hit = lat[int(frac * (k - 1))]
        for elapsed in (0.0, hit, math.nextafter(hit, 0.0),
                        math.nextafter(hit, math.inf), frac * lat[-1],
                        lat[-1], lat[-1] * 1.01):
            expected = next((j for j in range(1, k + 1)
                             if lat[j - 1] >= elapsed), k)
            j = model.find_boundary(ctx0, k, elapsed)
            assert j == expected, elapsed
            # The definition, on span itself.
            assert j == k or model.span(ctx0, j).latency_s >= elapsed
            assert j == 1 or model.span(ctx0, j - 1).latency_s < elapsed

    @pytest.mark.parametrize("method", ("hack", "hack?pi=48"))
    @settings(max_examples=40, deadline=None)
    @given(ctx0=st.lists(st.integers(1, 4 * 64 + 3), min_size=1,
                         max_size=8),
           k=st.integers(1, 3 * 64 + 5))
    def test_residue_staircase_matches_bruteforce(self, method, ctx0, k):
        model = BatchCostModel(L, A100, resolve_method(method))
        pi = model.method.partition_size
        per_iteration = [sum(math.ceil((c + t) / pi) for c in ctx0)
                         for t in range(k)]
        np.testing.assert_array_equal(
            model._stair_prefix(np.array(ctx0, dtype=np.int64), k),
            np.cumsum(per_iteration))
