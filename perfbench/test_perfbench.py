"""Tests of the benchmark's own logic: the percentile rule, self-time
subtraction, the scaling to reference seconds, and the oracles on
hand-worked cases.  They do not import hilmod."""

import json
import sys
import types
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import bench_clock  # noqa: E402
import bench_oracle as oracle  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402


def test_percentile_rule_needs_ten_samples_beyond():
    values = list(range(1, 1001))
    assert run.nearest_rank(values, 99) == 990
    assert run.samples_beyond(1000, 99) == 10
    assert run.samples_beyond(999, 99) == 9
    assert run.samples_beyond(6, 99) == 0
    assert run.nearest_rank([3.0, 1.0, 2.0], 50) == 2.0
    per_pass = (sum(sum(mix.values()) for mix in bench_workloads.CLASSIFY_MIX.values())
                + sum(bench_workloads.OTHER_MIX.values()))
    assert per_pass >= 1000 and run.samples_beyond(per_pass, 99) >= 10


def test_self_time_subtracts_nested_spans():
    ticks = iter(range(100))
    tracer = bench_trace.Tracer(clock=lambda: next(ticks))

    def leaf():
        return 1

    a, b = types.SimpleNamespace(leaf=leaf), types.SimpleNamespace(leaf=leaf)

    def outer():
        return a.leaf() + b.leaf()

    traced_outer = tracer.wrap_span("outer", outer)
    assert bench_trace.rebind(leaf, tracer.wrap_span("leaf", leaf), [a, b]) == 2
    assert traced_outer() == 2
    # outer spans 0..5, the leaves 1..2 and 3..4: self times 5 - 2 and 1 + 1
    assert tracer.self_times() == {"outer": (1, 3), "leaf": (2, 2)}


def test_burst_span_is_not_the_open_span_own_time():
    ticks = iter(range(100))
    tracer = bench_trace.Tracer(clock=lambda: next(ticks))

    def work():  # a calibration burst lands in the middle, as on SIGALRM
        tracer.burst_span(next(ticks), next(ticks))

    tracer.wrap_span("numfield.FieldElement.mul", work)()
    # the span runs 0..3 and the burst 1..2
    assert tracer.self_times()["numfield.FieldElement.mul"] == (1, 2)
    values = tracer.metrics()
    assert values["numfield.FieldElement.mul.self_s"] == 2
    assert not any(name.startswith(bench_trace.BURST) for name in values)


def test_reference_seconds_scale_by_nearby_bursts():
    c = bench_clock.CAL_REF_S
    # the machine runs at half the reference speed: every burst takes 2c
    bursts = [(0.0, 2 * c), (1.0, 1.0 + 2 * c), (2.0, 2.0 + 2 * c)]
    gaps = bench_clock.gaps(bursts)
    assert [g for gap in gaps for g in gap] == pytest.approx([2 * c, 1.0, 2 * c,
                                                              1.0 + 2 * c, 2.0, 2 * c])
    # 0.5..1.5 spends 2c in the middle burst; the rest counts half
    assert bench_clock.reference_seconds(0.5, 1.5, gaps) == pytest.approx(0.5 - c)
    assert bench_clock.scale(0.25, bursts) == pytest.approx(0.125)


def test_reference_seconds_ignore_one_slow_burst():
    c = bench_clock.CAL_REF_S
    bursts = [(float(t), t + (10 * c if t == 2 else c)) for t in range(5)]
    gaps = bench_clock.gaps(bursts)
    assert [d for _, _, d in gaps] == pytest.approx([c] * 4)
    # from the end of the first burst to the start of the last, minus c + 10c + c
    assert bench_clock.reference_seconds(c, 4.0, gaps) == pytest.approx(4.0 - 13 * c)


def test_metrics_cover_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert names == bench_trace.metric_names() + [("trace.overhead_s", "s")]
    assert [w["name"] for w in spec["workloads"]] == list(bench_workloads.WORKLOADS)


def _fields():
    return bench_workloads.oracle_fields()


CLASSIFY_MIXED_REPLY = json.dumps({
    "class": "mixed", "disc_square_in_k": False, "hyperbolic_components": 1,
    "per_embedding": ["elliptic", "hyperbolic"], "schema_version": 1,
    "trace": ["-2/1", "-2/1"]})


def test_oracle_classify_mixed_golden():
    f = _fields()["sqrt2"]
    m = tuple(bench_workloads.parse_power_literal(e, 2) for e in "1+1g;1+1g;2;1+1g".split(";"))
    # Tr = 2 + 2 sqrt2, Tr^2 - 4 = 8 + 8 sqrt2: negative at -sqrt2, positive at +sqrt2
    want = oracle.expected_class(f, m)
    assert want["class"] == "mixed" and want["per_embedding"] == ["elliptic", "hyperbolic"]
    assert want["disc"] == [8, 8]
    assert oracle.check_classify(f, m, 0, CLASSIFY_MIXED_REPLY) == (True, True, "")
    swapped = CLASSIFY_MIXED_REPLY.replace('"elliptic", "hyperbolic"', '"hyperbolic", "elliptic"')
    assert not oracle.check_classify(f, m, 0, swapped)[0]
    assert not oracle.check_classify(f, m, 3, "")[0]


def _companion(t):
    zero, one = ["0", "0"], ["1", "0"]
    return [[zero, ["-1", "0"]], [one, t]]


def _torsion_reply(witness10):
    """torsion-search --max-order 12 over Q(sqrt5); traces in the basis {1, (1+sqrt5)/2}."""
    one, zero, neg = ["1", "0"], ["0", "0"], ["-1", "0"]
    traces = {"3": ["-1", "0"], "4": ["0", "0"], "5": ["-1", "1"], "6": ["1", "0"],
              "10": witness10}
    witnesses = {"1": [[one, zero], [zero, one]], "2": [[neg, zero], [zero, neg]]}
    witnesses.update({m: _companion(t) for m, t in traces.items()})
    return json.dumps({"m_max": 12, "orders": [1, 2, 3, 4, 5, 6, 10], "witnesses": witnesses})


def test_oracle_order_ten_witness_sqrt5():
    f = _fields()["sqrt5"]
    # t = (1 + sqrt5)/2 = 2cos(2pi/10): W = [[0,-1],[1,t]] has W^5 = -I, W^10 = I
    w = tuple(f.from_basis([Fraction(x) for x in e]) for e in ([0, 0], [-1, 0], [1, 0], [0, 1]))
    assert w[3] == [Fraction(1, 2), Fraction(1, 2)]
    acc = w
    for _ in range(4):
        acc = oracle.mat_mul(f, acc, w)
    assert acc == oracle.mat_neg(f, oracle.mat_identity(f))
    assert oracle.mat_mul(f, acc, acc) == oracle.mat_identity(f)
    assert oracle.check_torsion(f, 12, 0, _torsion_reply(["0", "1"])) == (True, True, "")
    # (-1 + sqrt5)/2 = 2cos(2pi/5) gives order 5, not 10
    assert not oracle.check_torsion(f, 12, 0, _torsion_reply(["-1", "1"]))[0]


def test_oracle_square_tests():
    fields = _fields()
    s2, s5, cubic = fields["sqrt2"], fields["sqrt5"], fields["cubic"]
    assert s2.is_square([3, 2]) and not s2.is_square([0, 1]) and s2.is_square([2, 0])
    assert s5.is_square([5, 0]) and s5.is_square([Fraction(3, 2), Fraction(1, 2)])
    assert not s5.is_square([1, 1])
    y = [Fraction(1), Fraction(2), Fraction(-1)]
    assert cubic.is_square(cubic.mul(y, y))
    assert not cubic.is_square(cubic.add(cubic.mul(y, y), cubic.const(1)))


def test_oracle_normalizer_witness_golden():
    f = _fields()["sqrt2"]
    m = tuple(bench_workloads.parse_power_literal(e, 2) for e in "1+1g;0;0;-1+1g".split(";"))
    reply = {"census_slot": "HP2", "psl_type": "semidirect_z2", "rank": 1,
             "sl_type": "semidirect_z4",
             "witness_involution": [[["0/1", "0/1"], ["1/1", "0/1"]],
                                    [["-1/1", "0/1"], ["0/1", "0/1"]]]}
    assert oracle.check_normalizer(f, m, 2, True, 0, json.dumps(reply)) == (True, True, "")
    reply["witness_involution"] = [[["1/1", "0/1"], ["1/1", "0/1"]],
                                   [["-2/1", "0/1"], ["-1/1", "0/1"]]]
    assert not oracle.check_normalizer(f, m, 2, True, 0, json.dumps(reply))[0]


def test_oracle_k_theory_closed_forms():
    # wh-decomp on {"n": 2, "p": 1}, q = 1: NK_1^2 + NK_0^2
    census = {"n": 2, "p": {"finite": 1}}
    reply = {"group": "psl", "q": 1, "notes": [], "expression": [
        {"multiplicity": {"finite": 2}, "term": {"degree": 1, "kind": "nk", "ring": "base"}},
        {"multiplicity": {"finite": 2}, "term": {"degree": 0, "kind": "nk", "ring": "base"}}]}
    assert oracle.check_wh(census, 1, False, False, 0, json.dumps(reply))[0]
    assert not oracle.check_wh(census, 1, False, True, 0, json.dumps(reply))[0]
    # ktop: n = 2, h = 1, finite classes of orders 2 and 3 (1 and 2 of them)
    assert oracle.ktop_rank(2, 1, 0, [{"order": 2, "count": 1}, {"order": 3, "count": 2}]) == 9
    assert oracle.ktop_rank(2, 1, 1, []) == 0
