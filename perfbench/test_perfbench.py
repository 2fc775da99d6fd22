"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import pytest

import check
import gen
import run
from arith import degree, positively_spanning, rank, zero_sum_generators
from spans import Tracer, dump, installed_wrappers, self_times, under


def _files(workload, seed, cycles):
    return [(q.file, q.instance.document(q.file), q.degree)
            for q in gen.WORKLOADS[workload](seed, cycles)]


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_gives_identical_files(workload):
    first = _files(workload, 7, 3)
    assert first == _files(workload, 7, 3)
    assert first != _files(workload, 8, 3)


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_instances_are_faithful_and_distinct(workload):
    queries = gen.WORKLOADS[workload](3, 4)
    instances = {q.file: q.instance for q in queries}
    assert len(set(instances.values())) == len(instances)
    for inst in instances.values():
        assert rank(inst.L) == inst.p + len(inst.torsion)
        assert all(len(row) == inst.r + inst.s for row in inst.L)
    degrees = [(q.file, q.degree) for q in queries]
    assert len(set(degrees)) == len(degrees)


def test_finite_basis_construction():
    queries = gen.finite_basis(5, 6)
    assert sum(q.expect == "gap" for q in queries) == 6
    for q in queries:
        inst = q.instance
        assert all(w > 0 for w in inst.L[0][: inst.r])
        assert not any(inst.L[0][inst.r:])
        # positive: the degree-zero monoid is trivial
        assert positive_kernel(inst)
        found = gen.positive_monomials(inst, q.degree)
        if q.expect == "gap":
            assert not found
        else:
            assert q.monomial in found and degree(inst.L, inst.torsion, q.monomial) == q.degree


def positive_kernel(inst) -> bool:
    zero = (0,) * len(inst.L)
    return gen.positive_monomials(inst, zero) == {(0,) * (inst.r + inst.s)}


@pytest.mark.parametrize("workload", ["degree_zero_ring", "module_generators"])
def test_one_row_gradings_have_mixed_signs(workload):
    for q in gen.WORKLOADS[workload](2, 3):
        row = q.instance.L[0]
        assert min(row) < 0 < max(row)
        assert zero_sum_generators(row)


def test_module_generators_slots_bound_the_ring_size():
    queries = gen.module_generators(4, 2)
    per_cycle = gen.DEGREES_PER_GRADING * len(gen._MODULE_SLOTS)
    assert len(queries) == 2 * per_cycle
    for i, q in enumerate(queries[::gen.DEGREES_PER_GRADING]):
        lo, hi = gen._MODULE_SLOTS[i % len(gen._MODULE_SLOTS)]
        assert lo <= len(zero_sum_generators(q.instance.L[0])) <= hi


def test_positively_spanning():
    assert positively_spanning([(1, 0), (0, 1), (-1, -1)], 2)
    assert not positively_spanning([(1, 0), (0, 1), (-1, 1)], 2)
    assert not positively_spanning([(1, 0), (-1, 0)], 2)


def test_zero_sum_generators_small_case():
    assert sorted(zero_sum_generators((1, -1))) == [(1, 1)]
    assert sorted(zero_sum_generators((2, -3))) == [(3, 2)]
    assert sorted(zero_sum_generators((1, 1, -2))) == [(0, 2, 1), (1, 1, 1), (2, 0, 1)]


# ---------------------------------------------------------------------------
# checker


@pytest.fixture(scope="module")
def package():
    return run.load_glaurent()


def _first(queries, pred):
    return next(q for q in queries if pred(q))


def _execute(package, q, tmp_path):
    path = tmp_path / q.file
    path.write_bytes(q.instance.document(q.file))
    return run.execute(package, q, path)


def test_checker_accepts_then_rejects_wrong_basis_degree(package, tmp_path):
    queries = gen.finite_basis(1, 1)
    q = _first(queries, lambda q: q.expect == "attained" and q.instance.r == 4)
    _, outcome = _execute(package, q, tmp_path)
    check.check(q, outcome)
    code, text = outcome.calls[0]
    lines = text.splitlines()
    first = lines[3][len("basis: "):].split(", ")[0]
    lines[3] = lines[3].replace(first, first + "*x1", 1)
    with pytest.raises(check.CheckFailed):
        check.check(q, check.Outcome(((code, "\n".join(lines) + "\n"),)))


def test_checker_rejects_gap_answered_as_found(package, tmp_path):
    queries = gen.finite_basis(1, 1)
    q = _first(queries, lambda q: q.expect == "gap")
    _, outcome = _execute(package, q, tmp_path)
    check.check(q, outcome)
    with pytest.raises(check.CheckFailed):
        check.check(q, check.Outcome(((0, outcome.calls[0][1]),)))


def test_checker_rejects_module_generator_of_wrong_degree(package, tmp_path):
    queries = gen.module_generators(1, 1)
    q = queries[0]
    _, outcome = _execute(package, q, tmp_path)
    check.check(q, outcome)
    code, text = outcome.calls[0]
    lines = text.splitlines()
    lines[4] = lines[4] + ", x1*x2*x3*x4^2"
    with pytest.raises(check.CheckFailed):
        check.check(q, check.Outcome(((code, "\n".join(lines) + "\n"),)))


def _certified(package, tmp_path, route):
    queries = gen.positivity_certify(1, 4)
    for q in queries:
        _, outcome = _execute(package, q, tmp_path)
        if check.check(q, outcome) == route:
            return q, outcome
    raise AssertionError(f"no {route} verdict in the sample")


def test_checker_rejects_flipped_normal_sign(package, tmp_path):
    q, outcome = _certified(package, tmp_path, "halfspace")
    kernel, (code, text) = outcome.calls
    lines = text.splitlines()
    normal = lines[1][len("half-space normal: "):]
    negated = "[" + ", ".join(str(-int(x)) for x in normal[1:-1].split(", ")) + "]"
    lines[1] = "half-space normal: " + negated
    with pytest.raises(check.CheckFailed):
        check.check(q, check.Outcome((kernel, (code, "\n".join(lines) + "\n"))))


def test_checker_rejects_false_positive_and_wrong_flip_set(package, tmp_path):
    q, outcome = _certified(package, tmp_path, "flip")
    kernel, (code, text) = outcome.calls
    with pytest.raises(check.CheckFailed):
        check.check(q, check.Outcome((kernel, (code, "positive\n"))))
    # flipping every polynomial column maps the rays into the opposite half-space
    lines = text.splitlines()
    lines[2] = "flip set: {" + ", ".join(str(i) for i in range(1, q.instance.r + 1)) + "}"
    with pytest.raises(check.CheckFailed):
        check.check(q, check.Outcome((kernel, (code, "\n".join(lines) + "\n"))))


def test_checker_rejects_kernel_column_outside_kernel(package, tmp_path):
    q, outcome = _certified(package, tmp_path, "necessary")
    (code, text), verdict = outcome.calls
    lines = text.splitlines()
    head, body = lines[1].split(": ")
    entries = [int(x) for x in body[1:-1].split(", ")]
    entries[0] += 1
    lines[1] = f"{head}: [{', '.join(map(str, entries))}]"
    with pytest.raises(check.CheckFailed):
        check.check(q, check.Outcome(((code, "\n".join(lines) + "\n"), verdict)))


def test_digest_mismatch_counts_as_failure(package, tmp_path):
    queries = gen.module_generators(1, 1)[:2]
    p = run.Pass(["0" * 16, "0" * 16])
    p.run(package, queries, tmp_path, None)
    assert len(p.failures) == 2 and len(p.latencies) == 2


# ---------------------------------------------------------------------------
# spans


def test_self_time_subtracts_children():
    spans = [
        ("a", -1, 0.0, 10.0),
        ("b", 0, 1.0, 4.0),
        ("c", 1, 2.0, 3.0),
        ("b", 0, 5.0, 9.0),
        ("a", -1, 20.0, 21.0),
    ]
    assert self_times(spans) == {"a": 10.0 - 7.0 + 1.0, "b": 3.0 - 1.0 + 4.0, "c": 1.0}
    assert under(spans, "b") == [False, False, True, False, False]


def test_tracer_counts_and_leaves_no_wrapper(package, tmp_path):
    queries = gen.finite_basis(2, 1)[:2]
    tracer = Tracer()
    tracer.install()
    try:
        assert "glaurent.cli.component" in installed_wrappers()
        p = run.Pass([])
        p.run(package, queries, tmp_path, None)
    finally:
        tracer.uninstall()
    assert installed_wrappers() == []
    assert not p.failures
    metrics = tracer.metrics(2.0, 1.0)
    assert metrics["cli.main.calls"] == 2
    assert metrics["grading.find_representative.calls"] == 2
    assert metrics["components.component.basis_out"] > 0
    assert metrics["trace_overhead_ratio"] == 1.0
    total = sum(v for k, v in metrics.items() if k.count(".") == 1 and k.endswith(".self_s"))
    root = sum(end - start for name, parent, start, end in tracer.spans if parent < 0)
    assert total == pytest.approx(root)
    dump(tracer.spans, tmp_path / "spans.tsv")
    lines = (tmp_path / "spans.tsv").read_text().splitlines()
    assert len(lines) == len(tracer.spans) + 1 and lines[1].startswith("cli.main\t-1\t")
