import math
from pathlib import Path

import pytest

from zpwiener import verify
from zpwiener.config import ToolConfig, using
from zpwiener.energy import t_k_spectral
from zpwiener.errors import BudgetError
from zpwiener.verify import (
    CHECKS,
    ap_scan,
    check,
    digest,
    monitor,
    random_instance,
    random_set_scan,
    run_suite,
)


def fn_instance(p, entries, **extra):
    rows = [
        {"x": [x] if isinstance(x, int) else list(x), "re": complex(v).real, "im": complex(v).imag}
        for x, v in entries
    ]
    return {"p": p, "d": 1, "entries": rows, **extra}


def test_banach_delta_example():
    delta = fn_instance(5, [(0, 1.0)])
    report = check("banach", {"f": delta, "g": delta})
    assert report.lhs == pytest.approx(1.0)
    assert report.rhs == pytest.approx(1.0)
    assert report.passed


def test_energy_lower_two_point_example():
    inst = fn_instance(5, [(0, 1.0), (1, 1.0)], k=2, q_points=[[0], [1]])
    report = check("energy-lower", inst)
    assert report.lhs == pytest.approx(6.0)
    assert report.rhs == pytest.approx(4.774575, abs=1e-5)
    assert report.passed


@pytest.mark.parametrize("shift", [0, 1], ids=["as-given", "shifted-by-p"])
def test_energy_lower_counts_each_point_of_q_once(shift):
    # Q is the set of its reduced points: a point listed again, as given or
    # up to a multiple of p, leaves both sides as they are
    inst = CHECKS["energy-lower"].generate(verify._suite_rng(0, "energy-lower"), 1)[0]
    (x,) = inst["q_points"][0]
    want = check("energy-lower", inst)
    q_again = [*inst["q_points"], [x + shift * inst["p"]]]
    again = check("energy-lower", {**inst, "q_points": q_again})
    assert (again.lhs, again.rhs, again.passed) == (want.lhs, want.rhs, want.passed)


@pytest.mark.parametrize(
    "run, name, inst, match",
    [
        (monitor, "dim-bound", fn_instance(101, []), r"dim-bound ratio needs \|S\| >= 1"),
        (monitor, "t2-lower", fn_instance(101, []), r"t2-lower ratio needs \|S\| >= 1"),
        (monitor, "rudin", {"p": 101, "d": 1, "points": [], "k": 2}, r"needs \|set\| >= 1"),
        (check, "energy-lower", fn_instance(5, [(0, 1.0)], k=2, q_points=[]), "non-empty q_points"),
        (check, "energy-lower", fn_instance(5, [], k=2, q_points=[[0]]), r"needs \|S\| >= 1"),
    ],
    ids=["dim-bound", "t2-lower", "rudin", "energy-lower-q", "energy-lower-f"],
)
def test_empty_inputs_are_refused_by_their_hypothesis(run, name, inst, match):
    with pytest.raises(ValueError, match=match):
        run(name, inst)


def test_complement_identity_example():
    report = check("complement-identity", {"p": 5, "d": 1, "points": [[0]]})
    assert report.lhs == pytest.approx(1.0)
    assert report.rhs == pytest.approx(1.0, abs=1e-9)
    assert report.passed


def test_complement_identity_counts_distinct_points():
    # [3] twice and [10] = [3] mod 7 are one point: A = {3}
    report = check("complement-identity", {"p": 7, "d": 1, "points": [[3], [3], [10]]})
    assert report.rhs == pytest.approx(report.lhs, abs=1e-12)
    assert report.passed


@pytest.mark.parametrize("xs", [[[3], [3]], [[3], [10]]])
def test_a_point_listed_twice_is_refused(xs):
    inst = fn_instance(7, [])
    inst["entries"] = [{"x": x, "re": v, "im": 0.0} for x, v in zip(xs, (1.0, 2.0))]
    with pytest.raises(ValueError, match=r"duplicate entry for point \(3,\)"):
        check("inversion", inst)


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_check_is_the_suite_record_of_its_instance(name):
    insts = CHECKS[name].generate(verify._suite_rng(2, name), 24)
    singles = sorted((check(name, inst) for inst in insts), key=lambda r: r.digest)
    assert singles == run_suite(name, seed=2, count=24)


def test_tk_identity_rhs_is_t_k_spectral_bit_for_bit():
    insts = CHECKS["tk-identity"].generate(verify._suite_rng(0, "tk-identity"), 150)
    want = [t_k_spectral(verify._fn_from(inst), inst["k"]).hex() for inst in insts]
    assert [check("tk-identity", inst).rhs.hex() for inst in insts] == want
    assert [r.rhs.hex() for r in CHECKS["tk-identity"].evaluate(insts)] == want


_BUDGETS_IN_BETWEEN = [
    ToolConfig(dense_budget=10),  # Z_3, Z_5, Z_7 and Z_3^2 fit
    ToolConfig(dense_budget=100),  # Z_101, Z_5^3 and Z_7^3 do not
    ToolConfig(dense_budget=200),  # of the scans' groups only Z_7^3 does not
    ToolConfig(op_budget=100),  # hyperplane scans past Z_7^2, T_k work past 100
    ToolConfig(op_budget=30),
]


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_a_batch_refuses_as_its_first_refusing_instance(name):
    insts = CHECKS[name].generate(verify._suite_rng(0, name), 12)
    refused = 0
    for config in _BUDGETS_IN_BETWEEN:
        with using(config):
            first = None
            for inst in insts:
                try:
                    check(name, inst)
                except BudgetError as exc:
                    first = str(exc)
                    break
            if first is None:
                assert CHECKS[name].evaluate(insts) == [check(name, i) for i in insts]
                continue
            refused += 1
            with pytest.raises(BudgetError) as batch:
                CHECKS[name].evaluate(insts)
            assert str(batch.value) == first, config
    # every suite but the integer shells transforms or scans within a budget
    assert refused >= (0 if name == "scattered-upper" else 1)


def test_readme_names_every_check_suite():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = " ".join(readme.split("Named check suites: ", 1)[1].split(".", 1)[0].split())
    assert listed.split(", ") == sorted(CHECKS)


def test_unknown_names_raise():
    with pytest.raises(ValueError):
        check("bogus", {})
    with pytest.raises(ValueError):
        run_suite("bogus")
    with pytest.raises(ValueError):
        monitor("bogus", {})


def test_run_suite_rejects_counts_below_one():
    for count in (0, -5):
        with pytest.raises(ValueError, match=f"count must be >= 1, got {count}"):
            run_suite("all", count=count)
    assert len(run_suite("banach", count=1)) == 1


def test_registry_every_name_generates_and_passes():
    reports = run_suite("all", seed=0, count=5)
    names = {r.name for r in reports}
    assert names == set(CHECKS)
    for name in CHECKS:
        subset = [r for r in reports if r.name == name]
        assert len(subset) == 5  # no registered name without instances
        assert all(r.passed for r in subset)


def test_reports_have_consistent_slack_convention():
    for report in run_suite("all", seed=3, count=3):
        assert report.passed == (report.slack >= -report.tolerance)


def test_suite_reports_are_reproducible():
    a = [r.as_record() for r in run_suite("all", seed=7, count=4)]
    b = [r.as_record() for r in run_suite("all", seed=7, count=4)]
    assert a == b
    c = [r.as_record() for r in run_suite("all", seed=8, count=4)]
    assert a != c


def test_digest_is_stable_and_order_insensitive():
    assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})
    assert len(digest({"a": 1})) == 16


def test_random_instance_kinds():
    ind = random_instance("indicator", 1, p=101, size=5)
    assert len(ind["entries"]) == 5
    assert all(e["re"] == 1.0 and e["im"] == 0.0 for e in ind["entries"])
    assert random_instance("indicator", 1, p=101, size=5) == ind

    uni = random_instance("unimodular-function", 2, p=101, size=4)
    for entry in uni["entries"]:
        assert math.hypot(entry["re"], entry["im"]) == pytest.approx(1.0)

    for removed in ("mystery", "product-pair", "dissociated-candidate"):
        with pytest.raises(ValueError, match="unknown instance kind"):
            random_instance(removed, 0)
    # the defaults are p = 101, d = 1, size = 5, and a misspelt key is refused
    assert random_instance("indicator", 1) == ind
    with pytest.raises(TypeError, match="sise"):
        random_instance("indicator", 1, sise=50)


def test_monitors_produce_ratios():
    rec = monitor("rudin", {"p": 101, "d": 1, "points": [[1], [2]], "k": 2})
    assert rec.ratio == pytest.approx(math.sqrt(6) / 4)
    assert rec.name == "rudin"

    uni = random_instance("unimodular-function", 5, p=101, size=6)
    rec2 = monitor("dim-bound", uni)
    assert rec2.ratio > 0
    assert rec2.details["mode"] == "exact"
    assert rec2.name == "dim-bound"

    rec3 = monitor("log-support", uni)
    assert rec3.ratio > 0
    assert rec3.name == "log-support"

    rec4 = monitor("t2-lower", fn_instance(11, [(1, 1.0), (2, 2.0), (4, 1.0)]))
    assert rec4.ratio > 0
    assert rec4.name == "t2-lower"


def test_dim_bound_monitor_reads_the_op_budget():
    # past op_budget the exact search gives way to the greedy lower bound
    inst = random_instance("unimodular-function", 3, p=101, size=18)
    rec = monitor("dim-bound", inst)
    assert rec.details["mode"] == "exact"
    # the greedy search fits op_budget = 1000 and the exact one does not
    with using(ToolConfig(op_budget=1000)):
        fallback = monitor("dim-bound", inst)
    assert fallback.details["mode"] == "greedy"
    assert rec.details["dim"] >= fallback.details["dim"]


def test_ap_scan_rows():
    rows = ap_scan(101, [1])
    assert rows[0].size == 3
    assert rows[0].ratio == pytest.approx(rows[0].wiener_norm / math.log(3))

    flagged = ap_scan(101, [0])[0]
    assert flagged.size == 1
    assert flagged.wiener_norm == pytest.approx(1.0)
    assert flagged.ratio is None

    with pytest.raises(ValueError, match="p/2"):
        ap_scan(101, [30])


def test_random_set_scan_seeded():
    a = random_set_scan(101, [5, 10], seed=3)
    b = random_set_scan(101, [5, 10], seed=3)
    assert a == b
    assert all(row.structure == "random" for row in a)


def test_scans_refuse_a_bad_last_size_before_any_transform(monkeypatch):
    monkeypatch.setattr(verify, "wiener_norm", lambda f: pytest.fail("a transform was made"))
    monkeypatch.setattr(verify, "wiener_norms", lambda fs: pytest.fail("a transform was made"))
    with pytest.raises(ValueError, match=r"\|A\| = 10001 violates the hypothesis"):
        ap_scan(10007, [10, 31, 5000])
    with pytest.raises(ValueError, match="size 5004 must satisfy"):
        random_set_scan(10007, [10, 31, 5004])
