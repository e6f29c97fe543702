"""Tests of the benchmark harness itself (job generation, output checks, tracing)."""

import json
from fractions import Fraction

import pytest

import jobcheck
import jobgen
import run
from amenlab.rationals import sha256_digest

@pytest.fixture
def runner():
    r = run.Runner(run.ROOT, None)
    yield r
    r.close()


def test_generator_is_deterministic_per_seed():
    for workload in jobgen.WORKLOADS:
        assert jobgen.generate(workload, 7) == jobgen.generate(workload, 7)
        lists = {json.dumps(jobgen.generate(workload, seed)) for seed in range(5)}
        assert len(lists) > 1, workload


def test_generator_stays_in_documented_ranges():
    for seed in range(20):
        for job in jobgen.generate("tables", seed):
            if job["argv"][0] == "ramsey-check" and json.loads(job["argv"][2]) == jobgen.F2:
                assert Fraction(job["argv"][8]) <= Fraction(1, 2)
        for job in jobgen.generate("free_group", seed):
            if job["argv"][0] == "f2-infeasible":
                assert 0 < Fraction(job["argv"][2]) < 1


def _negative_verdict(runner, tmp_path):
    job = jobgen.ramsey_check(jobgen.Z, 1, 1, Fraction(1, 2), "direct", expect=False)
    out = tmp_path / "envelope.json"
    _, code, _, stdout = runner.spawn(job["argv"] + ["--out", str(out)], False)
    stdout.unlink()
    assert code == 0
    return job, out


def test_untampered_envelope_passes(runner, tmp_path):
    job, out = _negative_verdict(runner, tmp_path)
    res = {"problems": []}
    runner.check_output(job, out, res)
    assert res["problems"] == []


def test_tampered_envelope_counts_as_failed(runner, tmp_path):
    job, out = _negative_verdict(runner, tmp_path)
    env = json.loads(out.read_text())

    # an edited result with the old digest fails `amenlab verify`
    env["result"]["subsets_checked"] += 1
    out.write_text(json.dumps(env))
    res = {"problems": []}
    runner.check_output(job, out, res)
    assert any("verify failed" in p for p in res["problems"])

    # a forged positive verdict with a fresh digest passes `verify` but not the invariants
    env["result"]["subsets_checked"] -= 1
    env["result"]["is_ramsey"] = True
    del env["result"]["counterexample"]
    env["digest"] = sha256_digest({k: env[k] for k in ("tool", "version", "job", "result")})
    out.write_text(json.dumps(env))
    res = {"problems": []}
    runner.check_output(job, out, res)
    assert res["problems"]

    # a digest that differs from the corpus fails
    runner.golden = {" ".join(job["argv"]): "sha256:" + "0" * 64}
    job, out = _negative_verdict(runner, tmp_path)
    res = {"problems": []}
    runner.check_output(job, out, res)
    assert any("corpus" in p for p in res["problems"])


def test_traced_and_untraced_runs_give_identical_digests(runner):
    jobs = [
        jobgen.ramsey_check(jobgen.Z, 1, 3, Fraction(1, 3), "pictures", expect=True),
        jobgen.ramsey_check(jobgen.F2, 1, 1, Fraction(1, 4), "direct", pair="f2"),
        jobgen.ramsey_check(jobgen.F2, 1, 1, Fraction(1, 4), "pictures", pair="f2"),
        {"name": "identities 4", "argv": ["f2-verify", "--identities", "4"],
         "expect": None, "pair": None},
        {"name": "f2-infeasible 3 1/2 2", "argv": ["f2-infeasible", "3", "1/2", "2"],
         "expect": None, "pair": None},
    ]
    plain = runner.run_pass(jobs, False)
    traced = runner.run_pass(jobs, True)
    for r in plain + traced:
        assert r["problems"] == [], (r["job"]["name"], r["problems"])
    assert [r["digest"] for r in plain] == [r["digest"] for r in traced]
    metrics = run.layer_metrics(traced)
    assert metrics["ramsey.subsets"] > 0 and metrics["groups.products"] > 0
    assert metrics["pictures.predicate_calls"] > 0 and metrics["linprog.lps"] > 0
    assert metrics["trace.covered_frac"] > 0.8


def test_cross_job_checks():
    def envelope(command, result):
        return {"job": {"command": command}, "result": result}

    pair = [{"pair": "f2"}, {"pair": "f2"}]
    agree = [envelope("ramsey-check", {"is_ramsey": False, "counterexample": {"E_mask": 3}})] * 2
    assert jobcheck.check_pass(pair, agree) == {}
    differ = agree[:1] + [envelope("ramsey-check", {"is_ramsey": False,
                                                     "counterexample": {"E_mask": 4}})]
    assert set(jobcheck.check_pass(pair, differ)) == {0, 1}

    solo = [{"pair": None}, {"pair": None}]
    monotone = [envelope("f2-infeasible", {"delta": "1/4", "status": "infeasible"}),
                envelope("f2-infeasible", {"delta": "1/2", "status": "feasible"})]
    assert jobcheck.check_pass(solo, monotone) == {}
    flipped = [envelope("f2-infeasible", {"delta": "1/4", "status": "feasible"}),
               envelope("f2-infeasible", {"delta": "1/2", "status": "infeasible"})]
    assert set(jobcheck.check_pass(solo, flipped)) == {0, 1}


def test_scan_closed_forms():
    assert jobcheck.scan_closed_form("translate_high_is_level_shift", 9) == 53 * (2 * 3**6 - 1)
    assert jobcheck.scan_closed_form("b_pow_first", 9) == 39365
