"""Output checks for benchmark jobs, beyond ``amenlab verify``.

``verify`` recomputes the digest and the embedded certificates, but for
``ramsey-function``, ``f2-verify`` and ``function-table`` it checks no
claim at all, and for positive Ramsey verdicts it does not check that
every subset was covered.  These checks close those gaps for the jobs the
benchmark runs.  Each returns a list of problems; empty means the output
holds.
"""

from __future__ import annotations

from fractions import Fraction


def f2_ball_size(length: int) -> int:
    """|ball(F2, L)| = 2 * 3^L - 1."""
    return 2 * 3**length - 1


def scan_closed_form(name: str, max_length: int, translate_radius: int = 3) -> int:
    """The word count an F2 scan check must report."""
    if name == "translate_high_is_level_shift":
        return f2_ball_size(translate_radius) * f2_ball_size(max(0, max_length - translate_radius))
    return f2_ball_size(max_length)


def check_envelope(job: dict, env: dict) -> list[str]:
    """Invariants of one job's envelope."""
    command, result = env["job"]["command"], env["result"]
    if command != job["argv"][0]:
        return [f"envelope is for {command!r}, job ran {job['argv'][0]!r}"]
    problems = []
    if command == "ramsey-check":
        subsets = 1 << len(result["products"])
        if result["is_ramsey"]:
            if result["subsets_checked"] != subsets:
                problems.append(
                    f"positive verdict checked {result['subsets_checked']} of {subsets} subsets")
        elif "counterexample" not in result:
            problems.append("negative verdict without a counterexample")
        elif result["subsets_checked"] != result["counterexample"]["E_mask"] + 1:
            problems.append("counterexample is not the last subset checked")
        if job["expect"] is not None and result["is_ramsey"] != job["expect"]:
            problems.append(f"verdict {result['is_ramsey']}, expected {job['expect']}")
    elif command == "function-table":
        if result["harness"].get("all_hold") is not True:
            problems.append("inequality harness does not report all_hold")
    elif command == "f2-verify":
        length = result["max_length"]
        for check in result["checks"]:
            if check["failures"]:
                problems.append(f"{check['name']}: {check['failures']} failures")
            if check["checked"] != scan_closed_form(check["name"], length):
                problems.append(f"{check['name']}: checked {check['checked']}, "
                                f"expected {scan_closed_form(check['name'], length)}")
        if not result["checks"] or result["ok"] is not True:
            problems.append("scan report is empty or not ok")
    elif command == "f2-infeasible":
        if Fraction(result["delta"]) != Fraction(job["argv"][2]):
            problems.append(f"delta {result['delta']} is not the job's {job['argv'][2]}")
        if job["expect"] is not None and result["status"] != job["expect"]:
            problems.append(f"status {result['status']}, expected {job['expect']}")
    return problems


def check_pass(jobs: list[dict], envelopes: list[dict | None]) -> dict[int, list[str]]:
    """Invariants across the jobs of one pass, by job index."""
    problems: dict[int, list[str]] = {}
    pairs: dict[str, list[int]] = {}
    for i, job in enumerate(jobs):
        if job["pair"] is not None and envelopes[i] is not None:
            pairs.setdefault(job["pair"], []).append(i)

    def outcome(i):
        res = envelopes[i]["result"]
        return res["is_ramsey"], res.get("counterexample", {}).get("E_mask")

    for members in pairs.values():
        if len({outcome(i) for i in members}) > 1:
            for i in members:
                problems.setdefault(i, []).append("direct and pictures disagree")

    deltas = sorted(
        (Fraction(envelopes[i]["result"]["delta"]), envelopes[i]["result"]["status"], i)
        for i in range(len(jobs))
        if envelopes[i] is not None and envelopes[i]["job"]["command"] == "f2-infeasible"
    )
    seen_feasible = False
    for delta, status, i in deltas:
        if status == "feasible":
            seen_feasible = True
        elif seen_feasible:
            for _, _, j in deltas:
                problems.setdefault(j, []).append(f"feasibility not monotone in delta at {delta}")
            break
    return problems
