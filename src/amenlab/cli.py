"""Certificate-emitting command line surface.

Every run produces a JSON envelope: tool version, the job echo, the
result with any certificates, and a content digest.  Envelopes for
deterministic jobs are byte-identical across runs.  ``amenlab verify``
re-validates the certificates embedded in an envelope by plain
arithmetic, without re-running any search or LP pivoting.

Exit codes: 0 for completed computations (negative mathematical verdicts
such as "not Ramsey" or "infeasible" are still successes), 1 for errors
and failed verification, 2 for cap exhaustion.

All rationals cross this boundary as "p/q" strings; floats are rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction

from . import __version__
from .balance import (
    BalanceWitness,
    SetFamily,
    UnbalanceWitness,
    balance_deficiency,
    unbalance_witness,
    verify_balance_witness,
    verify_unbalance_witness,
)
from .f2 import (
    InvarianceOutcome,
    simultaneous_invariance,
    verify_disjoint_translates,
    verify_identities,
    verify_invariance_outcome,
)
from .folner import (
    folner_function,
    inequality_harness,
    invariance_defect,
    is_epsilon_folner,
    weighted_folner,
)
from .groups import (
    CapExceeded,
    FreeAbelianGroup,
    FreeGroup,
    Group,
    GroupError,
    Measure,
    ball,
    group_from_json,
    sort_elements,
)
from .pictures import (
    NonAmenabilityCertificate,
    PictureContext,
    SetSpec,
    realization_search,
    realized_family,
    verify_nonamenability_certificate,
)
from .ramsey import (
    RamseyCounterexample,
    RamseyVerdict,
    _f_gap,
    boost,
    is_epsilon_ramsey,
    ramsey_function,
    verify_ramsey_verdict,
)
from .rationals import fmt_q, parse_q, sha256_digest

DEFAULT_CAP = 24


class CliError(ValueError):
    pass


def _resolve_cap(args) -> int:
    if getattr(args, "cap", None) is not None:
        return args.cap
    env = os.environ.get("AMENLAB_CAP")
    if env is not None:
        return int(env)
    return DEFAULT_CAP


def _load_json_arg(text: str):
    text = text.strip()
    if text.startswith("{") or text.startswith("["):
        return json.loads(text)
    with open(text) as fh:
        return json.load(fh)


_GROUP_KEYS = {
    "free": {"kind", "generators"},
    "free_abelian": {"kind", "rank"},
    "cyclic": {"kind", "order"},
    "finite_table": {"kind", "table", "generators"},
}


def _load_group(text: str) -> Group:
    obj = _load_json_arg(text)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise CliError("group descriptor must be a JSON object with a 'kind'")
    allowed = _GROUP_KEYS.get(obj["kind"])
    if allowed is None:
        raise CliError(f"unknown group kind {obj['kind']!r}")
    extra = set(obj) - allowed
    if extra:
        raise CliError(f"unknown group fields: {sorted(extra)}")
    return group_from_json(obj)


def _parse_elements(group: Group, texts) -> tuple:
    return tuple(group.parse_element(t) for t in texts)


def _envelope(job: dict, result: dict) -> dict:
    body = {
        "tool": "amenlab",
        "version": __version__,
        "job": job,
        "result": result,
    }
    body["digest"] = sha256_digest(body)
    return body


def _render(env: dict) -> str:
    return json.dumps(env, indent=2, sort_keys=True) + "\n"


def _write_file(text: str, out_path: str) -> None:
    """Replace out_path by text atomically, through a temp file beside it."""
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(env: dict, out_path: str | None) -> None:
    rendered = _render(env)
    sys.stdout.write(rendered)
    if out_path:
        _write_file(rendered, out_path)


# ---------------------------------------------------------------- handlers


def _cmd_ramsey_check(args) -> int:
    group = _load_group(args.group)
    eps = parse_q(args.eps)
    cap = _resolve_cap(args)
    window = ball(group, args.m)
    bset = ball(group, args.n)
    verdict = is_epsilon_ramsey(
        window,
        bset,
        eps,
        method=args.method,
        cap=cap,
        collect_witnesses=False if args.no_witnesses else None,
    )
    result = verdict.to_json()
    if args.no_witnesses:
        result.pop("witnesses", None)
        result.pop("family_witnesses", None)
    job = {
        "command": "ramsey-check",
        "group": group.to_json(),
        "m": args.m,
        "n": args.n,
        "eps": fmt_q(eps),
        "method": args.method,
        "cap": cap,
        "witnesses": not args.no_witnesses,
    }
    _emit(_envelope(job, result), args.out)
    return 0


def _cmd_ramsey_function(args) -> int:
    group = _load_group(args.group)
    eps = parse_q(args.eps)
    cap = _resolve_cap(args)
    res = ramsey_function(group, args.m, eps, args.n_max, cap=cap, method=args.method)
    job = {
        "command": "ramsey-function",
        "group": group.to_json(),
        "m": args.m,
        "eps": fmt_q(eps),
        "n_max": args.n_max,
        "cap": cap,
        "method": args.method,
    }
    _emit(_envelope(job, res.to_json()), args.out)
    return 0


def _window_and_bset(args, group):
    if args.a_set:
        window = _parse_elements(group, _load_json_arg(args.a_set))
    elif args.a_radius is not None:
        window = ball(group, args.a_radius)
    else:
        raise CliError("provide --a-radius or --a-set")
    if args.b_set:
        bset = _parse_elements(group, _load_json_arg(args.b_set))
    elif args.b_radius is not None:
        bset = ball(group, args.b_radius)
    else:
        raise CliError("provide --b-radius or --b-set")
    return window, bset


def _cmd_folner_check(args) -> int:
    group = _load_group(args.group)
    eps = parse_q(args.eps)
    window, bset = _window_and_bset(args, group)
    report = is_epsilon_folner(window, bset, eps)
    job = {
        "command": "folner-check",
        "group": group.to_json(),
        "window": [repr(a) for a in sort_elements(window)],
        "bset": [repr(b) for b in sort_elements(bset)],
        "eps": fmt_q(eps),
    }
    _emit(_envelope(job, report.to_json()), args.out)
    return 0


def _cmd_folner_function(args) -> int:
    group = _load_group(args.group)
    res = folner_function(group, args.k, ball(group, args.window_radius))
    job = {
        "command": "folner-function",
        "group": group.to_json(),
        "k": args.k,
        "window_radius": args.window_radius,
    }
    _emit(_envelope(job, res.to_json()), args.out)
    return 0


def _cmd_weighted_folner(args) -> int:
    group = _load_group(args.group)
    cell = weighted_folner(group, args.m, args.n)
    job = {
        "command": "weighted-folner",
        "group": group.to_json(),
        "m": args.m,
        "n": args.n,
    }
    _emit(_envelope(job, cell.to_json()), args.out)
    return 0


def _cmd_balance(args) -> int:
    family = SetFamily.from_json(_load_json_arg(args.family))
    eps_star, witness = balance_deficiency(family)
    result = {
        "deficiency": fmt_q(eps_star),
        "balanced": eps_star == 0,
        "witness": witness.to_json(),
        "family": family.to_json(),
    }
    job = {"command": "balance", "family": family.to_json()}
    _emit(_envelope(job, result), args.out)
    return 0


def _cmd_unbalance_witness(args) -> int:
    family = SetFamily.from_json(_load_json_arg(args.family))
    witness = unbalance_witness(family)
    result = {
        "family": family.to_json(),
        "witness": None if witness is None else witness.to_json(),
        "balanced": witness is None,
    }
    job = {"command": "unbalance-witness", "family": family.to_json()}
    _emit(_envelope(job, result), args.out)
    return 0


def _cmd_pictures(args) -> int:
    group = _load_group(args.group)
    if args.window_set:
        window = _parse_elements(group, _load_json_arg(args.window_set))
    else:
        window = ball(group, args.window_radius)
    target = SetSpec.from_json(_load_json_arg(args.target), group)
    ctx = PictureContext(group, window, target)
    domain = ball(group, args.domain_radius)
    family = realized_family(ctx, domain)
    job = {
        "command": "pictures",
        "group": group.to_json(),
        "window": [repr(a) for a in ctx.window],
        "target": target.to_json(),
        "domain_radius": args.domain_radius,
    }
    result = {
        "family": family.to_json(),
        "note": "pictures over the probe domain only; the full family may be larger",
    }
    _emit(_envelope(job, result), args.out)
    return 0


def _cmd_realize_search(args) -> int:
    group = _load_group(args.group)
    window = ball(group, args.window_radius)
    fobj = _load_json_arg(args.f)
    f = {group.parse_element(k): parse_q(v) for k, v in fobj.items()}
    cert = realization_search(group, window, f, args.radius)
    job = {
        "command": "realize-search",
        "group": group.to_json(),
        "window_radius": args.window_radius,
        "f": {repr(k): fmt_q(v) for k, v in sorted(f.items(), key=lambda kv: kv[0].key())},
        "radius": args.radius,
    }
    result = {"found": cert is not None}
    if cert is not None:
        result["certificate"] = cert.to_json()
    _emit(_envelope(job, result), args.out)
    return 0


def _boost_ramp(group: Group, final_radius: int):
    """A fixed [0,1]-valued rational test function for boost runs."""
    span = 2 * final_radius

    def clip(v: Fraction) -> Fraction:
        return max(Fraction(0), min(Fraction(1), v))

    if isinstance(group, FreeAbelianGroup):
        return lambda g: clip(Fraction(g.value[0] + final_radius, span))
    if isinstance(group, FreeGroup) and group.rank == 2:
        from .pictures import height

        return lambda g: clip(Fraction(height(g) + final_radius, span))
    # cyclic and table groups: graded by element index
    return lambda g: clip(Fraction(int(g.value), max(1, group.order - 1)))


def _cmd_boost(args) -> int:
    group = _load_group(args.group)
    eps = parse_q(args.eps)
    window = ball(group, args.m)
    from .ramsey import boost_steps_needed

    steps = boost_steps_needed(eps)
    final_radius = args.m * (2**steps) + 1
    f = _boost_ramp(group, final_radius)
    res = boost(window, f, eps)
    job = {
        "command": "boost",
        "group": group.to_json(),
        "m": args.m,
        "eps": fmt_q(eps),
        "ramp_radius": final_radius,
    }
    _emit(_envelope(job, res.to_json()), args.out)
    return 0


def _cmd_f2_verify(args) -> int:
    if args.identities is not None:
        report = verify_identities(args.identities)
        job = {"command": "f2-verify", "identities": args.identities}
    elif args.disjoint is not None:
        k, length = args.disjoint
        report = verify_disjoint_translates(k, length)
        job = {"command": "f2-verify", "disjoint": [k, length]}
    else:
        raise CliError("provide --identities L or --disjoint K L")
    _emit(_envelope(job, report.to_json()), args.out)
    return 0


def _cmd_f2_infeasible(args) -> int:
    delta = parse_q(args.delta)
    outcome = simultaneous_invariance(args.K, delta, args.r)
    job = {
        "command": "f2-infeasible",
        "K": args.K,
        "delta": fmt_q(delta),
        "r": args.r,
    }
    _emit(_envelope(job, outcome.to_json()), args.out)
    return 0


def _cmd_function_table(args) -> int:
    group = _load_group(args.group)
    cap = _resolve_cap(args)
    m_values = list(range(1, args.m_max + 1))
    k_values = list(range(1, args.k_max + 1))
    harness = inequality_harness(
        group,
        m_values,
        k_values,
        window_radius=args.window_radius,
        n_max=args.n_max,
        ramsey_cap=min(cap, 14),
    )
    rows = []
    for k in k_values:
        fol = harness.folner[k]
        if fol.size is None:
            status = "none_in_window"
        else:
            status = "exact" if fol.exact else "upper_bound"
        rows.append(["folner", "", k, fol.size, status])
    for m in m_values:
        for k in k_values:
            ww = harness.weighted[m, k]
            rows.append(
                ["weighted_folner", m, k, ww.value, "ok" if ww.value is not None else "exhausted"]
            )
            # the harness caps its Ramsey searches lower, so these rows solve their own
            rr = ramsey_function(group, m, Fraction(1, k), args.n_max, cap=cap)
            rows.append(["ramsey", m, k, rr.value, rr.status])
    sys.stdout.write("quantity,m,k,value,status\n")
    for row in rows:
        sys.stdout.write(",".join("" if v is None else str(v) for v in row) + "\n")
    result = {
        "rows": [
            {"quantity": q, "m": m, "k": k, "value": v, "status": s}
            for q, m, k, v, s in rows
        ],
        "harness": harness.to_json(),
    }
    job = {
        "command": "function-table",
        "group": group.to_json(),
        "m_max": args.m_max,
        "k_max": args.k_max,
        "window_radius": args.window_radius,
        "n_max": args.n_max,
        "cap": cap,
    }
    if args.out:
        _write_file(_render(_envelope(job, result)), args.out)
    if harness.violated:
        sys.stderr.write("inequality violation detected\n")
        return 1
    return 0


# ---------------------------------------------------------------- verify


def _verify_ramsey_check(env) -> bool:
    job = env["job"]
    group = group_from_json(job["group"])
    result = env["result"]
    window = ball(group, job["m"])
    bset = ball(group, job["n"])
    eps = parse_q(result["eps"])
    witnesses = None
    if "witnesses" in result:
        witnesses = {
            int(mask): Measure.from_json(group, m)
            for mask, m in result["witnesses"].items()
        }
    family_witnesses = None
    if "family_witnesses" in result:
        family_witnesses = [
            (SetFamily.from_json(item["family"]), BalanceWitness.from_json(item["witness"]))
            for item in result["family_witnesses"]
        ]
    counterexample = None
    if "counterexample" in result:
        ce = result["counterexample"]
        counterexample = RamseyCounterexample(
            ce["E_mask"],
            _parse_elements(group, ce["E"]),
            ce["kind"],
            ce["payload"],
        )
    verdict = RamseyVerdict(
        result["is_ramsey"],
        eps,
        result["method"],
        tuple(_parse_elements(group, result["window"])),
        tuple(_parse_elements(group, result["bset"])),
        tuple(_parse_elements(group, result["interior"])),
        tuple(_parse_elements(group, result["products"])),
        reason=result.get("reason"),
        witnesses=witnesses,
        family_witnesses=family_witnesses,
        counterexample=counterexample,
    )
    if tuple(verdict.window) != tuple(window) or tuple(verdict.bset) != tuple(bset):
        return False
    return verify_ramsey_verdict(verdict)


def _verify_balance(env) -> bool:
    family = SetFamily.from_json(env["result"]["family"])
    witness = BalanceWitness.from_json(env["result"]["witness"])
    if not verify_balance_witness(family, witness):
        return False
    balanced = env["result"]["balanced"]
    return balanced == (witness.gap == 0) and parse_q(env["result"]["deficiency"]) == witness.gap


def _verify_unbalance(env) -> bool:
    family = SetFamily.from_json(env["result"]["family"])
    wobj = env["result"]["witness"]
    if wobj is None:
        return env["result"]["balanced"] is True
    return verify_unbalance_witness(family, UnbalanceWitness.from_json(wobj))


def _verify_folner_check(env) -> bool:
    job = env["job"]
    group = group_from_json(job["group"])
    window = _parse_elements(group, job["window"])
    bset = _parse_elements(group, job["bset"])
    eps = parse_q(env["result"]["threshold"]) / len(bset)
    report = is_epsilon_folner(window, bset, eps)
    return report.to_json() == env["result"]


def _verify_folner_function(env) -> bool:
    job = env["job"]
    group = group_from_json(job["group"])
    result = env["result"]
    if result["size"] is None:
        return result["witness"] is None
    witness = _parse_elements(group, result["witness"])
    if len(witness) != result["size"]:
        return False
    report = is_epsilon_folner(group.generators(), witness, Fraction(1, job["k"]))
    return report.ok


def _verify_weighted_folner(env) -> bool:
    job = env["job"]
    group = group_from_json(job["group"])
    result = env["result"]
    if result["status"] != "ok":
        return result["value"] is None
    nu = Measure.from_json(group, result["measure"])
    window = ball(group, job["m"])
    pool = set(ball(group, job["n"]))
    from .ramsey import interior as _interior

    if set(nu.support()) - set(_interior(window, pool)):
        return False
    return invariance_defect(nu, window) == parse_q(result["value"])


def _verify_realize_search(env) -> bool:
    job = env["job"]
    group = group_from_json(job["group"])
    result = env["result"]
    if not result["found"]:
        return "certificate" not in result
    cobj = result["certificate"]
    cert = NonAmenabilityCertificate(
        group,
        _parse_elements(group, cobj["window"]),
        tuple(parse_q(x) for x in cobj["f"]),
        cobj["radius"],
        SetSpec.from_json(cobj["target"], group),
        SetFamily.from_json(cobj["family"], parse=group.parse_element),
        UnbalanceWitness.from_json(cobj["witness"]),
    )
    return verify_nonamenability_certificate(cert)


def _verify_final_gap(env) -> bool:
    job = env["job"]
    group = group_from_json(job["group"])
    result = env["result"]
    nu = Measure.from_json(group, result["measure"])
    gap = _f_gap(ball(group, job["m"]), nu, _boost_ramp(group, job["ramp_radius"]))
    return gap == parse_q(result["final_gap"]) and gap <= parse_q(result["eps"])


def _verify_f2_infeasible(env) -> bool:
    outcome = InvarianceOutcome.from_json(env["result"])
    job = env["job"]
    if (
        outcome.translate_count != job["K"]
        or fmt_q(outcome.delta) != job["delta"]
        or outcome.radius != job["r"]
    ):
        return False
    return verify_invariance_outcome(outcome)


def _verify_pictures(env) -> bool:
    job = env["job"]
    group = group_from_json(job["group"])
    window = _parse_elements(group, job["window"])
    target = SetSpec.from_json(job["target"], group)
    ctx = PictureContext(group, window, target)
    family = realized_family(ctx, ball(group, job["domain_radius"]))
    return family.to_json() == env["result"]["family"]


def _verify_summary_only(env) -> bool:
    return True


_VERIFIERS = {
    "ramsey-check": _verify_ramsey_check,
    "balance": _verify_balance,
    "unbalance-witness": _verify_unbalance,
    "folner-check": _verify_folner_check,
    "folner-function": _verify_folner_function,
    "weighted-folner": _verify_weighted_folner,
    "realize-search": _verify_realize_search,
    "boost": _verify_final_gap,
    "f2-infeasible": _verify_f2_infeasible,
    "pictures": _verify_pictures,
    # summary-style results embed no certificates to recheck
    "ramsey-function": _verify_summary_only,
    "f2-verify": _verify_summary_only,
    "function-table": _verify_summary_only,
}


def _cmd_verify(args) -> int:
    with open(args.envelope) as fh:
        env = json.load(fh)
    body = {k: env[k] for k in ("tool", "version", "job", "result") if k in env}
    if set(env) != {"tool", "version", "job", "result", "digest"}:
        sys.stderr.write("verify: envelope has unexpected shape\n")
        return 1
    if sha256_digest(body) != env["digest"]:
        sys.stderr.write("verify: digest mismatch\n")
        return 1
    command = env["job"].get("command")
    checker = _VERIFIERS.get(command)
    if checker is None:
        sys.stderr.write(f"verify: unknown command {command!r}\n")
        return 1
    ok = checker(env)
    sys.stdout.write(
        json.dumps({"command": command, "digest": "ok", "certificates": "ok" if ok else "FAILED"})
        + "\n"
    )
    return 0 if ok else 1


# ---------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like every other bad input; argparse's 2 means cap exhaustion here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="amenlab",
        description="exact-rational certificates for averaging windows, "
        "balanced families, Folner search, and free-group obstructions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, group=True, eps=False, cap=False):
        if group:
            p.add_argument("--group", required=True, help="group descriptor JSON or file path")
        if eps:
            p.add_argument("--eps", required=True, help='rational like "1/2"')
        if cap:
            p.add_argument("--cap", type=int, default=None, help="enumeration cap (env AMENLAB_CAP overrides the default)")
        p.add_argument("--out", default=None, help="also write the envelope to this file")

    p = sub.add_parser("ramsey-check", help="decide eps-Ramseyness of ball(n) w.r.t. ball(m)")
    common(p, eps=True, cap=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=["direct", "pictures"], default="direct")
    p.add_argument("--no-witnesses", action="store_true")
    p.set_defaults(handler=_cmd_ramsey_check)

    p = sub.add_parser("ramsey-function", help="least n with ball(n) eps-Ramsey w.r.t. ball(m)")
    common(p, eps=True, cap=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--method", choices=["direct", "pictures"], default="pictures")
    p.set_defaults(handler=_cmd_ramsey_function)

    p = sub.add_parser("folner-check", help="exact boundary counts for a candidate set")
    common(p, eps=True)
    p.add_argument("--a-radius", type=int, default=None)
    p.add_argument("--a-set", default=None, help="JSON list of elements")
    p.add_argument("--b-radius", type=int, default=None)
    p.add_argument("--b-set", default=None, help="JSON list of elements")
    p.set_defaults(handler=_cmd_folner_check)

    p = sub.add_parser("folner-function", help="minimum 1/k-Folner size over a window")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--window-radius", type=int, default=6)
    p.set_defaults(handler=_cmd_folner_function)

    p = sub.add_parser("weighted-folner", help="optimal measure invariance defect")
    common(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_weighted_folner)

    p = sub.add_parser("balance", help="balance deficiency of a set family")
    common(p, group=False)
    p.add_argument("--family", required=True, help="family JSON or file path")
    p.set_defaults(handler=_cmd_balance)

    p = sub.add_parser("unbalance-witness", help="zero-sum positive-on-members weighting")
    common(p, group=False)
    p.add_argument("--family", required=True)
    p.set_defaults(handler=_cmd_unbalance_witness)

    p = sub.add_parser("pictures", help="realized picture family over a probe ball")
    common(p)
    p.add_argument("--window-radius", type=int, default=None)
    p.add_argument("--window-set", default=None)
    p.add_argument("--target", required=True, help="set construction JSON")
    p.add_argument("--domain-radius", type=int, required=True)
    p.set_defaults(handler=_cmd_pictures)

    p = sub.add_parser("realize-search", help="search the candidate pool for a positive-sum realization")
    common(p)
    p.add_argument("--window-radius", type=int, required=True)
    p.add_argument("--f", required=True, help='JSON mapping element -> "p/q", zero sum')
    p.add_argument("--radius", type=int, required=True)
    p.set_defaults(handler=_cmd_realize_search)

    p = sub.add_parser("boost", help="compose averaging steps down to a target gap")
    common(p, eps=True)
    p.add_argument("--m", type=int, required=True, help="window = ball(m)")
    p.set_defaults(handler=_cmd_boost)

    p = sub.add_parser("f2-verify", help="pointwise identity / disjointness scans in the rank-2 free group")
    common(p, group=False)
    p.add_argument("--identities", type=int, default=None, metavar="L")
    p.add_argument("--disjoint", type=int, nargs=2, default=None, metavar=("K", "L"))
    p.set_defaults(handler=_cmd_f2_verify)

    p = sub.add_parser("f2-infeasible", help="five-set invariance LP over a ball")
    common(p, group=False)
    p.add_argument("K", type=int)
    p.add_argument("delta")
    p.add_argument("r", type=int)
    p.set_defaults(handler=_cmd_f2_infeasible)

    p = sub.add_parser("function-table", help="tabulate Folner / weighted / Ramsey functions with inequality checks")
    common(p, cap=True)
    p.add_argument("--m-max", type=int, default=1)
    p.add_argument("--k-max", type=int, default=2)
    p.add_argument("--window-radius", type=int, default=6)
    p.add_argument("--n-max", type=int, default=8)
    p.set_defaults(handler=_cmd_function_table)

    p = sub.add_parser("verify", help="re-validate an emitted envelope without re-solving")
    p.add_argument("envelope")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CapExceeded as exc:
        sys.stderr.write(f"cap exhausted: {exc}\n")
        return 2
    except (CliError, GroupError, ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
