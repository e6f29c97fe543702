"""Certificate-emitting command line surface.

Every run produces a JSON envelope: tool version, the job echo, the
result with any certificates, and a content digest.  Envelopes for
deterministic jobs are byte-identical across runs.  ``amenlab verify``
recomputes the digest, rebuilds every job from its own fields without
solving it and requires the two byte-identical, and then rechecks the
result.  Certificates are checked by plain arithmetic without LP
pivoting (every step of a ``boost`` tower included), and each parameter
a result restates, such as the eps of ``boost``, must equal the job's.
A command without a certificate is run again from the rebuilt job and
its result compared byte for byte.  A result that carries no evidence
is reported as ``"certificates": "none"`` with exit code 0: a positive
direct ``ramsey-check`` verdict past 4096 subsets, which keeps no
witnesses, and a ``realize-search`` that found nothing.  Element
strings are read in the canonical form the tool writes, and no other.
Every cap is a constant: the enumeration cap is
``ramsey.DEFAULT_ENUMERATION_CAP``, which the Ramsey and table jobs echo
as ``"cap"``, so a job with another cap fails its rebuild.

Exit codes: 0 for completed computations (negative mathematical verdicts
such as "not Ramsey" or "infeasible" are still successes), 1 for errors
and failed verification, 2 for cap exhaustion.

All rationals cross this boundary as "p/q" strings: `parse_q` reads
strings only, so a JSON number where a rational belongs is rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

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
    parse_elements,
    parse_weights,
    sort_elements,
)
from .pictures import (
    PROBE_BALL_CAP,
    NonAmenabilityCertificate,
    SetSpec,
    height,
    realization_search,
    realized_family,
    verify_nonamenability_certificate,
)
from .ramsey import (
    BOOST_BALL_CAP,
    BOOST_RADIUS_CAP,
    BOOST_STEP_GAP,
    DEFAULT_ENUMERATION_CAP,
    RamseyVerdict,
    boost,
    boost_steps_needed,
    interior,
    is_epsilon_ramsey,
    ramsey_eps,
    ramsey_function,
    verify_ramsey_verdict,
)
from .rationals import canonical_dumps, fmt_q, parse_q, sha256_digest


class CliError(ValueError):
    pass


def _load_json_arg(text: str):
    """A JSON document on the command line: inline text or a file path."""
    text = text.strip()
    if text.startswith("{") or text.startswith("["):
        return json.loads(text)
    with open(text) as fh:
        return json.load(fh)


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
    """``json.dumps(env, indent=2, sort_keys=True)`` and a newline, byte for byte.

    With an indent the json module encodes in pure Python, so the layout is
    written here and only strings and other scalars go through its C code.
    """
    out: list[str] = []
    _write_json(env, "\n", out)
    out.append("\n")
    return "".join(out)


_quote = json.encoder.encode_basestring_ascii


def _write_json(obj, newline: str, out: list[str]) -> None:
    """Append obj as indented JSON; newline is the line break and indent obj starts on.

    A list of strings, which is what an envelope's lists of scalars are
    (rationals and element names), is appended as one piece, so the pieces
    held until the final join stay few.
    """
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key, value in sorted(obj.items()):
            out.append(sep + _quote(key) + ": ")
            _write_json(value, inner, out)
            sep = comma
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        if type(obj[0]) is str:
            try:
                out.append(sep + comma.join(map(_quote, obj)) + newline + "]")
                return
            except TypeError:  # an item that is not a string: write item by item
                pass
        for value in obj:
            out.append(sep)
            _write_json(value, inner, out)
            sep = comma
        out.append(newline + "]")
    else:
        out.append(json.dumps(obj))


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


def _emit(env: dict, out_path: str | None) -> int:
    rendered = _render(env)
    sys.stdout.write(rendered)
    if out_path:
        _write_file(rendered, out_path)
    return 0


# ---------------------------------------------------------------- commands
# run(args) yields its job fields, then its result; it sees --group as a Group,
# --eps as a Fraction, and reads each other JSON document through args.load.
# verify(args, result) rechecks certificates against the arguments the job was
# rebuilt from: True or False, or None when the result carries none.


# the Ramsey and table jobs echo the enumeration cap they ran under
_CAP_ECHO = {"cap": DEFAULT_ENUMERATION_CAP}


def _ramsey_check(args):
    yield {"m": args.m, "n": args.n, "method": args.method, "witnesses": True, **_CAP_ECHO}
    ramsey_eps(args.eps)  # bad input exits 1 even when B is past the cap
    # For n >= m, ball(m)·ball(n - m) = ball(n) with ball(n - m) inside C, so A·C = ball(n)
    # and a ball past the cap is past it too; for n < m, C may be empty whatever B's size,
    # so B, inside the window, stops at the window's ball cap.
    window = ball(args.group, args.m, cap=BOOST_BALL_CAP)
    cap = DEFAULT_ENUMERATION_CAP if args.n >= args.m else BOOST_BALL_CAP
    bset = ball(args.group, args.n, cap=cap)
    verdict = is_epsilon_ramsey(window, bset, args.eps, method=args.method)
    yield verdict.to_json()


def _verify_ramsey_check(args, result) -> bool | None:
    verdict = RamseyVerdict.from_json(result, args.group)
    # every run stops past either cap
    past_cap = (
        len(verdict.products) > DEFAULT_ENUMERATION_CAP or len(verdict.window) > BOOST_BALL_CAP
    )
    if past_cap or (verdict.eps, verdict.method) != (args.eps, args.method):
        return False
    try:  # a ball larger than the verdict's own is not it
        if (verdict.window, verdict.bset) != (
            ball(args.group, args.m, cap=len(verdict.window)),
            ball(args.group, args.n, cap=len(verdict.bset)),
        ):
            return False
    except CapExceeded:
        return False
    return verify_ramsey_verdict(verdict)


def _ramsey_function(args):
    yield {"m": args.m, "n_max": args.n_max, **_CAP_ECHO}
    yield ramsey_function(args.group, args.m, args.eps, args.n_max).to_json()


def _folner_check(args):
    window = parse_elements(args.group, args.load(args.window))
    bset = parse_elements(args.group, args.load(args.bset))
    yield {
        "window": [repr(a) for a in sort_elements(window)],
        "bset": [repr(b) for b in sort_elements(bset)],
    }
    yield is_epsilon_folner(window, bset, args.eps).to_json()


def _folner_function(args):
    yield {"k": args.k, "window_radius": args.window_radius}
    yield folner_function(args.group, args.k, ball(args.group, args.window_radius)).to_json()


def _weighted_folner(args):
    yield {"m": args.m, "n": args.n}
    yield weighted_folner(args.group, args.m, args.n).to_json()


def _balance(args):
    family = SetFamily.from_json(args.load(args.family))
    yield {"family": family.to_json()}
    eps_star, witness = balance_deficiency(family)
    yield {
        "deficiency": fmt_q(eps_star),
        "balanced": eps_star == 0,
        "witness": witness.to_json(),
        "family": family.to_json(),
    }


def _unbalance_witness(args):
    family = SetFamily.from_json(args.load(args.family))
    yield {"family": family.to_json()}
    witness = unbalance_witness(family)
    result = {
        "family": family.to_json(),
        "witness": None if witness is None else witness.to_json(),
        "balanced": witness is None,
    }
    if witness is None:  # a balanced claim carries its zero-gap balance witness
        result["balance_witness"] = balance_deficiency(family)[1].to_json()
    yield result


def _verify_unbalance(args, result) -> bool:
    if result["family"] != args.family:
        return False
    family = SetFamily.from_json(args.family)
    if result["witness"] is None:
        witness = BalanceWitness.from_json(result["balance_witness"])
        return result["balanced"] is True and verify_balance_witness(family, witness, 0)
    witness = UnbalanceWitness.from_json(result["witness"])
    return result["balanced"] is False and verify_unbalance_witness(family, witness)


def _pictures(args):
    target = SetSpec.from_json(args.load(args.target), args.group)
    window = ball(args.group, args.window_radius)
    yield {
        "window": [repr(a) for a in window],
        "target": target.to_json(),
        "domain_radius": args.domain_radius,
    }
    domain = ball(args.group, args.domain_radius, cap=PROBE_BALL_CAP)
    family = realized_family(window, target.compile(args.group), domain)
    yield {
        "family": family.to_json(),
        "note": "pictures over the probe domain only; the full family may be larger",
    }


def _pictures_window_radius(job) -> dict:
    """A pictures job writes its window, not its radius: the least radius of a ball that size."""
    size = len(job["window"])
    return {"window_radius": _ball_with_size(group_from_json(job["group"]), size, size)[1]}


def _realize_search(args):
    window = ball(args.group, args.window_radius)
    fobj = args.load(args.f)
    if not isinstance(fobj, dict):
        raise CliError("--f must be a JSON object mapping window elements to rationals")
    f = parse_weights(args.group, fobj)
    if set(f) != set(window):
        raise CliError("the keys of --f must be the window's elements, each once")
    yield {
        "window_radius": args.window_radius,
        "f": {repr(k): fmt_q(v) for k, v in sorted(f.items(), key=lambda kv: kv[0].key())},
        "radius": args.radius,
    }
    cert = realization_search(args.group, window, f, args.radius)
    result = {"found": cert is not None}
    if cert is not None:
        result["certificate"] = cert.to_json()
    yield result


def _verify_realize_search(args, result) -> bool | None:
    if not result["found"]:  # an exhausted pool is no evidence either way
        return False if "certificate" in result else None
    cert = NonAmenabilityCertificate.from_json(result["certificate"])
    window = ball(args.group, args.window_radius)
    f = tuple(parse_q(args.f[repr(a)]) for a in window)
    echoed = (args.group, window, f, args.radius)
    if (cert.group, cert.window, cert.f_values, cert.radius) != echoed:
        return False
    return verify_nonamenability_certificate(cert)


def _boost_ramp(group: Group, final_radius: int):
    """A fixed [0,1]-valued rational test function for boost runs."""
    span = 2 * final_radius

    def clip(v: Fraction) -> Fraction:
        return max(Fraction(0), min(Fraction(1), v))

    if isinstance(group, FreeAbelianGroup):
        return lambda g: clip(Fraction(g.value[0] + final_radius, span))
    if isinstance(group, FreeGroup):
        if group.rank != 2:
            raise CliError("boost ramps a free group by height, defined on rank 2 only")
        return lambda g: clip(Fraction(height(g) + final_radius, span))
    # cyclic and table groups: graded by element index
    return lambda g: clip(Fraction(int(g.value), max(1, group.order - 1)))


def _ramp_radius(m: int, eps: Fraction) -> int:
    return m * (2 ** boost_steps_needed(eps)) + 1


def _boost(args):
    final_radius = _ramp_radius(args.m, args.eps)
    f = _boost_ramp(args.group, final_radius)
    yield {"m": args.m, "ramp_radius": final_radius}
    # the window is the tower's first level, so it is capped like every other
    yield boost(ball(args.group, args.m, cap=BOOST_BALL_CAP), f, args.eps).to_json()


def _ball_with_size(group: Group, size: int, max_radius: int) -> tuple:
    """The ball with `size` elements and its least radius up to max_radius, else ValueError."""
    for radius in range(max_radius + 1):
        try:
            found = ball(group, radius, cap=size)
        except CapExceeded:  # the balls grew past `size`
            break
        if len(found) == size:
            return found, radius
    raise ValueError(f"no ball has {size} elements")


def _verify_boost(args, result) -> bool:
    """Rebuild the tower from its sizes and recompose rho_i = nu_i * rho_(i+1), rho_n = delta_e:
    each nu_i lies in its levels' interior, each tail gap is rho_i's f-gap over
    level i and at most (3/4)^(n-i), and rho_0 is the result's measure."""
    group, eps, steps = args.group, args.eps, result["steps"]
    if (parse_q(result["eps"]), len(steps)) != (eps, boost_steps_needed(eps)):
        return False
    n = len(steps)
    if any(s["next_window_size"] > BOOST_BALL_CAP for s in steps):
        return False  # no run builds a level that large
    towers = [ball(group, args.m, cap=BOOST_BALL_CAP)]
    towers += [_ball_with_size(group, s["next_window_size"], BOOST_RADIUS_CAP)[0] for s in steps]
    if [len(t) for t in towers[:n]] != [s["window_size"] for s in steps]:
        return False
    f = _boost_ramp(group, _ramp_radius(args.m, eps))
    rho = Measure.point_mass(group.identity())
    for i in range(n - 1, -1, -1):
        nu = Measure.from_json(group, steps[i]["measure"])
        if set(nu.support()) - set(interior(towers[i], towers[i + 1])):
            return False
        rho = nu.convolve(rho)
        gap = rho.gap(towers[i], f)
        if gap != parse_q(steps[i]["tail_gap"]) or gap > BOOST_STEP_GAP ** (n - i):
            return False
    gap = rho.gap(towers[0], f)
    final = Measure.from_json(group, result["measure"])
    return rho == final and gap == parse_q(result["final_gap"]) and gap <= eps


def _f2_verify(args):
    if (args.identities is None) == (args.disjoint is None):
        raise CliError("provide exactly one of --identities L and --disjoint K L")
    if args.identities is not None:
        yield {"identities": args.identities}
        yield verify_identities(args.identities).to_json()
    else:
        yield {"disjoint": args.disjoint}
        yield verify_disjoint_translates(*args.disjoint).to_json()


def _f2_infeasible(args):
    delta = parse_q(args.delta)
    yield {"K": args.K, "delta": fmt_q(delta), "r": args.r}
    yield simultaneous_invariance(args.K, delta, args.r).to_json()


def _verify_f2_infeasible(args, result) -> bool:
    outcome = InvarianceOutcome.from_json(result)
    echoed = (outcome.translate_count, fmt_q(outcome.delta), outcome.radius)
    return echoed == (args.K, args.delta, args.r) and verify_invariance_outcome(outcome)


_TABLE_COLUMNS = ("quantity", "m", "k", "value", "status")
_TABLE_ECHO = ("m_max", "k_max", "window_radius", "n_max")


def _function_table(args):
    yield {name: getattr(args, name) for name in _TABLE_ECHO} | _CAP_ECHO
    m_values = list(range(1, args.m_max + 1))
    k_values = list(range(1, args.k_max + 1))
    harness = inequality_harness(
        args.group, m_values, k_values, window_radius=args.window_radius, n_max=args.n_max
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
            rows.append(["weighted_folner", m, k, ww, "ok" if ww is not None else "exhausted"])
            # the harness caps its Ramsey searches lower, so these rows solve their own
            rr = ramsey_function(args.group, m, Fraction(1, k), args.n_max)
            rows.append(["ramsey", m, k, rr.value, rr.status])
    yield {
        "rows": [dict(zip(_TABLE_COLUMNS, row)) for row in rows],
        "harness": harness.to_json(),
    }


def _emit_table(env: dict, out_path: str | None) -> int:
    """CSV on stdout, the envelope only to out_path; exit 1 on a violated inequality."""
    sys.stdout.write(",".join(_TABLE_COLUMNS) + "\n")
    for row in env["result"]["rows"]:
        cells = (row[c] for c in _TABLE_COLUMNS)
        sys.stdout.write(",".join("" if v is None else str(v) for v in cells) + "\n")
    if out_path:
        _write_file(_render(env), out_path)
    if not env["result"]["harness"]["all_hold"]:
        sys.stderr.write("inequality violation detected\n")
        return 1
    return 0


# ---------------------------------------------------------------- table


@dataclass(frozen=True)
class Command:
    """One command: its own parser arguments, its run and its verifier.

    ``group`` and ``eps`` say which shared options it takes, which `_steps`
    loads and echoes into the job; ``emit(envelope, out_path)``
    writes the result and returns the exit code.  Without ``verify`` a job
    is verified by a rerun.  ``job_args(job)`` gives the arguments a job
    writes only as a value derived from them.
    """

    name: str
    help: str
    run: Callable
    arguments: tuple = ()
    verify: Callable | None = None
    job_args: Callable | None = None
    group: bool = True
    eps: bool = False
    emit: Callable = _emit


def _arg(*flags, **options):
    return flags, options


_COMMANDS = (
    Command(
        "ramsey-check",
        "decide eps-Ramseyness of ball(n) w.r.t. ball(m)",
        _ramsey_check,
        (
            _arg("--m", type=int, required=True),
            _arg("--n", type=int, required=True),
            _arg("--method", choices=["direct", "pictures"], default="direct"),
        ),
        verify=_verify_ramsey_check,
        eps=True,
    ),
    Command(
        "ramsey-function",
        "least n with ball(n) eps-Ramsey w.r.t. ball(m)",
        _ramsey_function,
        (
            _arg("--m", type=int, required=True),
            _arg("--n-max", type=int, required=True),
        ),
        eps=True,
    ),
    Command(
        "folner-check",
        "exact boundary counts for a candidate set",
        _folner_check,
        (
            # named as the job writes them, so a rerun reads them back
            _arg("--a-set", dest="window", metavar="A_SET", required=True,
                 help="JSON list of elements"),
            _arg("--b-set", dest="bset", metavar="B_SET", required=True,
                 help="JSON list of elements"),
        ),
        eps=True,
    ),
    Command(
        "folner-function",
        "minimum 1/k-Folner size over a window",
        _folner_function,
        (
            _arg("--k", type=int, required=True),
            _arg("--window-radius", type=int, default=6),
        ),
    ),
    Command(
        "weighted-folner",
        "optimal measure invariance defect",
        _weighted_folner,
        (
            _arg("--m", type=int, required=True),
            _arg("--n", type=int, required=True),
        ),
    ),
    Command(
        "balance",
        "balance deficiency of a set family",
        _balance,
        (_arg("--family", required=True, help="family JSON or file path"),),
        group=False,
    ),
    Command(
        "unbalance-witness",
        "zero-sum positive-on-members weighting",
        _unbalance_witness,
        (_arg("--family", required=True),),
        verify=_verify_unbalance,
        group=False,
    ),
    Command(
        "pictures",
        "realized picture family over a probe ball",
        _pictures,
        (
            _arg("--window-radius", type=int, required=True),
            _arg("--target", required=True, help="set construction JSON"),
            _arg("--domain-radius", type=int, required=True),
        ),
        job_args=_pictures_window_radius,
    ),
    Command(
        "realize-search",
        "search the candidate pool for a positive-sum realization",
        _realize_search,
        (
            _arg("--window-radius", type=int, required=True),
            _arg("--f", required=True, help='JSON mapping element -> "p/q", zero sum'),
            _arg("--radius", type=int, required=True),
        ),
        verify=_verify_realize_search,
    ),
    Command(
        "boost",
        "compose averaging steps down to a target gap",
        _boost,
        (_arg("--m", type=int, required=True, help="window = ball(m)"),),
        verify=_verify_boost,
        eps=True,
    ),
    Command(
        "f2-verify",
        "pointwise identity / disjointness scans in the rank-2 free group",
        _f2_verify,
        (
            _arg("--identities", type=int, default=None, metavar="L"),
            _arg("--disjoint", type=int, nargs=2, default=None, metavar=("K", "L")),
        ),
        group=False,
    ),
    Command(
        "f2-infeasible",
        "five-set invariance LP over a ball",
        _f2_infeasible,
        (_arg("K", type=int), _arg("delta"), _arg("r", type=int)),
        verify=_verify_f2_infeasible,
        group=False,
    ),
    Command(
        "function-table",
        "tabulate Folner / weighted / Ramsey functions with inequality checks",
        _function_table,
        (
            _arg("--m-max", type=int, default=1),
            _arg("--k-max", type=int, default=2),
            _arg("--window-radius", type=int, default=6),
            _arg("--n-max", type=int, default=8),
        ),
        emit=_emit_table,
    ),
)
COMMANDS = {command.name: command for command in _COMMANDS}


def _steps(command: Command, args):
    """Load the shared options and run the command: yield its job, then its result."""
    job = {"command": command.name}
    if command.group:
        args.group = group_from_json(args.load(args.group))
        job["group"] = args.group.to_json()
    if command.eps:
        args.eps = parse_q(args.eps)
        job["eps"] = fmt_q(args.eps)
    run = command.run(args)
    yield {**job, **next(run)}
    yield next(run)


def _job_args(command: Command, job: dict) -> argparse.Namespace:
    """The arguments a job was run with: each field read back through its option's
    type, an omitted one taking its parser default, and parsed JSON never loaded again."""
    parser = argparse.ArgumentParser()
    actions = [parser.add_argument(*flags, **options) for flags, options in command.arguments]
    args = {a.dest: a.default for a in actions} | job | {"load": lambda value: value}
    for a in actions:
        if a.type and a.dest in job:
            args[a.dest] = [a.type(v) for v in job[a.dest]] if a.nargs else a.type(job[a.dest])
    if command.job_args:
        args.update(command.job_args(job))
    return argparse.Namespace(**args)


def _run(command: Command, args) -> int:
    args.load = _load_json_arg
    return command.emit(_envelope(*_steps(command, args)), args.out)


def _verify(path: str) -> int:
    with open(path) as fh:
        env = json.load(fh)
    if (
        not isinstance(env, dict)
        or set(env) != {"tool", "version", "job", "result", "digest"}
        or not isinstance(env["job"], dict)
    ):
        sys.stderr.write("verify: envelope has unexpected shape\n")
        return 1
    body = {k: env[k] for k in ("tool", "version", "job", "result")}
    if sha256_digest(body) != env["digest"]:
        sys.stderr.write("verify: digest mismatch\n")
        return 1
    job, result = env["job"], env["result"]
    name = job.get("command")
    command = COMMANDS.get(name)
    if command is None:
        sys.stderr.write(f"verify: unknown command {name!r}\n")
        return 1
    try:
        args = _job_args(command, job)
        steps = _steps(command, args)
        if canonical_dumps(next(steps)) != canonical_dumps(job):
            ok = False  # a job the run never writes
        elif command.verify is None:
            ok = canonical_dumps(next(steps)) == canonical_dumps(result)
        else:
            ok = command.verify(args, result)
    except (LookupError, TypeError, ValueError, AttributeError):
        ok = False  # a missing or malformed field is a failed check
    status = "none" if ok is None else "ok" if ok else "FAILED"
    sys.stdout.write(json.dumps({"command": name, "digest": "ok", "certificates": status}) + "\n")
    return 1 if status == "FAILED" else 0


# ---------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like every other bad input; argparse's 2 means cap exhaustion here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The amenlab parser, or for an ``argv`` that starts with a command name,
    one with that command's subparser alone.

    Each subparser prints its own help and errors, and the top parser's
    usage keeps the full command list, so the two parse ``argv`` and
    print the same.  Every other argv, ``verify`` included, gets the full
    parser.
    """
    parser = _Parser(
        prog="amenlab",
        description="exact-rational certificates for averaging windows, "
        "balanced families, Folner search, and free-group obstructions",
    )
    chosen = COMMANDS.get(argv[0]) if argv else None
    # the top parser's usage lists every command, as argparse writes the full list
    metavar = None if chosen is None else "{" + ",".join([*COMMANDS, "verify"]) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for command in _COMMANDS if chosen is None else (chosen,):
        p = sub.add_parser(command.name, help=command.help)
        if command.group:
            p.add_argument("--group", required=True, help="group descriptor JSON or file path")
        if command.eps:
            p.add_argument("--eps", required=True, help='rational like "1/2"')
        p.add_argument("--out", default=None, help="also write the envelope to this file")
        for flags, options in command.arguments:
            p.add_argument(*flags, **options)
    if chosen is None:
        p = sub.add_parser("verify", help="recheck an envelope's certificates; rerun summaries")
        p.add_argument("envelope")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        if args.command == "verify":
            return _verify(args.envelope)
        return _run(COMMANDS[args.command], args)
    except CapExceeded as exc:
        sys.stderr.write(f"cap exhausted: {exc}\n")
        return 2
    except (CliError, GroupError, ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
