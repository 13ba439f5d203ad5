"""Command-line front end.

Exit codes: 0 success, 1 stdout closed before the report was written (the
reader of a pipe went away; nothing is printed), 2 validation rejection,
3 malformed input, 5 an internal cross-check failed.  Exit 5 prints
"<check> check failed: ..." with <check> one of

    validation_routes ker_m_splitting well_defined tensor_torsion_free
    d_squared equivariance k_rank_vs_z_rank mod_p

where tensor_torsion_free is raised only by omodule.tensor_over_O, a test
oracle that no command calls.  With --format json, exit 5 also writes
{"error": {"check", "message", "inputs"}} where a result would go, with
the --alg, --pd, --pd1 and --pd2 files given as "inputs".

Element syntax on the command line: 'a+bw' with w standing for sqrt(d),
e.g. '2', '1+w', '3-2w'.
"""

import argparse
import json
import sys

from . import corpus, frobenius
from .frobenius import (
    FrobeniusData,
    TwistSpec,
    ValidationError,
    analyze,
    example_zsqrtm5,
    family_eps_x_one,
    family_eps_x_zero,
    search_solutions,
    twist,
)
from .ideals import Ideal, NotOrderTwoError, certify_order_two
from .linkhom import (
    PDCode,
    build_complex,
    homology_integral,
    homology_over_K,
    lee_check,
    reidemeister_compare,
    simplify,
)
from .ring import CheckFailedError, RingContext, UnsupportedRingError, parse_element

EXIT_OK = 0
EXIT_STDOUT_CLOSED = 1
EXIT_REJECTED = 2
EXIT_MALFORMED = 3
EXIT_CHECK = 5


def _emit(args, payload, text_lines):
    if args.format == "json":
        out = json.dumps(payload, indent=2, sort_keys=True)
    else:
        out = "\n".join(text_lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    else:
        print(out, flush=True)


def _parse_gens(ctx, text):
    return [parse_element(ctx, part) for part in text.split(",") if part.strip()]


def _load_algebra(args):
    if args.alg:
        with open(args.alg, encoding="utf-8") as fh:
            data = FrobeniusData.from_json(json.load(fh))
        return frobenius.build_algebra(data)
    # default experimental algebra: zero trace on X, b_bar = 1, over Z[sqrt(-5)]
    ctx = RingContext(-5)
    mu = Ideal.from_generators(ctx, [ctx(2), ctx(1, 1)])
    return family_eps_x_zero(mu, ctx(2), ctx.zero, ctx.one, ctx.one)


def _load_pd(path):
    with open(path, encoding="utf-8") as fh:
        return PDCode.from_json(json.load(fh))


def _homology_payload(pd, alg):
    """One homology computation, shared by the three views of it; its
    cross-checks are listed in ``homology.checks``."""
    cx = build_complex(pd, alg)
    h = homology_integral(cx)
    dims = homology_over_K(cx)
    small = simplify(cx)
    return {
        "homology": h.to_json(),
        "k_dims": {str(k): v for k, v in sorted(dims.items())},
        "chain_ranks": {str(i): cx.rank(i) for i in cx.degrees()},
        "simplified_ranks": {str(i): small.rank(i) for i in small.degrees()},
    }


def cmd_ideal_classinfo(args):
    ctx = RingContext(args.d)
    gens = _parse_gens(ctx, args.gens)
    ideal = Ideal.from_generators(ctx, gens)
    payload = {
        "hnf": ideal.to_json()["hnf"],
        "norm": ideal.norm(),
        "two_generators": [str(g) for g in ideal.two_generators()],
    }
    gen = ideal.is_principal()
    payload["principal"] = gen is not None
    if gen is not None:
        payload["generator"] = str(gen)
    try:
        cert = certify_order_two(ideal)
        payload["order_two"] = True
        payload["z"] = str(cert.z)
    except NotOrderTwoError as exc:
        payload["order_two"] = False
        payload["reason"] = str(exc)
    lines = [f"ideal {ideal} in Z[sqrt({args.d})]"]
    lines.append(f"  hnf rows: {ideal.rows}")
    lines.append(f"  norm: {payload['norm']}")
    lines.append(f"  principal: {payload['principal']}" + (f" (generator {payload.get('generator')})" if payload["principal"] else ""))
    if payload["order_two"]:
        lines.append(f"  order two in the class group, square = ({payload['z']})")
    else:
        lines.append(f"  not of order two: {payload.get('reason')}")
    _emit(args, payload, lines)
    return EXIT_OK


def _algebra_payload(alg):
    us, ups = alg.mu_z.partition
    payload = {
        "data": alg.data.to_json(),
        "report": alg.report.to_json(),
        "duals": alg.duals.to_json(),
        "partition_u": [e.to_json() for e in us],
        "partition_u_prime": [e.to_json() for e in ups],
        "epsilon_tilde": [[str(e) for e in row] for row in alg.epsilon_tilde],
        "epsilon_tilde_det": alg.epsilon_tilde_det,
        "delta_one_coords": [str(e) for e in alg.comultiply_one()],
    }
    return payload


def _algebra_lines(alg):
    r = alg.report
    lines = [str(alg), f"  accepted: {r.accepted}"]
    lines.append(f"  duals: c={alg.duals.c}, d={alg.duals.d}, c'={alg.duals.c_prime}, d'={alg.duals.d_prime}")
    lines.append(f"  delta_tilde: {r.values.get('delta_tilde')}, t_bar: {r.values.get('t_bar')}")
    lines.append(f"  pairing det: {alg.epsilon_tilde_det}")
    for cell, ok in r.cells.items():
        lines.append(f"  [{'ok' if ok else 'FAIL'}] {cell}")
    for eq, ok in r.equations.items():
        lines.append(f"  [{'ok' if ok else 'FAIL'}] {eq}")
    for note in r.notes:
        lines.append(f"  note: {note}")
    return lines


def cmd_algebra(args):
    if args.action == "validate":
        with open(args.alg, encoding="utf-8") as fh:
            data = FrobeniusData.from_json(json.load(fh))
        alg, report = analyze(data, relax_a_bar=args.relax)
        if alg is None:
            _emit(args, {"report": report.to_json()},
                  [f"rejected: {report.failure}"]
                  + [f"  [{'ok' if ok else 'FAIL'}] {c}" for c, ok in report.cells.items()]
                  + [f"  note: {note}" for note in report.notes])
            return EXIT_REJECTED
        _emit(args, _algebra_payload(alg), _algebra_lines(alg))
        return EXIT_OK
    if args.action == "example-zsqrtm5":
        alg = example_zsqrtm5(args.s, args.eps1)
        _emit(args, _algebra_payload(alg), _algebra_lines(alg))
        return EXIT_OK
    if args.action == "twist":
        base = _load_algebra(args)
        alg = twist(base, TwistSpec(args.type, parse_element(base.ctx, args.param)))
        _emit(args, _algebra_payload(alg), _algebra_lines(alg))
        return EXIT_OK
    ctx = RingContext(args.d)
    mu = Ideal.from_generators(ctx, _parse_gens(ctx, args.mu))
    z = parse_element(ctx, args.z) if args.z else certify_order_two(mu).z
    if args.action == "family-eps0":
        alg = family_eps_x_zero(
            mu, z, parse_element(ctx, args.abar), parse_element(ctx, args.bbar),
            parse_element(ctx, args.eps1_elt),
        )
    elif args.action == "family-eps1":
        alg = family_eps_x_one(
            mu, z, parse_element(ctx, args.abar), parse_element(ctx, args.eps1_elt),
            parse_element(ctx, args.dbar),
        )
    else:  # search
        found = list(search_solutions(mu, z, coord_bound=args.bound, limit=args.limit))
        payload = {"count": len(found), "solutions": [_algebra_payload(a) for a in found]}
        _emit(args, payload, [f"found {len(found)} valid parameter sets"]
              + [f"  a_bar={a.data.a_bar}, b_bar={a.data.b_bar}, eps1={a.data.eps_one}, eps_x_bar={a.data.eps_x_bar}" for a in found])
        return EXIT_OK
    _emit(args, _algebra_payload(alg), _algebra_lines(alg))
    return EXIT_OK


def cmd_kernel(args):
    alg = _load_algebra(args)
    report = alg.kernel_m_analysis(search_bound=args.bound)
    payload = report.to_json()
    lines = [str(alg)]
    lines.append(f"  ker(m) Z-rank: {len(report.kernel_basis)}")
    lines.append(f"  splits as X_mu + O*Xhat: {report.direct_sum_verified}")
    lines.append(f"  action identities: {report.action_formulas_verified}")
    if report.generator:
        u, val = report.generator
        lines.append(f"  ker(m) = A as A-modules: generator at u={u} (unit value {val})")
    else:
        lines.append(f"  no single generator found within bound {report.search_bound}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_link(args):
    if args.action == "corpus":
        paths = corpus.write_corpus(args.out_dir)
        _emit(args, {"written": paths}, [f"wrote {p}" for p in paths])
        return EXIT_OK
    alg = _load_algebra(args)
    if args.action == "homology":
        pd = _load_pd(args.pd)
        payload = _homology_payload(pd, alg)
        h = payload["homology"]
        lines = [f"chain ranks: {payload['chain_ranks']}"]
        for deg, v in sorted(h["degrees"].items(), key=lambda kv: int(kv[0])):
            lines.append(f"  H^{deg}: Z^{v['z_rank']}" + (f" + torsion {v['torsion']}" if v["torsion"] else "") + f", dim_K {v['k_dim']}")
        lines.append(f"total K-dimension: {h['total_k_dim']}")
        _emit(args, payload, lines)
        return EXIT_OK
    if args.action == "compare":
        rep = reidemeister_compare(_load_pd(args.pd1), _load_pd(args.pd2), alg)
        lines = [
            f"integral homology equal degree-wise: {rep['integral_equal']}",
            f"K-dimensions equal degree-wise: {rep['k_dims_equal']}",
        ]
        _emit(args, rep, lines)
        return EXIT_OK
    # lee-check
    payload = lee_check(_load_pd(args.pd), alg)
    lines = [
        f"discriminant {payload['discriminant']} nonzero: {payload['discriminant_nonzero']}",
        f"total K-dimension {payload['total_k_dim']} vs 2^components = {payload['expected']}: {payload['matches']}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_tqft(args):
    values = [str(v) for v in _load_algebra(args).closed_surface_invariants(args.genus)]
    payload = {"genus_values": {str(g): v for g, v in enumerate(values)}}
    lines = [f"genus {g}: {v}" for g, v in enumerate(values)]
    _emit(args, payload, lines)
    return EXIT_OK


def _add_common(p):
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out", default=None, help="write the report to a file")


def _ideal_options(p, action):
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--gens", required=True,
                   help="comma-separated elements, e.g. '2,1+w'; use --gens=... "
                        "when the first element starts with a minus")
    _add_common(p)


def _algebra_options(p, action):
    _add_common(p)
    if action == "validate":
        p.add_argument("--alg", required=True)
        p.add_argument("--relax", action="store_true", help="accept a_bar outside mu (zero-trace-on-X family)")
    elif action == "example-zsqrtm5":
        p.add_argument("--s", type=int, default=1, choices=(1, -1))
        p.add_argument("--eps1", type=int, default=1, choices=(1, -1))
    elif action == "twist":
        p.add_argument("--alg", default=None)
        p.add_argument("--type", type=int, required=True, choices=(1, 2, 3))
        p.add_argument("--param", required=True, help="unit (types 1, 3) or mu element p with lambda1 = p/z (type 2)")
    else:
        p.add_argument("-d", type=int, default=-5)
        p.add_argument("--mu", default="2,1+w", help="ideal generators")
        p.add_argument("--z", default=None, help="generator of mu^2 (default: certify)")
        if action == "family-eps0":
            p.add_argument("--abar", required=True)
            p.add_argument("--bbar", required=True)
            p.add_argument("--eps1", dest="eps1_elt", required=True)
        elif action == "family-eps1":
            p.add_argument("--abar", required=True)
            p.add_argument("--eps1", dest="eps1_elt", required=True)
            p.add_argument("--dbar", required=True)
        elif action == "search":
            p.add_argument("--bound", type=int, default=2)
            p.add_argument("--limit", type=int, default=None)


def _kernel_options(p, action):
    p.add_argument("--alg", default=None)
    p.add_argument("--bound", type=int, default=8)
    _add_common(p)


def _link_options(p, action):
    if action == "corpus":
        p.add_argument("--out-dir", required=True)
    else:
        if action == "compare":
            p.add_argument("--pd1", required=True)
            p.add_argument("--pd2", required=True)
        else:
            p.add_argument("--pd", required=True)
        p.add_argument("--alg", default=None)
    _add_common(p)


def _tqft_options(p, action):
    p.add_argument("--alg", default=None)
    p.add_argument("--genus", type=int, default=2)
    _add_common(p)


# command -> (help, handler, options, actions): ``options(parser, action)``
# adds the options; ``actions`` maps each action to its help, or is None
_COMMANDS = {
    "ideal": ("ideal arithmetic", cmd_ideal_classinfo, _ideal_options,
              {"classinfo": "HNF, norm, principality, order-two certificate"}),
    "algebra": ("build and validate algebras", cmd_algebra, _algebra_options,
                dict.fromkeys(("validate", "family-eps0", "family-eps1", "example-zsqrtm5", "twist", "search"))),
    "kernel": ("structure of ker(m) in A(x)A", cmd_kernel, _kernel_options, None),
    "link": ("cube-of-resolutions homology", cmd_link, _link_options,
             dict.fromkeys(("homology", "compare", "lee-check", "corpus"))),
    "tqft": ("closed surface evaluations", cmd_tqft, _tqft_options, None),
}


def make_parser(argv=None):
    """The argument parser.  When the first two words of ``argv`` that are
    not options name a command and its action (no option comes before the
    action), only their parsers are built; otherwise, and without ``argv``,
    every command and action is.  The lean parser spells the top level's
    choices in full, so its usage line is the full parser's."""
    words = [] if argv is None else [a for a in argv if not a.startswith("-")][:2]
    entry = _COMMANDS.get(words[0]) if words else None
    lean = entry is not None and (entry[3] is None or len(words) == 2 and words[1] in entry[3])
    ap = argparse.ArgumentParser(prog="quadfrob")
    sub = ap.add_subparsers(dest="command", required=True, metavar="{" + ",".join(_COMMANDS) + "}" if lean else None)
    for command, (help_, func, options, actions) in _COMMANDS.items():
        if lean and command != words[0]:
            continue
        p = sub.add_parser(command, help=help_)
        if actions is None:
            p.set_defaults(func=func)
            options(p, None)
            continue
        act_sub = p.add_subparsers(dest="action", required=True)
        for action, act_help in actions.items():
            if lean and action != words[1]:
                continue
            q = act_sub.add_parser(action) if act_help is None else act_sub.add_parser(action, help=act_help)
            q.set_defaults(func=func)
            options(q, action)
    return ap


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = make_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the Python docs' recipe for SIGPIPE: the interpreter flushes stdout
        # at exit, so point its descriptor at devnull to keep that quiet
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_STDOUT_CLOSED
    except (ValidationError, NotOrderTwoError, UnsupportedRingError) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except CheckFailedError as exc:
        print(str(exc), file=sys.stderr)
        if args.format == "json":
            inputs = {name: getattr(args, name) for name in ("alg", "pd", "pd1", "pd2") if getattr(args, name, None)}
            error = {"check": exc.check, "message": str(exc), "inputs": inputs}
            try:
                _emit(args, {"error": error}, [])
            except OSError as err:
                print(f"cannot write the error report: {err}", file=sys.stderr)
        return EXIT_CHECK
    except (ValueError, OSError) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
