"""Command-line interface.

Subcommands: build, characters, multipliers, bse-norm, check-bse, verify.
All numbers in emitted JSON are [re, im] pairs with 17-significant-digit
rendering; reports are byte-identical across runs with equal seeds.
Exit codes: 0 all checks pass, 1 a check failed, 2 input/parse error.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

from . import __version__
from .algebra import DEFAULT_TOL, require_valid
from .bse import bse_norm_dual, bse_norm_primal, check_bse_property
from .constructions import (
    finite_abelian_group_algebra,
    lau_product,
    semidirect,
)
from .errors import BanalgError, SchemaError, ValidationRejected
from .fixtures import FAMILIES
from .interpolation import GAP_HARD_LIMIT, GAP_REL
from .jsonio import (
    actions_from_dict,
    algebra_from_dict,
    algebra_to_dict,
    bundle_from_dict,
    bundle_to_dict,
    complex_pair,
    load_json,
    morphism_from_dict,
    render_json,
    sigma_from_dict,
)
from .multipliers import (
    decompose_left_multiplier,
    left_multiplier_space,
    multiplier_space,
)
from .spectra import characters_numerical, characters_semidirect
from .verify import THEOREMS, Report, RunConfig, run_verify, theorem_records


def _load_algebra_or_bundle(path: str, tol: float):
    """The algebra of an algebra file or build bundle, and the bundle's
    descriptor; a plain algebra is validated here, a bundle's product by its
    constructor, both at `tol`."""
    doc = load_json(path)
    if isinstance(doc, dict) and "descriptor" in doc:
        desc = bundle_from_dict(doc, where=path, tol=tol)
        return desc.algebra, desc
    algebra = algebra_from_dict(doc, where=path)
    require_valid(algebra, tol)
    return algebra, None


def _emit(doc, out: str | None):
    text = render_json(doc) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def orders(text: str) -> list[int]:
    """argparse type of --orders: a comma list of positive integers."""
    parsed = [int(o) for o in text.split(",")]
    if min(parsed) < 1:
        raise ValueError(text)  # argparse reports it as an invalid --orders value
    return parsed


def tolerance(text: str) -> float:
    """argparse type of --tol and --opt-tol: a finite positive number."""
    if not 0 < float(text) < float("inf"):
        raise ValueError(text)  # argparse reports it as an invalid tolerance value
    return float(text)


def _cmd_build(args) -> int:
    if args.what == "group":
        _emit(algebra_to_dict(finite_abelian_group_algebra(args.orders)), args.output)
        return 0
    if args.what == "semidirect":
        B = algebra_from_dict(load_json(args.b), where=args.b)
        I = algebra_from_dict(load_json(args.i), where=args.i)
        bi, ib = actions_from_dict(load_json(args.actions), B.dim, I.dim, args.actions)
        desc = semidirect(B, I, bi, ib, tol=args.tol)
    else:  # lau
        A = algebra_from_dict(load_json(args.a), where=args.a)
        B = algebra_from_dict(load_json(args.b), where=args.b)
        phi = morphism_from_dict(load_json(args.phi), B, A, where=args.phi)
        desc = lau_product(A, B, phi, tol=args.tol, force=args.force)
    _emit(bundle_to_dict(desc), args.output)
    return 0


def _cmd_characters(args) -> int:
    algebra, desc = _load_algebra_or_bundle(args.algebra, args.tol)
    if args.closed_form and desc is None:
        raise SchemaError([f"{args.algebra}: --closed-form needs a build bundle"])
    S = (characters_semidirect(desc, args.tol).set if args.closed_form
         else characters_numerical(algebra, args.tol))
    doc = {
        "algebra": algebra.name,
        "count": len(S),
        "characters": [
            {
                "values": [complex_pair(z) for z in values],
                "residual": float(residual),
            }
            for values, residual in zip(S.matrix, S.residuals)
        ],
    }
    _emit(doc, args.output)
    return 0


def _cmd_multipliers(args) -> int:
    algebra, desc = _load_algebra_or_bundle(args.algebra, args.tol)
    space = left_multiplier_space(algebra) if args.left else multiplier_space(algebra)
    doc = {
        "algebra": algebra.name,
        "kind": "LM" if args.left else "M",
        "dim": len(space),
        "basis": [[[complex_pair(z) for z in row] for row in T] for T in space],
    }
    if args.blocks:
        bundle = bundle_from_dict(load_json(args.blocks), where=args.blocks, tol=args.tol)
        if bundle.algebra.dim != algebra.dim:
            raise SchemaError([f"{args.blocks}: dim {bundle.algebra.dim}, not {algebra.dim}"])
        dec = decompose_left_multiplier(space, bundle, args.tol)
        doc["blocks"] = [
            {field: {k: float(v[i]) for k, v in getattr(dec, field).items()}
             for field in ("relation_residuals", "membership_residuals")}
            for i in range(len(space))]
    _emit(doc, args.output)
    return 0


def _cmd_bse_norm(args) -> int:
    algebra, desc = _load_algebra_or_bundle(args.algebra, args.tol)
    S = characters_numerical(algebra, args.tol)
    sigma = sigma_from_dict(load_json(args.sigma), expected_len=len(S),
                            where=args.sigma)
    fn = bse_norm_primal(sigma, S, algebra)
    doc = {
        "algebra": algebra.name,
        "bse_norm": fn.value,
        "minimizer": [complex_pair(z) for z in fn.a],
        "certificate": [complex_pair(z) for z in fn.c],
        "gap": fn.gap,
        "method": fn.method,
    }
    if args.dual:
        dual = bse_norm_dual(sigma, S, algebra)
        doc["dual_norm"] = dual.dual_value
        doc["dual_certificate"] = [complex_pair(z) for z in dual.c]
    _emit(doc, args.output)
    return 0


def _cmd_check_bse(args) -> int:
    algebra, _ = _load_algebra_or_bundle(args.algebra, args.tol)
    v = check_bse_property(algebra, args.tol)
    doc = {
        "algebra": algebra.name,
        "is_bse": v.is_bse,
        "semisimple": v.semisimple,
        "gelfand_space_dim": v.gelfand_space_dim,
        "multiplier_hat_dim": v.multiplier_hat_dim,
        "containments": [v.containment_m_in_c, v.containment_c_in_m],
    }
    _emit(doc, args.output)
    return 0 if v.is_bse else 1


def _cmd_verify(args) -> int:
    try:
        cfg = RunConfig(
            tol_algebraic=args.tol,
            tol_opt=args.opt_tol,
            seed=args.seed,
            families=tuple(args.families.split(",")) if args.families else FAMILIES,
            count=args.count,
            max_dim=args.max_dim,
            jobs=args.jobs,
        )
    except ValueError as exc:  # a bad configuration is bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.bundle:
        desc = bundle_from_dict(load_json(args.bundle), where=args.bundle, tol=args.tol)
        report = Report(config=cfg, records=theorem_records(desc, args.theorem, cfg))
    else:
        report = run_verify(cfg)
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        color = os.environ.get("BANALG_NO_COLOR", "") == "" and sys.stdout.isatty()
        sys.stdout.write(report.to_text(color=color))
    return 0 if report.ok else 1


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=tolerance, default=argparse.SUPPRESS,
                        help=f"algebraic residual tolerance (default {DEFAULT_TOL:g})")
    common.add_argument("--opt-tol", type=tolerance, default=argparse.SUPPRESS,
                        help=f"tolerance that verify judges its optimization records "
                             f"against (default {RunConfig.tol_opt:g}); bse-norm ignores "
                             f"it: it solves to the relative gap GAP_REL = {GAP_REL:g} "
                             f"and certifies within GAP_HARD_LIMIT = {GAP_HARD_LIMIT:g}")

    parser = argparse.ArgumentParser(
        prog="banalg",
        description="workbench for finite-dimensional commutative Banach algebras",
        parents=[common],
    )
    parser.add_argument("--version", action="version", version=f"banalg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="assemble product algebras and fixtures",
                       parents=[common])
    bsub = b.add_subparsers(dest="what", required=True)
    b_sd = bsub.add_parser("semidirect", parents=[common],
                           help="subalgebra (+) ideal from action tensors")
    b_sd.add_argument("--b", required=True, help="subalgebra JSON")
    b_sd.add_argument("--i", required=True, help="ideal JSON")
    b_sd.add_argument("--actions", required=True, help="action tensors JSON")
    b_sd.add_argument("-o", "--output", default=None)
    b_lau = bsub.add_parser("lau", parents=[common],
                            help="A x_phi B for a contractive homomorphism phi")
    b_lau.add_argument("--a", required=True)
    b_lau.add_argument("--b", required=True)
    b_lau.add_argument("--phi", required=True, help="morphism JSON (B -> A)")
    b_lau.add_argument("--force", action="store_true",
                       help="admit a non-contractive phi")
    b_lau.add_argument("-o", "--output", default=None)
    b_gr = bsub.add_parser("group", parents=[common],
                           help="convolution algebra of a finite abelian group")
    b_gr.add_argument("--orders", required=True, type=orders, help="comma list, e.g. 2,2")
    b_gr.add_argument("-o", "--output", default=None)

    c = sub.add_parser("characters", help="character space of an algebra",
                       parents=[common])
    c.add_argument("algebra", help="algebra or build-bundle JSON")
    c.add_argument("--closed-form", action="store_true",
                   help="use the product decomposition (needs a build bundle)")
    c.add_argument("-o", "--output", default=None)

    m = sub.add_parser("multipliers", help="multiplier space basis", parents=[common])
    m.add_argument("algebra")
    m.add_argument("--left", action="store_true", help="left multipliers T(xy)=xT(y)")
    m.add_argument("--blocks", default=None,
                   help="also decompose against this product bundle")
    m.add_argument("-o", "--output", default=None)

    n = sub.add_parser("bse-norm", parents=[common],
                       help="BSE norm of a function on the characters")
    n.add_argument("algebra")
    n.add_argument("--sigma", required=True, help='{"values": [[re,im],...]}')
    n.add_argument("--dual", action="store_true",
                   help="also evaluate the dual program")
    n.add_argument("-o", "--output", default=None)

    k = sub.add_parser("check-bse", parents=[common],
                       help="compare interpolable functions with multiplier hats")
    k.add_argument("algebra")
    k.add_argument("-o", "--output", default=None)

    v = sub.add_parser("verify", help="run the theorem-check harness",
                       parents=[common])
    v.add_argument("bundle", nargs="?", default=None,
                   help="optional build bundle to verify")
    v.add_argument("--theorem", choices=THEOREMS, default=None,
                   help="keep only a bundle's checks with this anchor")
    v.add_argument("--families", default=None,
                   help=f"comma list from {','.join(FAMILIES)}")
    v.add_argument("--count", type=int, default=2, help="fixtures per family")
    v.add_argument("--max-dim", type=int, default=5)
    v.add_argument("--seed", type=int, default=0,
                   help="seed of the fixtures and sigma samples")
    v.add_argument("--jobs", type=int, default=1, help="worker processes")
    v.add_argument("--format", choices=("json", "text"), default="text",
                   help="report rendering")
    return parser


_GLOBAL_DEFAULTS = {"tol": DEFAULT_TOL, "opt_tol": RunConfig.tol_opt}


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    # globals may be left unset (SUPPRESS) when given neither before nor
    # after the subcommand
    for key, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    handlers = {
        "build": _cmd_build,
        "characters": _cmd_characters,
        "multipliers": _cmd_multipliers,
        "bse-norm": _cmd_bse_norm,
        "check-bse": _cmd_check_bse,
        "verify": _cmd_verify,
    }
    # a library warning (a SemisimplicityWarning, say) prints as one line per message
    with warnings.catch_warnings(record=True) as caught:
        try:
            return handlers[args.command](args)
        except SchemaError as exc:
            for violation in exc.violations:
                print(f"error: {violation}", file=sys.stderr)
            return 2
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except ValidationRejected as exc:  # before BanalgError: bad input, not a failed check
            for failure in exc.report.failures:
                print(f"error: algebra {exc.report.name!r} rejected: {failure}",
                      file=sys.stderr)
            return 2
        except BanalgError as exc:
            print(f"error [{exc.code}]: {exc}", file=sys.stderr)
            return 1
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
