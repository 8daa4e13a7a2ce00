"""Theorem-check harness over generated fixtures and product bundles.

Each check, a row of `CHECKS` (name -> anchor, tolerance), emits one Record
with a residual and a PASS/FAIL/SKIP verdict; SKIP marks fixtures whose
hypotheses do not hold for it (never an error).  Check names carry the
fixture name so a report is a flat, sorted, byte-stable list.  There is one
set of checks per family: a product bundle gets exactly the checks of a
fixture of its kind, and `theorem_records` only filters them by anchor.

A semidirect or Lau fixture computes the multiplier space of its algebra
once, and every check that reads M(A) reads that space: the S_B = 0 split,
the fixture's BSE verdict (on the fixture's closed-form character set) and,
on a Lau fixture, `verify_product_bse`, which also reuses the fixture's
character sets, judges A (+) B on its closed-form set over the same parent
sets, and adds one space for each of A, B and A (+) B.  A Lau
product is judged once: its `check-bse` record and the biconditional read
the same verdict.  A Lau product's characters are its semidirect E u F
(ideal A), so both product families build and check one closed-form set.
An algebra with no characters SKIPs the duality checks, and one with order
SKIPs every record that needs an algebra without order.  The sigma samples
of a check go in as one stack: one primal and one dual call per character
set (on square E the primal factors E once), one call per split check.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .algebra import DEFAULT_TOL, operator_norm, validate
from .bse import (
    BseVerdict,
    bse_norm_dual,
    bse_norm_primal,
    check_bse_property,
    delta_weak_bai,
    sigma_extension,
    split_sigma,
    theta,
    theta_product_residual,
    verify_product_bse,
)
from .constructions import group_character_values
from .errors import BanalgError, SpanConditionError
from .fixtures import FAMILIES, Fixture, build_fixture, fixture_rng
from .jsonio import render_json
from .multipliers import (
    block_space,
    decompose_left_multiplier,
    left_multiplier_residual,
    left_multiplier_space,
    multiplier_space,
    split_blocks,
)
from .spectra import (
    CharacterSet,
    SemidirectCharacters,
    characters_numerical,
    characters_semidirect,
    gelfand,
    match_character_sets,
)

# check name -> (anchor, tolerance); a str tolerance names the RunConfig field
# that holds it.  The checks of the paper's statements on products come
# first: their anchors, in this order, are `--theorem`'s choices.
_PRODUCT_CHECKS = {
    "lemma-decompose": ("lemma21", "tol_algebraic"),
    "lemma-block-dim": ("lemma21", 0.0),
    "lemma-recompose": ("lemma21", "tol_algebraic"),
    "characters-union": ("prop24", 1e-8),
    "characters-disjoint": ("prop24", "tol_algebraic"),
    "psi-uniqueness": ("prop24", 1e-12),
    "psi-identity": ("prop24", 1e-10),
    "split-norm-additive": ("lemma41", "tol_opt"),
    "theta-isometry": ("theta", "tol_opt"),
    "theta-multiplicative": ("theta", 1e-10),
    "sum-bse-biconditional": ("tim2", 0.0),
    "sum-multiplier-split": ("tim2", "tol_algebraic"),
    "phi-iso-norm": ("lau-bse", 1e-12),
    "lau-bse-biconditional": ("lau-bse", 0.0),
    "lau-transport": ("lau-bse", "tol_algebraic"),
    "multiplier-sb-zero": ("sub", "tol_algebraic"),
    "sigma-extension": ("sub", "tol_opt"),
}
CHECKS = {
    **_PRODUCT_CHECKS,
    "check-bse": ("bse-def", "tol_algebraic"),
    "bse-duality": ("duality", "tol_opt"),
    "delta-weak-bai": ("bai", "tol_opt"),
    "validate": ("plumbing", "tol_algebraic"),
    "characters-residual": ("plumbing", "tol_algebraic"),
    "characters-oracle": ("plumbing", 1e-10),
}
THEOREMS = tuple(dict.fromkeys(anchor for anchor, _ in _PRODUCT_CHECKS.values()))
HAS_ORDER = "outside hypotheses: has order"
NO_CHARACTERS = "outside hypotheses: no characters"


@dataclass(slots=True)
class Record:
    name: str
    anchor: str
    residual: float
    verdict: str  # PASS | FAIL | SKIP
    detail: str = ""

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


@dataclass
class RunConfig:
    tol_algebraic: float = DEFAULT_TOL
    tol_opt: float = 1e-6
    seed: int = 0
    families: tuple[str, ...] = FAMILIES
    count: int = 2
    max_dim: int = 5
    sigma_samples: int = 4
    jobs: int = 1

    def __post_init__(self):
        if not (0 < self.tol_algebraic < np.inf and 0 < self.tol_opt < np.inf):
            raise ValueError("tolerances must be finite and positive")
        for name, low in (("seed", 0), ("count", 1), ("sigma_samples", 1), ("jobs", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        # a diag fixture draws its dimension from 2..max_dim
        if not 2 <= self.max_dim <= 16:
            raise ValueError("max_dim must stay at desk scale (2..16)")
        if sorted(set(self.families) & set(FAMILIES)) != sorted(self.families):
            raise ValueError(f"fixture families must be distinct, from {','.join(FAMILIES)}: "
                             f"{','.join(self.families)}")

    def to_dict(self) -> dict:
        # the worker count changes no answer, so a report leaves it out
        return {k: v for k, v in dataclasses.asdict(self).items() if k != "jobs"}


@dataclass
class Report:
    config: RunConfig
    records: list[Record] = field(default_factory=list)

    @property
    def counts(self) -> dict:
        out = {"PASS": 0, "FAIL": 0, "SKIP": 0}
        for r in self.records:
            out[r.verdict] = out.get(r.verdict, 0) + 1
        return out

    @property
    def ok(self) -> bool:
        return self.counts["FAIL"] == 0

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "records": [r.to_dict() for r in self.records],
            "summary": self.counts,
        }

    def to_json(self) -> str:
        return render_json(self.to_dict()) + "\n"

    def to_text(self, color: bool) -> str:
        codes = {"PASS": 32, "FAIL": 31, "SKIP": 33}
        paint = {v: f"\x1b[{c}m{v}\x1b[0m" if color else v for v, c in codes.items()}
        lines = []
        for r in self.records:
            extra = f"  ({r.detail})" if r.detail else ""
            lines.append(
                f"{paint[r.verdict]}  {r.name:<48} {r.anchor:<10} "
                f"residual {r.residual:.3e}{extra}"
            )
        c = self.counts
        lines.append(f"{c['PASS']} passed, {c['FAIL']} failed, {c['SKIP']} skipped")
        return "\n".join(lines) + "\n"


def _rec(records: list[Record], fix: Fixture, name: str, residual: float,
         cfg: RunConfig, detail: str = ""):
    anchor, tol = CHECKS[name]
    tol = getattr(cfg, tol) if isinstance(tol, str) else tol
    verdict = "PASS" if residual <= tol else "FAIL"
    records.append(Record(f"{fix.name}/{name}", anchor, float(residual), verdict, detail))


def _skip(records: list[Record], fix: Fixture, name: str, detail: str):
    records.append(Record(f"{fix.name}/{name}", CHECKS[name][0], 0.0, "SKIP", detail))


def _skip_anchors(records, fix: Fixture, anchors: tuple[str, ...], detail: str):
    """A SKIP for every check with one of these anchors."""
    for name, (anchor, _) in CHECKS.items():
        if anchor in anchors:
            _skip(records, fix, name, detail)


def _random_sigma(rng: np.random.Generator, k: int) -> np.ndarray:
    return rng.standard_normal(k) + 1j * rng.standard_normal(k)


def _duality_checks(records, fix: Fixture, S: CharacterSet, cfg: RunConfig,
                    rng: np.random.Generator):
    if not len(S):
        # with Delta empty every BSE statement is vacuous
        _skip(records, fix, "bse-duality", NO_CHARACTERS)
        _skip(records, fix, "delta-weak-bai", NO_CHARACTERS)
        return
    sigmas = np.array([_random_sigma(rng, len(S)) for _ in range(cfg.sigma_samples)])
    # one cone loop and one primal call for all samples
    duals = bse_norm_dual(sigmas, S, fix.algebra).dual_value
    fn = bse_norm_primal(sigmas, S, fix.algebra)
    gaps = np.abs(fn.value - duals) / np.maximum(1.0, fn.value)
    # the certificate's dual norm: max_i |sum_j c_j phi_j(e_i)| / w_i, feasible when <= 1
    feasibility = np.max(np.abs((S.matrix.T @ fn.c[..., None])[..., 0]) / fix.algebra.weights)
    worst = max(float(np.max(gaps)), _interpolant_miss(fn.a, S, sigmas),
                float(feasibility) - 1.0, 0.0)
    _rec(records, fix, "bse-duality", worst, cfg)
    bai = delta_weak_bai(fix.algebra, S)
    _rec(records, fix, "delta-weak-bai", _interpolant_miss(bai.a, S, 1.0), cfg,
         detail=f"norm {bai.value:.6g}")


def _interpolant_miss(a: np.ndarray, S: CharacterSet, values: np.ndarray | float) -> float:
    """Worst |a-hat - sigma| over a stack, read from the characters themselves."""
    return float(np.max(np.abs(gelfand(a, S) - values), initial=0.0))


def _bse_check(records, fix: Fixture, cfg: RunConfig, S: CharacterSet | None = None,
               mult: np.ndarray | None = None, verdict: BseVerdict | None = None):
    """The check-bse record of the fixture's own algebra: the given verdict, or
    one judged on S.  The BSE property is defined only for algebras without
    order, so one with order gets a SKIP, as does one that is not semisimple."""
    if not fix.algebra.without_order:
        _skip(records, fix, "check-bse", HAS_ORDER)
        return
    if verdict is None:
        verdict = check_bse_property(fix.algebra, cfg.tol_algebraic, S, mult)
    if not verdict.semisimple:
        _skip(records, fix, "check-bse", "outside hypotheses: not semisimple")
        return
    res = max(verdict.containment_m_in_c, verdict.containment_c_in_m)
    _rec(records, fix, "check-bse", res, cfg, detail=f"is_bse={verdict.is_bse}")


def _character_checks(records, fix: Fixture, cfg: RunConfig,
                      sdc: SemidirectCharacters):
    """E u F of a semidirect or lau product: its cross-check and its E/F split."""
    desc = fix.descriptor
    _rec(records, fix, "characters-union", sdc.cross_check_distance, cfg,
         detail=f"|E|={sdc.e_count} |F|={len(sdc.subalgebra_chars)}")
    card_gap = abs(len(sdc.set) - (len(sdc.subalgebra_chars) + len(sdc.ideal_chars)))
    ideal_part = np.abs(sdc.set.matrix[:, desc.ideal_slice])
    e_rows = ideal_part[: sdc.e_count]
    f_rows = ideal_part[sdc.e_count :]
    disjoint_res = float(np.max(f_rows, initial=0.0))
    if sdc.e_count and e_rows.size and float(np.min(np.max(e_rows, axis=1))) <= 1e-6:
        disjoint_res = 1.0  # an E character with vanishing ideal part would collide with F
    _rec(records, fix, "characters-disjoint", float(card_gap) + disjoint_res, cfg)


def _block_checks(records, fix: Fixture, cfg: RunConfig, mult: np.ndarray,
                  sdc: SemidirectCharacters):
    desc = fix.descriptor
    lm = left_multiplier_space(fix.algebra)
    dec = decompose_left_multiplier(lm, desc, cfg.tol_algebraic)
    _rec(records, fix, "lemma-decompose",
         max(dec.max_relation_residual, dec.max_membership_residual), cfg,
         detail=f"dim LM = {len(lm)}")
    bs = block_space(desc)
    dim_gap = abs(bs.shape[0] - len(lm))
    _rec(records, fix, "lemma-block-dim", float(dim_gap), cfg,
         detail=f"block space {bs.shape[0]} vs LM {len(lm)}")
    split = split_blocks(bs, desc)
    _rec(records, fix, "lemma-recompose",
         max(left_multiplier_residual(fix.algebra, bs), split.max_relation_residual,
             split.max_membership_residual), cfg)
    # multipliers of the product split with S_B = 0 under the full span condition
    if sdc.spans_full_ideal:
        dec = decompose_left_multiplier(mult, desc, cfg.tol_algebraic)
        _rec(records, fix, "multiplier-sb-zero",
             float(np.max(np.abs(dec.S_B), initial=0.0)), cfg)
    else:
        _skip(records, fix, "multiplier-sb-zero", "<IB> span is not full")


def _semidirect_checks(records, fix: Fixture, cfg: RunConfig,
                       rng: np.random.Generator):
    desc = fix.descriptor
    sdc = characters_semidirect(desc, cfg.tol_algebraic)
    _character_checks(records, fix, cfg, sdc)

    # psi well-definedness, and the factorization identity on the E rows
    # (phi, psi_phi): phi(e_i b_j) against phi(e_i) psi_phi(b_j) over all
    # ideal x subalgebra pairs
    e_rows = sdc.set.matrix[: sdc.e_count]
    phis, psis = e_rows[:, desc.ideal_slice], e_rows[:, desc.subalgebra_slice]
    lhs = np.einsum("ijk,ek->eij", desc.block_tensors.IB, phis)
    worst_id = float(np.max(np.abs(lhs - phis[:, :, None] * psis[:, None, :]), initial=0.0))
    _rec(records, fix, "psi-uniqueness", sdc.psi_discrepancy, cfg)
    _rec(records, fix, "psi-identity", worst_id, cfg)

    mult = multiplier_space(fix.algebra)  # shared by the checks below
    _block_checks(records, fix, cfg, mult, sdc)

    # sigma extension needs the full span hypothesis
    try:
        rho = _random_sigma(rng, len(sdc.subalgebra_chars))
        ext = sigma_extension(rho, sdc)
        _rec(records, fix, "sigma-extension", max(ext.norm_slack, ext.witness_error), cfg,
             detail=f"|sigma|={ext.sigma.value:.6g} <= |rho|={ext.rho.value:.6g}")
    except SpanConditionError as exc:
        _skip(records, fix, "sigma-extension", str(exc))

    _duality_checks(records, fix, sdc.set, cfg, rng)
    _bse_check(records, fix, cfg, sdc.set, mult)


def _lau_checks(records, fix: Fixture, cfg: RunConfig, rng: np.random.Generator):
    desc = fix.descriptor
    sdc = characters_semidirect(desc, cfg.tol_algebraic)
    _character_checks(records, fix, cfg, sdc)

    mult = multiplier_space(fix.algebra)  # shared by the checks below
    _block_checks(records, fix, cfg, mult, sdc)

    if sdc.surjective:
        # each sample draws sigma, then two (tau, rho) pairs; one call per check
        sizes = (len(sdc.set),) + (len(sdc.ideal_chars), len(sdc.subalgebra_chars)) * 2
        draws = [[_random_sigma(rng, k) for k in sizes] for _ in range(cfg.sigma_samples)]
        sigma, tau, rho, tau2, rho2 = (np.array(v) for v in zip(*draws))
        sp = split_sigma(sigma, sdc)
        th = theta(tau, rho, sdc)
        # the split slack is <= 0 up to the solver gap
        _rec(records, fix, "split-norm-additive", np.max(sp.norm_slack, initial=0.0), cfg)
        _rec(records, fix, "theta-isometry", np.max(np.abs(th.norm_slack), initial=0.0), cfg)
        _rec(records, fix, "theta-multiplicative",
             theta_product_residual(sdc, tau, rho, tau2, rho2), cfg)
    else:
        _skip_anchors(records, fix, ("lemma41", "theta"), "phi is not surjective")

    _duality_checks(records, fix, sdc.set, cfg, rng)

    # the product-BSE pass judges A, B, A x_phi B and A (+) B, so it needs all
    # four without order; the product has order iff a parent has, since
    # (-phi(b), b) annihilates A x_phi B when b annihilates B
    if not fix.algebra.without_order:
        _skip_anchors(records, fix, ("lau-bse", "tim2", "bse-def"), HAS_ORDER)
        return
    # one product-BSE pass: Phi, the four verdicts and the structural checks
    rep = verify_product_bse(desc, cfg.tol_algebraic, mult, sdc)
    iso = rep.iso
    norm = operator_norm(iso.forward, iso.direct.algebra, desc.algebra)
    _rec(records, fix, "phi-iso-norm", max(0.0, norm - iso.norm_bound), cfg,
         detail=f"|Phi| = {norm:.6g} <= {iso.norm_bound:.6g}")
    _rec(records, fix, "lau-bse-biconditional", 0.0 if rep.biconditional_ok else 1.0, cfg,
         detail=f"A={rep.verdict_first.is_bse} B={rep.verdict_second.is_bse} "
                f"AxB={rep.verdict_product.is_bse}")
    if rep.transport_membership is None:
        _skip(records, fix, "lau-transport", "phi = 0: the product is its own direct sum")
    else:
        _rec(records, fix, "lau-transport",
             max(rep.transport_membership, rep.transport_hat_residual,
                 0.0 if rep.transport_dim_ok else 1.0), cfg)

    # direct-sum cross-checks on the same parents
    _rec(records, fix, "sum-bse-biconditional", 0.0 if rep.sum_biconditional_ok else 1.0, cfg)
    _rec(records, fix, "sum-multiplier-split",
         max(rep.sum_block_residual, 0.0 if rep.sum_block_dim_ok else 1.0), cfg)
    _bse_check(records, fix, cfg, verdict=rep.verdict_product)


def _plain_checks(records, fix: Fixture, cfg: RunConfig, rng: np.random.Generator):
    S = characters_numerical(fix.algebra, cfg.tol_algebraic)
    _rec(records, fix, "characters-residual", float(np.max(S.residuals, initial=0.0)), cfg,
         detail=f"{len(S)} characters")
    if fix.family == "group":
        # phase-twisting the basis rescales every character entrywise the same way
        closed = group_character_values(fix.meta["orders"]) * fix.meta["twist"]
        expected = CharacterSet(fix.algebra, closed, provenance="closed_form")
        _, dist = match_character_sets(S, expected, threshold=1e-6)
        _rec(records, fix, "characters-oracle", dist, cfg)
    _duality_checks(records, fix, S, cfg, rng)
    _bse_check(records, fix, cfg, S)


def _checks(fix: Fixture, cfg: RunConfig, rng: np.random.Generator) -> list[Record]:
    """Every check of the fixture's family; a refusal becomes one /error FAIL."""
    records: list[Record] = []
    rep = validate(fix.algebra, cfg.tol_algebraic)
    _rec(records, fix, "validate",
         max(rep.max_associativity_residual, rep.max_commutativity_residual,
             rep.max_submultiplicativity_excess, rep.unit_residual or 0.0), cfg)
    try:
        if fix.family == "semidirect":
            _semidirect_checks(records, fix, cfg, rng)
        elif fix.family == "lau":
            _lau_checks(records, fix, cfg, rng)
        else:
            _plain_checks(records, fix, cfg, rng)
    except BanalgError as exc:
        records.append(Record(f"{fix.name}/error", "plumbing", 1.0, "FAIL",
                              f"{type(exc).__name__}: {exc}"))
    return records


def fixture_records(cfg: RunConfig, family: str, index: int) -> list[Record]:
    """All checks for one generated fixture."""
    fix = build_fixture(family, cfg.seed, index, cfg.max_dim)
    return _checks(fix, cfg, fixture_rng(cfg.seed + 1_000_003, family, index))


def run_verify(cfg: RunConfig) -> Report:
    """Generate fixtures per family, run every check, and assemble the report."""
    one = dataclasses.replace(cfg, jobs=1)  # a worker runs its fixture serially
    families = [family for family in cfg.families for _ in range(cfg.count)]
    indices = [index for _ in cfg.families for index in range(cfg.count)]
    units = ([one] * len(families), families, indices)
    if cfg.jobs > 1:
        import concurrent.futures  # only a pool needs it, and it loads `logging`

        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            batches = list(pool.map(fixture_records, *units))
    else:
        batches = list(map(fixture_records, *units))
    records = sorted((r for batch in batches for r in batch), key=lambda r: r.name)
    return Report(config=cfg, records=records)


def theorem_records(desc, theorem: str | None, cfg: RunConfig) -> list[Record]:
    """The checks of a product bundle's kind whose anchor is `theorem`.

    The bundle runs the same checks as a generated fixture of its kind (a
    direct sum counts as a lau product with phi = 0).  An /error record is
    kept whatever the anchor; `theorem=None` keeps every record, and an
    anchor no check of this kind carries gives one SKIP record.
    """
    if theorem is not None and theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}; choose from {THEOREMS}")
    family = "semidirect" if desc.kind == "semidirect" else "lau"
    fix = Fixture(family, f"{desc.kind}/bundle", desc.algebra, desc)
    records = _checks(fix, cfg, fixture_rng(cfg.seed + 1_000_003, family, 0))
    if theorem is not None:
        records = [r for r in records
                   if r.anchor == theorem or r.name.endswith("/error")]
    if not records:
        records.append(Record(f"{fix.name}/{theorem}", theorem, 0.0, "SKIP",
                              f"no {theorem} check applies to a {desc.kind} product"))
    records.sort(key=lambda r: r.name)
    return records
