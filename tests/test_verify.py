import contextlib
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from banalg.algebra import operator_norm, validate
from banalg.bse import SemisimplicityWarning, sigma_extension, split_sigma, verify_product_bse
from banalg.constructions import (
    direct_sum,
    finite_abelian_group_algebra,
    ideal_span_is_full,
    lau_product,
    phi_isomorphism,
)
from banalg.fixtures import FAMILIES, Fixture, build_fixture, fixture_rng
from banalg import verify
from banalg.errors import BanalgError, IllConditionedError
from banalg.multipliers import block_space, decompose_left_multiplier, left_multiplier_space
from banalg.spectra import (
    CharacterSet,
    characters_numerical,
    characters_semidirect,
    psi_of,
)
from banalg.verify import (
    THEOREMS,
    Report,
    RunConfig,
    fixture_records,
    run_verify,
    theorem_records,
)

from conftest import (
    character_subset,
    diagonal_algebra,
    lau_c_c2,
    module_extension_semidirect,
    nil2,
    pointwise_semidirect,
    x_truncated4,
    zero_product,
    zero_product_semidirect,
)


@pytest.mark.parametrize("family", FAMILIES)
def test_fixtures_validate_exactly(family):
    for fix in [build_fixture(family, 11, i) for i in range(6)]:
        report = validate(fix.algebra, tol=1e-12)
        assert report.accepted, (fix.name, report.failures)


def test_lau_fixtures_certified_surjective_contractive():
    for fix in [build_fixture("lau", 5, i) for i in range(8)]:
        desc = fix.descriptor
        assert operator_norm(desc.phi, desc.second, desc.first) <= 1.0
        assert np.linalg.matrix_rank(desc.phi) == desc.first.dim


def test_semidirect_fixture_span_flag_matches_rank():
    for fix in [build_fixture("semidirect", 5, i) for i in range(10)]:
        assert ideal_span_is_full(fix.descriptor) == fix.meta["full_span"]


def test_group_fixture_character_count():
    fix = build_fixture("group", seed=1, index=0)
    n = int(np.prod(fix.meta["orders"]))
    assert fix.algebra.dim == n


def test_fixture_determinism():
    a = build_fixture("semidirect", seed=9, index=3)
    b = build_fixture("semidirect", seed=9, index=3)
    assert np.array_equal(a.algebra.structure, b.algebra.structure)
    assert np.array_equal(a.algebra.weights, b.algebra.weights)
    c = build_fixture("semidirect", seed=10, index=3)
    assert not np.array_equal(a.algebra.structure, c.algebra.structure)


def test_run_verify_default_passes():
    report = run_verify(RunConfig(count=1, max_dim=4))
    assert report.ok
    assert report.counts["FAIL"] == 0
    assert report.counts["PASS"] > 20


def test_run_verify_byte_identical_reports():
    cfg = dict(count=1, seed=123, max_dim=4)
    r1 = run_verify(RunConfig(**cfg)).to_json()
    r2 = run_verify(RunConfig(**cfg)).to_json()
    assert r1 == r2
    r3 = run_verify(RunConfig(count=1, seed=124, max_dim=4)).to_json()
    assert r1 != r3


def test_run_verify_jobs_matches_serial():
    # the pool's records come back pickled, and Record has __slots__
    serial = run_verify(RunConfig(count=1, seed=7, max_dim=4))
    parallel = run_verify(RunConfig(count=1, seed=7, max_dim=4, jobs=2))
    assert not hasattr(parallel.records[0], "__dict__")
    assert parallel.records == serial.records
    assert serial.to_json() == parallel.to_json()


def test_records_sorted_and_anchored():
    report = run_verify(RunConfig(count=1, families=("diag", "group"), max_dim=4))
    names = [r.name for r in report.records]
    assert names == sorted(names)
    assert all(r.anchor for r in report.records)


def test_report_text_rendering_no_color():
    report = run_verify(RunConfig(count=1, families=("diag",), max_dim=3))
    text = report.to_text(color=False)
    assert "PASS" in text and "\x1b[" not in text
    colored = report.to_text(color=True)
    assert "\x1b[32m" in colored


def _zoo_bundles():
    # products with no characters or with order: every check outside its
    # hypotheses must be a reasoned SKIP, never an /error
    C = diagonal_algebra(1, "C")
    return [zero_product_semidirect(), direct_sum(C, nil2()), direct_sum(nil2(), C),
            direct_sum(zero_product(2), C),
            direct_sum(module_extension_semidirect().algebra, C)]


@pytest.mark.filterwarnings("ignore::banalg.bse.SemisimplicityWarning")
def test_theorem_records_on_bundles():
    # a bundle runs the checks of its kind once; --theorem only filters them
    cfg = RunConfig(count=1)
    for desc in (pointwise_semidirect(), lau_c_c2(), *_zoo_bundles()):
        every = theorem_records(desc, None, cfg)
        assert every and all(r.verdict in ("PASS", "SKIP") for r in every), (
            [(r.name, r.verdict, r.detail) for r in every]
        )
        for theorem in THEOREMS:
            kept = theorem_records(desc, theorem, cfg)
            anchored = [r for r in every if r.anchor == theorem]
            if anchored:
                assert kept == anchored, (desc.kind, theorem)
            else:
                assert [(r.anchor, r.verdict) for r in kept] == [(theorem, "SKIP")]


@pytest.mark.filterwarnings("ignore::banalg.bse.SemisimplicityWarning")
def test_zoo_bundles_skip_for_a_reason():
    # no characters: bse-duality and delta-weak-bai; order: check-bse and, on
    # a lau product or direct sum, the five other records of the product-BSE pass
    no_chars = {"bse-duality", "delta-weak-bai"}
    product_bse = {"phi-iso-norm", "lau-bse-biconditional", "lau-transport",
                   "sum-bse-biconditional", "sum-multiplier-split", "check-bse"}
    for desc in _zoo_bundles():
        records = theorem_records(desc, None, RunConfig(count=1))
        skipped = {r.name.rsplit("/", 1)[1]: r.detail for r in records
                   if r.verdict == "SKIP"}
        has_order = product_bse if desc.kind != "semidirect" else {"check-bse"}
        assert {k: v for k, v in skipped.items() if v.startswith("outside")} == {
            **{name: "outside hypotheses: has order" for name in has_order},
            **{name: "outside hypotheses: no characters" for name in no_chars
               if not len(characters_numerical(desc.algebra))},
        }, desc.algebra.name


def _descriptor_calls(desc):
    """The public functions that take a descriptor (or the characters built
    on one), each called on `desc` with inputs of the right shape."""
    def sdc():
        return characters_semidirect(desc)

    return {
        "phi_isomorphism": lambda: phi_isomorphism(desc),
        "characters_semidirect": sdc,
        "psi_of": lambda: psi_of(characters_numerical(desc.ideal).matrix, desc),
        "decompose_left_multiplier": lambda: decompose_left_multiplier(
            left_multiplier_space(desc.algebra), desc),
        "block_space": lambda: block_space(desc),
        "verify_product_bse": lambda: verify_product_bse(desc),
        "split_sigma": lambda: split_sigma(np.ones(len(sdc().set)), sdc()),
        "sigma_extension": lambda: sigma_extension(
            np.ones(len(sdc().subalgebra_chars)), sdc()),
    }


@pytest.mark.filterwarnings("ignore::banalg.bse.SemisimplicityWarning")
@pytest.mark.parametrize("desc", _zoo_bundles(), ids=lambda desc: desc.algebra.name)
def test_descriptor_functions_return_or_refuse_on_zoo_bundles(desc):
    # unsupported input fails with a typed BanalgError; any other exception fails
    for call in _descriptor_calls(desc).values():
        with contextlib.suppress(BanalgError):
            call()


@pytest.mark.parametrize("make", [nil2, lambda: zero_product(2), x_truncated4])
def test_plain_algebra_without_characters_skips_for_a_reason(make):
    # Delta is empty, so every BSE statement is vacuous, and a nilpotent
    # algebra has order: three reasoned SKIPs and no /error
    alg = make()
    fix = Fixture("diag", f"plain/{alg.name}", alg)
    records = verify._checks(fix, RunConfig(count=1), fixture_rng(1, "diag", 0))
    assert {r.name.rsplit("/", 1)[1]: (r.verdict, r.detail) for r in records} == {
        "validate": ("PASS", ""),
        "characters-residual": ("PASS", "0 characters"),
        "bse-duality": ("SKIP", "outside hypotheses: no characters"),
        "delta-weak-bai": ("SKIP", "outside hypotheses: no characters"),
        "check-bse": ("SKIP", "outside hypotheses: has order"),
    }


def test_theorem_records_carry_the_full_fixture_checks():
    cfg = RunConfig(count=1)
    theta = {r.name for r in theorem_records(lau_c_c2(), "theta", cfg)}
    assert theta == {"lau/bundle/theta-isometry", "lau/bundle/theta-multiplicative"}
    prop24 = {r.name for r in theorem_records(pointwise_semidirect(), "prop24", cfg)}
    assert {"semidirect/bundle/characters-disjoint", "semidirect/bundle/psi-identity",
            "semidirect/bundle/psi-uniqueness"} <= prop24


def test_theorem_records_keep_error_records(monkeypatch):
    def refuse(*args, **kwargs):
        raise IllConditionedError("refused")

    monkeypatch.setattr(verify, "characters_semidirect", refuse)
    records = theorem_records(pointwise_semidirect(), "lemma21", RunConfig(count=1))
    assert [(r.name, r.verdict) for r in records] == [
        ("semidirect/bundle/error", "FAIL")
    ]


def test_fixture_verdicts_match_the_benchmark_reference():
    # the stored verdicts the benchmark gate compares against, read, never rewritten
    path = Path(__file__).parents[1] / "perfbench" / "reference" / "verify_small.json"
    ref = json.loads(path.read_text())
    cfg = RunConfig(seed=ref["seed"], max_dim=ref["max_dim"])
    got = {r.name: r.verdict for index in range(ref["indices"])
           for family in FAMILIES for r in fixture_records(cfg, family, index)}
    assert got == ref["verdicts"]


def _block_space_one_row_short(monkeypatch):
    original = verify.block_space
    monkeypatch.setattr(verify, "block_space", lambda desc: original(desc)[:-1])


def _multiplier_space_one_map_short(monkeypatch):
    from banalg import bse

    original = bse.multiplier_space
    monkeypatch.setattr(bse, "multiplier_space", lambda alg: original(alg)[:-1])


@pytest.mark.parametrize("family, record, patch", [
    ("semidirect", "lemma-block-dim", _block_space_one_row_short),
    ("lau", "lemma-block-dim", _block_space_one_row_short),
    ("group", "check-bse", _multiplier_space_one_map_short),
    ("diag", "check-bse", _multiplier_space_one_map_short),
])
def test_null_space_dimension_records_can_fail(monkeypatch, family, record, patch):
    # negative controls: a null space one dimension short, fed from the layer
    # below the check, fails exactly the record that reads its dimension
    patch(monkeypatch)
    records = fixture_records(RunConfig(seed=0, max_dim=6), family, 0)
    assert [r.name for r in records if r.verdict == "FAIL"] == [f"{family}/000/{record}"]


@pytest.mark.parametrize("family", FAMILIES)
def test_bse_duality_record_can_fail(monkeypatch, family):
    # negative control: a dual cone solve that overstates its value by 1e-5,
    # ten times the duality tolerance tol_opt, fails exactly bse-duality
    from banalg import bse

    original = bse._nonzero_cone

    def overstated(*args):
        sol = original(*args)
        sol.dual_value = sol.dual_value * (1 + 1e-5)
        return sol

    monkeypatch.setattr(bse, "_nonzero_cone", overstated)
    records = fixture_records(RunConfig(seed=0, max_dim=6), family, 0)
    assert [r.name for r in records if r.verdict == "FAIL"] == [f"{family}/000/bse-duality"]


@pytest.mark.parametrize("family", FAMILIES)
def test_bse_duality_record_reads_every_batch_member(monkeypatch, family):
    # negative control for the batched dual solve: only the third sigma
    # sample's value is overstated, so bse-duality fails only if the record
    # reads each member's own value, not one broadcast from member 0
    from banalg import bse

    original = bse._nonzero_cone

    def third_overstated(*args):
        sol = original(*args)
        sol.dual_value = sol.dual_value.copy()
        sol.dual_value[2] *= 1 + 1e-5
        return sol

    monkeypatch.setattr(bse, "_nonzero_cone", third_overstated)
    records = fixture_records(RunConfig(seed=0, max_dim=6), family, 0)
    assert [r.name for r in records if r.verdict == "FAIL"] == [f"{family}/000/bse-duality"]


@pytest.mark.parametrize("family", FAMILIES)
def test_bse_duality_record_reads_every_primal_member(monkeypatch, family):
    # negative control for the stacked primal solve: only the third sigma
    # sample's primal value is overstated by 1e-5, so bse-duality fails only
    # if the record reads each member's own value
    from banalg import bse

    original = bse._primal

    def third_overstated(*args):
        sol = original(*args)
        if np.ndim(sol.value) == 1:  # a stack of samples
            sol.value = sol.value.copy()
            sol.value[2] *= 1 + 1e-5
        return sol

    monkeypatch.setattr(bse, "_primal", third_overstated)
    records = fixture_records(RunConfig(seed=0, max_dim=6), family, 0)
    assert [r.name for r in records if r.verdict == "FAIL"] == [f"{family}/000/bse-duality"]


def test_check_bse_skips_an_algebra_with_order():
    # x1 annihilates the module extension, so the BSE property is outside its
    # hypotheses: check-bse is a SKIP, not an /error FAIL, and every other
    # check still runs (on characters that do not separate the radical X)
    with pytest.warns(SemisimplicityWarning):
        records = theorem_records(module_extension_semidirect(), None, RunConfig())
    skipped = {r.name: r.detail for r in records if r.verdict == "SKIP"}
    assert skipped == {
        "semidirect/bundle/check-bse": "outside hypotheses: has order",
        "semidirect/bundle/multiplier-sb-zero": "<IB> span is not full",
        "semidirect/bundle/sigma-extension": "<IB> is a proper subspace of the ideal",
    }
    assert sorted(r.name.rsplit("/", 1)[1] for r in records if r.verdict == "PASS") == [
        "bse-duality", "characters-disjoint", "characters-union", "delta-weak-bai",
        "lemma-block-dim", "lemma-decompose", "lemma-recompose", "psi-identity",
        "psi-uniqueness", "validate",
    ]


def _count_calls(monkeypatch, names):
    """Count calls of `names` through every banalg module that binds them, so
    calls inside the defining module and through each import all count."""
    import sys

    calls = dict.fromkeys(names, 0)
    modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "banalg"]
    for name in names:
        original = next(getattr(m, name) for m in modules if callable(getattr(m, name, None)))

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_lau_fixture_runs_one_product_bse_pass(monkeypatch):
    # Phi is built once, and each of A, B, A x_phi B, A (+) B gets one
    # multiplier space and one verdict; the S_B = 0 check reads the product's
    # space, and the check-bse record the product's verdict
    calls = _count_calls(monkeypatch, ("phi_isomorphism", "multiplier_space",
                                       "check_bse_property"))
    records = fixture_records(RunConfig(seed=0, max_dim=6), "lau", 0)
    assert all(r.verdict != "FAIL" for r in records)
    assert any(r.name.endswith("/multiplier-sb-zero") and r.verdict == "PASS"
               for r in records)
    assert calls["phi_isomorphism"] == 1
    assert calls["multiplier_space"] == 4
    assert calls["check_bse_property"] == 4
    by_check = {r.name.rsplit("/", 1)[1]: r.detail for r in records}
    product_flag = by_check["lau-bse-biconditional"].rsplit("AxB=", 1)[1]
    assert by_check["check-bse"] == f"is_bse={product_flag}"


def test_lau_fixture_builds_two_lau_products(monkeypatch):
    # the fixture's A x_phi B and the direct sum A (+) B; Phi reuses the
    # fixture's product instead of assembling and validating it again
    calls = _count_calls(monkeypatch, ("lau_product",))
    records = fixture_records(RunConfig(seed=0, max_dim=6), "lau", 0)
    assert all(r.verdict != "FAIL" for r in records)
    assert calls["lau_product"] == 2


def test_semidirect_fixture_induces_each_psi_once(monkeypatch):
    # psi-uniqueness and psi-identity read what characters_semidirect built,
    # and it induces every psi of the set in one psi_of call, not one per
    # ideal character
    from banalg import spectra

    cfg = RunConfig(seed=0, max_dim=6)
    ideal = build_fixture("semidirect", cfg.seed, 0, cfg.max_dim).descriptor.ideal
    ideal_count = len(spectra.characters_numerical(ideal, cfg.tol_algebraic))
    calls = _count_calls(monkeypatch, ("psi_of",))
    records = fixture_records(cfg, "semidirect", 0)
    assert {r.name.rsplit("/", 1)[1]: r.verdict for r in records
            if r.name.endswith(("/psi-uniqueness", "/psi-identity"))} == {
        "psi-uniqueness": "PASS", "psi-identity": "PASS"}
    assert ideal_count > 1
    assert calls["psi_of"] == 1


def test_order_is_decided_once_per_algebra(monkeypatch):
    # without_order is kept on the algebra: a plain or semidirect fixture asks
    # it for check-bse and its verdict (one annihilator), and a lau fixture
    # for the product, then A, B and A (+) B in the product-BSE pass
    calls = _count_calls(monkeypatch, ("annihilator_basis",))
    expected = {"diag": 1, "group": 1, "semidirect": 1, "lau": 4}
    for family in FAMILIES:
        for index in range(3):
            calls["annihilator_basis"] = 0
            records = fixture_records(RunConfig(seed=0, max_dim=6), family, index)
            assert all(r.verdict != "FAIL" for r in records)
            assert calls["annihilator_basis"] == expected[family], (family, index)


def test_theta_isometry_record_can_fail(monkeypatch):
    # negative control: a theta whose norm slack is off by 1e-5, ten times
    # tol_opt, fails exactly theta-isometry
    original = verify.theta

    def offset(*args):
        th = original(*args)
        th.norm_slack += 1e-5
        return th

    monkeypatch.setattr(verify, "theta", offset)
    records = fixture_records(RunConfig(seed=0, max_dim=6), "lau", 0)
    assert [r.name for r in records if r.verdict == "FAIL"] == ["lau/000/theta-isometry"]


@pytest.mark.parametrize("member", [slice(None), 2])
def test_split_norm_additive_record_can_fail(monkeypatch, member):
    # negative control: a split whose norm slack is off by 1e-5, ten times
    # tol_opt, on every sigma sample or on the third alone, fails exactly
    # split-norm-additive
    original = verify.split_sigma

    def offset(*args):
        sp = original(*args)
        sp.norm_slack[member] += 1e-5
        return sp

    monkeypatch.setattr(verify, "split_sigma", offset)
    records = fixture_records(RunConfig(seed=0, max_dim=6), "lau", 0)
    assert [r.name for r in records if r.verdict == "FAIL"] == ["lau/000/split-norm-additive"]


def test_span_condition_is_decided_once_per_fixture(monkeypatch):
    # multiplier-sb-zero and sigma-extension read the character set's one
    # decision of <IB> = I
    calls = _count_calls(monkeypatch, ("ideal_span_rank",))
    for family in ("semidirect", "lau"):
        for index in range(3):
            calls["ideal_span_rank"] = 0
            records = fixture_records(RunConfig(seed=0, max_dim=6), family, index)
            assert all(r.verdict != "FAIL" for r in records)
            assert calls["ideal_span_rank"] == 1, (family, index)


def test_psi_uniqueness_record_can_fail(monkeypatch):
    # negative control: a normalizer discrepancy of 1e-11, ten times the
    # record's 1e-12, fails exactly psi-uniqueness
    original = verify.characters_semidirect

    def discrepant(*args, **kwargs):
        sdc = original(*args, **kwargs)
        sdc.psi_discrepancy = 1e-11
        return sdc

    monkeypatch.setattr(verify, "characters_semidirect", discrepant)
    records = fixture_records(RunConfig(seed=0, max_dim=6), "semidirect", 0)
    assert [r.name for r in records if r.verdict == "FAIL"] == [
        "semidirect/000/psi-uniqueness"]


@pytest.mark.parametrize("family", FAMILIES)
def test_delta_weak_bai_record_can_fail(monkeypatch, family):
    # negative control: an identity certificate whose interpolation residual
    # is off by 1e-5, ten times tol_opt, fails exactly delta-weak-bai
    original = verify.delta_weak_bai

    def offset(*args):
        bai = original(*args)
        bai.a = bai.a * (1 + 1e-5)  # e-hat = 1 + 1e-5, still read against sigma = 1
        return bai

    monkeypatch.setattr(verify, "delta_weak_bai", offset)
    records = fixture_records(RunConfig(seed=0, max_dim=6), family, 0)
    assert [r.name for r in records if r.verdict == "FAIL"] == [
        f"{family}/000/delta-weak-bai"]


def test_sigma_extension_record_can_fail(monkeypatch):
    # negative control: a lifted witness (b, 0) that misses sigma by 1e-5, ten
    # times tol_opt, fails exactly sigma-extension; at seed 0 index 2 is the
    # first semidirect fixture with <IB> = I, where the record is a PASS
    original = verify.sigma_extension

    def offset(*args):
        ext = original(*args)
        ext.witness_error += 1e-5
        return ext

    cfg = RunConfig(seed=0, max_dim=6)
    assert {r.name: r.verdict for r in fixture_records(cfg, "semidirect", 2)}[
        "semidirect/002/sigma-extension"] == "PASS"
    monkeypatch.setattr(verify, "sigma_extension", offset)
    records = fixture_records(cfg, "semidirect", 2)
    assert [r.name for r in records if r.verdict == "FAIL"] == [
        "semidirect/002/sigma-extension"]


def test_lau_bundle_with_non_surjective_phi_skips_the_split_checks():
    # phi(1) = (1, 1) composes every character of A to the one of B, but
    # rank phi = 1 < dim A: the split and theta checks skip, the rest run
    A, B = diagonal_algebra(2, "A"), diagonal_algebra(1, "B")
    desc = lau_product(A, B, np.array([[1.0], [1.0]], dtype=complex), force=True)
    records = theorem_records(desc, None, RunConfig())
    skipped = {r.name: r.detail for r in records if r.verdict == "SKIP"}
    assert skipped == {f"lau/bundle/{name}": "phi is not surjective"
                       for name in ("split-norm-additive", "theta-isometry",
                                    "theta-multiplicative")}
    assert [r.verdict for r in records].count("PASS") == len(records) - 3 == 15


def test_semidirect_fixture_computes_one_multiplier_space(monkeypatch):
    # the S_B = 0 check (full span here) and the fixture's verdict share M(A)
    calls = _count_calls(monkeypatch, ("multiplier_space",))
    records = fixture_records(RunConfig(seed=0, max_dim=6), "semidirect", 2)
    assert all(r.verdict != "FAIL" for r in records)
    assert {r.name.rsplit("/", 1)[1]: r.verdict for r in records
            if r.name.endswith(("/multiplier-sb-zero", "/check-bse"))} == {
        "multiplier-sb-zero": "PASS", "check-bse": "PASS"}
    assert calls["multiplier_space"] == 1


def test_lau_fixture_extracts_characters_once_per_algebra(monkeypatch):
    # A and B for the fixture's closed-form set, A x_phi B for its cross
    # check and A (+) B for the cross check of its closed-form set on the same
    # parent sets, which its verdict and the transport check read
    from banalg import bse, spectra

    seen = []
    original = spectra.characters_numerical

    def counted(algebra, *args, **kwargs):
        seen.append(id(algebra))
        return original(algebra, *args, **kwargs)

    for module in (spectra, bse, verify):
        monkeypatch.setattr(module, "characters_numerical", counted)
    records = fixture_records(RunConfig(seed=0, max_dim=6), "lau", 0)
    assert all(r.verdict != "FAIL" for r in records)
    assert len(seen) == len(set(seen)) == 4


def test_direct_sum_bundle_is_its_own_direct_sum(monkeypatch):
    # Phi is the identity on a direct sum, so the product-BSE pass reads the
    # bundle's own multiplier space and closed-form set for A (+) B: one of
    # each call for each of A, B and the sum, where a second pair on the sum
    # made 4; it computes no transport, so `hat` runs once per verdict (the
    # transport added two)
    calls = _count_calls(monkeypatch, ("multiplier_space", "characters_numerical", "hat"))
    desc = direct_sum(finite_abelian_group_algebra([3]), finite_abelian_group_algebra([2]))
    records = theorem_records(desc, None, RunConfig())
    assert all(r.verdict != "FAIL" for r in records)
    assert calls == {"multiplier_space": 3, "characters_numerical": 3, "hat": 3}
    # the pass reports no transport, and verify skips its record for that
    transport, = (r for r in records if r.name.endswith("/lau-transport"))
    assert (transport.verdict, transport.detail) == (
        "SKIP", "phi = 0: the product is its own direct sum")


def test_lau_fixture_ranks_phi_once(monkeypatch):
    # surjectivity is asked three times per sigma sample and decided once
    from banalg import bse, spectra

    cfg = RunConfig(seed=0, max_dim=6)
    phi = build_fixture("lau", cfg.seed, 0, cfg.max_dim).descriptor.phi
    ranked = []
    for module in (spectra, bse):
        original = module.rank_basis

        def counted(M, _original=original):
            ranked.append(isinstance(M, np.ndarray) and np.array_equal(M, phi))
            return _original(M)

        monkeypatch.setattr(module, "rank_basis", counted)
    records = fixture_records(cfg, "lau", 0)
    assert any(r.name.endswith("/theta-isometry") and r.verdict == "PASS"
               for r in records)
    assert sum(ranked) == 1


def test_duality_checks_rank_the_character_matrix_once(monkeypatch):
    from banalg import interpolation, spectra
    from banalg.fixtures import fixture_rng

    cfg = RunConfig(seed=0, max_dim=6)
    fix = build_fixture("diag", cfg.seed, 0, cfg.max_dim)
    S = spectra.characters_numerical(fix.algebra, cfg.tol_algebraic)
    ranked = []
    for module in (spectra, interpolation):
        original = module.rank_basis

        def counted(M, _original=original):
            ranked.append(np.array_equal(M, S.matrix))
            return _original(M)

        monkeypatch.setattr(module, "rank_basis", counted)
    records = []
    verify._duality_checks(records, fix, S, cfg, fixture_rng(1, "diag", 0))
    assert [r.verdict for r in records] == ["PASS", "PASS"]
    assert ranked == [True]


@pytest.mark.filterwarnings("ignore::banalg.bse.SemisimplicityWarning")
def test_checks_table_matches_the_records():
    # every row of the table is written, and every record but /error is a row
    # that carries the row's anchor
    cfg = RunConfig(max_dim=6)
    records = [r for family in FAMILIES for index in range(4)
               for r in fixture_records(cfg, family, index)]
    records += [r for desc in (pointwise_semidirect(), lau_c_c2(), *_zoo_bundles())
                for r in theorem_records(desc, None, RunConfig(count=1))]
    checks = [(r.name.rsplit("/", 1)[1], r.anchor) for r in records
              if not r.name.endswith("/error")]
    assert {name for name, _ in checks} == set(verify.CHECKS)
    assert [(name, anchor) for name, anchor in checks
            if verify.CHECKS[name][0] != anchor] == []


def test_theorem_records_rejects_unknown():
    with pytest.raises(ValueError):
        theorem_records(lau_c_c2(), "nope", RunConfig(count=1))


def test_report_schema_golden_file():
    # the rendered report layout is a compatibility contract
    from pathlib import Path

    from banalg.verify import Record

    cfg = RunConfig(tol_algebraic=1e-9, tol_opt=1e-6, seed=7, families=("diag",),
                    count=1, max_dim=3, sigma_samples=2)
    report = Report(config=cfg, records=[
        Record("diag/000/check-one", "plumbing", 0.125, "PASS", "sample detail"),
        Record("diag/000/check-two", "lemma21", 3.0000000000000004e-10, "SKIP", ""),
    ])
    golden = Path(__file__).parent / "golden" / "report.json"
    assert report.to_json() == golden.read_text()


def test_minimizer_uniqueness_flags():
    """Where the minimizer is not unique, the norm, the contractual output,
    is still the optimum."""
    import warnings

    from banalg.bse import SemisimplicityWarning, bse_norm_primal
    from banalg.spectra import CharacterSet, characters_numerical

    # single constraint a_0 - a_1 = 1 with equal weights: the whole segment
    # (t, t-1), t in [0, 1], is optimal, so the minimizer is not unique
    from banalg.constructions import finite_abelian_group_algebra

    z2 = finite_abelian_group_algebra([2])
    full = characters_numerical(z2)
    sign = next(row for row in full.matrix if np.allclose(row, [1.0, -1.0]))
    partial = CharacterSet(z2, sign[None, :])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SemisimplicityWarning)
        fn = bse_norm_primal(np.array([1.0 + 0j]), partial, z2)
    assert fn.value == pytest.approx(1.0, rel=1e-7)

    # a random complex rectangular instance has one minimizer; duplicating a
    # column of its support (same weight) keeps the norm and frees the split
    from banalg.interpolation import solve_primal

    rng = np.random.default_rng(8)
    E = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
    sigma = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    w = rng.uniform(0.5, 2.0, 7)
    sol = solve_primal(E, sigma, w)
    k = int(np.argmax(np.abs(sol.a)))
    dup = solve_primal(np.concatenate([E, E[:, k:k + 1]], axis=1), sigma,
                       np.append(w, w[k]))
    assert dup.value == pytest.approx(sol.value, rel=1e-7)


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(count=0)
    with pytest.raises(ValueError):
        RunConfig(tol_opt=-1.0)
    with pytest.raises(ValueError):
        RunConfig(families=("bogus",))
    # a tolerance is finite and positive: NaN compares false with everything
    for field in ("tol_algebraic", "tol_opt"):
        for value in (float("nan"), float("inf"), 0.0, -1e-9):
            with pytest.raises(ValueError, match="finite and positive"):
                RunConfig(**{field: value})
    # a negative seed crashed numpy, max_dim 1 crashed the diag draw from
    # 2..max_dim, and a repeated family wrote each of its records twice
    for kwargs, message in (({"seed": -1}, "seed"), ({"max_dim": 1}, "2..16"),
                            ({"max_dim": 17}, "2..16"),
                            ({"families": ("diag", "group", "diag")}, "distinct")):
        with pytest.raises(ValueError, match=message):
            RunConfig(**kwargs)
    assert RunConfig(seed=0, max_dim=2, families=("diag",)).max_dim == 2
    # jobs < 1 would run serially unasked, and sigma_samples < 1 would make
    # every bse-duality record a vacuous PASS
    for field in ("jobs", "sigma_samples"):
        for value in (0, -3):
            with pytest.raises(ValueError, match=field):
                RunConfig(**{field: value})


@pytest.mark.parametrize("family", ["semidirect", "lau"])
def test_characters_union_record_can_fail(monkeypatch, family):
    # negative control: a cross-check distance off by 1e-7, ten times the
    # record's 1e-8, fails exactly characters-union in both product families
    original = verify.characters_semidirect

    def offset(*args, **kwargs):
        sdc = original(*args, **kwargs)
        sdc.cross_check_distance += 1e-7
        return sdc

    monkeypatch.setattr(verify, "characters_semidirect", offset)
    records = fixture_records(RunConfig(seed=0, max_dim=6), family, 0)
    assert [r.name for r in records if r.verdict == "FAIL"] == [
        f"{family}/000/characters-union"]


@pytest.mark.parametrize("family", ["semidirect", "lau"])
def test_characters_disjoint_record_can_fail(family):
    # negative control: the real set with ideal_chars one character short, so
    # that its last E row is read as an F row, fails characters-disjoint
    cfg = RunConfig(seed=0, max_dim=6)
    fix = build_fixture(family, cfg.seed, 0, cfg.max_dim)
    sdc = characters_semidirect(fix.descriptor, cfg.tol_algebraic)
    short = dataclasses.replace(sdc, ideal_chars=character_subset(sdc.ideal_chars, slice(-1)))
    for chars, verdict in ((sdc, "PASS"), (short, "FAIL")):
        records = []
        verify._character_checks(records, fix, cfg, chars)
        assert {r.name: r.verdict for r in records} == {
            f"{family}/000/characters-union": "PASS",
            f"{family}/000/characters-disjoint": verdict}


def test_theta_multiplicative_record_can_fail(monkeypatch):
    # negative control: the pairing read with a wrong psi_index (each psi moved
    # to the next subalgebra character) no longer matches the Lau product's
    # own multiplication, and exactly theta-multiplicative fails
    original = verify.theta_product_residual

    def shifted(chars, *pairs):
        f = len(chars.subalgebra_chars)
        assert f > 1
        wrong = [(ix + 1) % f for ix in chars.psi_index]
        return original(dataclasses.replace(chars, psi_index=wrong), *pairs)

    monkeypatch.setattr(verify, "theta_product_residual", shifted)
    records = fixture_records(RunConfig(seed=0, max_dim=6), "lau", 0)
    assert [r.name for r in records if r.verdict == "FAIL"] == [
        "lau/000/theta-multiplicative"]


@pytest.mark.parametrize("index", [0, 2])
def test_psi_identity_record_can_fail(monkeypatch, index):
    # negative control: the closed-form set with the psi part of each E row off
    # by 1e-9, ten times the record's 1e-10, fails exactly psi-identity
    original = verify.characters_semidirect

    def offset(*args, **kwargs):
        sdc = original(*args, **kwargs)
        alg, rows = sdc.set.algebra, sdc.set.matrix.copy()
        rows[: sdc.e_count, sdc.descriptor.subalgebra_slice] += 1e-9
        return dataclasses.replace(sdc, set=CharacterSet(alg, rows, provenance="closed_form"))

    monkeypatch.setattr(verify, "characters_semidirect", offset)
    records = fixture_records(RunConfig(seed=0, max_dim=6), "semidirect", index)
    assert [r.name for r in records if r.verdict == "FAIL"] == [
        f"semidirect/{index:03d}/psi-identity"]


@pytest.mark.parametrize("family", ["semidirect", "lau"])
def test_lemma_decompose_record_can_fail(monkeypatch, family):
    # negative control: a block decomposition whose relation (ii) residual is
    # off by 1e-8, ten times tol_algebraic, fails exactly lemma-decompose
    original = verify.decompose_left_multiplier

    def offset(*args):
        dec = original(*args)
        dec.relation_residuals["ii"] += 1e-8
        return dec

    monkeypatch.setattr(verify, "decompose_left_multiplier", offset)
    records = fixture_records(RunConfig(seed=0, max_dim=6), family, 0)
    assert [r.name for r in records if r.verdict == "FAIL"] == [
        f"{family}/000/lemma-decompose"]


@pytest.mark.parametrize("family, index", [("semidirect", 2), ("lau", 0)])
def test_multiplier_sb_zero_record_can_fail(monkeypatch, family, index):
    # negative control: blocks whose S_B is 1e-8, ten times tol_algebraic, where
    # the split has S_B = 0, fail exactly multiplier-sb-zero; at seed 0 index 2
    # is the first semidirect fixture with <IB> = I, where the record is a PASS
    original = verify.decompose_left_multiplier

    def offset(*args):
        dec = original(*args)
        dec.S_B = dec.S_B + 1e-8
        return dec

    monkeypatch.setattr(verify, "decompose_left_multiplier", offset)
    records = fixture_records(RunConfig(seed=0, max_dim=6), family, index)
    assert [r.name for r in records if r.verdict == "FAIL"] == [
        f"{family}/{index:03d}/multiplier-sb-zero"]


def test_phi_iso_norm_record_can_fail(monkeypatch):
    # negative control: Phi scaled by 1 + 1e-11 breaks the bound
    # ||Phi|| <= ||phi|| + 1, which is attained, by about 1e-11 (ten times the
    # record's 1e-12) and fails exactly phi-iso-norm
    from banalg import bse

    original = bse.phi_isomorphism

    def scaled(*args):
        iso = original(*args)
        iso.forward = iso.forward * (1 + 1e-11)
        return iso

    monkeypatch.setattr(bse, "phi_isomorphism", scaled)
    records = fixture_records(RunConfig(seed=0, max_dim=6), "lau", 0)
    assert [r.name for r in records if r.verdict == "FAIL"] == ["lau/000/phi-iso-norm"]


@pytest.mark.parametrize("family", ["diag", "group"])
def test_characters_residual_record_can_fail(monkeypatch, family):
    # negative control: characters whose multiplicativity residual is off by
    # 1e-8, ten times tol_algebraic, fail exactly characters-residual
    original = verify.characters_numerical

    def offset(*args):
        S = original(*args)
        return CharacterSet(S.algebra, S.matrix, S.residuals + 1e-8)

    monkeypatch.setattr(verify, "characters_numerical", offset)
    records = fixture_records(RunConfig(seed=0, max_dim=6), family, 0)
    assert [r.name for r in records if r.verdict == "FAIL"] == [
        f"{family}/000/characters-residual"]


def test_characters_oracle_record_can_fail(monkeypatch):
    # negative control: the closed-form table read with one twist phase off by
    # 1e-7, a thousand times the record's 1e-10 (and inside the 1e-6 matching
    # threshold), fails exactly characters-oracle
    original = verify.build_fixture

    def mistwisted(*args):
        fix = original(*args)
        fix.meta["twist"] = fix.meta["twist"] * np.append(np.ones(fix.algebra.dim - 1),
                                                          1 + 1e-7)
        return fix

    monkeypatch.setattr(verify, "build_fixture", mistwisted)
    records = fixture_records(RunConfig(seed=0, max_dim=6), "group", 0)
    assert [r.name for r in records if r.verdict == "FAIL"] == ["group/000/characters-oracle"]


@pytest.mark.parametrize("family", ["semidirect", "lau"])
def test_lemma_recompose_record_can_fail(monkeypatch, family):
    # negative control: one block space map with an S_B entry off by 1e-8, ten
    # times tol_algebraic, breaks relation (iv) and fails exactly
    # lemma-recompose; the map count, which lemma-block-dim reads, is kept
    original = verify.block_space

    def perturbed(desc):
        maps = original(desc).copy()
        maps[-1, desc.subalgebra_slice.start, desc.ideal_slice.start] += 1e-8
        return maps

    monkeypatch.setattr(verify, "block_space", perturbed)
    records = fixture_records(RunConfig(seed=0, max_dim=6), family, 0)
    assert [r.name for r in records if r.verdict == "FAIL"] == [
        f"{family}/000/lemma-recompose"]


def test_lau_transport_record_can_fail(monkeypatch):
    # negative control: Phi^-1 with one entry off by 1e-6 carries the
    # product's multipliers off M(A (+) B) and fails exactly lau-transport
    from banalg import bse

    original = bse.phi_isomorphism

    def skewed(*args):
        iso = original(*args)
        inv = iso.inverse.copy()
        inv[0, 0] += 1e-6
        iso.inverse = inv
        return iso

    monkeypatch.setattr(bse, "phi_isomorphism", skewed)
    records = fixture_records(RunConfig(seed=0, max_dim=6), "lau", 0)
    assert [r.name for r in records if r.verdict == "FAIL"] == ["lau/000/lau-transport"]


@pytest.mark.parametrize("judged, record", [("product", "lau-bse-biconditional"),
                                            ("direct", "sum-bse-biconditional")])
def test_bse_biconditional_records_can_fail(monkeypatch, judged, record):
    # negative control: the BSE verdict of A x_phi B alone, or of A (+) B
    # alone, flipped fails exactly the biconditional that reads it; the
    # check-bse record reads the product's containment residuals and passes
    from banalg import bse

    cfg = RunConfig(seed=0, max_dim=6)
    desc = build_fixture("lau", cfg.seed, 0, cfg.max_dim).descriptor
    name = (desc.algebra.name if judged == "product"
            else direct_sum(desc.first, desc.second).algebra.name)
    original = bse.check_bse_property

    def flipped(algebra, *args, **kwargs):
        verdict = original(algebra, *args, **kwargs)
        if algebra.name == name:
            verdict.is_bse = not verdict.is_bse
        return verdict

    monkeypatch.setattr(bse, "check_bse_property", flipped)
    records = fixture_records(cfg, "lau", 0)
    assert [r.name for r in records if r.verdict == "FAIL"] == [f"lau/000/{record}"]


@pytest.mark.parametrize("family", ["diag", "group"])
def test_validate_record_can_fail(monkeypatch, family):
    # negative control: an associativity residual raised by 1e-6, a thousand
    # times tol_algebraic, fails exactly validate
    from banalg import algebra

    original = algebra.associativity_residual
    monkeypatch.setattr(algebra, "associativity_residual",
                        lambda alg: original(alg) + 1e-6)
    records = fixture_records(RunConfig(seed=0, max_dim=6), family, 0)
    assert [r.name for r in records if r.verdict == "FAIL"] == [f"{family}/000/validate"]


@pytest.mark.parametrize("index", [0, 1, 2])
def test_sum_multiplier_split_record_can_fail(monkeypatch, index):
    # negative control: the multiplier residual of the first parent alone
    # raised by 1e-6 says the diagonal A block of M(A (+) B) is no multiplier
    # of A, and fails exactly sum-multiplier-split
    from banalg import bse

    cfg = RunConfig(seed=0, max_dim=6)
    first = build_fixture("lau", cfg.seed, index, cfg.max_dim).descriptor.first.name
    original = bse.multiplier_residual

    def raised(alg, T):
        return original(alg, T) + (1e-6 if alg.name == first else 0.0)

    monkeypatch.setattr(bse, "multiplier_residual", raised)
    records = fixture_records(cfg, "lau", index)
    assert [r.name for r in records if r.verdict == "FAIL"] == [
        f"lau/{index:03d}/sum-multiplier-split"]


# Each check name `verify` emits, with the negative control that makes it FAIL.
CONTROLS = {
    "bse-duality": test_bse_duality_record_can_fail,
    "characters-disjoint": test_characters_disjoint_record_can_fail,
    "characters-oracle": test_characters_oracle_record_can_fail,
    "characters-residual": test_characters_residual_record_can_fail,
    "characters-union": test_characters_union_record_can_fail,
    "check-bse": test_null_space_dimension_records_can_fail,
    "delta-weak-bai": test_delta_weak_bai_record_can_fail,
    "lemma-block-dim": test_null_space_dimension_records_can_fail,
    "lau-bse-biconditional": test_bse_biconditional_records_can_fail,
    "lau-transport": test_lau_transport_record_can_fail,
    "lemma-decompose": test_lemma_decompose_record_can_fail,
    "lemma-recompose": test_lemma_recompose_record_can_fail,
    "multiplier-sb-zero": test_multiplier_sb_zero_record_can_fail,
    "phi-iso-norm": test_phi_iso_norm_record_can_fail,
    "psi-identity": test_psi_identity_record_can_fail,
    "psi-uniqueness": test_psi_uniqueness_record_can_fail,
    "sigma-extension": test_sigma_extension_record_can_fail,
    "split-norm-additive": test_split_norm_additive_record_can_fail,
    "sum-bse-biconditional": test_bse_biconditional_records_can_fail,
    "sum-multiplier-split": test_sum_multiplier_split_record_can_fail,
    "theta-isometry": test_theta_isometry_record_can_fail,
    "theta-multiplicative": test_theta_multiplicative_record_can_fail,
    "validate": test_validate_record_can_fail,
}


def test_every_record_name_has_a_negative_control():
    cfg = RunConfig(seed=0, max_dim=6)
    names = {r.name.split("/", 2)[2] for family in FAMILIES for index in range(2)
             for r in fixture_records(cfg, family, index)}
    assert sorted(names - CONTROLS.keys()) == []  # new names need a control
    assert sorted(CONTROLS.keys() - names) == []  # no stale entries
