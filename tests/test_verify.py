import json
from pathlib import Path

import numpy as np
import pytest

from banalg.algebra import operator_norm, validate
from banalg.constructions import ideal_span_is_full
from banalg.fixtures import FAMILIES, build_fixture, fixture_generators
from banalg import verify
from banalg.errors import IllConditionedError
from banalg.verify import (
    THEOREMS,
    Report,
    RunConfig,
    fixture_records,
    run_verify,
    theorem_records,
)

from conftest import lau_c_c2, pointwise_semidirect


@pytest.mark.parametrize("family", FAMILIES)
def test_fixtures_validate_exactly(family):
    for fix in fixture_generators(family, seed=11, count=6):
        report = validate(fix.algebra, tol=1e-12)
        assert report.accepted, (fix.name, report.failures)


def test_lau_fixtures_certified_surjective_contractive():
    for fix in fixture_generators("lau", seed=5, count=8):
        phi = fix.descriptor.phi
        assert operator_norm(phi) <= 1.0
        assert np.linalg.matrix_rank(phi.matrix) == fix.descriptor.first.dim


def test_semidirect_fixture_span_flag_matches_rank():
    for fix in fixture_generators("semidirect", seed=5, count=10):
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


def test_theorem_records_on_bundles():
    # a bundle runs the checks of its kind once; --theorem only filters them
    cfg = RunConfig(count=1)
    for desc in (pointwise_semidirect(), lau_c_c2()):
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


def _count_calls(monkeypatch, names):
    """Count calls of `names` made through the bse and verify namespaces."""
    from banalg import bse

    calls = dict.fromkeys(names, 0)
    for module in (bse, verify):
        for name in calls:
            if hasattr(module, name):
                original = getattr(module, name)

                def counted(*args, _name=name, _original=original, **kwargs):
                    calls[_name] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    return calls


def test_lau_fixture_runs_one_product_bse_pass(monkeypatch):
    # Phi is built once, and each of A, B, A x_phi B, A (+) B gets one
    # multiplier space; the S_B = 0 check and the fixture's verdict read the
    # product's space
    calls = _count_calls(monkeypatch, ("phi_isomorphism", "multiplier_space"))
    records = fixture_records(RunConfig(seed=0, max_dim=6), "lau", 0)
    assert all(r.verdict != "FAIL" for r in records)
    assert any(r.name.endswith("/multiplier-sb-zero") and r.verdict == "PASS"
               for r in records)
    assert calls["phi_isomorphism"] == 1
    assert calls["multiplier_space"] == 4


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
    # check and A (+) B for its verdict; the product pass reuses the first three
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


def test_lau_fixture_ranks_phi_once(monkeypatch):
    # surjectivity is asked four times per sigma sample and decided once
    from banalg import bse, spectra

    cfg = RunConfig(seed=0, max_dim=6)
    phi = build_fixture("lau", cfg.seed, 0, cfg.max_dim).descriptor.phi.matrix
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
    import warnings

    from banalg.bse import SemisimplicityWarning, bse_norm_primal
    from banalg.spectra import CharacterSet, characters_numerical

    from conftest import diagonal_algebra

    alg = diagonal_algebra(3)
    S = characters_numerical(alg)
    fn = bse_norm_primal(np.array([1.0, 2.0, 3.0], dtype=complex), S, alg)
    assert fn.minimizer_unique is True  # square interpolation pins the element

    # single constraint a_0 - a_1 = 1 with equal weights: the whole segment
    # (t, t-1), t in [0, 1], is optimal, so the minimizer is not unique
    from banalg.constructions import finite_abelian_group_algebra

    z2 = finite_abelian_group_algebra([2])
    full = characters_numerical(z2)
    sign = next(ch for ch in full if np.allclose(ch.values, [1.0, -1.0]))
    partial = CharacterSet(z2, [sign], provenance="numerical")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SemisimplicityWarning)
        fn = bse_norm_primal(np.array([1.0 + 0j]), partial, z2)
    assert fn.bse_norm == pytest.approx(1.0, rel=1e-7)
    assert fn.minimizer_unique is False

    # a random complex rectangular instance has one minimizer; duplicating a
    # column of its support (same weight) keeps the norm and frees the split
    from banalg.interpolation import solve_primal

    rng = np.random.default_rng(8)
    E = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
    sigma = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    w = rng.uniform(0.5, 2.0, 7)
    sol = solve_primal(E, sigma, w)
    assert sol.unique is True
    k = int(np.argmax(np.abs(sol.a)))
    dup = solve_primal(np.concatenate([E, E[:, k:k + 1]], axis=1), sigma,
                       np.append(w, w[k]))
    assert dup.value == pytest.approx(sol.value, rel=1e-7)
    assert dup.unique is False


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(count=0)
    with pytest.raises(ValueError):
        RunConfig(tol_opt=-1.0)
    with pytest.raises(ValueError):
        RunConfig(families=("bogus",))
    # jobs < 1 would run serially unasked, and sigma_samples < 1 would make
    # every bse-duality record a vacuous PASS
    for field in ("jobs", "sigma_samples"):
        for value in (0, -3):
            with pytest.raises(ValueError, match=field):
                RunConfig(**{field: value})
