import numpy as np
import pytest

from banalg.algebra import operator_norm, validate
from banalg.constructions import ideal_span_is_full
from banalg.fixtures import FAMILIES, build_fixture, fixture_generators
from banalg.verify import Report, RunConfig, run_verify, theorem_records

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
    serial = run_verify(RunConfig(count=1, seed=7, max_dim=4)).to_json()
    parallel = run_verify(RunConfig(count=1, seed=7, max_dim=4, jobs=2)).to_json()
    assert serial == parallel


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
    lau = lau_c_c2()
    sd = pointwise_semidirect()
    cfg = RunConfig(count=1)
    for theorem, desc in (
        ("lemma21", sd), ("prop24", sd), ("sub", sd),
        ("lemma41", lau), ("theta", lau), ("tim2", lau), ("lau-bse", lau),
    ):
        records = theorem_records(desc, theorem, cfg)
        assert records, theorem
        assert all(r.verdict in ("PASS", "SKIP") for r in records), (
            theorem, [(r.name, r.verdict, r.detail) for r in records]
        )


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
