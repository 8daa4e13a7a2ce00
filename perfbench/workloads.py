"""The benchmark's workloads: seeded inputs, the timed op and its correctness checks.

Each workload yields its inputs in rounds; the timed loop stops only between
rounds, so a round holds inputs of the mix the workload's metrics describe.
`check` returns None for a correct output, ("refused", msg) when the program
declined the input with a typed error, or ("wrong", msg) for a wrong output.
`gates` run once per run and return mismatch messages.
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

from banalg import bse, constructions, jsonio, spectra, verify
from banalg.algebra import Algebra
from banalg.fixtures import FAMILIES

HERE = os.path.dirname(os.path.abspath(__file__))
WARM_UP_SEED = 1_000_003  # fixed, so every --seed pays the same set-up; never measured


class VerifySmall:
    """verify.fixture_records at max_dim=6, one op per index across all families."""

    name = "verify_small"
    trace_rounds = 5  # 20 fixtures, the shape of run_verify(count=5)
    reference_path = os.path.join(HERE, "reference", "verify_small.json")
    determinism_ops = 2

    @staticmethod
    def config(seed: int) -> verify.RunConfig:
        return verify.RunConfig(seed=seed, max_dim=6, jobs=1)

    @staticmethod
    def records(cfg: verify.RunConfig, index: int) -> list:
        return [r for family in FAMILIES for r in verify.fixture_records(cfg, family, index)]

    def rounds(self, seed: int):
        cfg = self.config(seed)
        for index in itertools.count():
            yield [(cfg, index)]

    def op(self, inp):
        records = self.records(*inp)
        return records, jsonio.render_json([r.to_dict() for r in records])

    def check(self, inp, out):
        records, _ = out
        fails = [r for r in records if r.verdict == "FAIL"]
        if not fails:
            return None
        kind = "refused" if all(r.name.endswith("/error") for r in fails) else "wrong"
        return kind, f"{fails[0].name}: {fails[0].detail or fails[0].residual}"

    def warm_up(self):
        self.op((self.config(WARM_UP_SEED), 0))

    def gates(self, done) -> list[str]:
        bad = []
        # the same seed renders byte-identical reports
        first = done[: self.determinism_ops]
        again = "".join(self.op(inp)[1] for inp, _ in first)
        if again != "".join(out[1] for _, out in first):
            bad.append("report bytes differ between two runs with the same seed")
        # verdicts by record name against the stored reference
        with open(self.reference_path) as fh:
            ref = json.load(fh)
        cfg = self.config(ref["seed"])
        got = {r.name: r.verdict
               for index in range(ref["indices"]) for r in self.records(cfg, index)}
        for name in sorted(set(got) | set(ref["verdicts"])):
            want = ref["verdicts"].get(name)
            if got.get(name) != want:
                bad.append(f"{name}: verdict {got.get(name)} != reference {want}")
        return bad


ORDERS_16 = ([16], [2, 8], [4, 4], [2, 2, 4], [2, 2, 2, 2])
ORDERS_12 = ([12], [3, 4], [2, 6], [2, 2, 3])


def twisted_group_algebra(rng: np.random.Generator, orders: list[int]):
    """l1(H) with basis vectors rescaled by random unit phases, and its characters.

    The twist keeps every input content-distinct; the closed-form character
    table of the twisted algebra is the group's table times the twist.
    """
    base = constructions.finite_abelian_group_algebra(orders)
    theta = np.exp(2j * np.pi * rng.random(base.dim))
    theta[0] = 1.0  # the group identity, which carries the unit
    c = base.structure * theta[:, None, None] * theta[None, :, None] / theta[None, None, :]
    alg = Algebra(f"{base.name}~", base.weights, c, unit=base.unit / theta)
    return alg, constructions.group_character_values(orders) * theta


class BseDim16:
    """bse.check_bse_property on twisted group algebras of order 16 and 12."""

    name = "bse_dim16"
    trace_rounds = 1
    per_round_12 = 5  # order-12 ops after each order-16 op

    def rounds(self, seed: int):
        rng = np.random.default_rng([seed, 16])
        while True:
            picks = [ORDERS_16[rng.integers(len(ORDERS_16))]]
            picks += [ORDERS_12[rng.integers(len(ORDERS_12))]
                      for _ in range(self.per_round_12)]
            yield [twisted_group_algebra(rng, orders) for orders in picks]

    def op(self, inp):
        alg, _ = inp
        return bse.check_bse_property(alg)

    def check(self, inp, out):
        alg, closed = inp
        if not (out.is_bse and out.semisimple):
            return "wrong", f"{alg.name}: is_bse={out.is_bse} semisimple={out.semisimple}"
        if out.multiplier_hat_dim != alg.dim:
            return "wrong", f"{alg.name}: hat dimension {out.multiplier_hat_dim} != {alg.dim}"
        expected = spectra.CharacterSet(
            alg, [spectra.Character(alg, row) for row in closed], provenance="closed_form")
        try:
            _, dist = spectra.match_character_sets(out.characters, expected, threshold=1e-6)
        except spectra.SpectraError as exc:
            return "wrong", f"{alg.name}: {exc}"
        if dist > 1e-10:
            return "wrong", f"{alg.name}: characters {dist:.3e} from the closed form"
        return None

    def warm_up(self):
        inp = twisted_group_algebra(np.random.default_rng([WARM_UP_SEED, 16]), ORDERS_12[0])
        self.check(inp, self.op(inp))

    def gates(self, done) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (VerifySmall(), BseDim16())}
