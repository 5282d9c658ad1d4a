"""The three benchmark workloads: census, rings and maslov.

Each workload is a closed loop with one client: the next item starts only
when the previous one has finished. Items come in cycles. A cycle has a
fixed composition (the same shapes, ring sessions or loop sizes for every
seed), and the seed picks the concrete inputs inside that composition and
the order of each cycle, so two seeds load the program alike while the
inputs differ.

A workload object offers ``setup`` (import the package and build inputs),
``spec`` (the input of item i), ``run`` (the timed program work of one
item), ``check`` (oracles on the outputs, untimed) and ``cold_commands``
(small CLI invocations for the cold-start metric).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

GOLDEN = Path("tests") / "golden"


def run_cli(args, span):
    """Run one floeralg command in this process; returns (exit, stdout, stderr)."""
    from floeralg import cli

    out, err = io.StringIO(), io.StringIO()
    code = 0
    with span("cli.main"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=list(args), prog_name="floeralg", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code or 0
    return code, out.getvalue(), err.getvalue()


def cycle_order(name, seed, cycle, size):
    rng = random.Random(f"{name}/{seed}/cycle{cycle}")
    return rng.sample(range(size), size)


# -- census --------------------------------------------------------------------


class Census:
    """One item follows the README flow for one census complex: the body of
    ``floeralg corpus`` for one seed, then ``floeralg ss run`` on the file it
    wrote. Every item is a new complex, so no input repeats."""

    name = "census"
    # Total dimension 14..48 (the cap is 64); dense patterns and sparse ones
    # with empty degrees. Each pattern runs once at every NL in 2..7.
    PATTERNS = ("2,6,10,12,10,6,2", "3,5,7,7,5,3", "4,8,8,4", "1,2,4,6,6,4,2,1",
                "2,0,0,6,0,4,0,2", "4,0,6,0,6,0,4", "3,0,5,0,0,7,0,3",
                "2,0,8,0,8,0,2,0,2")
    NLS = range(2, 8)

    def setup(self, seed, work):
        import floeralg.cli  # noqa: F401

        self.seed = seed
        self.out = work / "census"
        self.out.mkdir(parents=True, exist_ok=True)
        self.shapes = [(p, nl) for p in self.PATTERNS for nl in self.NLS]
        self.cycle_len = len(self.shapes)

    def spec(self, i):
        cycle, pos = divmod(i, self.cycle_len)
        pattern, nl = self.shapes[cycle_order(self.name, self.seed, cycle,
                                              self.cycle_len)[pos]]
        return {"pattern": pattern, "NL": nl, "census_seed": self.seed * 1_000_000 + i}

    def key(self, spec):
        return (spec["pattern"], spec["NL"], spec["census_seed"])

    def run(self, spec, span):
        corpus = run_cli(["corpus", "--seed", str(spec["census_seed"]), "--count", "1",
                          "--dims", spec["pattern"], "--maslov", str(spec["NL"]),
                          "--out", str(self.out)], span)
        path = self.out / f"complex_{spec['census_seed']:06d}.json"
        ss = run_cli(["ss", "run", str(path)], span)
        return {"corpus": corpus, "ss": ss, "path": path}

    def check(self, spec, outcome):
        from floeralg import floercomplex as fcx

        errors = []
        code, out, err = outcome["corpus"]
        corpus = json.loads(out) if code == 0 else None
        if corpus is None:
            errors.append(f"corpus exited {code}: {err.strip()}")
        else:
            item = corpus["items"][0]
            flags = [k for k in ("d_squared", "convergence", "census", "e1", "ok")
                     if item[k] is not True]
            if flags or corpus["passed"] != 1:
                errors.append(f"corpus flags false: {flags}")
        code, out, err = outcome["ss"]
        if code != 0:
            errors.append(f"ss run exited {code}: {err.strip()}")
        else:
            report = json.loads(out)
            if report["convergence"]["ok"] is not True:
                errors.append("ss run convergence not ok")
            nl = spec["NL"]
            einf = {r: 0 for r in range(nl)}
            for m, d in report["einf_dims"].items():
                einf[int(m) % nl] += d
            dims = tuple(int(x) for x in spec["pattern"].split(","))
            _, expected = fcx.random_complex_census(spec["census_seed"], dims, nl)
            if einf != expected:
                errors.append(f"E_inf residue dims {einf} != census {expected}")
        outcome["path"].unlink(missing_ok=True)
        return errors

    def cold_commands(self):
        return [(["ss", "run", str(GOLDEN / "t2_complex.json")],
                 (GOLDEN / "ss_run_t2.json").read_text(encoding="utf-8"), 0)]


# -- rings -----------------------------------------------------------------------


class Rings:
    """One item is a session on one graded ring, read back through
    ``ring_from_dict``: Audin verdicts over the NL grid, the RP^n driver where
    it applies, shift -1 derivations, the Maslov-two disc argument and, on
    the smaller rings, page products of the complex on the ring."""

    name = "rings"
    # (kind, n, nonzero Morse boundary). Exterior algebras of rank 2..8 and
    # F2[a]/(a^(n+1)) for n = 5..13. Derivations are enumerated and page
    # products built on the truncated rings and on exterior rings of rank
    # <= 5, where that stays around a second per item. Session costs span
    # two decades, and an exterior session's cost moves by up to a quarter
    # with the derivation its seed draws, while a truncated session has
    # none to draw. So the 23 sessions are laid out by cost for the median
    # (12th) and the 75th percentile (18th) to fall in the middle of three
    # alike truncated sessions, F2[a]/(a^11) and F2[a]/(a^13), with 15-30%
    # cost gaps to the sessions on either side.
    SESSIONS = (("exterior", 2, False), ("exterior", 3, False), ("exterior", 3, True),
                ("exterior", 4, False), ("exterior", 5, False), ("exterior", 5, True),
                ("exterior", 6, False), ("exterior", 7, False), ("exterior", 7, False),
                ("exterior", 8, False)
                ) + tuple(("truncated", n, False)
                          for n in (5, 6, 7, 8, 9, 10, 10, 10, 11, 12, 12, 12, 13))
    MAX_PRODUCT_RANK = 5

    def setup(self, seed, work):
        from floeralg import gradedalg, serialize

        self.seed = seed
        self.rings = {}
        for kind, n, _ in self.SESSIONS:
            if (kind, n) not in self.rings:
                ring = (gradedalg.build_exterior(n) if kind == "exterior"
                        else gradedalg.build_truncated_poly(n))
                self.rings[(kind, n)] = (ring.label, serialize.ring_to_dict(ring))
        # The op_1 derivation (and the Morse boundary) of each session's
        # complex, drawn once per seed. Values are positions among the
        # degree-1 generators; a derivation maps the listed ones to the unit.
        self.pool = []
        for slot, (kind, n, boundary) in enumerate(self.SESSIONS):
            rng = random.Random(f"{self.name}/{seed}/slot{slot}")
            up = None
            if kind == "truncated":
                down = (0,) if n % 2 else ()
            elif boundary:
                a, b, c = rng.sample(range(n), 3)
                down, up = (a,), (a, b, c)  # up: x_a -> x_b x_c
            else:
                down = tuple(sorted(rng.sample(range(n), (n + 1) // 2)))
            self.pool.append({"kind": kind, "n": n, "down": down, "up": up})
        self.cycle_len = len(self.pool)

    def spec(self, i):
        cycle, pos = divmod(i, self.cycle_len)
        return self.pool[cycle_order(self.name, self.seed, cycle, self.cycle_len)[pos]]

    def key(self, spec):
        return (spec["kind"], spec["n"], spec["down"], spec["up"])

    def _products(self, spec):
        return spec["kind"] == "truncated" or spec["n"] <= self.MAX_PRODUCT_RANK

    def run(self, spec, span):
        from floeralg import floercomplex, gradedalg, serialize, spectral, theorems

        kind, n = spec["kind"], spec["n"]
        label, data = self.rings[(kind, n)]
        ring = serialize.ring_from_dict(data, label=label)
        out = {"ring": ring}
        out["verdicts"] = {nl: theorems.audin_general(ring, nl, True).verdict
                           for nl in range(2, ring.top_degree() + 3)}
        if kind == "truncated":
            out["rpn"] = [theorems.rpn_driver(n, nl) for nl in range(3, n + 3)]
        if self._products(spec):
            out["derivations"] = len(gradedalg.enumerate_derivations(ring, -1))
        if kind == "exterior":
            out["maslov_two"] = theorems.maslov_two_disc_argument(n)
        if self._products(spec):
            gens = ring.degree_basis(1)
            down = gradedalg.derivation_from_generator_values(
                ring, -1, {gens[p]: ring.one() for p in spec["down"]})
            up = None
            if spec["up"] is not None:
                a, b, c = spec["up"]
                up = gradedalg.derivation_from_generator_values(
                    ring, 1, {gens[a]: ring.mul(frozenset({gens[b]}),
                                                frozenset({gens[c]}))})
            fc = floercomplex.complex_from_ring(ring, 2, derivation=down, boundary=up,
                                                with_products=True)
            pages = spectral.run_to_collapse(fc, paranoid=True).pages
            out["fc"] = fc
            out["pages"] = spectral.induced_page_product(pages, fc, paranoid=True)
        return out

    def check(self, spec, outcome):
        errors = []
        kind, n = spec["kind"], spec["n"]
        for nl, verdict in outcome["verdicts"].items():
            if (verdict == "contradiction") != (nl >= 3):
                errors.append(f"audin NL={nl} verdict {verdict}")
        for rep in outcome.get("rpn", ()):
            if rep.hf_total_rank != n + 1 or rep.intersection_bound != n + 1:
                errors.append(f"rpn NL={rep.NL} rank {rep.hf_total_rank}")
        if "derivations" in outcome:
            want = 2 ** n if kind == "exterior" else (2 if n % 2 else 1)
            if outcome["derivations"] != want:
                errors.append(f"{outcome['derivations']} shift -1 derivations, "
                              f"expected {want}")
        if "maslov_two" in outcome and not outcome["maslov_two"].all_top_nonvanishing:
            errors.append("maslov_two_disc_argument: top class not hit")
        if "pages" in outcome:
            errors += _page_one_product_errors(outcome["ring"], outcome["fc"],
                                               outcome["pages"][1])
        return errors

    def cold_commands(self):
        return [(["audin", "torus", "--n", "3", "--maslov", "4", "--displaceable"],
                 (GOLDEN / "audin_torus_3_4.json").read_text(encoding="utf-8"), 0),
                (["ring", "rp", "--n", "3"],
                 (GOLDEN / "ring_rp_3.json").read_text(encoding="utf-8"), 0)]


def _page_one_product_errors(ring, fc, page):
    """The page-1 product table must be the ring multiplication of the
    representatives, taken through the ring's own table and projected to
    page-1 classes."""
    cpos = {i: fc.morse.position_of(ring.basis[i].name) for i in range(ring.dim)}
    ring_index = {p: i for i, p in cpos.items()}
    for (m1, m2), table in page.product.items():
        mt = m1 + m2
        for i, q1 in enumerate(page.reps(m1)):
            a = frozenset(ring_index[p] for p in fc.vec_to_chain(q1, m1))
            for j, q2 in enumerate(page.reps(m2)):
                b = frozenset(ring_index[p] for p in fc.vec_to_chain(q2, m2))
                prod = ring.mul(a, b)
                if mt > fc.dimL:
                    want = 0 if not prod else None
                else:
                    vec = fc.chain_to_vec(frozenset(cpos[k] for k in prod), mt)
                    want = page.class_coords(mt, vec)
                if table[i][j] != want:
                    return [f"page-1 product ({m1},{m2})[{i}][{j}] = "
                            f"{table[i][j]}, ring gives {want}"]
    return []


# -- maslov ------------------------------------------------------------------------


class Maslov:
    """One item is the body of ``floeralg maslov index`` on a loop file made
    at setup. Each loop is U diag(exp(i pi k_j t)) R for a fixed unitary U and
    a real invertible frame R, so its Maslov index is sum(k_j) by
    construction."""

    name = "maslov"
    # (n, samples, undersampled). Each frame has its own scale, log-uniform
    # in 1e-3..1e3, so every loop mixes the whole range; the polar iteration
    # in maslov_index takes more steps the further a frame's scale is from
    # 1, so this also makes a loop's cost depend on its shape alone. One loop
    # in thirteen is undersampled: every det^2 step lands in [pi/2, pi), and
    # the sampling guard must fire. The loops are laid out by cost for the
    # median (7th) and the 75th percentile (10th) to fall in the middle of
    # three loops of one shape, (3, 512) and (6, 256), with 20-40% cost gaps
    # to the loops on either side.
    LOOPS = ((2, 256, True), (2, 256, False), (3, 256, False), (4, 256, False),
             (2, 512, False), (3, 512, False), (3, 512, False), (3, 512, False),
             (6, 256, False), (6, 256, False), (6, 256, False), (3, 1024, False),
             (5, 512, False))

    def setup(self, seed, work):
        import floeralg.cli  # noqa: F401
        import numpy as np

        self.seed = seed
        self.dir = work / "maslov"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.pool = []
        for slot, (n, samples, guard) in enumerate(self.LOOPS):
            rng = np.random.default_rng([seed, slot])
            if guard:
                total = int(rng.integers(72, 121))  # step 2*pi*total/samples
                ks = [total // 2, total - total // 2] + [0] * (n - 2)
            else:
                ks = [int(k) for k in rng.integers(-2, 3, size=n)]
            path = self.dir / f"loop_{slot:02d}.json"
            _write_loop(path, rng, n, samples, ks)
            self.pool.append({"path": path, "n": n, "samples": samples,
                              "index": sum(ks), "guard": guard})
        self.cycle_len = len(self.pool)
        self.small = self.dir / "small_loop.json"
        _write_loop(self.small, np.random.default_rng([seed, 1000]), 2, 64, [1, 0])

    def spec(self, i):
        cycle, pos = divmod(i, self.cycle_len)
        return self.pool[cycle_order(self.name, self.seed, cycle, self.cycle_len)[pos]]

    def key(self, spec):
        return str(spec["path"])

    def run(self, spec, span):
        return run_cli(["maslov", "index", str(spec["path"])], span)

    def check(self, spec, outcome):
        code, out, err = outcome
        if spec["guard"]:
            if code != 3:
                return [f"undersampled loop exited {code}, expected the guard (3)"]
            return []
        if code != 0:
            return [f"maslov index exited {code}: {err.strip()}"]
        data = json.loads(out)
        if data["index"] != spec["index"] or data["samples"] != spec["samples"]:
            return [f"index {data['index']} over {data['samples']} samples, "
                    f"expected {spec['index']} over {spec['samples']}"]
        return []

    def cold_commands(self):
        code, out, err = run_cli(["maslov", "index", str(self.small)],
                                 contextlib.nullcontext)
        if code != 0 or json.loads(out)["index"] != 1:
            raise RuntimeError(f"small loop: exit {code}, {out or err}")
        return [(["maslov", "index", str(self.small)], out, 0)]


def _write_loop(path, rng, n, samples, ks):
    """Write U diag(exp(i pi k t)) R_t, t = s/samples, as a loop JSON file.

    R_t = c_t * Q * diag(sigma) with Q orthogonal, sigma in [1/4, 1] and c_t
    log-uniform in 1e-3..1e3, so c_t is the spectral norm of frame t. A
    positive real factor changes neither the subspace a frame spans nor the
    phase of det^2, so the index is sum(k) whatever the c_t.
    """
    import numpy as np

    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    r = q * rng.uniform(0.25, 1.0, size=n)
    t = np.arange(samples) / samples
    phases = np.exp(1j * math.pi * np.outer(t, ks))
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=samples)
    frames = scales[:, None, None] * ((u[None] * phases[:, None, :]) @ r)
    pairs = np.stack([frames.real, frames.imag], axis=-1)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": n, "samples": pairs.tolist()}, fh)


WORKLOADS = {"census": Census, "rings": Rings, "maslov": Maslov}
