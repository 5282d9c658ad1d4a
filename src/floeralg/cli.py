"""Command-line front end.

Exit-code contract: 0 is a positive mathematical verdict (or plain
success), 1 a negative verdict, 2 an input or validation error, 3 a
numerical-sampling guard. Stdout carries data and is byte-identical across
reruns with the same arguments and seed; diagnostics go to stderr.
"""

from __future__ import annotations

import functools
import os
import sys

import click

from . import floercomplex as fcx
from . import gradedalg, maslov, serialize, spectral, theorems
from .errors import InputError, InsufficientSampling, LiftFailure


def _engine_errors(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except InsufficientSampling as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except (InputError, LiftFailure) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
    return wrapper


def _emit(data: dict, fmt: str, table_lines) -> None:
    # click.echo's default stream is cached per sys.stdout object, and the
    # cache keeps that object alive, so a caller that runs commands in-process
    # with a fresh redirected stdout each time would retain every output; the
    # same stream fetched uncached does not.
    out = click.get_text_stream("stdout")
    if fmt == "json":
        click.echo(serialize.canonical_json(data), nl=False, file=out)
    else:
        for line in table_lines(data):
            click.echo(line, file=out)


_format_option = click.option("--format", "fmt", type=click.Choice(["json", "table"]),
                              default="json", show_default=True,
                              help="output format on stdout")


@click.group()
def main():
    """Exact F2 engine: graded rings, filtered complexes, spectral pages,
    theorem drivers and Maslov indices."""


# -- ring ---------------------------------------------------------------------


def _build_ring(kind: str, n: int) -> gradedalg.GradedRing:
    if kind == "torus":
        return gradedalg.build_exterior(n)
    return gradedalg.build_truncated_poly(n)


@main.command("ring")
@click.argument("kind", type=click.Choice(["torus", "rp"]))
@click.option("--n", type=int, required=True, help="generators / projective dim")
@_format_option
@_engine_errors
def cmd_ring(kind, n, fmt):
    """Emit the cohomology ring of the n-torus or of RP^n as canonical JSON."""
    ring = _build_ring(kind, n)
    data = serialize.ring_to_dict(ring)

    def table(d):
        dims = ring.dims_by_degree()
        yield f"ring {ring.label}: dim {ring.dim}"
        yield "degree dims: " + " ".join(f"{k}:{v}" for k, v in sorted(dims.items()))
        yield "basis: " + " ".join(b.name for b in ring.basis)
    _emit(data, fmt, table)


# -- spectral sequence --------------------------------------------------------


@main.group("ss")
def cmd_ss():
    """Spectral sequence commands."""


@cmd_ss.command("run")
@click.argument("complex_file", type=click.Path())
@click.option("--paranoid/--no-paranoid", default=True, show_default=True,
              help="verify differentials against independent second lifts")
@click.option("--verbose-pages", is_flag=True, help="include matrices in page dumps")
@_format_option
@_engine_errors
def cmd_ss_run(complex_file, paranoid, verbose_pages, fmt):
    """Run the spectral sequence of a complex file to collapse and check
    convergence against the folded homology and the window oracle."""
    fc = serialize.complex_from_dict(serialize.load_json(complex_file))
    result = spectral.run_to_collapse(fc, paranoid=paranoid)
    report = spectral.check_convergence(result)
    data = {
        "nu": fc.nu,
        "NL": fc.NL,
        "pages": [spectral.page_to_dict(p, verbose=verbose_pages)
                  for p in result.pages],
        "einf_dims": {str(m): d for m, d in result.einf_dims.items()},
        "convergence": {
            "residues": [{"residue": v.residue, "einf": v.einf,
                          "folded": v.folded, "window": v.window, "ok": v.ok}
                         for v in report.residues],
            "ok": report.ok,
        },
    }

    def table(d):
        for p in d["pages"]:
            dims = " ".join(f"{m}:{v}" for m, v in sorted(p["V"].items(),
                                                          key=lambda kv: int(kv[0])))
            yield f"page E_{p['r']}: dims {dims} collapsed={p['collapsed']}"
        yield "convergence per residue (einf / folded / window):"
        for v in d["convergence"]["residues"]:
            yield (f"  residue {v['residue']}: {v['einf']} / {v['folded']} / "
                   f"{v['window']} {'ok' if v['ok'] else 'MISMATCH'}")
        yield f"convergence ok: {d['convergence']['ok']}"
    _emit(data, fmt, table)
    sys.exit(0 if report.ok else 1)


# -- theorem drivers -----------------------------------------------------------


@main.command("audin")
@click.argument("kind", type=click.Choice(["torus", "ring"]))
@click.option("--n", type=int, help="torus dimension (kind=torus)")
@click.option("--ring-file", type=click.Path(), help="ring JSON (kind=ring)")
@click.option("--maslov", "nl", type=int, required=True, help="minimal Maslov number")
@click.option("--displaceable", is_flag=True,
              help="assume displaceability (forces limit homology to vanish)")
@_format_option
@_engine_errors
def cmd_audin(kind, n, ring_file, nl, displaceable, fmt):
    """Run the vanishing induction; exit 0 on contradiction, 1 on consistent."""
    if kind == "torus":
        if n is None:
            raise click.UsageError("kind=torus requires --n")
        verdict = theorems.audin_torus(n, nl, displaceable)
    else:
        if ring_file is None:
            raise click.UsageError("kind=ring requires --ring-file")
        ring = serialize.ring_from_dict(serialize.load_json(ring_file))
        verdict = theorems.audin_general(ring, nl, displaceable)
    for w in verdict.warnings:
        click.echo(f"warning: {w}", err=True)
    data = verdict.to_dict()

    def table(d):
        yield (f"ring {d['ring']} NL={d['NL']} nu={d['nu']} "
               f"displaceable={bool(d['hf_assumption'])}")
        yield f"pages forced equal: {d['pages_forced_equal']}"
        yield f"vanishing certificates: {len(d['certificates'])}"
        if d["witness"]:
            vals = d["witness"]["generator_values"]
            yield "witness derivation: " + " ".join(
                f"{g}->{''.join(v) if v else '0'}" for g, v in sorted(vals.items()))
        yield f"verdict: {d['verdict']}"
    _emit(data, fmt, table)
    sys.exit(0 if verdict.verdict == "contradiction" else 1)


@main.command("rp")
@click.option("--n", type=int, required=True, help="projective dimension")
@click.option("--maslov", "nl", type=int, required=True, help="minimal Maslov number")
@_format_option
@_engine_errors
def cmd_rp(n, nl, fmt):
    """Projective-space driver: limit homology rank and intersection bound."""
    report = theorems.rpn_driver(n, nl)
    data = report.to_dict()

    def table(d):
        yield f"RP^{d['n']} NL={d['NL']} nu={d['nu']}"
        yield "residue dims: " + " ".join(f"{r}:{k}" for r, k in d["hf_residue_dims"])
        yield f"HF total rank: {d['hf_total_rank']}"
        yield f"nondisplaceable: {d['nondisplaceable']}"
        yield f"intersection bound: {d['intersection_bound']}"
    _emit(data, fmt, table)


# -- derivations ----------------------------------------------------------------


@main.group("derivations")
def cmd_derivations():
    """Leibniz derivation commands."""


@cmd_derivations.command("enumerate")
@click.option("--kind", type=click.Choice(["torus", "rp"]), default=None,
              help="built-in ring family")
@click.option("--n", type=int, help="size for the built-in ring")
@click.option("--ring-file", type=click.Path(), help="ring JSON file")
@click.option("--shift", type=int, required=True, help="degree shift")
@_format_option
@_engine_errors
def cmd_derivations_enumerate(kind, n, ring_file, shift, fmt):
    """Enumerate all Leibniz derivations of the given shift."""
    if ring_file is not None:
        ring = serialize.ring_from_dict(serialize.load_json(ring_file))
    elif kind is not None:
        if n is None:
            raise click.UsageError("built-in rings require --n")
        ring = _build_ring(kind, n)
    else:
        raise click.UsageError("give either --kind with --n, or --ring-file")
    values = gradedalg.derivation_generator_values(ring, shift)
    data = {
        "ring": ring.label,
        "shift": shift,
        "count": len(values),
        "nonzero": len(values) - 1,
        "derivations": [{"generator_values": vals} for vals in values],
    }

    def table(d):
        yield f"ring {d['ring']} shift {d['shift']}: {d['count']} derivations, " \
              f"{d['nonzero']} nonzero"
        for i, dd in enumerate(d["derivations"]):
            vals = dd["generator_values"]
            yield f"  [{i}] " + " ".join(
                f"{g}->{''.join(v) if v else '0'}" for g, v in sorted(vals.items()))
    _emit(data, fmt, table)


# -- maslov ---------------------------------------------------------------------


@main.group("maslov")
def cmd_maslov():
    """Maslov index commands."""


@cmd_maslov.command("index")
@click.argument("loop_file", type=click.Path())
@_format_option
@_engine_errors
def cmd_maslov_index(loop_file, fmt):
    """Winding number of det^2 along a sampled Lagrangian loop."""
    loop = serialize.load_loop(loop_file)
    idx = maslov.maslov_index(loop)
    data = {"index": idx.value, "min_gap": round(idx.min_gap, 12),
            "samples": len(loop)}

    def table(d):
        yield f"index {d['index']}"
        yield f"min_gap {d['min_gap']}"
        yield f"samples {d['samples']}"
    _emit(data, fmt, table)


# -- corpus ---------------------------------------------------------------------


@main.command("corpus")
@click.option("--seed", type=int, required=True, help="base seed")
@click.option("--count", type=click.IntRange(min=0), required=True,
              help="number of complexes")
@click.option("--dims", required=True,
              help="comma-separated Morse-degree dimensions, e.g. 1,2,2,1")
@click.option("--maslov", "nl", type=int, required=True, help="minimal Maslov number")
@click.option("--out", type=click.Path(), required=True, help="output directory")
@click.option("--paranoid/--no-paranoid", default=True, show_default=True)
@_format_option
@_engine_errors
def cmd_corpus(seed, count, dims, nl, out, paranoid, fmt):
    """Generate a deterministic corpus, write the complexes, self-test each.

    Per complex: differential squares to zero, limit page dims match the
    folded homology and the window oracle, first-page data matches the
    independent kernel/image oracle. Exit 0 iff every complex passes.
    """
    try:
        dim_list = tuple(int(x) for x in dims.split(","))
    except ValueError:
        raise click.UsageError(f"cannot parse --dims {dims!r}")
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {out}: {exc.strerror}")
    items = []
    for i in range(count):
        item_seed = seed + i
        fc, expected = fcx.random_complex_census(item_seed, dim_list, nl)
        path = os.path.join(out, f"complex_{item_seed:06d}.json")
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(serialize.canonical_json(serialize.complex_to_dict(fc)))
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc.strerror}")
        d2_ok = fc.d2_report.ok  # assemble's check, run once per complex
        collapse = spectral.run_to_collapse(fc, paranoid=paranoid)
        conv = spectral.check_convergence(collapse)
        census_ok = {v.residue: v.folded for v in conv.residues} == expected
        dims1, deltas1 = spectral.e1_oracle(fc)
        page1 = collapse.pages[1]
        e1_ok = (all(page1.dim(m) == dims1[m] for m in range(fc.dimL + 1))
                 and all(cols == deltas1[m] for m, cols in page1.delta.items()))
        items.append({
            "seed": item_seed,
            "file": os.path.basename(path),
            "d_squared": d2_ok,
            "convergence": conv.ok,
            "census": census_ok,
            "e1": e1_ok,
            "ok": d2_ok and conv.ok and census_ok and e1_ok,
        })
    failed = [it["seed"] for it in items if not it["ok"]]
    data = {
        "count": count,
        "passed": count - len(failed),
        "failed_seeds": failed,
        "items": items,
    }

    def table(d):
        for it in d["items"]:
            yield (f"seed {it['seed']}: d2={it['d_squared']} "
                   f"conv={it['convergence']} census={it['census']} "
                   f"e1={it['e1']} -> {'pass' if it['ok'] else 'FAIL'}")
        yield f"{d['passed']}/{d['count']} passed"
    _emit(data, fmt, table)
    if failed:
        click.echo(f"failing seeds: {failed}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
