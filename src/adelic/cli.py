"""Command-line interface: exact arithmetic queries, kernel evaluation,
path simulation, solvers, and verification suites.

Conventions
-----------
* Exact rational results (phi, ppow, norm, volume, ft) print as exact
  fractions / JSON with error bound 0.
* Float results print as `value bound` where bound is the achieved error
  bound of the value.
* Every command's primary output goes to --output when given, and to
  stdout otherwise; a run writes all of its outputs or none.
* A JSON metadata sidecar (resolved config, seed, error bounds, wall time)
  is written next to --output as <output>.meta.json, or to --meta. Wall
  time lives only in the sidecar so primary outputs stay byte-stable.
* A JSON config file (--config), read by every command, supplies option
  defaults; explicit flags win.
* Exit codes: 0 ok, 2 usage or range error (an unwritable output path
  included), 3 tolerance failure, 4 indeterminate cancellation.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from . import __version__
from .errors import IndeterminateCancellation, ToleranceError
from .util import field, record

if TYPE_CHECKING:
    from .cauchy import ForcingGrid, RealGridFunction
    from .heatkernel import KernelParams
    from .radial import RadialStep


# the ValueError raised by str(int) past sys.get_int_max_str_digits()
_INT_STR_LIMIT = "for integer string conversion"


class UsageError(Exception):
    pass


@record
class RunConfig:
    """Resolved parameters of one CLI run; echoed into the sidecar."""

    command: str
    params: dict = field(default_factory=dict)
    output: Optional[str] = None
    meta: Optional[str] = None
    seed: Optional[int] = None

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "params": {k: str(v) if isinstance(v, Fraction) else v
                       for k, v in self.params.items()},
            "output": self.output,
            "seed": self.seed,
        }


@record
class RunResult:
    stdout: str = ""
    files: dict = field(default_factory=dict)  # path -> text
    error_bounds: dict = field(default_factory=dict)
    extra_meta: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# parameter resolution


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    import json

    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        # ValueError: malformed JSON, or an integer past the interpreter's
        # integer-to-string limit
        raise UsageError(f"cannot read config {path}: {exc}")
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    return data


def _fraction(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r} ({exc})")


def _float(x) -> float:
    try:
        return float(x)
    except (TypeError, ValueError):
        raise UsageError(f"not a number: {x!r}")


def _tol(x) -> float:
    tol = _float(x)
    if not (math.isfinite(tol) and tol > 0):
        raise UsageError("tol must be a positive finite number")
    return tol


def _int(x) -> int:
    try:
        return int(x)
    except (TypeError, ValueError):
        raise UsageError(f"not an integer: {x!r}")


_UNSET = object()  # optional parameter with no default value
_TRUNCATION = object()  # the field's default in markov.Truncation()

# Named options of each command, in --help order: (name, converter, default,
# help), and a dest where argparse's own would differ. They build the
# parser, and _resolve gives a handler (and its sidecar) every option that
# has a converter. A default of None makes the option required, and a dict
# maps an action to its default: an action missing from it has no such
# option. A None converter marks a file the handler reads itself.
_ALPHA = ("alpha", _float, None, "finite symbol exponent")
_OPTIONS = {
    "ft": (
        ("input", None, None, "radial step JSON file (default stdin)"),
        ("json", None, None, "inline step JSON", "json_text"),
    ),
    "kernel": (
        ("radius", _fraction, {"eval": None}, "finite norm to evaluate at"),
        ("x", _float, {"eval": _UNSET},
         "real coordinate (eval on the full adeles)"),
        ("epsilon", _fraction, {"tail": None}, "ball radius for the tail"),
        ("t", _float, None, "time"),
        _ALPHA,
        ("beta", _float, _UNSET, "real symbol exponent"),
        ("tol", _tol, {"eval": 1e-10, "normalize": 1e-6, "tail": 1e-10},
         "tolerance"),
    ),
    "simulate": (
        ("t-step", _float, None, "time step of each increment"),
        ("steps", _int, None, "number of increments"),
        _ALPHA,
        ("beta", _float, _UNSET, "real symbol exponent (adds a column)"),
        ("seed", _int, 0, "master seed (default 0)"),
        ("path-index", _int, 0, "path stream index (default 0)"),
        ("r-min", _fraction, _TRUNCATION, "truncation window lower radius"),
        ("r-max", _fraction, _TRUNCATION, "truncation window upper radius"),
        ("prime-cutoff", _int, _TRUNCATION, "stored-prime cutoff"),
        ("depth", _int, _TRUNCATION, "digits per stored component"),
    ),
    "transition": (
        ("t", _float, None, "time"),
        _ALPHA,
        ("beta", _float, _UNSET, "unused on the finite factor"),
        ("eps", _fraction, None, "ball radius"),
        ("x", str, "0", "start point (default 0)"),
        ("center", str, "0", "ball center (default 0)"),
    ),
    "solve": (
        ("t", _float, None, "evolution time"),
        _ALPHA,
        ("beta", _float, _UNSET, "real symbol exponent"),
        ("tol", _tol, {"homogeneous": 1e-10, "duhamel": 1e-10,
                       "adelic": 1e-8}, "tolerance"),
        ("input", None, None,
         "initial step JSON (homogeneous, default stdin)"),
        ("u0", None, None, "initial step JSON (duhamel, default stdin)"),
        ("forcing", None, None, "forcing grid JSON (duhamel)"),
        ("quadrature", str, {"duhamel": "Simpson"}, "Trapezoid or Simpson"),
        ("steps", _int, {"duhamel": 64}, "quadrature step count"),
        ("real", None, None, "real grid CSV (adelic)"),
        ("fin", None, None,
         "finite factor step JSON (adelic, default stdin)"),
        ("finite-output", None, None, "finite factor output path"),
    ),
}
_COMMON = (
    ("config", None, None, "JSON file with default parameters"),
    ("output", None, None, "write primary output to this file"),
    ("meta", None, None, "write the JSON metadata sidecar here"),
)
# Positionals of each command, in argument order: (name, converter,
# choices, nargs). They have no config key and no default; an optional one
# (nargs "?") that is absent is left out of the params. A None converter
# marks the action, which names the command (`kernel eval`) and is not a
# parameter.
_POSITIONALS = {
    "phi": (("x", _fraction, None, None),),
    "ppow": (
        ("action", None, ("next", "prev", "range"), None),
        ("x", _fraction, None, None),
        ("y", _fraction, None, "?"),
    ),
    "norm": (("point", str, None, None), ("point2", str, None, "?")),
    "volume": (
        ("kind", str, ("ball", "sphere"), None),
        ("radius", _fraction, None, None),
    ),
    "kernel": (("action", None, ("eval", "normalize", "tail"), None),),
    "solve": (("action", None, ("homogeneous", "duhamel", "adelic"), None),),
    "verify": (("suite", str, None, None),),
}


def _resolve(args) -> dict:
    """The command's parameters: its positionals, converted, then its
    options, each flag over its config key (a null value counts as absent)
    over its default. A config value is converted from its text, by the
    flag's rules: {"steps": 2.7} is refused as --steps 2.7 is."""
    config = _load_config(args.config)
    out = {}
    for name, conv, *_ in _POSITIONALS.get(args.command, ()):
        raw = getattr(args, name)
        if conv is not None and raw is not None:
            out[name] = conv(raw)
    for name, conv, default, *_ in _OPTIONS.get(args.command, ()):
        if conv is None:
            continue
        dest = name.replace("-", "_")
        if isinstance(default, dict):
            if args.action not in default:
                continue
            default = default[args.action]
        elif default is _TRUNCATION:
            from .markov import Truncation

            default = getattr(Truncation(), dest)
        raw = getattr(args, dest)
        if raw is None:
            raw = config.get(name)
            if raw is not None and not isinstance(raw, str):
                raw = str(raw)
        if raw is None:
            raw = default
        if raw is None:
            raise UsageError(f"missing required parameter --{name}")
        out[name] = None if raw is _UNSET else conv(raw)
    return out


def _kernel_params(p) -> KernelParams:
    from .heatkernel import KernelParams

    return KernelParams(t=p["t"], alpha=p["alpha"], beta=p.get("beta"))


def _read_step(path: Optional[str], inline: Optional[str]) -> RadialStep:
    import json

    from .radial import RadialStep

    if inline is not None:
        text = inline
    elif path is not None:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {path}: {exc}")
    else:
        text = sys.stdin.read()
    try:
        return RadialStep.from_json(text)
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise UsageError(f"bad radial step JSON: {exc}")


def _read_forcing(path: str) -> ForcingGrid:
    import json

    from .cauchy import ForcingGrid
    from .radial import RadialStep

    try:
        with open(path) as fh:
            data = json.load(fh)
        if not (isinstance(data, dict)
                and isinstance(data.get("times"), list)
                and isinstance(data.get("steps"), list)):
            raise ValueError(
                "expected a JSON object with 'times' and 'steps' lists"
            )
        times = tuple(float(t) for t in data["times"])
        steps = tuple(RadialStep.from_dict(d) for d in data["steps"])
        interp = data.get("interpolation", "linear")
    except (OSError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise UsageError(f"bad forcing grid {path}: {exc}")
    if interp != "linear":
        raise UsageError(f"bad forcing grid {path}: unsupported "
                         f"interpolation rule {interp!r}")
    return ForcingGrid(times=times, steps=steps)


def _read_real_grid(path: str) -> RealGridFunction:
    from .cauchy import RealGridFunction

    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    if not lines or lines[0].split(",")[:2] != ["x", "value"]:
        raise UsageError(f"{path} must start with an 'x,value' header")
    xs, vals = [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 2:
            raise UsageError(f"bad grid row {ln!r}")
        xs.append(float(parts[0]))
        vals.append(float(parts[1]))
    if len(xs) < 2:
        raise UsageError("real grid needs at least two samples")
    dx = (xs[-1] - xs[0]) / (len(xs) - 1)
    if dx <= 0:
        raise UsageError("grid x column must increase")
    for i, x in enumerate(xs):
        if abs(x - (xs[0] + i * dx)) > 1e-9 * max(1.0, abs(x)):
            raise UsageError("grid spacing is not uniform")
    return RealGridFunction(x0=xs[0], dx=dx, values=tuple(vals))


def _result_json(result) -> tuple[str, float]:
    """Serialize a solver result; returns (json text, error bound)."""
    import json

    from .cauchy import EvaluableRadial
    from .radial import RadialStep

    if isinstance(result, RadialStep):
        payload = {"exact": True, "error_bound": 0.0}
        payload.update(result.to_dict())
        return json.dumps(payload, sort_keys=True), 0.0
    assert isinstance(result, EvaluableRadial)
    payload = {
        "exact": False,
        "error_bound": result.error_bound,
        "tol": result.tol,
        "pieces": [
            {
                "scale": p.scale,
                "ball_radius": str(p.rho),
                "kind": p.kind,
                "exponent": p.exponent,
                "time": p.time,
            }
            for p in result.pieces
        ],
    }
    payload.update(result.step.to_dict())
    return json.dumps(payload, sort_keys=True), result.error_bound


# --------------------------------------------------------------------------
# handlers: each computes from args and its resolved params, and returns a
# RunResult whose stdout is the primary output


def _cmd_phi(args, p):
    from .primepow import phi

    return RunResult(stdout=f"{phi(p['x'])}\n", error_bounds={"value": 0.0})


def _cmd_ppow(args, p):
    from .primepow import next_pp, pp_range, prev_pp

    if args.action != "range":
        fn = next_pp if args.action == "next" else prev_pp
        return RunResult(
            stdout=f"{fn(p['x']).value}\n", error_bounds={"value": 0.0}
        )
    if "y" not in p:
        raise UsageError("ppow range: missing upper bound")
    p["lo"], p["hi"] = p.pop("x"), p.pop("y")  # the sidecar's names
    return RunResult(
        stdout="".join(f"{q.value}\n" for q in pp_range(p["lo"], p["hi"])),
        error_bounds={"values": 0.0},
    )


def _cmd_norm(args, p):
    from .adele import distance, norm, parse_point

    x = parse_point(p["point"])
    if "point2" in p:
        value = distance(x, parse_point(p["point2"]))
    else:
        value = norm(x)
    return RunResult(stdout=f"{value}\n", error_bounds={"value": 0.0})


def _cmd_volume(args, p):
    from .adele import ball, haar_volume, sphere

    radius = p["radius"]
    region = ball(radius) if p["kind"] == "ball" else sphere(radius)
    value = haar_volume(region)
    return RunResult(stdout=f"{value}\n", error_bounds={"value": 0.0})


def _cmd_ft(args, p):
    p["input"] = args.input  # the sidecar names the step file
    step = _read_step(args.input, args.json_text)
    out = step.ft().to_json()
    return RunResult(stdout=out + "\n", error_bounds={"coeffs": 0.0})


def _cmd_kernel(args, p):
    from .heatkernel import (
        _z_real_and_error,
        normalization,
        tail_mass_bound,
        upper_tail_mass,
        z_finite,
    )

    params = _kernel_params(p)
    if args.action == "eval":
        quad_err = 0.0
        if p["x"] is not None:
            real, quad_err = _z_real_and_error(p["x"], params, p["tol"])
            fin = z_finite(p["radius"], params, tol=p["tol"])
            value = real * fin
        else:
            value = z_finite(p["radius"], params, tol=p["tol"])
        bound = abs(value) * p["tol"]
        if quad_err:
            # the real factor's quadrature error, which tol does not bound
            bound += 2.0 * quad_err * fin
        # the float value can miss the true one by half its spacing,
        # whatever tol is
        bound = max(bound, math.ulp(value) / 2)
        return RunResult(
            stdout=f"{value:.17g} {bound:.3e}\n",
            error_bounds={"value": bound},
        )
    if args.action == "normalize":
        value = normalization(params, tol=p["tol"])
        achieved = abs(value - 1.0)
        if achieved > p["tol"]:
            raise ToleranceError(
                f"normalization defect {achieved:.2e} exceeds tol {p['tol']:.2e}"
            )
        return RunResult(
            stdout=f"{value:.17g} {achieved:.3e}\n",
            error_bounds={"value": achieved},
        )
    mass = upper_tail_mass(p["epsilon"], params)
    bound = tail_mass_bound(p["epsilon"], params)
    return RunResult(
        stdout=f"{mass:.17g} {bound:.17g}\n",
        error_bounds={"mass": mass * 1e-12, "a_priori_bound": 0.0},
    )


def _cmd_simulate(args, p):
    from .heatkernel import KernelParams
    from .markov import Truncation, sample_path

    params = KernelParams(t=p["t-step"], alpha=p["alpha"], beta=p["beta"])
    trunc = Truncation(
        r_min=p["r-min"], r_max=p["r-max"],
        prime_cutoff=p["prime-cutoff"], depth=p["depth"],
    )
    path = sample_path(
        params, p["steps"], p["t-step"], trunc=trunc,
        seed=p["seed"], path_index=p["path-index"],
    )
    return RunResult(
        stdout=path.to_csv(),
        error_bounds={"radii": 0.0},
        extra_meta={
            "tail_resamples": path.tail_resamples,
            "cancel_resamples": path.cancel_resamples,
        },
    )


def _cmd_transition(args, p):
    from .adele import parse_point
    from .markov import _transition_with_bound

    value, bound = _transition_with_bound(
        _kernel_params(p), parse_point(p["x"]), parse_point(p["center"]),
        p["eps"],
    )
    return RunResult(
        stdout=f"{value:.17g} {bound:.3e}\n", error_bounds={"value": bound}
    )


def _cmd_solve(args, p):
    from .cauchy import (
        SymbolSpec,
        solve_adelic,
        solve_homogeneous,
        solve_nonhomogeneous,
    )

    symbol = SymbolSpec(alpha=p["alpha"], beta=p["beta"])
    if args.action == "homogeneous":
        u0 = _read_step(args.input, None)
        result = solve_homogeneous(u0, p["t"], symbol, tol=p["tol"])
    elif args.action == "duhamel":
        if args.forcing is None:
            raise UsageError("solve duhamel requires --forcing")
        u0 = _read_step(args.u0, None)
        forcing = _read_forcing(args.forcing)
        result = solve_nonhomogeneous(
            u0, forcing, p["t"], symbol,
            quadrature=p["quadrature"], tol=p["tol"], steps=p["steps"],
        )
    else:
        if symbol.beta is None:
            raise UsageError("solve adelic requires --beta")
        if not args.output:
            raise UsageError("solve adelic requires --output for the grid")
        if args.real is None:
            raise UsageError("solve adelic requires --real")
        grid = _read_real_grid(args.real)
        fin = _read_step(args.fin, None)
        real_out, fin_out = solve_adelic(grid, fin, p["t"], symbol, tol=p["tol"])
        fin_text, fin_bound = _result_json(fin_out)
        fin_path = args.finite_output or args.output + ".finite.json"
        return RunResult(
            stdout=real_out.to_csv(),
            files={fin_path: fin_text + "\n"},
            error_bounds={"real_grid": p["tol"], "finite": fin_bound},
        )
    text, bound = _result_json(result)
    return RunResult(stdout=text + "\n", error_bounds={"solution": bound})


def _cmd_verify(args, p):
    from .checks import run_suite

    results = run_suite(p["suite"])
    lines = [r.line() for r in results]
    ok = all(r.passed for r in results)
    lines.append(
        f"{sum(r.passed for r in results)}/{len(results)} checks passed"
    )
    result = RunResult(
        stdout="".join(f"{ln}\n" for ln in lines),
        extra_meta={
            "elapsed": {r.name: round(r.elapsed, 3) for r in results}
        },
    )
    return result, (0 if ok else 1)


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adelic",
        description="analysis on the adeles: exact arithmetic, kernels, "
        "simulation, solvers",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, text in (
        ("phi", _cmd_phi, "exact ball volume function"),
        ("ppow", _cmd_ppow, "prime-power order queries"),
        ("norm", _cmd_norm, "adelic norm (or distance of two points)"),
        ("volume", _cmd_volume, "exact Haar volume of a ball or sphere"),
        ("ft", _cmd_ft, "exact radial Fourier transform"),
        ("kernel", _cmd_kernel, "heat kernel evaluation and tails"),
        ("simulate", _cmd_simulate, "sample one jump-process path, CSV"),
        ("transition", _cmd_transition, "P(t, x, ball of radius eps)"),
        ("solve", _cmd_solve, "parabolic solvers"),
        ("verify", _cmd_verify, "run an acceptance/invariant suite"),
    ):
        sp = sub.add_parser(name, help=text)
        for option, _, _, help_text, *dest in (*_OPTIONS.get(name, ()),
                                               *_COMMON):
            sp.add_argument(f"--{option}", dest=dest[0] if dest else None,
                            help=help_text)
        for positional, _, choices, nargs in _POSITIONALS.get(name, ()):
            sp.add_argument(positional, choices=choices, nargs=nargs)
        sp.set_defaults(handler=handler)
    return parser


# --------------------------------------------------------------------------
# driver


def _write_all(files: dict) -> None:
    """Write each {path: text} or none: all are opened before any write."""
    new = [path for path in files if not os.path.exists(path)]
    try:
        for path in files:
            open(path, "a").close()
        for path, text in files.items():
            with open(path, "w") as fh:
                fh.write(text)
    except OSError as exc:
        for made in filter(os.path.exists, new):
            os.remove(made)
        raise UsageError(f"cannot write {path}: {exc}")


def _sidecar(cfg: RunConfig, result: RunResult, wall: float) -> dict:
    path = cfg.meta
    if path is None and cfg.output:
        path = cfg.output + ".meta.json"
    if path is None:
        return {}
    import json

    meta = {
        "config": cfg.as_dict(),
        "error_bounds": result.error_bounds,
        "wall_time_s": wall,
        "version": __version__,
    }
    meta.update(result.extra_meta)
    return {path: json.dumps(meta, sort_keys=True, indent=1) + "\n"}


def main(argv=None) -> int:
    """Parse, resolve the command's params, run its handler, then write its
    primary output (to --output or stdout), its secondary files and the
    sidecar, all or none, mapping every failure to an exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    begin = time.perf_counter()
    try:
        p = _resolve(args)
        result = args.handler(args, p)
        result, code = result if isinstance(result, tuple) else (result, 0)
        action = getattr(args, "action", None)
        cfg = RunConfig(
            f"{args.command} {action}" if action else args.command,
            p, args.output, args.meta, p.get("seed"),
        )
        files = {args.output: result.stdout} if args.output else {}
        files.update(result.files)
        files.update(_sidecar(cfg, result, time.perf_counter() - begin))
        _write_all(files)
        if not args.output:
            sys.stdout.write(result.stdout)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        if _INT_STR_LIMIT in str(exc):
            print(
                "range error: result too large to print: an exact rational "
                f"in it has more than {sys.get_int_max_str_digits()} decimal "
                "digits, the interpreter's integer-to-string limit",
                file=sys.stderr,
            )
            return 2
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    except ToleranceError as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"tolerance failure (overflow): {exc}", file=sys.stderr)
        return 3
    except IndeterminateCancellation as exc:
        print(f"indeterminate cancellation: {exc}", file=sys.stderr)
        return 4
    except (RecursionError, MemoryError) as exc:
        # last line of defence: an input that outgrew the stack or memory
        print(f"range error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
