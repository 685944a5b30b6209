"""Command-line interface: exact arithmetic queries, kernel evaluation,
path simulation, solvers, and verification suites.

Conventions
-----------
* Exact rational results (phi, ppow, norm, volume, ft) print as exact
  fractions / JSON with error bound 0.
* Float results print as `value bound` where bound is the achieved error
  bound of the value.
* A JSON metadata sidecar (resolved config, seed, error bounds, wall time)
  is written next to --output as <output>.meta.json, or to --meta. Wall
  time lives only in the sidecar so primary outputs stay byte-stable.
* A JSON config file (--config) supplies defaults; explicit flags win.
* Exit codes: 0 ok, 2 usage or range error, 3 tolerance failure, 4
  indeterminate cancellation.
"""
from __future__ import annotations

import argparse
import math
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
            "params": {k: _jsonable(v) for k, v in self.params.items()},
            "output": self.output,
            "seed": self.seed,
        }


@record
class RunResult:
    stdout: str = ""
    files: dict = field(default_factory=dict)  # path -> text
    error_bounds: dict = field(default_factory=dict)
    extra_meta: dict = field(default_factory=dict)


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    return v


# --------------------------------------------------------------------------
# parameter resolution


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    import json

    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
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
        ("input", None, None, "initial step JSON (homogeneous)"),
        ("u0", None, None, "initial step JSON (duhamel)"),
        ("forcing", None, None, "forcing grid JSON (duhamel)"),
        ("quadrature", str, {"duhamel": "Simpson"}, "Trapezoid or Simpson"),
        ("steps", _int, {"duhamel": 64}, "quadrature step count"),
        ("real", None, None, "real grid CSV (adelic)"),
        ("fin", None, None, "finite factor step JSON (adelic)"),
        ("finite-output", None, None, "finite factor output path"),
    ),
}
_COMMON = (
    ("config", None, None, "JSON file with default parameters"),
    ("output", None, None, "write primary output to this file"),
    ("meta", None, None, "write the JSON metadata sidecar here"),
)


def _resolve(args) -> dict:
    """The command's options: each flag over its config key (a null value
    counts as absent) over its default. A config value is converted from
    its text, by the flag's rules: {"steps": 2.7} is refused as --steps 2.7
    is."""
    config = _load_config(args.config)
    out = {}
    for name, conv, default, *_ in _OPTIONS[args.command]:
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
# handlers: each returns (RunConfig, RunResult)


def _cmd_phi(args):
    from .primepow import phi

    value = phi(_fraction(args.x))
    cfg = RunConfig("phi", {"x": _fraction(args.x)}, args.output, args.meta)
    return cfg, RunResult(stdout=f"{value}\n", error_bounds={"value": 0.0})


def _cmd_ppow(args):
    from .primepow import next_pp, pp_range, prev_pp

    cfg = RunConfig(f"ppow {args.action}", {}, args.output, args.meta)
    if args.action == "range":
        if args.y is None:
            raise UsageError("ppow range: missing upper bound")
        lo, hi = _fraction(args.x), _fraction(args.y)
        cfg.params = {"lo": lo, "hi": hi}
        lines = [str(q.value) for q in pp_range(lo, hi)]
        return cfg, RunResult(
            stdout="".join(f"{ln}\n" for ln in lines),
            error_bounds={"values": 0.0},
        )
    x = _fraction(args.x)
    cfg.params = {"x": x}
    fn = next_pp if args.action == "next" else prev_pp
    return cfg, RunResult(
        stdout=f"{fn(x).value}\n", error_bounds={"value": 0.0}
    )


def _cmd_norm(args):
    from .adele import distance, norm, parse_point

    x = parse_point(args.point)
    if args.point2 is not None:
        value = distance(x, parse_point(args.point2))
        cfg = RunConfig(
            "norm", {"point": args.point, "point2": args.point2},
            args.output, args.meta,
        )
    else:
        value = norm(x)
        cfg = RunConfig("norm", {"point": args.point}, args.output, args.meta)
    return cfg, RunResult(stdout=f"{value}\n", error_bounds={"value": 0.0})


def _cmd_volume(args):
    from .adele import ball, haar_volume, sphere
    from .primepow import _refuse_phi_past_cap

    radius = _fraction(args.radius)
    _refuse_phi_past_cap(radius)  # before the region sieves to the radius
    region = ball(radius) if args.kind == "ball" else sphere(radius)
    value = haar_volume(region)
    cfg = RunConfig(
        "volume", {"kind": args.kind, "radius": radius},
        args.output, args.meta,
    )
    return cfg, RunResult(stdout=f"{value}\n", error_bounds={"value": 0.0})


def _cmd_ft(args):
    step = _read_step(args.input, args.json_text)
    out = step.ft().to_json()
    cfg = RunConfig("ft", {"input": args.input}, args.output, args.meta)
    return cfg, RunResult(stdout=out + "\n", error_bounds={"coeffs": 0.0})


def _cmd_kernel(args):
    from .heatkernel import (
        _z_real_and_error,
        normalization,
        tail_mass_bound,
        upper_tail_mass,
        z_finite,
    )

    p = _resolve(args)
    params = _kernel_params(p)
    cfg = RunConfig(f"kernel {args.action}", p, args.output, args.meta)
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
        return cfg, RunResult(
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
        return cfg, RunResult(
            stdout=f"{value:.17g} {achieved:.3e}\n",
            error_bounds={"value": achieved},
        )
    mass = upper_tail_mass(p["epsilon"], params)
    bound = tail_mass_bound(p["epsilon"], params)
    return cfg, RunResult(
        stdout=f"{mass:.17g} {bound:.17g}\n",
        error_bounds={"mass": mass * 1e-12, "a_priori_bound": 0.0},
    )


def _cmd_simulate(args):
    from .heatkernel import KernelParams
    from .markov import Truncation, sample_path

    p = _resolve(args)
    params = KernelParams(t=p["t-step"], alpha=p["alpha"], beta=p["beta"])
    trunc = Truncation(
        r_min=p["r-min"], r_max=p["r-max"],
        prime_cutoff=p["prime-cutoff"], depth=p["depth"],
    )
    path = sample_path(
        params, p["steps"], p["t-step"], trunc=trunc,
        seed=p["seed"], path_index=p["path-index"],
    )
    cfg = RunConfig("simulate", p, args.output, args.meta, seed=p["seed"])
    csv_text = path.to_csv()
    result = RunResult(
        error_bounds={"radii": 0.0},
        extra_meta={
            "tail_resamples": path.tail_resamples,
            "cancel_resamples": path.cancel_resamples,
        },
    )
    if args.output:
        result.files[args.output] = csv_text
    else:
        result.stdout = csv_text
    return cfg, result


def _cmd_transition(args):
    from .adele import parse_point
    from .markov import transition_prob_ball

    p = _resolve(args)
    params = _kernel_params(p)
    value = transition_prob_ball(
        params, parse_point(p["x"]), parse_point(p["center"]), p["eps"]
    )
    bound = abs(value) * 1e-11 + 1e-15  # certified series truncation scale
    cfg = RunConfig("transition", p, args.output, args.meta)
    return cfg, RunResult(
        stdout=f"{value:.17g} {bound:.3e}\n", error_bounds={"value": bound}
    )


def _cmd_solve(args):
    from .cauchy import (
        SymbolSpec,
        solve_adelic,
        solve_homogeneous,
        solve_nonhomogeneous,
    )

    p = _resolve(args)
    symbol = SymbolSpec(alpha=p["alpha"], beta=p["beta"])
    cfg = RunConfig(f"solve {args.action}", p, args.output, args.meta)

    if args.action == "homogeneous":
        u0 = _read_step(args.input, None)
        result = solve_homogeneous(u0, p["t"], symbol, tol=p["tol"])
        text, bound = _result_json(result)
        out = RunResult(error_bounds={"solution": bound})
    elif args.action == "duhamel":
        if args.forcing is None:
            raise UsageError("solve duhamel requires --forcing")
        u0 = _read_step(args.u0, None)
        forcing = _read_forcing(args.forcing)
        result = solve_nonhomogeneous(
            u0, forcing, p["t"], symbol,
            quadrature=p["quadrature"], tol=p["tol"], steps=p["steps"],
        )
        text, bound = _result_json(result)
        out = RunResult(error_bounds={"solution": bound})
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
        out = RunResult(
            error_bounds={"real_grid": p["tol"], "finite": fin_bound}
        )
        out.files[args.output] = real_out.to_csv()
        fin_path = args.finite_output or args.output + ".finite.json"
        out.files[fin_path] = fin_text + "\n"
        return cfg, out

    if args.output:
        out.files[args.output] = text + "\n"
    else:
        out.stdout = text + "\n"
    return cfg, out


def _cmd_verify(args):
    from .checks import run_suite

    results = run_suite(args.suite)
    lines = [r.line() for r in results]
    ok = all(r.passed for r in results)
    lines.append(
        f"{sum(r.passed for r in results)}/{len(results)} checks passed"
    )
    cfg = RunConfig("verify", {"suite": args.suite}, args.output, args.meta)
    result = RunResult(
        stdout="".join(f"{ln}\n" for ln in lines),
        extra_meta={
            "elapsed": {r.name: round(r.elapsed, 3) for r in results}
        },
    )
    return cfg, result, (0 if ok else 1)


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

    def command(name, handler, text):
        sp = sub.add_parser(name, help=text)
        for option, _, _, help_text, *dest in (*_OPTIONS.get(name, ()),
                                               *_COMMON):
            sp.add_argument(f"--{option}", dest=dest[0] if dest else None,
                            help=help_text)
        sp.set_defaults(handler=handler)
        return sp

    sp = command("phi", _cmd_phi, "exact ball volume function")
    sp.add_argument("x")
    sp = command("ppow", _cmd_ppow, "prime-power order queries")
    sp.add_argument("action", choices=["next", "prev", "range"])
    sp.add_argument("x")
    sp.add_argument("y", nargs="?")
    sp = command("norm", _cmd_norm, "adelic norm (or distance of two points)")
    sp.add_argument("point")
    sp.add_argument("point2", nargs="?")
    sp = command("volume", _cmd_volume,
                 "exact Haar volume of a ball or sphere")
    sp.add_argument("kind", choices=["ball", "sphere"])
    sp.add_argument("radius")
    command("ft", _cmd_ft, "exact radial Fourier transform")
    sp = command("kernel", _cmd_kernel, "heat kernel evaluation and tails")
    sp.add_argument("action", choices=["eval", "normalize", "tail"])
    command("simulate", _cmd_simulate, "sample one jump-process path, CSV")
    command("transition", _cmd_transition, "P(t, x, ball of radius eps)")
    sp = command("solve", _cmd_solve, "parabolic solvers")
    sp.add_argument("action", choices=["homogeneous", "duhamel", "adelic"])
    sp = command("verify", _cmd_verify, "run an acceptance/invariant suite")
    sp.add_argument("suite")
    return parser


# --------------------------------------------------------------------------
# driver


def _write_sidecar(cfg: RunConfig, result: RunResult, wall: float):
    path = cfg.meta
    if path is None and cfg.output:
        path = cfg.output + ".meta.json"
    if path is None:
        return
    import json

    meta = {
        "config": cfg.as_dict(),
        "error_bounds": result.error_bounds,
        "wall_time_s": wall,
        "version": __version__,
    }
    meta.update(result.extra_meta)
    with open(path, "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    begin = time.perf_counter()
    code = 0
    try:
        outcome = args.handler(args)
        if len(outcome) == 3:
            cfg, result, code = outcome
        else:
            cfg, result = outcome
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
    for path, text in result.files.items():
        with open(path, "w") as fh:
            fh.write(text)
    if result.stdout:
        sys.stdout.write(result.stdout)
    _write_sidecar(cfg, result, time.perf_counter() - begin)
    return code


if __name__ == "__main__":
    sys.exit(main())
