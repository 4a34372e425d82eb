"""Command-line interface.

Exit codes: 0 success, 2 assumption/input violation, 3 numerical failure,
4 sampling budget exceeded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import dynamics, experiments, fixed_points, lcp, limit_path, problem
from .errors import DomainError, exit_code


class FloatList(click.ParamType):
    """A comma-separated list of numbers, such as ``1e-6,1e-10``."""

    name = "float,..."

    def convert(self, value, param, ctx):
        try:
            return [float(x) for x in value.split(",")]
        except ValueError:
            self.fail(f"{value!r} is not a comma-separated list of numbers",
                      param, ctx)


FLOATS = FloatList()
_GRID = click.option("--grid", "grid_points", type=int,
                     default=dynamics.DEFAULT_GRID_POINTS, show_default=True)
_TOL = click.option("--tol", type=float, default=dynamics.DEFAULT_TOL,
                    show_default=True)
_ETA_FRACTION = click.option("--eta-fraction", type=float, show_default=True,
                             default=experiments.DEFAULT_ETA_FRACTION)


class ReportingGroup(click.Group):
    """Reports a failure that ``exit_code`` maps to 2, 3 or 4 as one
    ``error:`` line and exits with that code; others propagate."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except Exception as exc:
            if (code := exit_code(exc)) == 1:
                raise
            click.echo(f"error: {exc}", err=True)
            sys.exit(code)


@click.group(cls=ReportingGroup)
@click.option("--out-dir", default=".", show_default=True,
              help="Directory for emitted files.")
@click.pass_context
def main(ctx, out_dir):
    """Simulate anti-correlated regression gradient flows and compare them
    with their small-initialization limit."""
    ctx.ensure_object(dict)
    ctx.obj["out_dir"] = Path(out_dir)


@main.command()
@click.option("--n", type=int, default=None, help="Samples (rejection generator).")
@click.option("--d", type=int, required=True, help="Dimension.")
@click.option("--seed", type=int, required=True, help="Generator seed.")
@click.option("--generator", type=click.Choice(["rejection", "direct"]),
              default="direct", show_default=True)
@click.option("--offdiag-scale", type=float, default=None,
              help="Off-diagonal magnitude (direct generator); default "
                   "adapts to d.")
@click.option("--max-attempts", type=int, default=10_000, show_default=True,
              help="Rejection budget.")
@click.option("--out", type=click.Path(), required=True, help="Instance JSON path.")
def gen(n, d, seed, generator, offdiag_scale, max_attempts, out):
    """Generate a valid instance and write it as JSON."""
    spec = {"generator": generator, "d": d, "seed": seed}
    if generator == "direct":
        spec["offdiag_scale"] = offdiag_scale
    else:
        spec["max_attempts"] = max_attempts
        if n is not None:
            spec["n"] = n
    instance = problem.generate(spec)
    lambda_min = float(np.linalg.eigvalsh(instance.M)[0])
    problem.save_instance(instance, out)
    click.echo(f"wrote {out} (d={instance.d}, lambda_min={lambda_min:.6g})")


@main.command("lcp-solve")
@click.option("--input", "input_path", type=click.Path(exists=True), required=True,
              help='JSON file {"q": [...], "M": [[...]]}.')
def lcp_solve(input_path):
    """Solve the complementarity problem for a (q, M) pair."""
    obj = problem.read_json_object(input_path)
    solution = lcp.solve_lcp(obj.get("q"), obj.get("M"))
    click.echo(json.dumps(experiments.lcp_json(solution), indent=2))


@main.command("fixed-points")
@click.option("--instance", "instance_path", type=click.Path(exists=True),
              required=True)
def fixed_points_cmd(instance_path):
    """Print all 2^d stationary points of an instance as JSON."""
    instance = problem.load_instance(instance_path)
    points = fixed_points.enumerate_fixed_points(instance)
    click.echo(json.dumps(experiments.fixed_points_json(points), indent=2))


@main.command()
@click.option("--instance", "instance_path", type=click.Path(exists=True),
              required=True)
@click.option("--epsilon", type=float, required=True)
@click.option("--C", "C", type=FLOATS, default=None, help="Default all 1.")
@click.option("--k", type=FLOATS, default=None, help="Default all 1.")
@click.option("--s-max", type=float, required=True)
@_GRID
@_TOL
@click.option("--out", type=click.Path(), required=True, help="Trajectory CSV path.")
def simulate(instance_path, epsilon, C, k, s_max, grid_points, tol, out):
    """Integrate the flow and write the sampled trajectory as CSV."""
    instance = problem.load_instance(instance_path)
    init = problem.Initialization(C=experiments.ones_unless(C, instance.d),
                                  k=experiments.ones_unless(k, instance.d),
                                  epsilon=epsilon)
    traj = dynamics.simulate(instance, init, s_max, tol=tol,
                             s_grid=experiments.uniform_grid(s_max, grid_points))
    experiments.write_trajectory(out, traj)
    click.echo(
        f"wrote {out} ({len(traj)} samples, {traj.stats.steps} steps, "
        f"{traj.stats.rejected} rejected)"
    )


@main.command("limit-path")
@click.option("--instance", "instance_path", type=click.Path(exists=True),
              required=True)
@click.option("--k", type=FLOATS, default=None, help="Default all 1.")
@click.option("--out-json", type=click.Path(), required=True)
@click.option("--out-csv", type=click.Path(), default=None,
              help="Optional grid sampling of mu(s) and the limit process.")
@click.option("--grid", type=int, default=200, show_default=True)
def limit_path_cmd(instance_path, k, out_json, out_csv, grid):
    """Compute breakpoints, active sets and affine pieces of the limit."""
    instance = problem.load_instance(instance_path)
    path = limit_path.compute_path(instance, experiments.ones_unless(k, instance.d))
    written = experiments.write_limit_path(instance, path, out_json, out_csv, grid)
    click.echo(f"wrote {out_json} ({len(path.breakpoints)} breakpoints, "
               f"s_star={path.s_star:.6g})")
    for out in written[1:]:
        click.echo(f"wrote {out}")


def _sweep_options(fn):
    """The options every epsilon sweep takes; each command adds its own."""
    for option in reversed([
        click.option("--config", type=click.Path(exists=True), default=None,
                     help="JSON experiment config, given instead of the other "
                          "flags."),
        click.option("--instance", type=click.Path(exists=True), default=None),
        click.option("--epsilons", type=FLOATS, default=None),
        click.option("--C", "C", type=FLOATS, default=None, help="Default all 1."),
        click.option("--k", type=FLOATS, default=None, help="Default all 1."),
        click.option("--s-max", type=float, default=None),
    ]):
        fn = option(fn)
    return fn


def _sweep_inputs(ctx, config, options):
    """The instance and the runner keywords, from the flags or from a
    config file keyed by option name. A config value is converted as the
    text its flag would carry: a list joined with commas, ``null`` as an
    absent key, anything else by ``str``."""
    if config is not None:
        given = [p.opts[0] for p in ctx.command.params if p.name != "config"
                 and ctx.get_parameter_source(p.name) is not ParameterSource.DEFAULT]
        if given:
            raise click.UsageError(f"--config excludes {', '.join(given)}")
        obj = problem.read_json_object(config)
        values = {key: value for key, value in obj.items() if value is not None}
        missing = {"instance", "epsilons"} - set(values)
        if missing:
            raise DomainError(f"config lacks required keys: {sorted(missing)}")
        params = {p.name: p for p in ctx.command.params if p.name in options}
        unknown = set(obj) - set(params)
        if unknown:
            raise DomainError(f"config keys this command does not read: "
                              f"{sorted(unknown)}")
        for key, value in values.items():
            text = (",".join(map(str, value)) if isinstance(value, list)
                    else str(value))
            options[key] = (value if key == "instance"
                            else params[key].type_cast_value(ctx, text))
    elif options["instance"] is None or options["epsilons"] is None:
        raise click.UsageError("provide --config or both --instance and "
                               "--epsilons")
    instance = problem.resolve_instance(options.pop("instance"))
    for name in ("C", "k"):
        options[name] = experiments.ones_unless(options[name], instance.d)
    return instance, options


@main.command()
@_sweep_options
@_GRID
@_TOL
@_ETA_FRACTION
@click.pass_context
def compare(ctx, config, **options):
    """Compare simulations against the limit process and its average."""
    instance, options = _sweep_inputs(ctx, config, options)

    def flush(partial):
        if partial.rows:
            out = partial.write_partial(ctx.obj["out_dir"])
            click.echo(f"flushed partial results to {out}", err=True)

    report = experiments.run_compare(instance, **options, on_failure=flush)
    for out in report.write(ctx.obj["out_dir"]):
        click.echo(f"wrote {out}")
    for row in report.rows:
        click.echo(f"epsilon={experiments.epsilon_label(row.epsilon)}  "
                   f"state={row.state_error:.3e}  loss={row.loss_error:.3e}  "
                   f"average={row.average_error:.3e}")


@main.command("hitting-time")
@_sweep_options
@_TOL
@_ETA_FRACTION
@click.pass_context
def hitting_time_cmd(ctx, config, **options):
    """Measure hitting times of the minimizer ball across epsilons."""
    instance, options = _sweep_inputs(ctx, config, options)
    table = experiments.run_hitting(instance, **options)
    written = table.write(ctx.obj["out_dir"])
    click.echo(f"wrote {written[0]} (target s_star={table.s_star:.6g})")
    for out in written[1:]:
        click.echo(f"wrote {out}")
    for row in table.rows:
        click.echo(f"epsilon={experiments.epsilon_label(row.epsilon)}  " + (
            f"ratio={row.ratio:.6g}  rel_error={row.relative_error:.3%}"
            if row.reached else "NOT REACHED"))


@main.command()
@_sweep_options
@_GRID
@_TOL
@click.pass_context
def figure1(ctx, config, **options):
    """Emit phase-portrait data (d = 2): field, fixed points, trajectories."""
    instance, options = _sweep_inputs(ctx, config, options)
    paths = experiments.run_figure1(instance, **options,
                                    out_dir=ctx.obj["out_dir"])
    for path in paths.values():
        click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
