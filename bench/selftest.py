"""Show that every benchmark check fires on a perturbed output.

    python3 bench/selftest.py

Runs real levyrisk jobs from this checkout, confirms that each unperturbed
output passes its checks, then perturbs one figure at a time and confirms
that the intended check reports it. Exits 1 if any check stays silent.
"""
import copy
import dataclasses
import sys

from run import import_program

import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def scaled(report, field, index, factor):
    """Copy of an allocation report with one row or entry of `field` scaled."""
    value = np.array(getattr(report, field), dtype=float)
    value[index] *= factor
    return dataclasses.replace(report, **{field: value})


def moved(report, delta):
    """Copy with L shifted by +delta and -delta on two departments: sum(L) kept."""
    L = np.array(report.L, dtype=float)
    L[0] += delta
    L[1] -= delta
    return dataclasses.replace(report, L=L)


def entry(report, name):
    return next(c for c in report if c["check_name"] == name)


def edited(report, edit):
    out = copy.deepcopy(report)
    edit(out)
    return out


def swap_psi(report):
    a, b = entry(report, "ruin_probability_at_zero"), entry(report, "lundberg_bound_u3")
    a["estimate"], b["estimate"] = b["estimate"], a["estimate"]


def set_field(name, key, fn):
    def edit(report):
        c = entry(report, name)
        c[key] = fn(c[key])
    return edit


def main():
    failures = []

    def expect(label, errors, needle):
        fired = any(needle in e for e in errors)
        print(f"{'ok  ' if fired else 'FAIL'} {label}: {errors[0] if errors else 'no error'}")
        if not fired:
            failures.append(label)

    def clean(label, errors):
        print(f"{'ok  ' if not errors else 'FAIL'} {label} passes unperturbed")
        if errors:
            failures.append(label)
            print("     " + "\n     ".join(errors))

    interior = workloads.interior_inputs(0)
    boundary = workloads.boundary_inputs(0)
    cases = [("brownian closed form", interior[0]), ("stable closed form", interior[8]),
             ("table weight", interior[1]), ("compound-Poisson boundary", boundary[1])]
    for label, job in cases:
        report = workloads.run_allocate(job, 0)
        check = lambda r, job=job: checks.check_allocation(job.spec, job.closed_form, r)  # noqa: E731
        clean(label, check(report))
        expect(f"{label}: L * (1 + 1e-6)", check(scaled(report, "L", slice(None), 1 + 1e-6)), "sum(L)")
        expect(f"{label}: K_t at t = T/2 * (1 + 1e-6)",
               check(scaled(report, "K_curve", 32, 1 + 1e-6)), "brute-force EVaR")
        if job.closed_form:
            delta = 1e-6 * float(np.max(np.abs(report.L)))
            expect(f"{label}: L moved between departments by {delta:.1e}",
                   check(moved(report, delta)), "closed form")

    beta = workloads.MC_BETA
    report = workloads.run_validation(workloads.mc_inputs(0)[0], 0)
    clean("validation report", checks.check_validation(report, beta))
    mc_cases = [
        ("psi(0) and psi(3) estimates swapped", swap_psi, "psi(0) estimate"),
        ("adjustment coefficient + 1e-9",
         set_field("lundberg_adjustment_coefficient", "estimate", lambda v: v + 1e-9), "adjustment"),
        ("Lundberg bound at u=9 * 1.01",
         set_field("lundberg_bound_u9", "analytic", lambda v: v * 1.01), "Lundberg bound"),
        ("Brownian EVaR closed form * (1 + 1e-6)",
         set_field("empirical_evar_brownian", "analytic", lambda v: v * (1 + 1e-6)), "empirical_evar"),
        ("gamma exponent + 1e-6",
         set_field("laplace_exponent_gamma", "analytic", lambda v: v + 1e-6), "laplace_exponent_gamma"),
        ("VaR of the infimum + 1", set_field("var_inf_bound", "estimate", lambda v: v + 1.0), "VaR"),
        ("one check dropped", lambda r: r.pop(), "report checks"),
    ]
    for label, edit, needle in mc_cases:
        expect(f"validation report: {label}", checks.check_validation(edited(report, edit), beta), needle)

    print(f"{len(failures)} check(s) failed to behave" if failures else "every check fires")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
