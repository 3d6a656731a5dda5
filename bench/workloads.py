"""The four benchmark workloads: seeded inputs, one operation, output checks.

Inputs are generated from the seed alone with plain Python, so the program
under test sees only the generated parameters.  Each workload draws its
parameters by stratified sampling (one draw per equal-width slice of each
range), so a round costs nearly the same on every seed while the values
themselves change.  ``check`` compares the outputs of one round with the
independent references in ``oracles`` and with properties the method must
have; it never compares with stored outputs.
"""

from __future__ import annotations

import csv
import io
import math
import os
import random
import subprocess
import sys
import time

FOUR_PI = 4.0 * math.pi
M_H_FACTOR = 32.0 * math.pi ** 1.5

CUSTOM_RATIONAL = "1 + s^2 - m/s + c/s^2 + k/s^3"
PROFILE_FILE_TEXT = (
    "# profiles read by the cli-cold workload through --profile-file\n"
    "one = 1 + s^2 - m/s\n"
    "two = 1 + s^2 - m/s + k/s^3\n"
)


def stratified(rng, lo, hi, n):
    """n values, one uniform draw in each of n equal slices of [lo, hi),
    in shuffled order."""
    width = (hi - lo) / n
    values = [lo + (i + rng.random()) * width for i in range(n)]
    rng.shuffle(values)
    return values


def outer_root(poly, hi=50.0):
    """Outermost positive root of a float polynomial callable, by an inward
    geometric scan and bisection; good to about 1e-12, for input design."""
    s = hi
    prev = poly(s)
    while s > 1e-6:
        lo = s / 1.05
        val = poly(lo)
        if (val > 0.0) != (prev > 0.0):
            a, b = lo, s
            for _ in range(200):
                mid = 0.5 * (a + b)
                if (poly(mid) > 0.0) == (poly(b) > 0.0):
                    b = mid
                else:
                    a = mid
            return 0.5 * (a + b)
        s, prev = lo, val
    return None


def cardano(m):
    disc = math.sqrt(m * m / 4.0 + 1.0 / 27.0)
    return math.cbrt(m / 2.0 + disc) + math.cbrt(m / 2.0 - disc)


def rounded(x, digits=6):
    """Parameter value with a short decimal form, so the CLI argv is tidy."""
    return float("%.*g" % (digits, x))


# ---------------------------------------------------------------------------
# compare-rational


class CompareRational:
    """compare_volumes on rn-ads and a parsed rational family.

    Per round: 6 holds (3 rn-ads, 3 custom), 2 equality (ads against
    itself), 8 hypothesis_failed by curvature (4 rn-ads with c < 0, 4 custom
    with k < 0) and 8 by area (4 rn-ads, 4 custom, model mass too large).
    """

    name = "compare-rational"

    def generate(self, seed):
        rng = random.Random("%s:%d" % (self.name, seed))
        ops = []
        # every range below keeps f negative somewhere (min over s of s^4 f
        # or s^5 f at most -0.37 at the worst corner), so a horizon exists

        def rn(kind, m_range, c_range, r_range, n):
            for m, c, r in zip(stratified(rng, *m_range, n), stratified(rng, *c_range, n),
                               stratified(rng, *r_range, n)):
                s_h = outer_root(lambda s: s ** 4 + s * s - m * s + c)
                ops.append({"family": "rn", "m": m, "c": c, "k": 0.0,
                            "M": r * (s_h ** 3 + s_h), "expect": kind})

        def custom(kind, m_range, c_range, k_range, r_range, n):
            for m, c, k, r in zip(stratified(rng, *m_range, n), stratified(rng, *c_range, n),
                                  stratified(rng, *k_range, n), stratified(rng, *r_range, n)):
                s_h = outer_root(lambda s: s ** 5 + s ** 3 - m * s * s + c * s + k)
                ops.append({"family": "custom", "m": m, "c": c, "k": k,
                            "M": r * (s_h ** 3 + s_h), "expect": kind})

        rn("holds", (3.0, 6.0), (0.1, 1.0), (0.3, 0.8), 3)
        custom("holds", (4.0, 8.0), (0.1, 0.5), (0.02, 0.2), (0.3, 0.8), 3)
        for m in stratified(rng, 1.0, 8.0, 2):
            ops.append({"family": "ads", "m": m, "c": 0.0, "k": 0.0, "M": m,
                        "expect": "equality"})
        rn("curvature", (3.0, 6.0), (-1.0, -0.1), (0.3, 0.8), 4)
        custom("curvature", (3.0, 6.0), (0.05, 0.2), (-1.0, -0.5), (0.3, 0.8), 4)
        rn("area", (3.0, 6.0), (0.1, 1.0), (1.3, 2.0), 4)
        custom("area", (4.0, 8.0), (0.1, 0.5), (0.02, 0.2), (1.3, 2.0), 4)
        rng.shuffle(ops)
        # V and V_model of these ops are checked against mpmath quadrature
        comparable = [i for i, op in enumerate(ops) if op["expect"] in ("holds", "equality")]
        return {"ops": ops, "quad_subset": sorted(rng.sample(comparable, 3))}

    def run_op(self, rv, op):
        if op["family"] == "rn":
            p = rv.rn_ads(op["m"], op["c"])
        elif op["family"] == "custom":
            p = rv.custom_profile(CUSTOM_RATIONAL, {"m": op["m"], "c": op["c"], "k": op["k"]})
        else:
            p = rv.ads_schwarzschild(op["m"])
        rep = rv.compare_volumes(p, op["M"])
        return (rep.verdict, rep.area, rep.model_area, rep.alpha, rep.volume,
                rep.model_volume, rep.margin,
                tuple((h.name, h.passed) for h in rep.hypotheses))

    def check(self, inputs, outputs):
        import mpmath as mp

        from oracles import cardano_model_horizon, largest_real_root, rel_diff, renormalized_volume

        bad = {}
        for i, (op, out) in enumerate(zip(inputs["ops"], outputs)):
            if out is None:  # the operation raised; counted as failed already
                continue
            verdict, area, model_area, alpha, vol, model_vol, margin, hyps = out
            m, c, k, big_m = op["m"], op["c"], op["k"], op["M"]
            msgs = []
            s_h = largest_real_root([1.0, 0.0, 1.0, -m, c, k])
            s0 = cardano_model_horizon(big_m)
            a_ref = FOUR_PI * s_h * s_h
            a_model_ref = FOUR_PI * s0 * s0
            if area is None or rel_diff(area, a_ref) > 1e-9:
                msgs.append("area %r, oracle %s" % (area, mp.nstr(a_ref, 17)))
            if rel_diff(model_area, a_model_ref) > 1e-12:
                msgs.append("model area %r, Cardano %s" % (model_area, mp.nstr(a_model_ref, 17)))
            # R + 6 = 2 (s q)'/s^2 = 2 (c s + 2 k)/s^5, linear numerator in s
            curvature_ok = c >= 0.0 and c * s_h + 2.0 * k >= 0.0
            # same relative slack as compare_volumes, so that ads against itself passes
            area_ok = a_ref >= a_model_ref * (1 - 1e-12)
            predicted = {"scalar_curvature": curvature_ok, "horizon": True,
                         "area": area_ok, "asymptotics": True}
            if dict(hyps) != predicted:
                msgs.append("hypotheses %r, predicted %r" % (dict(hyps), predicted))
            if not (curvature_ok and area_ok):
                want = "hypothesis_failed"
            elif op["family"] == "ads" and big_m == m:
                want = "equality"
            else:
                want = "holds"
            if verdict != want:
                msgs.append("verdict %s, predicted %s" % (verdict, want))
            if want == "holds" and not (margin is not None and margin > 0.0):
                msgs.append("holds without a positive margin: %r" % (margin,))
            if i in inputs["quad_subset"] and vol is not None:
                v_ref = renormalized_volume(lambda s: 1 + s * s - m / s + c / s ** 2 + k / s ** 3,
                                            lambda s: m / s - c / s ** 2 - k / s ** 3, s_h)
                vm_ref = renormalized_volume(lambda s: 1 + s * s - big_m / s,
                                             lambda s: big_m / s, s0)
                if rel_diff(vol, v_ref) > 1e-8:
                    msgs.append("V %r, quadrature oracle %s" % (vol, mp.nstr(v_ref, 17)))
                if rel_diff(model_vol, vm_ref) > 1e-8:
                    msgs.append("V_model %r, quadrature oracle %s" % (model_vol, mp.nstr(vm_ref, 17)))
            if msgs:
                bad[i] = msgs
        return bad


# ---------------------------------------------------------------------------
# volume-float


FLOAT_FAMILIES = (
    # (text, parameter, range); the last one has no horizon
    ("1 + s^2 - m*exp(-s)/s", "m", (2.0, 8.0)),
    ("1 + s^2 - m*exp(-s^2)/s", "m", (2.0, 8.0)),
    ("1 + s^2 - m/s^3*exp(-1/s)", "m", (2.0, 5.0)),
    ("1 + s^2 + c*exp(-s)", "c", (0.1, 1.0)),
)


def _float_profile_mp(text, x):
    """(f, q) as mpmath callables for the FLOAT_FAMILIES entry ``text``."""
    import mpmath as mp

    defects = {
        "1 + s^2 - m*exp(-s)/s": lambda s: x * mp.exp(-s) / s,
        "1 + s^2 - m*exp(-s^2)/s": lambda s: x * mp.exp(-s * s) / s,
        "1 + s^2 - m/s^3*exp(-1/s)": lambda s: x / s ** 3 * mp.exp(-1 / s),
        "1 + s^2 + c*exp(-s)": lambda s: -x * mp.exp(-s),
    }
    q = defects[text]
    return (lambda s: 1 + s * s - q(s)), q


class VolumeFloat:
    """renormalized_volume, flow_volume_lower_bound and volume_between on
    transcendental profiles, which take the float defect path.

    Per round: 4 profiles of each of the four FLOAT_FAMILIES; the flow
    bound and the shell volume run on the 12 that have a horizon.
    """

    name = "volume-float"

    def generate(self, seed):
        rng = random.Random("%s:%d" % (self.name, seed))
        ops = []
        for text, param, span in FLOAT_FAMILIES:
            for x, tau in zip(stratified(rng, *span, 4), stratified(rng, 0.5, 3.0, 4)):
                ops.append({"text": text, "param": param, "x": x, "tau": tau})
        rng.shuffle(ops)
        # one profile of each family is checked against mpmath quadrature
        subset = [next(i for i, op in enumerate(ops) if op["text"] == text)
                  for text, _, _ in FLOAT_FAMILIES]
        return {"ops": ops, "quad_subset": sorted(subset)}

    def run_op(self, rv, op):
        p = rv.custom_profile(op["text"], {op["param"]: op["x"]})
        vol = rv.renormalized_volume(p)
        hz = p.horizon
        if hz is None:
            return (vol.value, vol.evaluations, None, None, None)
        flow = rv.flow_volume_lower_bound(p, op["tau"])
        shell = rv.volume_between(p, hz.radius, hz.radius * math.exp(0.5 * op["tau"]))
        return (vol.value, vol.evaluations, hz.radius, flow.value, shell.value)

    def check(self, inputs, outputs):
        import mpmath as mp

        from oracles import outermost_root, rel_diff, renormalized_volume

        bad = {}
        for i, (op, out) in enumerate(zip(inputs["ops"], outputs)):
            if out is None:  # the operation raised; counted as failed already
                continue
            value, _, radius, flow, shell = out
            f, q = _float_profile_mp(op["text"], mp.mpf(op["x"]))
            s_h = outermost_root(f)
            msgs = []
            if (s_h is None) != (radius is None):
                msgs.append("horizon %r, oracle %r" % (radius, s_h))
            elif s_h is not None:
                if rel_diff(radius, s_h) > 1e-10:
                    msgs.append("horizon %r, oracle %s" % (radius, mp.nstr(s_h, 17)))
                # the flow bound is attained in this symmetric class
                if rel_diff(flow, shell) > 1e-9:
                    msgs.append("flow bound %r differs from volume_between %r" % (flow, shell))
            if i in inputs["quad_subset"]:
                v_ref = renormalized_volume(f, q, s_h)
                if rel_diff(value, v_ref) > 1e-8:
                    msgs.append("V %r, quadrature oracle %s" % (value, mp.nstr(v_ref, 17)))
            if msgs:
                bad[i] = msgs
        return bad


# ---------------------------------------------------------------------------
# gap-kernel


GAP_EPS = (1e-2, 1e-3, 1e-4)


class GapKernel:
    """One strictness analysis per seeded model mass: kernel_threshold on the
    closed-form model area, volume_gap on an alpha grid, and the regularized
    gap and its slope bound at three eps.  No profile is evaluated.

    Per round: 3 masses.
    """

    name = "gap-kernel"

    def generate(self, seed):
        rng = random.Random("%s:%d" % (self.name, seed))
        ops = []
        for m, alpha in zip(stratified(rng, 0.5, 20.0, 3), stratified(rng, 0.2, 1.5, 3)):
            s0 = cardano(m)
            grid = [0.0] + sorted(stratified(rng, 0.05, 2.0, 5))
            ops.append({"m": m, "area": FOUR_PI * s0 * s0, "grid": grid, "alpha": alpha})
        return {"ops": ops}

    def run_op(self, rv, op):
        area = op["area"]
        rho = rv.kernel_threshold(area)
        gaps = tuple(rv.volume_gap(rv.GapSpec(area, a)) for a in op["grid"])
        sharp = rv.volume_gap(rv.GapSpec(area, op["alpha"]))
        regularized = tuple(rv.volume_gap_regularized(rv.GapSpec(area, op["alpha"], e * area))
                            for e in GAP_EPS)
        slopes = tuple(rv.volume_gap_slope(rv.GapSpec(area, op["alpha"], e * area))
                       for e in GAP_EPS)
        return (rho, gaps, sharp, regularized,
                tuple((b.value, b.lower_bound, b.satisfied) for b in slopes))

    def check(self, inputs, outputs):
        from oracles import kernel_margin

        bad = {}
        rho0 = next(out[0] for out in outputs if out is not None)
        for i, (op, out) in enumerate(zip(inputs["ops"], outputs)):
            if out is None:  # the operation raised; counted as failed already
                continue
            rho, gaps, sharp, regularized, slopes = out
            msgs = []
            # exact scaling law: the crossing ratio does not depend on mu
            if abs(rho / rho0 - 1.0) > 1e-9:
                msgs.append("threshold %r differs from %r at another mu" % (rho, rho0))
            mu = op["area"]
            if not (kernel_margin(rho * mu * (1 - 1e-6), mu) > 0 > kernel_margin(rho * mu * (1 + 1e-6), mu)):
                msgs.append("30-digit margin does not change sign across rho = %r" % (rho,))
            if gaps[0] != 0.0:
                msgs.append("I(0) = %r" % (gaps[0],))
            if not all(0.0 < a < b for a, b in zip(gaps[1:], gaps[2:])) or gaps[1] <= 0.0:
                msgs.append("I not positive and increasing on the grid: %r" % (gaps,))
            dist = [abs(r - sharp) for r in regularized]
            if not (all(a > b for a, b in zip(dist, dist[1:])) and dist[-1] < 0.1 * dist[0]):
                msgs.append("I_eps does not approach I as eps -> 0: %r" % (dist,))
            for value, lower, satisfied in slopes:
                if satisfied != (value >= lower):
                    msgs.append("slope bound flag %r with value %r, bound %r" % (satisfied, value, lower))
            if msgs:
                bad[i] = msgs
        return bad


# ---------------------------------------------------------------------------
# cli-cold


class CliCold:
    """One cold ``python -m renvol.cli`` process per operation.

    Per round, in this order: volume (ads with --out, rn-ads, custom
    --profile, custom --profile-file), compare (holds with --out, and
    hypothesis_failed through c < 0), hawking (ads, rn-ads), bounds,
    iso-check, ialpha (--out), lemma-aux margin, sweep (--out), and replay
    of the three --out files written earlier in the round.
    """

    name = "cli-cold"

    def generate(self, seed):
        rng = random.Random("%s:%d" % (self.name, seed))
        u = rng.uniform
        m_ads = rounded(u(1.0, 6.0))
        m_rn, c_rn = rounded(u(3.0, 6.0)), rounded(u(0.1, 1.0))
        m_cu, k_cu = rounded(u(3.0, 5.0)), rounded(u(0.05, 0.3))
        s_h = outer_root(lambda s: s ** 4 + s * s - m_rn * s + c_rn)
        model_m = rounded(u(0.3, 0.8) * (s_h ** 3 + s_h))
        s0 = cardano(m_ads)
        grid_lo = rounded(1.5 * s0, 4)
        a_bar = rounded(u(4.0, 40.0))
        mu = rounded(u(1.0, 50.0))
        sweep_lo = rounded(u(0.3, 1.0))
        custom = ["--family", "custom", "--param", "m=%r" % m_cu, "--param", "k=%r" % k_cu]
        ops = [
            ("volume-ads", ["volume", "--family", "ads", "--m", repr(m_ads), "--out", "{work}/volume.csv"], 0),
            ("volume-rn-ads", ["volume", "--family", "rn-ads", "--m", repr(m_rn), "--c", repr(c_rn)], 0),
            ("volume-custom", ["volume", *custom, "--profile", "1 + s^2 - m/s + k/s^3"], 0),
            ("volume-file", ["volume", *custom, "--profile-file", "{work}/profiles.txt",
                             "--name", "two"], 0),
            ("compare-holds", ["compare", "--family", "rn-ads", "--m", repr(m_rn), "--c", repr(c_rn),
                               "--model-m", repr(model_m), "--out", "{work}/compare.csv"], 0),
            ("compare-failed", ["compare", "--family", "rn-ads", "--m", repr(m_rn), "--c", repr(-c_rn),
                                "--model-m", repr(model_m)], 1),
            ("hawking-ads", ["hawking", "--family", "ads", "--m", repr(m_ads),
                             "--grid", "%r:%r:5" % (grid_lo, rounded(grid_lo + 4.0))], 0),
            ("hawking-rn-ads", ["hawking", "--family", "rn-ads", "--m", repr(m_rn), "--c", repr(c_rn),
                                "--grid", "%r:%r:5" % (rounded(1.5 * s_h, 4), rounded(1.5 * s_h + 4.0))], 0),
            ("bounds", ["bounds", "--family", "ads", "--m", repr(m_ads),
                        "--tau", repr(rounded(u(0.5, 3.0)))], 0),
            ("iso-check", ["iso-check", "--m", repr(m_ads), "--tau", repr(rounded(u(0.5, 3.0)))], 0),
            ("ialpha", ["ialpha", "--a-bar", repr(a_bar), "--grid", "0:%r:5" % rounded(u(0.5, 2.0)),
                        "--out", "{work}/ialpha.csv"], 0),
            ("lemma-aux", ["lemma-aux", "--eps", repr(rounded(u(0.01, 0.05) * mu)), "--mu", repr(mu)], 0),
            ("sweep", ["sweep", "--grid", "log:%r:%r:4" % (sweep_lo, rounded(sweep_lo * u(4.0, 16.0))),
                       "--out", "{work}/sweep.csv"], 0),
            ("replay-volume", ["replay", "--from-csv", "{work}/volume.csv"], 0),
            ("replay-compare", ["replay", "--from-csv", "{work}/compare.csv"], 0),
            ("replay-sweep", ["replay", "--from-csv", "{work}/sweep.csv"], 0),
        ]
        return {"ops": [{"name": n, "argv": a, "exit": e} for n, a, e in ops],
                "m_ads": m_ads, "c_rn": c_rn}

    def prepare(self, work):
        os.makedirs(work, exist_ok=True)
        with open(os.path.join(work, "profiles.txt"), "w", encoding="utf-8") as fh:
            fh.write(PROFILE_FILE_TEXT)

    @staticmethod
    def argv(op, work):
        return [a.replace("{work}", work) for a in op["argv"]]

    @staticmethod
    def out_file(argv):
        return argv[argv.index("--out") + 1] if "--out" in argv else None

    def run_cold(self, op, work, env, importtime=False):
        """Run one cold CLI process; returns (output, wall_s, stderr)."""
        argv = self.argv(op, work)
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-m", "renvol.cli"] + argv
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        out_path = self.out_file(argv)
        data = None
        if out_path is not None and os.path.exists(out_path):
            with open(out_path, "r", encoding="utf-8") as fh:
                data = fh.read()
        return (proc.returncode, proc.stdout, data), wall, proc.stderr

    def check(self, inputs, outputs):
        bad = {}
        by_name = {}
        for i, (op, out) in enumerate(zip(inputs["ops"], outputs)):
            if out is None:  # the operation raised; counted as failed already
                continue
            code, stdout, data = out
            by_name[op["name"]] = out
            msgs = []
            if code != op["exit"]:
                msgs.append("exit %r, documented %r" % (code, op["exit"]))
            if op["name"].startswith("replay") and not (stdout.splitlines() or [""])[-1].startswith(
                    "replay matches "):
                msgs.append("replay output %r" % (stdout,))
            if msgs:
                bad[i] = msgs

        def rows(text):
            body = [ln for ln in text.splitlines() if not ln.startswith("#")]
            return list(csv.DictReader(io.StringIO("\n".join(body))))

        def flag(name, msg):
            index = next(i for i, op in enumerate(inputs["ops"]) if op["name"] == name)
            bad.setdefault(index, []).append(msg)

        def table(name, field=1):
            out = by_name.get(name)
            return rows(out[field] or "") if out is not None else None

        hawking = table("hawking-ads")
        for row in hawking or ():
            m_h = float(row["m_H"])
            if abs(m_h / (M_H_FACTOR * inputs["m_ads"]) - 1.0) > 1e-12:
                flag("hawking-ads", "m_H %r at s = %s, closed form 32 pi^1.5 m" % (m_h, row["s"]))
        hawking = table("hawking-rn-ads")
        for row in hawking or ():
            s = float(row["s"])
            ref = -6.0 + 2.0 * inputs["c_rn"] / s ** 4
            if abs(float(row["R"]) - ref) > 1e-11:
                flag("hawking-rn-ads", "R %s at s = %s, closed form %r" % (row["R"], row["s"], ref))
        bounds = table("bounds")
        if bounds is not None and float(bounds[0]["rel_err"]) > 1e-9:
            flag("bounds", "flow bound differs from the shell volume by %s" % bounds[0]["rel_err"])
        gaps = table("ialpha", field=2)
        if gaps is not None:
            gaps = [float(r["value"]) for r in gaps]
            if len(gaps) != 5 or gaps[0] != 0.0 or not all(0.0 <= a < b for a, b in zip(gaps, gaps[1:])):
                flag("ialpha", "I(alpha) not zero at 0 and increasing: %r" % (gaps,))
        margin = table("lemma-aux")
        if margin is not None and not float(margin[0]["margin"]) > 0.0:
            flag("lemma-aux", "margin %s below the threshold ratio" % (margin[0]["margin"],))
        volumes = table("sweep", field=2)
        if volumes is not None:
            volumes = [float(r["V"]) for r in volumes]
            if len(volumes) != 4 or not all(a < b for a, b in zip(volumes, volumes[1:])):
                flag("sweep", "model volume not increasing in m: %r" % (volumes,))
        inline, from_file = table("volume-custom"), table("volume-file")
        if inline is not None and from_file is not None and inline[0]["lhs"] != from_file[0]["lhs"]:
            flag("volume-file", "--profile-file gives %s, --profile gives %s"
                 % (from_file[0]["lhs"], inline[0]["lhs"]))
        return bad


WORKLOADS = {w.name: w for w in (CompareRational(), VolumeFloat(), GapKernel(), CliCold())}
