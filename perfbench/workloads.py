"""The three benchmark workloads: seeded input generators, the CLI calls
of one pass over each work list, and the correctness gate of each call.

A pass is the unit that is timed.  Pass ``i`` of a run draws fresh inputs
from ``(workload, seed, i)``, so no two passes repeat an argument and a
value-keyed cache never hits across passes.  Draws are stratified: every
pass has the same mix of protocol kinds, Fock dims and oracle dims, and
only values inside each stratum vary, so the cost of a pass does not
depend on the seed.
"""

import json
import math
import os
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Item:
    """One in-process CLI call and what its gate needs."""
    span: str
    argv: list
    meta: dict = field(default_factory=dict)


@dataclass
class Outcome:
    rc: object            # exit code, or the exception's class name
    stdout: str
    stderr: str
    seconds: float


def _rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return str(path)


class Workload:
    name = ""

    def __init__(self, js, workdir, seed):
        self.js = js              # the imported jumpsqueeze package
        self.workdir = Path(workdir)
        self.seed = seed
        self.report = {}

    def pass_dir(self, index):
        path = self.workdir / f"pass{index}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def prepare(self, index):
        """Write the inputs of pass ``index``; return its items."""
        raise NotImplementedError

    def check(self, index, items, outcomes):
        """Gate each call of a finished pass; return one message (or
        None) per item."""
        raise NotImplementedError

    def finish_pass(self, index):
        shutil.rmtree(self.pass_dir(index), ignore_errors=True)


def _exit_failure(outcome):
    if outcome.rc != 0:
        tail = outcome.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {outcome.rc}: {tail[0]}"
    return None


# ---------------------------------------------------------------------------
# figure_all


def _sig_unit(value):
    """One unit in the ninth significant digit of ``value``."""
    return 10.0 ** (math.floor(math.log10(abs(value))) - 8)


def compare_csv(text, reference):
    """None if ``text`` matches ``reference`` field by field, numbers to
    within one unit in the ninth significant digit of the reference and
    everything else exactly; else the first difference."""
    got, want = text.splitlines(), reference.splitlines()
    if len(got) != len(want):
        return f"{len(got)} lines, reference has {len(want)}"
    for lineno, (g_line, w_line) in enumerate(zip(got, want), 1):
        if g_line == w_line:
            continue
        sep = ": " if w_line.startswith("#") else ","
        g_fields, w_fields = g_line.split(sep), w_line.split(sep)
        if len(g_fields) != len(w_fields):
            return f"line {lineno}: field count differs"
        for g, w in zip(g_fields, w_fields):
            if g == w:
                continue
            try:
                gv, wv = float(g), float(w)
            except ValueError:
                return f"line {lineno}: {g!r} != {w!r}"
            if wv == 0.0 or not abs(gv - wv) <= _sig_unit(wv):
                return f"line {lineno}: {g} vs reference {w}"
    return None


class FigureAll(Workload):
    name = "figure_all"

    def __init__(self, js, workdir, seed):
        super().__init__(js, workdir, seed)
        self.config_path = _write_json(
            self.workdir / "config.json",
            js.config.default_config_dict())
        js.config.load_config(self.config_path)
        self.references = {
            fid: (REFERENCE_DIR / f"{fid}.csv").read_text(encoding="utf-8")
            for fid in js.figures.FIGURE_IDS}
        self.report = {"figures.csv_byte_identical": None}

    def prepare(self, index):
        order = list(self.js.figures.FIGURE_IDS)
        _rng(self.name, self.seed, index).shuffle(order)
        out = str(self.pass_dir(index))
        return [Item("cli.figure", ["--config", self.config_path, "--out",
                                    out, "figure", fid],
                     {"figure_id": fid, "csv": os.path.join(out, f"{fid}.csv")})
                for fid in order]

    def check(self, index, items, outcomes):
        messages, identical = [], 0
        for item, outcome in zip(items, outcomes):
            failure = _exit_failure(outcome)
            if failure is None:
                fid = item.meta["figure_id"]
                try:
                    with open(item.meta["csv"], encoding="utf-8",
                              newline="") as fh:
                        text = fh.read()
                except OSError as exc:
                    failure = f"{fid}: {exc}"
                else:
                    identical += text == self.references[fid]
                    diff = compare_csv(text, self.references[fid])
                    failure = diff and f"{fid}: {diff}"
            messages.append(failure)
        seen = self.report["figures.csv_byte_identical"]
        self.report["figures.csv_byte_identical"] = (
            identical if seen is None else min(seen, identical))
        return messages


# ---------------------------------------------------------------------------
# protocol_batch

# Strata of one pass: (protocol kind, config fock_dim, r range).  The r
# ranges keep every run inside the supported domains; the "grow" rows
# start at dim 64 with a squeeze that outgrows it, so the CLI's dim
# auto-growth retries (to dim 256) as it does for users.
_PROTOCOL_STRATA = (
    ("S_minus_2r", 64, (0.10, 0.30)),
    ("S_plus_2r", 64, (0.10, 0.30)),
    ("multi_jump", 64, (0.10, 0.25)),
    ("displaced_squeeze", 64, (0.10, 0.30)),
    ("amplify", 64, (0.10, 0.30)),
    ("S_plus_2r", 64, (0.55, 0.75)),          # grows
    ("displaced_squeeze", 64, (0.55, 0.75)),  # grows
    ("S_minus_2r", 160, (0.10, 0.60)),
    ("S_plus_2r", 160, (0.10, 0.60)),
    ("multi_jump", 160, (0.10, 0.35)),
    ("displaced_squeeze", 160, (0.10, 0.60)),
    ("amplify", 160, (0.10, 0.60)),
    ("S_minus_2r", 256, (0.10, 0.75)),
    ("amplify", 256, (0.10, 0.75)),
    ("S_minus_2r", 512, (0.10, 0.75)),
)
R_TOL = 1e-6


class ProtocolBatch(Workload):
    name = "protocol_batch"

    def __init__(self, js, workdir, seed):
        super().__init__(js, workdir, seed)
        self.trap = js.config.load_config().trap
        self.report = {"protocol.max_abs_dR": 0.0,
                       "protocol.runs_grown": 0, "protocol.runs": 0}

    def prepare(self, index):
        rng = _rng(self.name, self.seed, index)
        out = self.pass_dir(index)
        items = []
        for k, (kind, dim, (r_lo, r_hi)) in enumerate(_PROTOCOL_STRATA):
            kwargs = {"r": rng.uniform(r_lo, r_hi)}
            if kind == "multi_jump":
                kwargs["n_jumps"] = rng.choice((2, 3))
            if kind in ("displaced_squeeze", "amplify"):
                kwargs["alpha_i"] = rng.uniform(0.4, 0.9)
            nbar0 = rng.uniform(0.15, 0.35)
            proto = self.js.protocol.builtin_protocol(kind, self.trap,
                                                      **kwargs)
            proto_path = str(out / f"protocol{k}.json")
            self.js.protocol.save_protocol(proto, proto_path)
            config_path = _write_json(out / f"config{k}.json",
                                      {"fock_dim": dim, "nbar0": nbar0})
            items.append(Item("cli.protocol_run",
                              ["--config", config_path, "protocol", "run",
                               proto_path],
                              {"protocol": proto_path, "config": config_path,
                               "kind": kind, "fock_dim": dim}))
        rng.shuffle(items)
        return items

    def check(self, index, items, outcomes):
        messages = []
        for item, outcome in zip(items, outcomes):
            failure = _exit_failure(outcome)
            if failure is None:
                try:
                    failure = self._check_R(item, json.loads(outcome.stdout))
                except (ValueError, KeyError) as exc:
                    failure = f"unreadable result: {exc}"
            messages.append(failure)
        self.report["protocol.runs"] += len(items)
        return messages

    def _check_R(self, item, doc):
        """The Fock run's R against the symplectic route at the same dim."""
        js = self.js
        config = js.config.load_config(item.meta["config"])
        proto = js.protocol.load_protocol(item.meta["protocol"])
        dim = int(doc["fock_dim"])
        if dim != item.meta["fock_dim"]:
            self.report["protocol.runs_grown"] += 1
        summary = js.protocol.run_symplectic(proto, config.trap)
        rho = js.protocol.implied_state(summary, config.nbar0, dim)
        R_ref = js.spectroscopy.sideband_populations(
            js.fock.number_distribution(rho), config.rabi).R
        dR = abs(float(doc["R"]) - R_ref)
        self.report["protocol.max_abs_dR"] = max(
            self.report["protocol.max_abs_dR"], dR)
        if not dR <= R_TOL:
            return (f"{item.meta['kind']} at dim {dim}: R {doc['R']} vs "
                    f"symplectic {R_ref}")
        return None


# ---------------------------------------------------------------------------
# selfcheck_grid

# Each drawn value stays in the oracle-dim bucket of the default grid
# value it replaces, so every pass builds operators at the same dims.
_R_STRATA = ((-1.60, -1.35), (-1.00, -0.55), (0.05, 0.50), (0.55, 1.00),
             (1.05, 1.30), (1.35, 1.60))
_ALPHA_STRATA = ((0.30, 0.70), (1.20, 1.80), (2.60, 3.00))
_AMPLITUDE_STRATA = ((0.20, 0.25), (0.27, 0.33), (0.34, 0.39))


class SelfcheckGrid(Workload):
    name = "selfcheck_grid"

    def __init__(self, js, workdir, seed):
        super().__init__(js, workdir, seed)
        self.report = {"selfcheck.worst": {}}

    def prepare(self, index):
        rng = _rng(self.name, self.seed, index)
        doc = {
            "fock_dim": 64,
            "nbar0": rng.uniform(0.15, 0.30),
            "selfcheck": {
                "element_r_values": [rng.uniform(*s) for s in _R_STRATA],
                "element_alpha_values": [rng.uniform(*s)
                                         for s in _ALPHA_STRATA],
                "element_n_max": 20,
                "state_amplitudes": [rng.uniform(*s)
                                     for s in _AMPLITUDE_STRATA],
                "alpha_i": rng.uniform(0.5, 0.8),
            },
        }
        path = _write_json(self.pass_dir(index) / "config.json", doc)
        self.js.config.load_config(path)
        return [Item("cli.selfcheck", ["--config", path, "selfcheck"])]

    def check(self, index, items, outcomes):
        messages = []
        worst = self.report["selfcheck.worst"]
        for outcome in outcomes:
            for line in outcome.stdout.splitlines():
                status, _, rest = line.partition("  ")
                name, sep, tail = rest.partition(": worst deviation ")
                if status in ("pass", "FAIL") and sep:
                    value = float(tail.split()[0])
                    worst[name] = max(worst.get(name, 0.0), value)
            failure = _exit_failure(outcome)
            if failure is None and "all checks passed" not in outcome.stdout:
                failure = "selfcheck did not report a pass"
            messages.append(failure)
        return messages


WORKLOADS = {cls.name: cls for cls in (FigureAll, ProtocolBatch,
                                       SelfcheckGrid)}
