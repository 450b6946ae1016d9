"""Report serialization: sweep.csv, summary.json, plotdata/*.csv, error records.

Every file is written atomically (temp file in the target directory, then
os.replace) and deterministically: floats use the shortest round-trip decimal
(repr), JSON keys are sorted, and nothing records wall-clock time.
"""
from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

SWEEP_FIELDS = (
    "eps",
    "hbar",
    "time",
    "kinetic_modulated",
    "field_energy",
    "relative_entropy",
    "total_modulated",
    "conserved_total",
    "h_minus1_density_error",
    "l1_entropy_error",
    "current_weak_error",
)

# diagnostics that get one plotdata/<name>.csv each
PLOT_DIAGNOSTICS = (
    "total_modulated",
    "conserved_total",
    "h_minus1_density_error",
    "l1_entropy_error",
    "current_weak_error",
)


def format_cell(value) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _umask() -> int:
    umask = os.umask(0)
    os.umask(umask)
    return umask


def write_text_atomic(path: Path, text: str) -> None:
    """Write `text` to `path` through a temp file beside it, with the mode a
    plain open would give a new file (0o666 less the umask; mkstemp's is 0o600)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    write_text_atomic(path, "\n".join(lines) + "\n")


def emit_sweep_csv(out_dir: Path, rows) -> Path:
    """rows: iterable of dicts keyed by SWEEP_FIELDS."""
    path = Path(out_dir) / "sweep.csv"
    emit_csv(path, SWEEP_FIELDS, ([row[f] for f in SWEEP_FIELDS] for row in rows))
    return path


def emit_plotdata(out_dir: Path, rows) -> list[Path]:
    """One small CSV per diagnostic, columns (eps, hbar, time, value)."""
    written = []
    for name in PLOT_DIAGNOSTICS:
        path = Path(out_dir) / "plotdata" / f"{name}.csv"
        emit_csv(path, ("eps", "hbar", "time", "value"),
                 ([row["eps"], row["hbar"], row["time"], row[name]] for row in rows))
        written.append(path)
    return written


def emit_summary(out_dir: Path, summary: dict) -> Path:
    path = Path(out_dir) / "summary.json"
    write_text_atomic(path, json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return path


def emit_error_records(out_dir: Path, errors) -> Path | None:
    """Write errors.json; with no records, remove one an earlier run left."""
    path = Path(out_dir) / "errors.json"
    if not errors:
        path.unlink(missing_ok=True)
        return None
    write_text_atomic(path, json.dumps(list(errors), sort_keys=True, indent=2) + "\n")
    return path
