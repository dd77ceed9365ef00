# File-based workflow: schema inference from CSV and the four-step
# command-line pipeline driven by one JSON config.

import json
import tempfile
from pathlib import Path

from gcmi import read_csv
from gcmi.cli import cli_main

with tempfile.TemporaryDirectory(prefix="gcmi_demo_") as tmp:
    work = Path(tmp)
    print("working under", work)

    # --- schema inference -----------------------------------------------
    csv_path = work / "patients.csv"
    csv_path.write_text(
        "age,bmi,smoker,ward\n"
        "34,22.5,no,A\n"
        "51,NA,yes,B\n"
        "47,31.0,no,C\n"
        ",27.2,yes,A\n"
        "29,24.8,NA,B\n"
    )
    dm = read_csv(csv_path)
    for col, frac in zip(dm.schema, dm.missing_fraction()):
        levels = f" levels={col.levels}" if col.levels else ""
        print(f"  {col.name}: {col.kind}{levels}  missing {frac:.0%}")

    # --- the CLI pipeline from a single config --------------------------
    config = {
        "seed": 7,
        "output_dir": str(work / "run"),
        "train": {"max_epochs": 100, "gen_iters_per_cycle": 25,
                  "disc_iters_per_cycle": 5, "batch_size": 64, "noise_dim": 4},
        "gcmi": {"m_imputations": 2, "max_chain_iters": 1},
        "simulate": {"n": 120, "p": 5, "rho": 0.3},
        "ampute": {"input": "synthetic.csv", "mechanism": "mcar", "rate": 0.3},
        "impute": {"input": "amputed_values.csv"},
        "benchmark": {
            "synthetic": {"n": 120, "p": 5},
            "mechanisms": [{"mechanism": "mcar", "rate": 0.3}],
            "methods": [{"kind": "mean"}],
            "mc_repeats": 2,
        },
    }
    cfg_path = work / "pipeline.json"
    cfg_path.write_text(json.dumps(config, indent=2))

    for command in ("simulate", "ampute", "impute", "benchmark"):
        code = cli_main(["--config", str(cfg_path), command])
        print(f"gcmi {command}: exit {code}")

    produced = sorted(p.name for p in (work / "run").iterdir())
    print("\nfiles produced:", produced)
    manifest = json.loads((work / "run" / "imputed_manifest.json").read_text())
    print("imputation manifest: m =", manifest["m_imputations"],
          "stop reasons:", [t["stop_reason"] for t in manifest["traces"]])
