import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_synthetic_benchmark.py"


def test_small_run_prints_the_improvement_table(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("run_synthetic_benchmark", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    code = script.main(["--out", str(tmp_path / "corpus"), "--tokens", "9", "--states", "3",
                        "--mixtures", "2", "--dim", "4", "--frames", "40", "60",
                        "--max-iter", "2"])
    out = capsys.readouterr().out
    assert code == 0
    table = out[out.index("AVERAGE IMPROVEMENT RATE"):].splitlines()
    assert table[1].split() == ["Model"] + script.DEFAULT_LABELS
    assert table[2].split()[0] == "%" and len(table[2].split()) == 7
