"""README drift: its Python quick start runs, and its config key list is the parser's."""

import re
from pathlib import Path

import numpy as np

from ddmod import harness
from ddmod.config import ConfigError
from ddmod.harness import config_from_dict

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_quick_start_runs(capsys):
    block = README.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    words = capsys.readouterr().out.split()
    assert words[:2] == ["net", "SINR:"] and words[3:] == ["dB"]
    assert np.isfinite(float(words[2]))


def test_readme_lists_every_config_key():
    section = README.split("Recognized keys:", 1)[1].split(")", 1)[0]
    listed = {key for span in re.findall(r"`([^`]+)`", section) for key in span.split()}
    guards = {"n_guard_" + wf.replace("-", "_") for wf in harness.WAVEFORMS}
    assert listed == (set(harness._MODEM_KEYS) | harness._INT_KEYS | harness._LIST_KEYS
                      | guards)
    for key in listed:
        try:
            config_from_dict({key: "1"})
        except ConfigError as exc:
            assert "unknown key" not in str(exc), key
