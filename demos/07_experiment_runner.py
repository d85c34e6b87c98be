"""Drive the whole laboratory from one declarative config.

The runner executes each configured experiment once, drawing no random
numbers, and assembles a JSON-serializable bundle; a fixed config
reproduces the report byte for byte (its seed is only echoed in the
manifest).  The same machinery is reachable from the command line,
where ``validate`` is a run that writes nothing:

    timeop demo --out out
    timeop validate --config demos/experiment.cfg
    timeop run --config demos/experiment.cfg --out out
"""

import tempfile
from pathlib import Path

from timeop import parse_config, run_experiments, emit_report
from timeop.config import DEMO_CONFIG

config = parse_config(DEMO_CONFIG)
print("demo configuration: baker m=2, gumbel(1.0), seed", config.seed)
print("experiments:", ", ".join(e.name for e in config.experiments))

bundle = run_experiments(config)
print("\nper-experiment status:")
for record in bundle.records:
    print(f"  {record['name']:13s} {record['status']}")
print("summary:", bundle.summary)

with tempfile.TemporaryDirectory() as tmp:
    paths = emit_report(bundle, tmp)
    print("\nartifacts written:")
    for p in paths:
        print(f"  {Path(p).name:22s} {Path(p).stat().st_size:6d} bytes")
    again = run_experiments(config)
    emit_report(again, Path(tmp) / "again")
    identical = (Path(tmp) / "report.json").read_bytes() == \
        (Path(tmp) / "again/report.json").read_bytes()
    print("\nsecond run byte-identical:", identical)

print("\nexit-code contract: 0 iff every gated experiment passed;")
print("the positivity sweep is recorded, not gated, by default")
