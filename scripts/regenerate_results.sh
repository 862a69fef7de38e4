#!/usr/bin/env bash
# Regenerate every full-scale experiment output under results/.
# Usage: scripts/regenerate_results.sh [python]
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
PY="${1:-python3}"
mkdir -p results
for exp in table2 table3 fig2 fig4 fig5 fig6 fig7 table5 headline tsp reactive; do
    echo "== $exp =="
    "$PY" -c "from repro.cli import main; import sys; sys.exit(main(['run', '$exp']))" \
        | tee "results/$exp.txt"
done
# fig3 at a finer sweep than the default benchmark granularity.
"$PY" -c "from repro.cli import main; import sys; sys.exit(main(['run', 'fig3', '-o', 'step=0.2']))" \
    | tee results/fig3.txt
# scaling writes both the JSON headline and the rendered figure.
echo "== scaling =="
"$PY" - <<'EOF'
import json
from repro.experiments.registry import run_experiment
res = run_experiment("scaling")
with open("results/scaling.json", "w") as fh:
    json.dump(res.headline(), fh, indent=1, sort_keys=True)
    fh.write("\n")
with open("results/scaling.txt", "w") as fh:
    fh.write(res.format() + "\n")
print(open("results/scaling.txt").read())
EOF
# realtime likewise: JSON headline (schedulability gap) + ascii figure.
echo "== realtime =="
"$PY" - <<'EOF'
import json
from repro.experiments.registry import run_experiment
res = run_experiment("realtime")
with open("results/realtime.json", "w") as fh:
    json.dump(res.headline(), fh, indent=1, sort_keys=True)
    fh.write("\n")
with open("results/realtime.txt", "w") as fh:
    fh.write(res.format() + "\n")
print(open("results/realtime.txt").read())
EOF
echo "all results regenerated under results/"
