#!/usr/bin/env bash
# Observability smoke test: the tracing and live-telemetry planes must
# work end to end on real binaries. Run under a 120s timeout in CI:
#
#   timeout 120 bash scripts/observability_smoke.sh
#
# Four checks:
#   1. inncabs -trace/-profile on a small run: the run verifies, the
#      Chrome trace parses as JSON with task and flow events, and the
#      printed DAG profile reports positive work and span with
#      span <= work.
#   2. perfmon -http against a live server: /metrics serves well-formed
#      Prometheus text (TYPE line + a sample with the expected value)
#      and /series serves JSON.
#   3. perfmon -csv: the capture file has the header row and one row
#      per successful sample.
#   4. a second perfmon -csv run on a counter whose name has commas in
#      it (an /arithmetics/add over two counters): every row still
#      parses as exactly five CSV fields.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=$(mktemp -d)
WORK=$(mktemp -d)
cleanup() {
    kill "${SRV:-}" "${MON:-}" 2>/dev/null || true
    rm -rf "$BIN" "$WORK"
}
trap cleanup EXIT
go build -o "$BIN" ./cmd/inncabs ./cmd/perfmon ./scripts/smokeserver

# --- 1. tracing + DAG profile ------------------------------------------------

TRACE="$WORK/trace.json"
PROFILE="$WORK/profile.txt"
"$BIN/inncabs" -bench fib -size small -samples 1 \
    -trace "$TRACE" -profile >"$PROFILE" 2>&1

grep -q "verification: OK" "$PROFILE" || {
    echo "observability_smoke: FAIL — traced run did not verify"; cat "$PROFILE"; exit 1; }
grep -q "DAG profile" "$PROFILE" || {
    echo "observability_smoke: FAIL — no DAG profile printed"; cat "$PROFILE"; exit 1; }

# The trace must be valid JSON containing task slices and flow arrows.
python3 - "$TRACE" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))
phases = [e.get("ph") for e in events]
assert phases.count("X") > 0, "no task slices in trace"
assert phases.count("s") == phases.count("f") > 0, "unpaired flow events"
assert any(e.get("ph") == "M" and e.get("name") == "thread_name" for e in events), \
    "no thread_name metadata"
print(f"observability_smoke: trace OK ({phases.count('X')} tasks, "
      f"{phases.count('s')} flows)")
EOF

# Work and span must be positive and self-consistent (span <= work).
python3 - "$PROFILE" <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
def dur(label):
    m = re.search(rf"^{label}\s+([\d.]+)(ns|µs|us|ms|s)$", text, re.M)
    assert m, f"no '{label}' line in profile:\n{text}"
    scale = {"ns": 1e-9, "µs": 1e-6, "us": 1e-6, "ms": 1e-3, "s": 1.0}
    return float(m.group(1)) * scale[m.group(2)]
work, span = dur("work"), dur(r"span \(critical path\)")
assert work > 0, "work is zero"
assert span > 0, "span is zero"
assert span <= work, f"span {span} > work {work}"
m = re.search(r"parallelism\s+([\d.]+) logical", text)
assert m and float(m.group(1)) >= 1.0, "logical parallelism < 1"
print(f"observability_smoke: profile OK (work {work:.4f}s, span {span:.4f}s)")
EOF

# --- 2 + 3. live telemetry export --------------------------------------------

ADDR=127.0.0.1:${SMOKE_PORT:-7119}
HTTP=127.0.0.1:${SMOKE_HTTP_PORT:-7219}
COUNTER='/threads{locality#0/total}/count/cumulative'
CSV="$WORK/samples.csv"

"$BIN/smokeserver" -addr "$ADDR" &
SRV=$!
sleep 0.5

"$BIN/perfmon" -addr "$ADDR" -counter "$COUNTER" \
    -n 30 -interval 100ms -timeout 500ms \
    -http "$HTTP" -csv "$CSV" >/dev/null &
MON=$!
sleep 1

METRICS=$(curl -sf "http://$HTTP/metrics")
echo "$METRICS" | grep -q "^# TYPE taskrt_threads_count_cumulative gauge$" || {
    echo "observability_smoke: FAIL — no TYPE line in /metrics:"; echo "$METRICS"; exit 1; }
echo "$METRICS" | grep -Eq '^taskrt_threads_count_cumulative\{locality="0",instance="total"\} [0-9.e+]+$' || {
    echo "observability_smoke: FAIL — no sample line in /metrics:"; echo "$METRICS"; exit 1; }
curl -sf "http://$HTTP/series" | python3 -c '
import json, sys
s = json.load(sys.stdin)["series"]
assert s and s[0]["points"], "empty series"
' || { echo "observability_smoke: FAIL — bad /series JSON"; exit 1; }
echo "observability_smoke: /metrics and /series OK"

RC=0
wait "$MON" || RC=$?

ADD_COUNTER="/arithmetics/add@$COUNTER,$COUNTER"
ADD_CSV="$WORK/add.csv"
ADD_RC=0
"$BIN/perfmon" -addr "$ADDR" -counter "$ADD_COUNTER" \
    -n 3 -interval 100ms -timeout 500ms -csv "$ADD_CSV" >/dev/null || ADD_RC=$?
kill "$SRV" 2>/dev/null || true
wait "$SRV" 2>/dev/null || true
if [ "$RC" -ne 0 ]; then
    echo "observability_smoke: FAIL — perfmon exited $RC"
    exit "$RC"
fi

LINES=$(wc -l <"$CSV")
head -1 "$CSV" | grep -q '^counter,timestamp,value,count,status$' || {
    echo "observability_smoke: FAIL — bad CSV header"; cat "$CSV"; exit 1; }
# The loop tolerates the odd missed sample; gross breakage does not.
if [ "$LINES" -lt 21 ] || [ "$LINES" -gt 31 ]; then
    echo "observability_smoke: FAIL — CSV has $LINES lines, want header + ~30"
    exit 1
fi
echo "observability_smoke: CSV OK ($((LINES - 1)) samples)"

# --- 4. CSV quoting ------------------------------------------------------------

if [ "$ADD_RC" -ne 0 ]; then
    echo "observability_smoke: FAIL — perfmon on $ADD_COUNTER exited $ADD_RC"
    exit "$ADD_RC"
fi
python3 - "$ADD_CSV" "$ADD_COUNTER" <<'EOF'
import csv, sys
rows = list(csv.reader(open(sys.argv[1], newline="")))
assert len(rows) > 1, "no samples in the CSV"
bad = [r for r in rows if len(r) != 5]
assert not bad, f"rows without exactly 5 fields: {bad}"
assert all(r[0] == sys.argv[2] for r in rows[1:]), "counter name not kept whole"
print(f"observability_smoke: quoted CSV OK ({len(rows) - 1} samples)")
EOF
echo "observability_smoke: OK"
