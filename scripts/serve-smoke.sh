#!/usr/bin/env bash
# Serving-path smoke: boot the daemon, then drive it end-to-end through
# the typed client binary (sweepctl): health, scenario listing, submit +
# cursor-stream a sweep to completion, cancel a second queued job, list
# both, and scrape /metrics.  A final curl checks the deprecated
# unversioned aliases still answer.  Shared by `just serve-smoke` and the
# CI `serve-smoke` job so they cannot drift.
set -euo pipefail

PORT="${SERVE_SMOKE_PORT:-8951}"
BASE="http://127.0.0.1:${PORT}"
ADDR="127.0.0.1:${PORT}"

cargo build --release --locked -p simdsim-serve -p simdsim-client
target/release/serve --addr "${ADDR}" --jobs 2 &
SERVE_PID=$!
trap 'kill "${SERVE_PID}" 2>/dev/null || true' EXIT

SWEEPCTL="target/release/sweepctl --addr ${ADDR}"
for _ in $(seq 1 40); do
  ${SWEEPCTL} health >/dev/null 2>&1 && break
  sleep 0.5
done
${SWEEPCTL} health | grep -q 'api v1'
${SWEEPCTL} scenarios | grep -q '^fig4'

# Submit + stream the per-cell results through the ?since= cursor; `run`
# exits non-zero unless the job ends `done`.
RUN_OUT=$(mktemp)
${SWEEPCTL} run --scenario fig4 --filter /idct/ | tee "${RUN_OUT}"
CELLS=$(grep -c 'cycles' "${RUN_OUT}")
[ "${CELLS}" -eq 4 ] || { echo "expected 4 streamed idct cells, got ${CELLS}"; exit 1; }
rm -f "${RUN_OUT}"

# Submit a second job and cancel it; the daemon must report it cancelled.
JOB_ID=$(${SWEEPCTL} submit --scenario fig5 | sed -n 's/^job \([0-9]*\).*/\1/p')
[ -n "${JOB_ID}" ] || { echo "no job id from submit"; exit 1; }
${SWEEPCTL} cancel "${JOB_ID}" | grep -qE 'cancelled|running'
# Cooperative cancellation settles between cells; poll briefly.
for _ in $(seq 1 240); do
  ${SWEEPCTL} status "${JOB_ID}" | grep -q '"state": "cancelled"' && break
  sleep 0.5
done
${SWEEPCTL} status "${JOB_ID}" | grep -q '"state": "cancelled"'

# Both jobs show up in the listing.
${SWEEPCTL} list | grep -q 'fig4'
${SWEEPCTL} list | grep -q 'cancelled'

# /metrics reports the completed and cancelled jobs in Prometheus format.
METRICS=$(curl -sf "${BASE}/metrics")
echo "${METRICS}" | grep -q 'simdsim_jobs_total{state="completed"} 1'
echo "${METRICS}" | grep -q 'simdsim_jobs_total{state="cancelled"} 1'
echo "${METRICS}" | grep -q '# TYPE simdsim_cache_hit_ratio gauge'
echo "${METRICS}" | grep -q 'simdsim_simulated_mips'
# Every answered request is counted once: the per-endpoint request totals
# sum to the latency histogram's observation counts.
REQS=$(echo "${METRICS}" | awk '/^simdsim_http_requests_total\{/ {s += $2} END {print s + 0}')
OBSERVED=$(echo "${METRICS}" | awk '/^simdsim_http_request_duration_ms_count\{/ {s += $2} END {print s + 0}')
[ "${REQS}" -gt 0 ] && [ "${REQS}" -eq "${OBSERVED}" ] \
  || { echo "request totals ${REQS} != histogram counts ${OBSERVED}"; exit 1; }

# The deprecated unversioned aliases still answer for legacy curl users.
curl -sf "${BASE}/healthz" | grep -q '"ok"'
curl -sf "${BASE}/scenarios" | grep -q '"fig4"'
curl -sf -X POST -d '{"scenario":"fig4","filter":"/idct/"}' "${BASE}/sweeps" \
  | grep -q '"url":"/v1/sweeps/'

echo "serve-smoke ok"
