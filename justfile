# Task runner for the simdsim workspace. `just verify` is the tier-1 gate
# and mirrors .github/workflows/ci.yml exactly, so local runs and CI cannot
# drift.

# List available recipes.
default:
    @just --list

# Tier-1: the gate every PR must keep green.
verify:
    cargo build --release --locked
    cargo test -q --locked

# Everything CI runs: tier-1 plus lint gates and bench compilation.
ci: verify lint docs
    cargo bench --no-run --locked

# Formatting and clippy, warnings as errors (CI `lint` job).
lint:
    cargo fmt --check
    cargo clippy --all-targets --locked -- -D warnings

# Rustdoc with warnings as errors (CI `docs` job): a broken or private
# intra-doc link fails.  The registry-crate shims are left out.
docs:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline --locked --exclude proptest --exclude serde --exclude serde_json --exclude serde_derive --exclude criterion

# Regenerate every table and figure of the paper into target/simdsim-results.
reproduce:
    cargo run --release -p simdsim-bench --bin reproduce

# Run a sweep scenario (e.g. `just sweep fig4`, `just sweep -- --list`).
sweep *ARGS:
    cargo run --release -p simdsim-bench --bin sweep -- {{ARGS}}

# The CI smoke: run the fig4 sweep twice; the second run must be all-cached.
sweep-smoke:
    rm -rf target/simdsim-cache
    cargo run --release -p simdsim-bench --bin sweep -- --filter fig4 --jobs 2
    # No pipe here: a pipeline would report tee's exit code, hiding a
    # failing cell in the second run.
    cargo run --release -p simdsim-bench --bin sweep -- --filter fig4 --jobs 2 > /tmp/simdsim-sweep-second.txt
    grep -q 'cached$' /tmp/simdsim-sweep-second.txt
    ! grep -q 'ran$' /tmp/simdsim-sweep-second.txt
    # Grouped ablation runs must write every cell back: warm rows all cached.
    cargo run --release -p simdsim-bench --bin sweep -- --filter ablate --jobs 2
    cargo run --release -p simdsim-bench --bin sweep -- --filter ablate --jobs 2 > /tmp/simdsim-sweep-ablate.txt
    grep -q 'cached$' /tmp/simdsim-sweep-ablate.txt
    ! grep -v -e '^==' -e '^$' /tmp/simdsim-sweep-ablate.txt | grep -qv 'cached$'

# Run the declared benchmark (the BENCHMARK.json command) on one workload:
# `just simbench kernel_cells`, or `just simbench fig5_apps 1 25 1` for a
# traced run.  Workloads: fig5_apps, kernel_cells, service_mix.
simbench W SEED="1" SECONDS="25" TRACE="0":
    cargo run --release --quiet --offline --manifest-path simbench/Cargo.toml -- --workload {{W}} --seed {{SEED}} --seconds {{SECONDS}} --trace {{TRACE}}

# The CI conformance smoke: the full differential corpus, a 200-case
# fuzz run and the linter over every built-in program, via one binary.
conform *ARGS:
    cargo run --release --locked -p simdsim-conform --bin conform -- smoke {{ARGS}}

# Run the criterion microbenchmarks (shimmed harness; prints timings).
bench:
    cargo bench

# Measure simulation throughput (wall time + simulated MIPS per cell) and
# refresh the BENCH_simdsim.json trajectory artifact.
perf *ARGS:
    cargo run --release -p simdsim-bench --bin perf -- {{ARGS}}

# The CI perf smoke: quick-mode throughput bench; artifact must parse and
# report non-zero aggregate MIPS.
perf-smoke:
    cargo run --release --locked -p simdsim-bench --bin perf -- --quick --jobs 1 --out target/BENCH_simdsim.json
    python3 -c "import json,sys; d=json.load(open('target/BENCH_simdsim.json')); sys.exit(0 if d['total']['mips'] > 0 else 1)"

# The CI throughput gate: a fresh quick-mode perf run compared against the
# committed BENCH_simdsim.json baseline over their shared cells; fails when
# instruction-weighted MIPS drops below 0.8x the baseline.  A second run
# with cycle accounting on then gates the profiler's overhead: profiled
# core MIPS must stay above 0.9x the unprofiled run just measured.
perf-check:
    cargo run --release --locked -p simdsim-bench --bin perf -- --quick --jobs 1 --out target/BENCH_simdsim.json
    python3 scripts/check-perf-regression.py target/BENCH_simdsim.json --min-ratio 0.8
    cargo run --release --locked -p simdsim-bench --bin perf -- --quick --profile --jobs 1 --out target/BENCH_simdsim_profiled.json
    python3 scripts/check-perf-regression.py target/BENCH_simdsim_profiled.json target/BENCH_simdsim.json --min-ratio 0.9

# Run the sweep service (e.g. `just serve`, `just serve -- --addr 0.0.0.0:9000`).
serve *ARGS:
    cargo run --release -p simdsim-serve --bin serve -- {{ARGS}}

# Load-test the service. Self-contained by default (spawns an in-process
# server); pass `-- --addr H:P` to hammer an external daemon instead.
loadgen *ARGS:
    cargo run --release -p simdsim-bench --bin loadgen -- --spawn {{ARGS}}

# The CI serving smoke: boot the daemon and drive it end-to-end through
# the sweepctl client binary (submit, cursor-stream cells, cancel a second
# job, list, /metrics), then check the deprecated unversioned aliases.
serve-smoke:
    ./scripts/serve-smoke.sh

# The CI fleet smoke: a coordinator plus two sweepctl workers shard fig4;
# results must be bit-identical to the golden fixture, including after one
# worker is killed mid-job (its leased cells re-queue and finish elsewhere).
fleet-smoke:
    ./scripts/fleet-smoke.sh

# The CI serving-latency gate: fresh self-contained loadgen runs (local
# pool, then a 2-worker fleet) compared against the committed
# BENCH_simdsim.json baseline; fails on a >2x p99 regression in either
# profile (submit or complete).
loadgen-check:
    # Cold result cache: the gate must time the submit→engine→store path,
    # not pure store reads (the committed baseline is measured cold too).
    rm -rf target/simdsim-cache
    cargo run --release --locked -p simdsim-bench --bin loadgen -- --spawn --clients 16 --requests 2 --out target/BENCH_loadgen.json
    python3 scripts/check-loadgen-regression.py target/BENCH_loadgen.json
    rm -rf target/simdsim-cache
    cargo run --release --locked -p simdsim-bench --bin loadgen -- --spawn --fleet 2 --clients 16 --requests 2 --out target/BENCH_loadgen.json
    python3 scripts/check-loadgen-regression.py target/BENCH_loadgen.json --section loadgen_fleet
