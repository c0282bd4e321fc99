# Convenience targets; the source of truth is dune.

.PHONY: all build test check bench faults clean

all: build

build:
	dune build

test:
	dune runtest

# The tier-1 gate: build, tests, the static-analysis report
# (classification, batching, lint) over every application — plus the
# MHP pair analysis diffed against the checked-in expected-warnings
# baseline (test/analyze_expect.txt), so a new static race warning or
# a silently vanished one fails CI — a
# lossy-network smoke test (20% drop must reproduce the clean run's
# races and survive retransmission), record->replay smoke tests
# (a lossy run's trace log and an interval-GC run's trace log must both
# verify cleanly on re-execution, with the identical race set and
# memory checksum), cache-coherent-backend smokes (app runs under
# --backend mesi AND --backend dragon cross-checked against the offline
# oracle, plus record->replay round-trips through both bus trace
# paths), an adversarial-workload smoke (a corpus trace file run
# end-to-end via --trace-file, and a short differential fuzz: seeded
# random programs, detector vs oracle vs by-construction ground truth
# across every backend — the long nightly range lives in CI's fuzz
# job), and the benchmark regression gate: a CI-sized sweep
# whose deterministic outcomes (races, checksums, simulated time, wire
# bytes) must match the checked-in baseline exactly. The wall-clock
# threshold is loose (50%) because the gate runs on heterogeneous
# machines; bench/compare.exe's default 15% is for like-for-like
# comparisons (see docs/BENCH.md). The gate sweep runs at --jobs 1
# because its baseline was recorded sequentially and per-entry
# wall-clock under parallelism includes domain contention — wall is
# only comparable like-for-like. The work pool is gated separately: a
# --jobs 4 sweep is diffed against a --jobs 1 sweep with --ignore-wall,
# proving the fan-out changes nothing observable. The 62-combo
# equivalence matrix is regenerated at --jobs 4 and must be
# byte-identical to the checked-in golden, proving the pool fan-out
# reproduces it exactly. Finally, bad command lines must fail with a
# usage error (Cmdliner's exit 124), not print a message and exit 0 or
# crash with exit 125: an unknown experiment name for `cvm_race table`
# and a non-positive processor count for `cvm_race run`. The root
# command's and every subcommand's --help=plain must write nothing to
# stderr (cmdliner reports bad doc-string markup there and still exits
# 0). One paper-scale
# run closes the gate: Water at 32 processors with detection, whose
# simulated time and race count are diffed against their known values.
# The small-scale runs above cannot show a host cost that grows with
# processors times check-list entries; this run does (it took ~8 s when
# the barrier master re-sorted its bitmap requests per processor).
check:
	dune build
	dune runtest
	dune exec bin/cvm_race.exe -- analyze --all
	dune exec bin/cvm_race.exe -- analyze --all --mhp --json _build/analyze.json --expect test/analyze_expect.txt
	dune exec bin/cvm_race.exe -- run sor --scale small -p 4 --drop 0.2 --watchdog 500
	dune exec bin/cvm_race.exe -- run water --scale small -p 4 --elide
	dune exec bin/cvm_race.exe -- record sor --scale small -p 4 --drop 0.2 -o _build/sor.cvmt
	dune exec bin/cvm_race.exe -- replay _build/sor.cvmt
	dune exec bin/cvm_race.exe -- replay --log-only _build/sor.cvmt
	dune exec bin/cvm_race.exe -- record sor --scale small -p 4 --protocol mw --gc-epochs 2 -o _build/sor_gc.cvmt
	dune exec bin/cvm_race.exe -- replay _build/sor_gc.cvmt
	dune exec bin/cvm_race.exe -- run fft --scale small -p 4 --backend mesi --oracle
	dune exec bin/cvm_race.exe -- record sor --scale small -p 4 --backend mesi -o _build/sor_mesi.cvmt
	dune exec bin/cvm_race.exe -- replay _build/sor_mesi.cvmt
	dune exec bin/cvm_race.exe -- run fft --scale small -p 4 --backend dragon --oracle
	dune exec bin/cvm_race.exe -- record sor --scale small -p 4 --backend dragon -o _build/sor_dragon.cvmt
	dune exec bin/cvm_race.exe -- replay _build/sor_dragon.cvmt
	dune exec bin/cvm_race.exe -- run --trace-file test/corpus/mp-unsync.trace --oracle
	dune exec bin/cvm_race.exe -- fuzz --seed 1 --count 15 --json _build/fuzz_smoke.json
	dune exec bench/main.exe -- --small --jobs 1 sweep --json _build/bench_ci.json
	dune exec bench/compare.exe -- bench/baseline_small.json _build/bench_ci.json --threshold 50
	dune exec bench/main.exe -- --small --jobs 1 --procs 4 sweep --json _build/bench_j1.json
	dune exec bench/main.exe -- --small --jobs 4 --procs 4 sweep --json _build/bench_j4.json
	dune exec bench/compare.exe -- _build/bench_j1.json _build/bench_j4.json --ignore-wall
	dune exec test/gen_equiv_golden.exe -- --jobs 4 _build/perf_equiv_j4.json
	cmp test/golden/perf_equiv.json _build/perf_equiv_j4.json
	dune exec bin/cvm_race.exe -- table bogus; test $$? -eq 124
	dune exec bin/cvm_race.exe -- run sor --scale small -p 0; test $$? -eq 124
	for c in '' run hunt record replay trace table sweep analyze litmus fuzz; do dune exec bin/cvm_race.exe -- $$c --help=plain > /dev/null 2> _build/help_err.txt && test ! -s _build/help_err.txt || { cat _build/help_err.txt; exit 1; }; done
	dune exec bin/cvm_race.exe -- run water -p 32 | sed -n 2,3p > _build/water_p32.txt
	printf 'simulated time: 7955.454 ms\n7440 data race(s):\n' | diff - _build/water_p32.txt

# The full drop-rate sweep over every application (slow; paper scale).
faults:
	dune exec bench/main.exe -- faults

bench:
	dune exec bench/main.exe

clean:
	dune clean
