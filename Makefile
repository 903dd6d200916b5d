PYTHON ?= python
RUN := PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON)

# Tier-1 verification: the whole test + benchmark suite, collection included.
verify:
	$(RUN) -m pytest -x -q

# Benchmark tables only (the reproduction artefacts).
bench:
	$(RUN) -m pytest benchmarks/ --benchmark-only -s

# Docs verification: README and docs/ code blocks must parse and run.
verify-docs:
	$(RUN) -m pytest tests/test_docs.py -q

# Benchmark smoke: the whole benchmark suite in quick mode (small sizes, no
# --benchmark-only timing assertions) — proves every experiment still runs.
verify-bench:
	$(RUN) -m pytest benchmarks/ -q

# Evaluator benchmark: replay fast path vs legacy vs seed snapshot, the
# batched sweep vs single fast replay, per-point latency and serial-vs-pool
# identity; writes the git-ignored BENCH_eval.quick.json.
bench-eval:
	$(RUN) -m pytest benchmarks/test_eval_speed.py -q -s

# Same, at dedicated problem sizes with the speedup targets asserted — the
# run that produces the BENCH_eval.json committed to the repository.
bench-eval-full:
	BENCH_EVAL_FULL=1 $(RUN) -m pytest benchmarks/test_eval_speed.py -q -s

# Store benchmark: jsonl vs binary append/load/query, O(tail) refresh and
# compaction shrink; writes the git-ignored BENCH_store.quick.json (quick
# mode: 10^4 entries).
bench-store:
	$(RUN) -m pytest benchmarks/test_store_scale.py -q -s

# Same, at the dedicated 10^5-entry size with the load-speedup target
# asserted — the run that produces the BENCH_store.json committed to the
# repository.
bench-store-full:
	BENCH_STORE_FULL=1 $(RUN) -m pytest benchmarks/test_store_scale.py -q -s

# Streaming benchmark: bounded-memory ingestion throughput, the
# peak-memory-vs-segment-size bound, and segmented-vs-oneshot identity;
# writes the git-ignored BENCH_stream.quick.json (quick mode: 10^5 events).
bench-stream:
	$(RUN) -m pytest benchmarks/test_stream_scale.py -q -s

# Same, at the dedicated 10^6-event log size — the run that produces the
# BENCH_stream.json committed to the repository.
bench-stream-full:
	BENCH_STREAM_FULL=1 $(RUN) -m pytest benchmarks/test_stream_scale.py -q -s

# Search-quality benchmark: the search portfolio's hypervolume-vs-
# evaluations curves against the exhaustive ground truth (plus front-ref
# hypervolume and front recall), with hard gates (nsga2 and tpe >= 95% HV
# at a 5% budget, portfolio best at 1%); writes the git-ignored
# BENCH_search.quick.json.
bench-search:
	$(RUN) -m pytest benchmarks/test_search_quality.py -q -s

# Same, additionally grinding the real VTC decoder trace and the bursty and
# sessions workloads through the protocol (a full exhaustive sweep of the
# 6480-point space for each); writes the tracked BENCH_search.json.
bench-search-full:
	BENCH_SEARCH_FULL=1 $(RUN) -m pytest benchmarks/test_search_quality.py -q -s

# Compare benchmark results metric by metric: perfbench results
# (perfbench/out/results/*.json, several runs of one workload per side
# compare medians) or two BENCH_*.json ledgers.  Flags every end-to-end
# metric that moved past its BENCHMARK.json bound, e.g.
#   make bench-diff OLD=parent-sweep.json NEW=change-sweep.json
#   make bench-diff OLD="parent-1.json parent-2.json" NEW="change-1.json change-2.json"
bench-diff:
	$(RUN) benchmarks/bench_diff.py --old $(OLD) --new $(NEW)

# Streaming verification: the segmented replay and the windowed analysis
# must be byte-identical to the one-shot batch path (the property tests),
# and a CLI `dmexplore windows` artefact must carry the same records as
# the plain `dmexplore explore` artefact for the same experiment (the two
# may differ only in the database name and the cache counters — windowed
# replay profiles every point exactly once, so there is no memo section).
# A gzipped `dmexplore trace` file must read back, through `load_trace` and
# through a streamed `TraceFileSource`, with the generated trace's fingerprint.
STREAM_DIR := .stream-demo
verify-stream:
	$(RUN) -m pytest tests/test_stream.py -q
	rm -rf $(STREAM_DIR) && mkdir -p $(STREAM_DIR)
	$(RUN) -m repro explore --workload diurnal --space smoke --seed 1 \
	  --out $(STREAM_DIR)/explore.json
	$(RUN) -m repro windows --workload diurnal --space smoke --seed 1 \
	  --window-events 500 --out $(STREAM_DIR)/windows.json
	$(RUN) -c 'import json; e = json.load(open("$(STREAM_DIR)/explore.json")); w = json.load(open("$(STREAM_DIR)/windows.json")); s = w.pop("windows"); assert s["count"] >= 1 and s["windows"]; e.pop("cache", None); w["name"] = e["name"]; assert w == e, "windowed records differ from the plain sweep"; print("windowed exploration carries the plain sweep records (and a windows section)")'
	$(RUN) -m repro trace --workload vtc --seed 1 --out $(STREAM_DIR)/vtc.trace.gz
	$(RUN) -c 'from repro.api import registry; from repro.core.exploration import ExplorationEngine; from repro.core.space import STANDARD_SPACES; from repro.stream import TraceFileSource, stream_profile; from repro.workloads import load_trace; path = "$(STREAM_DIR)/vtc.trace.gz"; trace = registry.workloads.create("vtc").generate(seed=1); engine = ExplorationEngine(STANDARD_SPACES["smoke"](), trace); built = engine.factory.build(engine.configuration_for(next(iter(engine.enumerate_points()))[1])); loaded = load_trace(path).fingerprint(); streamed = stream_profile(TraceFileSource(path), built.mapping, built.allocator).fingerprint; assert loaded == streamed == trace.fingerprint(), (loaded, streamed, trace.fingerprint()); print("gzipped trace file reads back with the generated fingerprint through both readers")'
	rm -rf $(STREAM_DIR)

# Store-format verification: the same exploration run against a jsonl and a
# binary store must produce byte-identical artefacts, cold and warm, across
# a conversion round trip and across compaction; with the final entry of
# both torn, `store info` must agree and warm artefacts must still match.
# CI runs the same flow.
STORE_DIR := .store-demo
verify-store:
	rm -rf $(STORE_DIR) && mkdir -p $(STORE_DIR)
	$(RUN) -m repro explore --workload uniform --space smoke --seed 1 \
	  --store $(STORE_DIR)/store.jsonl --out $(STORE_DIR)/jsonl-cold.json
	$(RUN) -m repro explore --workload uniform --space smoke --seed 1 \
	  --store $(STORE_DIR)/store.bin --store-format binary \
	  --out $(STORE_DIR)/binary-cold.json
	cmp $(STORE_DIR)/jsonl-cold.json $(STORE_DIR)/binary-cold.json
	$(RUN) -m repro explore --workload uniform --space smoke --seed 1 \
	  --store $(STORE_DIR)/store.jsonl --out $(STORE_DIR)/jsonl-warm.json
	$(RUN) -m repro explore --workload uniform --space smoke --seed 1 \
	  --store $(STORE_DIR)/store.bin --store-format binary \
	  --out $(STORE_DIR)/binary-warm.json
	cmp $(STORE_DIR)/jsonl-warm.json $(STORE_DIR)/binary-warm.json
	$(RUN) -m repro store convert $(STORE_DIR)/store.jsonl \
	  $(STORE_DIR)/converted.bin --format binary
	$(RUN) -m repro store convert $(STORE_DIR)/converted.bin \
	  $(STORE_DIR)/roundtrip.jsonl --format jsonl
	cmp $(STORE_DIR)/store.jsonl $(STORE_DIR)/roundtrip.jsonl
	$(RUN) -m repro store compact $(STORE_DIR)/store.bin
	$(RUN) -m repro store info $(STORE_DIR)/store.bin
	$(RUN) -m repro explore --workload uniform --space smoke --seed 1 \
	  --store $(STORE_DIR)/store.bin --store-format binary \
	  --out $(STORE_DIR)/binary-compacted.json
	cmp $(STORE_DIR)/binary-warm.json $(STORE_DIR)/binary-compacted.json
	cp $(STORE_DIR)/store.jsonl $(STORE_DIR)/torn.jsonl
	$(RUN) -m repro store convert $(STORE_DIR)/torn.jsonl \
	  $(STORE_DIR)/torn.bin --format binary
	$(RUN) -c 'import os, sys; [os.truncate(p, os.path.getsize(p) - 15) for p in sys.argv[1:]]' \
	  $(STORE_DIR)/torn.jsonl $(STORE_DIR)/torn.bin
	for fmt in jsonl bin; do \
	  $(RUN) -m repro store info $(STORE_DIR)/torn.$$fmt \
	    | grep -E '^(entries|live|dead|corrupt):' > $(STORE_DIR)/torn-$$fmt.info || exit 1; \
	done
	cat $(STORE_DIR)/torn-jsonl.info
	cmp $(STORE_DIR)/torn-jsonl.info $(STORE_DIR)/torn-bin.info
	$(RUN) -m repro explore --workload uniform --space smoke --seed 1 \
	  --store $(STORE_DIR)/torn.jsonl --out $(STORE_DIR)/jsonl-torn.json
	$(RUN) -m repro explore --workload uniform --space smoke --seed 1 \
	  --store $(STORE_DIR)/torn.bin --store-format binary \
	  --out $(STORE_DIR)/binary-torn.json
	cmp $(STORE_DIR)/jsonl-torn.json $(STORE_DIR)/binary-torn.json
	@echo "jsonl and binary stores produce byte-identical artefacts, across conversion, compaction and a torn final entry"
	rm -rf $(STORE_DIR)

# Distributed-story verification: three shard runs, merged, must reproduce
# the single-run exhaustive database byte-identically.  CI runs the same
# flow with the shards on separate matrix workers.
SHARD_DIR := .shard-demo
verify-shards:
	rm -rf $(SHARD_DIR) && mkdir -p $(SHARD_DIR)
	for k in 1 2 3; do \
	  $(RUN) -m repro explore --workload uniform --space smoke --seed 1 \
	    --shard $$k/3 --out $(SHARD_DIR)/shard$$k.json || exit 1; \
	done
	$(RUN) -m repro merge $(SHARD_DIR)/shard1.json $(SHARD_DIR)/shard2.json \
	  $(SHARD_DIR)/shard3.json --out $(SHARD_DIR)/merged.json
	$(RUN) -m repro explore --workload uniform --space smoke --seed 1 \
	  --out $(SHARD_DIR)/full.json
	cmp $(SHARD_DIR)/merged.json $(SHARD_DIR)/full.json
	@echo "3-shard merge reproduces the single-run database byte-identically"
	rm -rf $(SHARD_DIR)

# Distributed-service verification: the in-process protocol/unit tests
# plus the 3-process cluster fault matrix — clean run, killed-and-restarted
# worker, expired-and-re-leased lease, torn store write — each asserting
# the cluster artefact is byte-identical to the single-host run.  CI runs
# the cluster file as a with/without-worker-kill matrix.
verify-cluster:
	$(RUN) -m pytest tests/test_distrib.py tests/test_distrib_cluster.py -q

# Declarative-experiment verification: the default spec emitted by
# `dmexplore spec` must dry-run, run, and produce a database byte-identical
# to the equivalent legacy `dmexplore explore` flag invocation — for the
# exhaustive and one heuristic strategy.  A document still carrying the
# retired `"prune": false, "prune_fraction": 0.25` keys must run to the
# same bytes, and `--set prune=true` must exit 2 without an artefact.  The
# retired `hillclimb` and `surrogate` strategies run nsga2: given one of
# their old params they exit 2 with one line and no artefact, and a
# budget-only run records what nsga2 records.  CI runs the same flow.
SPEC_DIR := .spec-demo
verify-spec:
	rm -rf $(SPEC_DIR) && mkdir -p $(SPEC_DIR)
	$(RUN) -m repro spec --out $(SPEC_DIR)/experiment.json
	$(RUN) -m repro run $(SPEC_DIR)/experiment.json --dry-run > $(SPEC_DIR)/resolved.json
	$(RUN) -m repro run $(SPEC_DIR)/experiment.json \
	  --set workload.name=uniform --set space.name=smoke --set seed=1 \
	  --out $(SPEC_DIR)/run.json
	$(RUN) -m repro explore --workload uniform --space smoke --seed 1 \
	  --out $(SPEC_DIR)/flags.json
	cmp $(SPEC_DIR)/run.json $(SPEC_DIR)/flags.json
	$(RUN) -m repro run $(SPEC_DIR)/experiment.json \
	  --set workload.name=uniform --set space.name=smoke --set seed=1 \
	  --set strategy.name=random --set strategy.params.budget=6 \
	  --out $(SPEC_DIR)/run-random.json
	$(RUN) -m repro explore --workload uniform --space smoke --seed 1 \
	  --strategy random --budget 6 --out $(SPEC_DIR)/flags-random.json
	cmp $(SPEC_DIR)/run-random.json $(SPEC_DIR)/flags-random.json
	$(RUN) -c 'import json; d = json.load(open("$(SPEC_DIR)/experiment.json")); d.update({"prune": False, "prune_fraction": 0.25}); json.dump(d, open("$(SPEC_DIR)/legacy.json", "w"), indent=2)'
	$(RUN) -m repro run $(SPEC_DIR)/legacy.json \
	  --set workload.name=uniform --set space.name=smoke --set seed=1 \
	  --set strategy.name=random --set strategy.params.budget=6 \
	  --out $(SPEC_DIR)/run-legacy.json
	cmp $(SPEC_DIR)/run-legacy.json $(SPEC_DIR)/flags-random.json
	$(RUN) -m repro run $(SPEC_DIR)/experiment.json \
	  --set workload.name=uniform --set space.name=smoke \
	  --set strategy.name=random --set prune=true \
	  --out $(SPEC_DIR)/pruned.json 2> $(SPEC_DIR)/prune.err; test $$? -eq 2
	test ! -e $(SPEC_DIR)/pruned.json
	grep -q '^error: prune:' $(SPEC_DIR)/prune.err
	for row in surrogate:trees hillclimb:neighbours_per_step; do \
	  name=$${row%%:*}; param=$${row#*:}; \
	  $(RUN) -m repro run $(SPEC_DIR)/experiment.json \
	    --set workload.name=uniform --set space.name=smoke \
	    --set strategy.name=$$name --set strategy.params.$$param=10 \
	    --out $(SPEC_DIR)/$$name.json 2> $(SPEC_DIR)/$$name.err; \
	  test $$? -eq 2 || exit 1; \
	  test ! -e $(SPEC_DIR)/$$name.json || exit 1; \
	  test $$(wc -l < $(SPEC_DIR)/$$name.err) -eq 1 || exit 1; \
	  grep -q "'$$name'.*$$param" $(SPEC_DIR)/$$name.err || exit 1; \
	  ! grep -q Traceback $(SPEC_DIR)/$$name.err || exit 1; \
	done
	$(RUN) -m repro explore --workload uniform --space compact --seed 1 \
	  --strategy nsga2 --budget 64 --out $(SPEC_DIR)/flags-nsga2.json
	$(RUN) -m repro explore --workload uniform --space compact --seed 1 \
	  --strategy hillclimb --budget 64 --out $(SPEC_DIR)/flags-hillclimb.json
	$(RUN) -m repro run $(SPEC_DIR)/experiment.json \
	  --set workload.name=uniform --set space.name=compact --set seed=1 \
	  --set strategy.name=surrogate --set strategy.params.budget=64 \
	  --out $(SPEC_DIR)/run-surrogate.json
	$(RUN) -c 'import json, sys; a, *rest = (json.load(open(p)) for p in sys.argv[1:]); assert all((b["name"], b["records"]) == (a["name"], a["records"]) for b in rest), "a retired strategy did not run nsga2"' \
	  $(SPEC_DIR)/flags-nsga2.json $(SPEC_DIR)/flags-hillclimb.json $(SPEC_DIR)/run-surrogate.json
	@echo "spec-driven runs reproduce the flag invocations byte-identically"
	@echo "a spec carrying the retired prune keys runs unchanged; prune=true exits 2"
	@echo "the retired hillclimb and surrogate names run nsga2; their old params exit 2"
	rm -rf $(SPEC_DIR)

.PHONY: verify bench bench-diff bench-eval bench-eval-full bench-store bench-store-full bench-stream bench-stream-full bench-search bench-search-full verify-docs verify-bench verify-shards verify-cluster verify-spec verify-store verify-stream
