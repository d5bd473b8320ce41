// Micro-benchmarks (google-benchmark): simulation kernel throughput, EA
// evaluation overhead (the execution-time side of Table 3's resource
// argument), golden-run capture, injection-engine speedup, and
// analysis-algorithm scaling on synthetic layered systems.
//
// With --batch-json=PATH the binary skips the benchmark registry and
// instead times one paired permeability campaign — the batched injection
// engine (DESIGN.md §9) against `--no-batch` replay — verifies the two
// matrices are cell-identical (values and estimation counts), and writes
// the comparison (ticks/s, runs/s, speedup, per-lane retirement counters)
// to PATH (committed as BENCH_batch.json). Scale with EPEA_CASES /
// EPEA_TIMES.
//
// With --metrics-json=PATH it instead times the observability overhead:
// the same campaign with the tracer+metrics hot path armed vs disarmed
// (best of EPEA_OBS_REPS repetitions each), writing wall times, the
// overhead percentage, span counts and the run's metric snapshot to PATH
// (committed as BENCH_obs.json).
//
// With --timeline-json=PATH it times the flight-recorder sampler
// (DESIGN.md §15): the same campaign executed through the campaign
// executor with the timeline sampler at the default cadence vs disabled
// (interval 0), interleaved best-of-EPEA_OBS_REPS, writing wall/CPU
// times and the overhead percentages to PATH (committed as
// BENCH_timeline.json — the <1% sampler-overhead gate).
//
// With --analytic-json=PATH it benchmarks the analytic subsystem: the
// propagation engine's query latency over all ordered source→sink pairs
// on the paper matrix (cold = fixpoint solves, warm = cached reach
// profiles), and the delta-campaign planner's savings for a one-module
// edit — planned-run arithmetic plus measured wall time of a full vs a
// CALC-filtered estimate (committed as BENCH_analytic.json).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analytic/engine.hpp"
#include "campaign/executor.hpp"
#include "campaign/spec.hpp"
#include "ea/calibrate.hpp"
#include "epic/impact.hpp"
#include "epic/matrix.hpp"
#include "epic/measures.hpp"
#include "epic/paths.hpp"
#include "exp/arrestment_experiments.hpp"
#include "exp/paper_data.hpp"
#include "fi/fastpath.hpp"
#include "fi/golden.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "synth/generator.hpp"
#include "target/arrestment_system.hpp"

namespace {

using namespace epea;

/// One full arrestment simulation (~9000 ticks of 6 module invocations).
void BM_ArrestmentRun(benchmark::State& state) {
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[12]);
    std::uint64_t ticks = 0;
    for (auto _ : state) {
        const runtime::RunResult rr = sys.run_arrestment();
        ticks += rr.ticks;
        benchmark::DoNotOptimize(rr.ticks);
    }
    state.counters["ticks/s"] = benchmark::Counter(
        static_cast<double>(ticks), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ArrestmentRun)->Unit(benchmark::kMillisecond);

/// The same run with the full EH-set of 7 EAs armed — the relative
/// slowdown is the execution-time overhead of the EA placement.
void BM_ArrestmentRunWithEas(benchmark::State& state) {
    const auto ea_count = static_cast<std::size_t>(state.range(0));
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[12]);
    const fi::GoldenRun gr = fi::capture_golden_run(sys.sim(), target::kMaxRunTicks);
    sys.sim().enable_trace(false);
    ea::EaBank bank = exp::make_calibrated_bank(sys.system(), {gr.trace});
    sys.sim().clear_monitors();
    for (std::size_t i = 0; i < std::min(ea_count, bank.size()); ++i) {
        sys.sim().add_monitor(&bank.at(i));
    }
    for (auto _ : state) {
        const runtime::RunResult rr = sys.run_arrestment();
        benchmark::DoNotOptimize(rr.ticks);
    }
    sys.sim().clear_monitors();
}
BENCHMARK(BM_ArrestmentRunWithEas)->Arg(0)->Arg(4)->Arg(7)->Unit(benchmark::kMillisecond);

/// Raw EA check throughput (one value-pair evaluation).
void BM_EaEvaluate(benchmark::State& state) {
    ea::EaParams params;
    params.type = ea::EaType::kContinuous;
    params.min = 0;
    params.max = 1000;
    params.max_rate_up = 16;
    params.max_rate_down = 16;
    std::int64_t v = 0;
    for (auto _ : state) {
        v = (v + 7) % 1000;
        benchmark::DoNotOptimize(
            ea::ExecutableAssertion::violates(params, v, (v + 7) % 1000, true));
    }
}
BENCHMARK(BM_EaEvaluate);

/// Golden-run capture including full trace recording.
void BM_GoldenRunCapture(benchmark::State& state) {
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[0]);
    for (auto _ : state) {
        const fi::GoldenRun gr = fi::capture_golden_run(sys.sim(), target::kMaxRunTicks);
        benchmark::DoNotOptimize(gr.length);
    }
}
BENCHMARK(BM_GoldenRunCapture)->Unit(benchmark::kMillisecond);

/// Impact computation over the target (paper matrix): all signals vs TOC2.
void BM_ImpactProfileTarget(benchmark::State& state) {
    const model::SystemModel system = target::make_arrestment_model();
    const epic::PermeabilityMatrix pm = exp::paper_matrix(system);
    const model::SignalId toc2 = system.signal_id("TOC2");
    for (auto _ : state) {
        benchmark::DoNotOptimize(epic::impact_profile(pm, toc2));
    }
}
BENCHMARK(BM_ImpactProfileTarget);

/// Path enumeration scaling on random layered systems.
void BM_ForwardPathsSynthetic(benchmark::State& state) {
    synth::LayeredOptions options;
    options.layers = static_cast<std::size_t>(state.range(0));
    options.modules_per_layer = 4;
    options.edge_density = 0.5;
    options.seed = 99;
    const synth::SyntheticSystem s = synth::random_layered_system(options);
    const auto inputs = s.system->signals_with_role(model::SignalRole::kSystemInput);
    std::size_t paths = 0;
    for (auto _ : state) {
        for (const auto in : inputs) {
            paths += epic::forward_paths(s.matrix, in).size();
        }
    }
    state.counters["paths"] = static_cast<double>(paths) /
                              static_cast<double>(state.iterations());
}
BENCHMARK(BM_ForwardPathsSynthetic)->Arg(3)->Arg(5)->Arg(7);

/// Exposure profile scaling with system size.
void BM_ExposureProfileSynthetic(benchmark::State& state) {
    synth::LayeredOptions options;
    options.layers = static_cast<std::size_t>(state.range(0));
    options.modules_per_layer = 8;
    options.seed = 7;
    const synth::SyntheticSystem s = synth::random_layered_system(options);
    for (auto _ : state) {
        benchmark::DoNotOptimize(epic::exposure_profile(s.matrix));
    }
}
BENCHMARK(BM_ExposureProfileSynthetic)->Arg(4)->Arg(16)->Arg(64);

/// One small permeability campaign (2 cases, 1 moment per bit), replay
/// vs the batched engine selected by the arg — the per-iteration time
/// ratio is the engine's speedup at micro scale.
void BM_CampaignBatch(benchmark::State& state) {
    target::ArrestmentSystem sys;
    exp::CampaignOptions options;
    options.case_count = 2;
    options.times_per_bit = 1;
    options.use_batch = state.range(0) != 0;
    fi::FastPathStats stats;
    options.fastpath_out = &stats;
    fi::GoldenCache cache;  // keep goldens warm across iterations
    options.golden_cache = &cache;
    for (auto _ : state) {
        benchmark::DoNotOptimize(exp::estimate_arrestment_permeability(sys, options));
    }
    const auto runs = static_cast<double>(stats.runs());
    const auto covered = static_cast<double>(stats.ticks_executed + stats.ticks_saved);
    state.counters["runs/s"] = benchmark::Counter(runs, benchmark::Counter::kIsRate);
    state.counters["ticks/s"] = benchmark::Counter(covered, benchmark::Counter::kIsRate);
    state.counters["lanes"] = static_cast<double>(stats.lanes_launched) /
                              static_cast<double>(state.iterations());
    state.counters["sealed_pct"] =
        stats.lanes_launched > 0
            ? 100.0 * static_cast<double>(stats.lanes_retired_sealed) /
                  static_cast<double>(stats.lanes_launched)
            : 0.0;
}
BENCHMARK(BM_CampaignBatch)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// --------------------------------------------------- --batch-json mode

struct CampaignTiming {
    double wall_s = 0.0;
    std::size_t runs = 0;
    fi::FastPathStats stats;
};

CampaignTiming time_permeability_campaign(
    const exp::CampaignOptions& base, bool batch,
    std::vector<epic::PairEntry>* entries_out = nullptr) {
    static const model::SystemModel system = target::make_arrestment_model();
    CampaignTiming t;
    const auto t0 = std::chrono::steady_clock::now();
    campaign::CampaignExecutor executor(
        "", campaign::CampaignSpec::from_options(campaign::CampaignKind::kPermeability,
                                                 base));
    campaign::ExecutorOptions options;
    options.use_batch = batch;
    executor.run(options);
    const epic::PermeabilityMatrix pm = executor.merged_matrix(system);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(&pm);
    t.wall_s = std::chrono::duration<double>(t1 - t0).count();
    t.stats = executor.fastpath_totals();
    t.runs = static_cast<std::size_t>(t.stats.runs());
    if (entries_out) *entries_out = pm.entries();
    return t;
}

/// Cell-exact matrix comparison: values and estimation counts must match
/// bit-for-bit (the batch kernel's identity contract).
bool entries_identical(const std::vector<epic::PairEntry>& a,
                       const std::vector<epic::PairEntry>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].module != b[i].module || a[i].in_port != b[i].in_port ||
            a[i].out_port != b[i].out_port || a[i].value != b[i].value ||
            a[i].affected != b[i].affected || a[i].active != b[i].active) {
            return false;
        }
    }
    return true;
}

void print_timing_json(std::FILE* f, const char* name, const CampaignTiming& t,
                       bool with_lanes = false) {
    const double covered =
        static_cast<double>(t.stats.ticks_executed + t.stats.ticks_saved);
    std::fprintf(f,
                 "  \"%s\": {\n"
                 "    \"wall_s\": %.6f,\n"
                 "    \"runs\": %zu,\n"
                 "    \"runs_per_s\": %.1f,\n"
                 "    \"ticks_executed\": %llu,\n"
                 "    \"ticks_saved\": %llu,\n"
                 "    \"ticks_per_s\": %.1f,\n"
                 "    \"forked_runs\": %llu,\n"
                 "    \"pruned_runs\": %llu,\n"
                 "    \"skipped_runs\": %llu,\n"
                 "    \"pruned_pct\": %.2f,\n"
                 "    \"cache_hits\": %llu,\n"
                 "    \"cache_misses\": %llu",
                 name, t.wall_s, t.runs,
                 t.wall_s > 0 ? static_cast<double>(t.runs) / t.wall_s : 0.0,
                 static_cast<unsigned long long>(t.stats.ticks_executed),
                 static_cast<unsigned long long>(t.stats.ticks_saved),
                 t.wall_s > 0 ? covered / t.wall_s : 0.0,
                 static_cast<unsigned long long>(t.stats.forked_runs),
                 static_cast<unsigned long long>(t.stats.pruned_runs),
                 static_cast<unsigned long long>(t.stats.skipped_runs),
                 t.runs > 0 ? 100.0 * static_cast<double>(t.stats.pruned_runs) /
                                  static_cast<double>(t.runs)
                            : 0.0,
                 static_cast<unsigned long long>(t.stats.cache_hits),
                 static_cast<unsigned long long>(t.stats.cache_misses));
    if (with_lanes) {
        std::fprintf(f,
                     ",\n"
                     "    \"lanes_launched\": %llu,\n"
                     "    \"lanes_retired_pruned\": %llu,\n"
                     "    \"lanes_retired_sealed\": %llu,\n"
                     "    \"lanes_retired_end\": %llu,\n"
                     "    \"lanes_retired_merged\": %llu",
                     static_cast<unsigned long long>(t.stats.lanes_launched),
                     static_cast<unsigned long long>(t.stats.lanes_retired_pruned),
                     static_cast<unsigned long long>(t.stats.lanes_retired_sealed),
                     static_cast<unsigned long long>(t.stats.lanes_retired_end),
                     static_cast<unsigned long long>(t.stats.lanes_retired_merged));
    }
    std::fprintf(f, "\n  }");
}

/// Paired batch-vs-replay Table-1 permeability campaign: the reference
/// arm replays every run from tick 0 (`--no-batch`), the batch arm forks
/// the one-shot plans as lockstep lanes. The two matrices must be
/// cell-identical — the comparison is refused otherwise. Writes the
/// timing comparison to `path` and returns a process exit code.
int write_batch_json(const std::string& path) {
    const exp::CampaignOptions options = exp::CampaignOptions::from_env();
    std::fprintf(stderr, "batch bench: %zu cases x %zu moments per bit\n",
                 options.case_count, options.times_per_bit);
    std::vector<epic::PairEntry> replay_entries;
    const CampaignTiming replay =
        time_permeability_campaign(options, false, &replay_entries);
    std::fprintf(stderr, "  replay (--no-batch): %.2fs, %zu runs\n", replay.wall_s,
                 replay.runs);
    std::vector<epic::PairEntry> batch_entries;
    const CampaignTiming batch =
        time_permeability_campaign(options, true, &batch_entries);
    std::fprintf(stderr, "  batch:               %.2fs, %zu runs\n", batch.wall_s,
                 batch.runs);
    if (replay.runs != batch.runs) {
        std::fprintf(stderr, "error: run counts differ (batch %zu vs replay %zu)\n",
                     batch.runs, replay.runs);
        return 1;
    }
    if (!entries_identical(replay_entries, batch_entries)) {
        std::fprintf(stderr, "error: batch matrix differs from replay matrix\n");
        return 1;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"BM_CampaignBatch\",\n");
    std::fprintf(f, "  \"campaign\": \"table1_permeability\",\n");
    std::fprintf(f, "  \"cases\": %zu,\n  \"times_per_bit\": %zu,\n",
                 options.case_count, options.times_per_bit);
    std::fprintf(f, "  \"matrices_identical\": true,\n");
    print_timing_json(f, "replay", replay);
    std::fprintf(f, ",\n");
    print_timing_json(f, "batch", batch, /*with_lanes=*/true);
    std::fprintf(f, ",\n  \"speedup\": %.2f\n}\n",
                 batch.wall_s > 0 ? replay.wall_s / batch.wall_s : 0.0);
    std::fclose(f);
    std::fprintf(stderr, "  speedup: %.2fx -> %s\n",
                 batch.wall_s > 0 ? replay.wall_s / batch.wall_s : 0.0, path.c_str());
    return 0;
}

// ------------------------------------------------- --metrics-json mode

/// Observability overhead on the Table-1 permeability campaign, replayed:
/// tracer and metrics armed vs disarmed in the same binary (the armed run
/// bounds what `campaign run` pays — replay carries the densest span
/// sites; a build with -DEPEA_OBS_ENABLED=OFF compiles even the disarmed
/// checks away). Best-of-N wall times tame scheduler noise at small
/// campaign sizes.
int write_obs_json(const std::string& path) {
    const exp::CampaignOptions options = exp::CampaignOptions::from_env();
    std::size_t reps = 3;
    if (const char* r = std::getenv("EPEA_OBS_REPS")) {
        reps = std::max<std::size_t>(1, std::strtoull(r, nullptr, 10));
    }
    std::fprintf(stderr, "obs bench: %zu cases x %zu moments per bit, %zu rep(s)\n",
                 options.case_count, options.times_per_bit, reps);

    obs::Tracer& tracer = obs::Tracer::instance();
    struct ArmTiming {
        CampaignTiming t;
        double cpu_s = 0.0;
    };
    const auto timed = [&](bool armed) {
        tracer.clear();
        tracer.set_enabled(armed);
        ArmTiming a;
        const double cpu0 = obs::process_cpu_seconds();
        // Replay opens sampled spans per run (fi.run, sim.run) — the
        // densest instrumentation; the batched engine records one span
        // per flush, too few to measure against run-to-run noise.
        a.t = time_permeability_campaign(options, /*batch=*/false);
        a.cpu_s = obs::process_cpu_seconds() - cpu0;
        return a;
    };

    timed(false);  // warm-up: first run pays one-time init costs

    // Interleave the arms so slow machine drift (thermal, background
    // load) hits both equally, take best-of-N per arm, and compare CPU
    // time — on a shared box wall-clock noise swamps a <2% effect, while
    // CPU time charges only the work this process actually did.
    ArmTiming off;
    ArmTiming on;
    const obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
    std::vector<obs::SpanEvent> events;
    std::uint64_t dropped = 0;
    for (std::size_t r = 0; r < reps; ++r) {
        const ArmTiming o = timed(false);
        if (r == 0 || o.cpu_s < off.cpu_s) off = o;
        const ArmTiming i = timed(true);
        if (r == 0 || i.cpu_s < on.cpu_s) on = i;
        // Keep the spans of the last armed rep; drain also empties the
        // rings so each rep starts from an equally empty buffer.
        events = tracer.drain();
        dropped = tracer.dropped();
        std::fprintf(stderr, "  rep %zu: off %.3fs cpu (%.3fs wall), "
                     "on %.3fs cpu (%.3fs wall)\n",
                     r + 1, o.cpu_s, o.t.wall_s, i.cpu_s, i.t.wall_s);
    }
    // Every campaign records its own fi.* counters per shard, so the
    // delta spans all arms and reps of the window.
    const obs::MetricsSnapshot delta =
        obs::MetricsSnapshot::diff(before, obs::MetricsRegistry::global().snapshot());
    tracer.set_enabled(false);
    std::fprintf(stderr, "  obs off: %.3fs cpu | obs on: %.3fs cpu, %zu runs, "
                 "%zu spans\n",
                 off.cpu_s, on.cpu_s, on.t.runs, events.size());

    if (on.t.runs != off.t.runs) {
        std::fprintf(stderr, "error: run counts differ (on %zu vs off %zu)\n",
                     on.t.runs, off.t.runs);
        return 1;
    }
    const double overhead_pct =
        off.cpu_s > 0 ? 100.0 * (on.cpu_s - off.cpu_s) / off.cpu_s : 0.0;

    std::ostringstream metrics_json;
    obs::write_metrics_json(metrics_json, delta);
    std::string metrics = metrics_json.str();
    if (!metrics.empty() && metrics.back() == '\n') metrics.pop_back();

    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"obs_overhead\",\n");
    std::fprintf(f, "  \"campaign\": \"table1_permeability\",\n");
    std::fprintf(f, "  \"cases\": %zu,\n  \"times_per_bit\": %zu,\n  \"reps\": %zu,\n",
                 options.case_count, options.times_per_bit, reps);
    std::fprintf(f, "  \"obs_compiled\": %s,\n", obs::kEnabled ? "true" : "false");
    std::fprintf(f, "  \"off\": { \"cpu_s\": %.6f, \"wall_s\": %.6f, \"runs\": %zu },\n",
                 off.cpu_s, off.t.wall_s, off.t.runs);
    std::fprintf(f,
                 "  \"on\": { \"cpu_s\": %.6f, \"wall_s\": %.6f, \"runs\": %zu, "
                 "\"spans_recorded\": %zu, \"spans_dropped\": %llu },\n",
                 on.cpu_s, on.t.wall_s, on.t.runs, events.size(),
                 static_cast<unsigned long long>(dropped));
    std::fprintf(f, "  \"overhead_pct\": %.2f,\n", overhead_pct);
    std::fprintf(f, "  \"metrics\": %s\n}\n", metrics.c_str());
    std::fclose(f);
    std::fprintf(stderr, "  overhead: %.2f%% -> %s\n", overhead_pct, path.c_str());
    return 0;
}

// ------------------------------------------------ --timeline-json mode

struct TimelineTiming {
    double cpu_s = 0.0;
    double wall_s = 0.0;
    std::uint64_t runs = 0;
    std::size_t samples = 0;
};

std::size_t count_jsonl_lines(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::size_t n = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty()) ++n;
    }
    return n;
}

/// One full input-coverage campaign through the campaign executor in a
/// fresh directory, sampler cadence per `interval_ms` (0 = recorder off).
TimelineTiming time_recorded_campaign(const campaign::CampaignSpec& spec,
                                      const std::string& dir,
                                      std::uint32_t interval_ms) {
    std::filesystem::remove_all(dir);
    campaign::CampaignExecutor executor(dir, spec);
    campaign::ExecutorOptions options;
    options.threads = 2;
    options.timeline_interval_ms = interval_ms;
    TimelineTiming t;
    const double cpu0 = obs::process_cpu_seconds();
    const auto t0 = std::chrono::steady_clock::now();
    executor.run(options);
    const auto t1 = std::chrono::steady_clock::now();
    t.cpu_s = obs::process_cpu_seconds() - cpu0;
    t.wall_s = std::chrono::duration<double>(t1 - t0).count();
    t.runs = static_cast<std::uint64_t>(executor.fastpath_totals().runs());
    t.samples = count_jsonl_lines(dir + "/timeline.jsonl");
    std::filesystem::remove_all(dir);
    return t;
}

/// Flight-recorder overhead on an input-coverage campaign: sampler at
/// the default cadence vs interval 0, interleaved best-of-N per arm.
/// The acceptance gate is the wall overhead (<1% committed); CPU
/// overhead is reported alongside because on a quiet box it isolates
/// the sampler thread's own work from scheduler noise.
int write_timeline_json(const std::string& path) {
    const exp::CampaignOptions scale = exp::CampaignOptions::from_env();
    std::size_t reps = 3;
    if (const char* r = std::getenv("EPEA_OBS_REPS")) {
        reps = std::max<std::size_t>(1, std::strtoull(r, nullptr, 10));
    }
    constexpr std::uint32_t kIntervalMs = 200;  // ExecutorOptions default

    campaign::CampaignSpec spec =
        campaign::CampaignSpec::defaults(campaign::CampaignKind::kInput);
    spec.case_ids.clear();
    for (std::size_t c = 0; c < scale.case_count; ++c) spec.case_ids.push_back(c);
    spec.times_per_bit = scale.times_per_bit;
    spec.shards = 4;
    const std::string dir =
        (std::filesystem::temp_directory_path() / "epea_timeline_bench").string();
    std::fprintf(stderr, "timeline bench: %zu cases x %zu moments per bit, "
                 "%zu rep(s), %u ms cadence\n",
                 spec.case_ids.size(), spec.times_per_bit, reps, kIntervalMs);

    time_recorded_campaign(spec, dir, 0);  // warm-up: one-time init costs

    TimelineTiming off;
    TimelineTiming on;
    for (std::size_t r = 0; r < reps; ++r) {
        const TimelineTiming o = time_recorded_campaign(spec, dir, 0);
        if (r == 0 || o.wall_s < off.wall_s) off = o;
        const TimelineTiming i = time_recorded_campaign(spec, dir, kIntervalMs);
        if (r == 0 || i.wall_s < on.wall_s) on = i;
        std::fprintf(stderr, "  rep %zu: off %.3fs wall (%.3fs cpu), "
                     "on %.3fs wall (%.3fs cpu, %zu samples)\n",
                     r + 1, o.wall_s, o.cpu_s, i.wall_s, i.cpu_s, i.samples);
    }
    if (on.runs != off.runs) {
        std::fprintf(stderr, "error: run counts differ (on %llu vs off %llu)\n",
                     static_cast<unsigned long long>(on.runs),
                     static_cast<unsigned long long>(off.runs));
        return 1;
    }
    const double overhead_wall_pct =
        off.wall_s > 0 ? 100.0 * (on.wall_s - off.wall_s) / off.wall_s : 0.0;
    const double overhead_cpu_pct =
        off.cpu_s > 0 ? 100.0 * (on.cpu_s - off.cpu_s) / off.cpu_s : 0.0;

    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"timeline_overhead\",\n");
    std::fprintf(f, "  \"campaign\": \"input_coverage\",\n");
    std::fprintf(f, "  \"cases\": %zu,\n  \"times_per_bit\": %zu,\n  \"reps\": %zu,\n",
                 spec.case_ids.size(), spec.times_per_bit, reps);
    std::fprintf(f, "  \"interval_ms\": %u,\n", kIntervalMs);
    std::fprintf(f, "  \"off\": { \"cpu_s\": %.6f, \"wall_s\": %.6f, \"runs\": %llu },\n",
                 off.cpu_s, off.wall_s,
                 static_cast<unsigned long long>(off.runs));
    std::fprintf(f,
                 "  \"on\": { \"cpu_s\": %.6f, \"wall_s\": %.6f, \"runs\": %llu, "
                 "\"samples\": %zu },\n",
                 on.cpu_s, on.wall_s, static_cast<unsigned long long>(on.runs),
                 on.samples);
    std::fprintf(f, "  \"overhead_wall_pct\": %.2f,\n", overhead_wall_pct);
    std::fprintf(f, "  \"overhead_cpu_pct\": %.2f\n}\n", overhead_cpu_pct);
    std::fclose(f);
    std::fprintf(stderr, "  overhead: %.2f%% wall, %.2f%% cpu -> %s\n",
                 overhead_wall_pct, overhead_cpu_pct, path.c_str());
    return 0;
}

// ------------------------------------------------- --analytic-json mode

/// Injection runs an estimator spends on one module: one per input bit
/// per moment per case (the planner's runs-saved arithmetic).
std::uint64_t planned_module_runs(const model::SystemModel& system,
                                  model::ModuleId m, std::size_t cases,
                                  std::size_t times_per_bit) {
    std::uint64_t bits = 0;
    for (const model::SignalId in : system.module(m).inputs) {
        bits += system.signal(in).width;
    }
    return bits * cases * times_per_bit;
}

/// Analytic query latency + delta-plan savings; writes the comparison to
/// `path` and returns a process exit code.
int write_analytic_json(const std::string& path) {
    const model::SystemModel system = target::make_arrestment_model();
    const epic::PermeabilityMatrix pm = exp::paper_matrix(system);
    const std::vector<model::SignalId> signals = system.all_signals();

    // Cold sweep: every ordered pair; each new source pays one fixpoint
    // solve. Warm sweep: the same pairs again, all served from the
    // per-source reach cache.
    const analytic::Engine engine(pm);
    std::size_t pairs = 0;
    double checksum = 0.0;
    const auto sweep = [&] {
        pairs = 0;
        for (const model::SignalId s : signals) {
            for (const model::SignalId t : signals) {
                if (s == t) continue;
                checksum += engine.permeability(s, t).point;
                ++pairs;
            }
        }
    };
    const auto c0 = std::chrono::steady_clock::now();
    sweep();
    const auto c1 = std::chrono::steady_clock::now();
    const std::size_t solves = engine.solves();
    constexpr std::size_t kWarmReps = 50;
    for (std::size_t r = 0; r < kWarmReps; ++r) sweep();
    const auto c2 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(checksum);
    const double cold_s = std::chrono::duration<double>(c1 - c0).count();
    const double warm_s =
        std::chrono::duration<double>(c2 - c1).count() / kWarmReps;
    std::fprintf(stderr,
                 "analytic bench: %zu pairs, %zu solves, cold %.1f us/query, "
                 "warm %.3f us/query\n",
                 pairs, solves, 1e6 * cold_s / static_cast<double>(pairs),
                 1e6 * warm_s / static_cast<double>(pairs));

    // Delta-plan savings for the canonical one-module edit (CALC stale):
    // the planner's run arithmetic, plus the measured wall time of the
    // full estimate vs the module-filtered one it replaces.
    const exp::CampaignOptions options = exp::CampaignOptions::from_env();
    std::uint64_t full_runs = 0;
    for (const model::ModuleId m : system.all_modules()) {
        full_runs += planned_module_runs(system, m, options.case_count,
                                         options.times_per_bit);
    }
    const std::uint64_t delta_runs =
        planned_module_runs(system, *system.find_module("CALC"),
                            options.case_count, options.times_per_bit);

    target::ArrestmentSystem full_sys;
    const auto f0 = std::chrono::steady_clock::now();
    const epic::PermeabilityMatrix full =
        exp::estimate_arrestment_permeability(full_sys, options);
    const auto f1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(&full);
    exp::CampaignOptions delta_options = options;
    delta_options.module_filter = {"CALC"};
    target::ArrestmentSystem delta_sys;
    const auto d0 = std::chrono::steady_clock::now();
    const epic::PermeabilityMatrix delta =
        exp::estimate_arrestment_permeability(delta_sys, delta_options);
    const auto d1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(&delta);
    const double full_s = std::chrono::duration<double>(f1 - f0).count();
    const double delta_s = std::chrono::duration<double>(d1 - d0).count();
    const double saved_pct =
        100.0 * static_cast<double>(full_runs - delta_runs) /
        static_cast<double>(full_runs);
    std::fprintf(stderr,
                 "  delta plan (CALC edit): %llu of %llu runs (%.1f%% saved), "
                 "full %.2fs vs delta %.2fs\n",
                 static_cast<unsigned long long>(delta_runs),
                 static_cast<unsigned long long>(full_runs), saved_pct, full_s,
                 delta_s);

    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"analytic\",\n");
    std::fprintf(f, "  \"query\": {\n");
    std::fprintf(f, "    \"pairs\": %zu,\n    \"solves\": %zu,\n", pairs, solves);
    std::fprintf(f, "    \"cold_wall_s\": %.6f,\n    \"warm_wall_s\": %.6f,\n",
                 cold_s, warm_s);
    std::fprintf(f, "    \"cold_us_per_query\": %.3f,\n",
                 1e6 * cold_s / static_cast<double>(pairs));
    std::fprintf(f, "    \"warm_us_per_query\": %.3f\n  },\n",
                 1e6 * warm_s / static_cast<double>(pairs));
    std::fprintf(f, "  \"delta\": {\n");
    std::fprintf(f, "    \"edited_module\": \"CALC\",\n");
    std::fprintf(f, "    \"cases\": %zu,\n    \"times_per_bit\": %zu,\n",
                 options.case_count, options.times_per_bit);
    std::fprintf(f, "    \"full_runs\": %llu,\n    \"delta_runs\": %llu,\n",
                 static_cast<unsigned long long>(full_runs),
                 static_cast<unsigned long long>(delta_runs));
    std::fprintf(f, "    \"runs_saved\": %llu,\n    \"saved_pct\": %.2f,\n",
                 static_cast<unsigned long long>(full_runs - delta_runs),
                 saved_pct);
    std::fprintf(f, "    \"full_wall_s\": %.6f,\n    \"delta_wall_s\": %.6f,\n",
                 full_s, delta_s);
    std::fprintf(f, "    \"speedup\": %.2f\n  }\n}\n",
                 delta_s > 0 ? full_s / delta_s : 0.0);
    std::fclose(f);
    std::fprintf(stderr, "  -> %s\n", path.c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::string batch_prefix = "--batch-json=";
        if (arg.rfind(batch_prefix, 0) == 0) {
            return write_batch_json(arg.substr(batch_prefix.size()));
        }
        const std::string obs_prefix = "--metrics-json=";
        if (arg.rfind(obs_prefix, 0) == 0) {
            return write_obs_json(arg.substr(obs_prefix.size()));
        }
        const std::string timeline_prefix = "--timeline-json=";
        if (arg.rfind(timeline_prefix, 0) == 0) {
            return write_timeline_json(arg.substr(timeline_prefix.size()));
        }
        const std::string analytic_prefix = "--analytic-json=";
        if (arg.rfind(analytic_prefix, 0) == 0) {
            return write_analytic_json(arg.substr(analytic_prefix.size()));
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
