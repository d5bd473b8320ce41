// Campaign orchestration subsystem: spec serialization, atomic
// checkpoints, crash/resume bit-identity against the sequential
// drivers, adaptive early stopping and the observability artifacts.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/adaptive.hpp"
#include "campaign/checkpoint.hpp"
#include "campaign/executor.hpp"
#include "campaign/json.hpp"
#include "campaign/observer.hpp"
#include "campaign/spec.hpp"
#include "epic/serialize.hpp"
#include "exp/arrestment_experiments.hpp"
#include "target/arrestment_system.hpp"

namespace epea::campaign {
namespace {

std::string temp_dir(const std::string& name) {
    const std::string dir = testing::TempDir() + "epea_campaign_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

// --------------------------------------------------------------- JSON

TEST(JsonTest, RoundTripsScalarsAndContainers) {
    JsonObject o;
    o.emplace("b", JsonValue(true));
    o.emplace("i", JsonValue(std::int64_t{-42}));
    o.emplace("d", JsonValue(0.25));
    o.emplace("s", JsonValue("hi \"there\"\n"));
    JsonArray a;
    a.emplace_back(1);
    a.emplace_back(nullptr);
    o.emplace("a", JsonValue(std::move(a)));

    const std::string text = JsonValue(std::move(o)).dump();
    const JsonValue back = JsonValue::parse(text);
    EXPECT_TRUE(back.at("b").as_bool());
    EXPECT_EQ(back.at("i").as_int(), -42);
    EXPECT_DOUBLE_EQ(back.at("d").as_double(), 0.25);
    EXPECT_EQ(back.at("s").as_string(), "hi \"there\"\n");
    EXPECT_EQ(back.at("a").as_array().size(), 2u);
    EXPECT_TRUE(back.at("a").as_array()[1].is_null());
    // Sorted keys make the dump deterministic.
    EXPECT_EQ(JsonValue::parse(text).dump(), text);
}

TEST(JsonTest, RejectsMalformedInput) {
    EXPECT_THROW((void)JsonValue::parse("{"), std::runtime_error);
    EXPECT_THROW((void)JsonValue::parse("{\"a\":1} trailing"), std::runtime_error);
    EXPECT_THROW((void)JsonValue::parse("tru"), std::runtime_error);
    EXPECT_THROW((void)JsonValue::parse(""), std::runtime_error);
    EXPECT_THROW((void)JsonValue::parse("{\"a\":1}").at("missing"),
                 std::runtime_error);
    EXPECT_THROW((void)JsonValue::parse("[1]").at("k"), std::runtime_error);
}

// --------------------------------------------------------------- spec

TEST(SpecTest, RoundTripsThroughJson) {
    CampaignSpec spec = CampaignSpec::defaults(CampaignKind::kSevere);
    spec.name = "round-trip";
    spec.case_ids = {0, 3, 7};
    spec.times_per_bit = 4;
    spec.shards = 2;
    spec.adaptive.enabled = true;
    spec.adaptive.half_width = 0.125;
    spec.adaptive.min_trials = 9;

    const std::string text = spec.to_json();
    const CampaignSpec back = CampaignSpec::from_json(text);
    EXPECT_EQ(back.to_json(), text);
    EXPECT_EQ(back.name, "round-trip");
    EXPECT_EQ(back.kind, CampaignKind::kSevere);
    EXPECT_EQ(back.case_ids, (std::vector<std::size_t>{0, 3, 7}));
    EXPECT_EQ(back.times_per_bit, 4u);
    EXPECT_EQ(back.shards, 2u);
    EXPECT_TRUE(back.adaptive.enabled);
    EXPECT_DOUBLE_EQ(back.adaptive.half_width, 0.125);
    EXPECT_EQ(back.adaptive.min_trials, 9u);
    ASSERT_EQ(back.subsets.size(), 2u);
    EXPECT_EQ(back.subsets[0].name, "EH-set");
    EXPECT_EQ(back.subsets[1].ea_names,
              (std::vector<std::string>{"EA1", "EA3", "EA4", "EA7"}));
    EXPECT_FALSE(back.guarded_signals.empty());
}

TEST(SpecTest, RejectsUnsupportedVersionAndGarbage) {
    CampaignSpec spec = CampaignSpec::defaults(CampaignKind::kPermeability);
    std::string text = spec.to_json();
    const std::string needle = "\"version\":1";
    const auto pos = text.find(needle);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, needle.size(), "\"version\":99");
    EXPECT_THROW((void)CampaignSpec::from_json(text), std::runtime_error);
    EXPECT_THROW((void)CampaignSpec::from_json("not json at all"),
                 std::runtime_error);
    EXPECT_THROW((void)CampaignSpec::from_json("{\"version\":1}"),
                 std::runtime_error);
    EXPECT_THROW((void)campaign_kind_from_string("mystery"), std::runtime_error);
}

TEST(SpecTest, DealsCasesRoundRobinIntoShards) {
    CampaignSpec spec = CampaignSpec::defaults(CampaignKind::kPermeability);
    ASSERT_EQ(spec.case_ids.size(), 25u);
    spec.shards = 4;
    EXPECT_EQ(spec.effective_shards(), 4u);
    std::vector<std::size_t> seen;
    for (std::size_t s = 0; s < 4; ++s) {
        for (const std::size_t c : spec.shard_cases(s)) seen.push_back(c);
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, spec.case_ids);  // partition: every case exactly once
    EXPECT_EQ(spec.shard_cases(0),
              (std::vector<std::size_t>{0, 4, 8, 12, 16, 20, 24}));

    spec.shards = 100;  // more shards than cases collapses to one per case
    EXPECT_EQ(spec.effective_shards(), 25u);
    spec.shards = 0;  // degenerate: at least one shard
    EXPECT_EQ(spec.effective_shards(), 1u);
    EXPECT_EQ(spec.shard_cases(0).size(), 25u);
}

// --------------------------------------------------------- checkpoints

TEST(CheckpointTest, ShardResultRoundTripsAllKinds) {
    ShardResult perm;
    perm.shard = 3;
    perm.kind = CampaignKind::kPermeability;
    perm.case_ids = {3, 8};
    perm.runs = 324;
    perm.wall_seconds = 1.5;
    perm.pairs.push_back(PairCountRecord{"CALC", 1, 0, 21, 48});
    const ShardResult perm2 = ShardResult::from_json(perm.to_json());
    EXPECT_EQ(perm2.to_json(), perm.to_json());
    ASSERT_EQ(perm2.pairs.size(), 1u);
    EXPECT_EQ(perm2.pairs[0].module, "CALC");
    EXPECT_EQ(perm2.pairs[0].affected, 21u);

    ShardResult sev;
    sev.kind = CampaignKind::kSevere;
    sev.severe.runs = 10;
    sev.severe.failures = 2;
    sev.severe.ram_locations = 150;
    sev.severe.stack_locations = 50;
    sev.severe.sets.push_back(exp::SevereSetResult{"EH-set", {}});
    sev.severe.sets[0].cells[2][0] = exp::SevereCell{10, 7};
    const ShardResult sev2 = ShardResult::from_json(sev.to_json());
    EXPECT_EQ(sev2.to_json(), sev.to_json());
    EXPECT_EQ(sev2.severe.sets[0].cells[2][0].detected, 7u);

    ShardResult rec;
    rec.kind = CampaignKind::kRecovery;
    rec.recovery.runs = 5;
    rec.recovery.failures_baseline = 3;
    rec.recovery.failures_with_erm = 1;
    rec.recovery.repairs = 12;
    rec.recovery.erm_cost = ea::EaCost{100, 8};
    const ShardResult rec2 = ShardResult::from_json(rec.to_json());
    EXPECT_EQ(rec2.to_json(), rec.to_json());
    EXPECT_EQ(rec2.recovery.erm_cost.rom, 100u);
}

TEST(CheckpointTest, FastPathCountersRoundTripAndOlderCheckpointsLoad) {
    ShardResult r;
    r.kind = CampaignKind::kPermeability;
    r.fastpath.lanes_launched = 40;
    r.fastpath.lanes_retired_pruned = 20;
    r.fastpath.lanes_retired_sealed = 10;
    r.fastpath.lanes_retired_merged = 7;
    r.fastpath.lanes_retired_end = 3;
    const std::string text = r.to_json();
    const ShardResult back = ShardResult::from_json(text);
    EXPECT_EQ(back.to_json(), text);
    EXPECT_EQ(back.fastpath.lanes_retired_merged, 7u);

    // A checkpoint written before lanes could merge has no such counter.
    std::string older = text;
    const std::size_t key = older.find("\"lanes_retired_merged\"");
    ASSERT_NE(key, std::string::npos);
    older.erase(key, older.find(',', key) + 1 - key);
    ASSERT_EQ(older.find("lanes_retired_merged"), std::string::npos);
    const ShardResult old = ShardResult::from_json(older);
    EXPECT_EQ(old.fastpath.lanes_retired_merged, 0u);
    EXPECT_EQ(old.fastpath.lanes_retired_sealed, 10u);
    EXPECT_EQ(old.fastpath.lanes_retired_end, 3u);
}

TEST(CheckpointTest, SaveLoadAndCorruptionHandling) {
    const std::string dir = temp_dir("checkpoint");
    std::filesystem::create_directories(dir);

    ShardResult r;
    r.shard = 1;
    r.kind = CampaignKind::kPermeability;
    r.runs = 7;
    save_shard(dir, r);
    EXPECT_TRUE(std::filesystem::exists(dir + "/shard-001.json"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/shard-001.json.tmp"));

    const auto loaded = load_shard(dir, 1);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->runs, 7u);
    EXPECT_FALSE(load_shard(dir, 0).has_value());

    // A torn/corrupt checkpoint is treated as absent, not fatal.
    { std::ofstream out(dir + "/shard-002.json"); out << "{\"shard\": tru"; }
    EXPECT_FALSE(load_shard(dir, 2).has_value());
    // A checkpoint whose payload names a different shard is ignored too.
    { std::ofstream out(dir + "/shard-003.json"); out << r.to_json(); }
    EXPECT_FALSE(load_shard(dir, 3).has_value());
}

// ----------------------------------------------------------- executor

exp::CampaignOptions tiny_options(std::size_t cases) {
    exp::CampaignOptions o;
    o.case_count = cases;
    o.times_per_bit = 1;
    return o;
}

CampaignSpec tiny_spec(std::size_t cases, std::size_t shards) {
    CampaignSpec spec = CampaignSpec::defaults(CampaignKind::kPermeability);
    spec.case_ids.resize(cases);
    spec.times_per_bit = 1;
    spec.shards = shards;
    return spec;
}

TEST(ExecutorTest, InterruptedCampaignResumesBitIdentical) {
    // Reference: the sequential in-process driver over the same cases.
    target::ArrestmentSystem sys;
    const epic::PermeabilityMatrix reference =
        exp::estimate_arrestment_permeability(sys, tiny_options(3));

    // A: uninterrupted sharded run.
    const std::string dir_a = temp_dir("uninterrupted");
    CampaignExecutor exec_a(dir_a, tiny_spec(3, 3));
    EXPECT_TRUE(exec_a.run(ExecutorOptions{}));

    // B: killed after every shard — each run() executes one shard and
    // exits; a fresh executor resumes from the checkpoints alone.
    const std::string dir_b = temp_dir("interrupted");
    {
        CampaignExecutor first(dir_b, tiny_spec(3, 3));
        ExecutorOptions one;
        one.max_shards = 1;
        EXPECT_FALSE(first.run(one));  // paused, work remaining
    }
    {
        CampaignExecutor second = CampaignExecutor::open(dir_b);
        ExecutorOptions one;
        one.max_shards = 1;
        EXPECT_FALSE(second.run(one));
    }
    CampaignExecutor last = CampaignExecutor::open(dir_b);
    EXPECT_TRUE(last.run(ExecutorOptions{}));
    EXPECT_EQ(last.completed().size(), 3u);

    // C: the same campaign in memory (no dir), paused after one shard and
    // continued by the same instance. It must write nothing: not in the
    // working directory, and not at the root a "" + "/spec.json" path
    // join would reach (compared before/after: a file already there is
    // not this run's).
    const std::vector<std::string> root_files = {"/spec.json", "/events.jsonl",
                                                 "/timeline.jsonl", "/shard-000.json"};
    std::vector<bool> root_before;
    for (const auto& f : root_files) root_before.push_back(std::filesystem::exists(f));
    const std::string cwd = temp_dir("in_memory_cwd");
    std::filesystem::create_directories(cwd);
    const std::filesystem::path old_cwd = std::filesystem::current_path();
    std::filesystem::current_path(cwd);
    CampaignExecutor exec_c("", tiny_spec(3, 3));
    {
        ExecutorOptions one;
        one.max_shards = 1;
        EXPECT_FALSE(exec_c.run(one));
    }
    EXPECT_TRUE(exec_c.run(ExecutorOptions{}));
    std::filesystem::current_path(old_cwd);
    EXPECT_EQ(exec_c.completed().size(), 3u);
    EXPECT_TRUE(std::filesystem::is_empty(cwd));
    for (std::size_t i = 0; i < root_files.size(); ++i) {
        EXPECT_EQ(std::filesystem::exists(root_files[i]), root_before[i])
            << root_files[i];
    }
    EXPECT_THROW((void)CampaignExecutor::open(""), std::runtime_error);

    const epic::PermeabilityMatrix merged_a = exec_a.merged_matrix(sys.system());
    const epic::PermeabilityMatrix merged_b = last.merged_matrix(sys.system());
    const epic::PermeabilityMatrix merged_c = exec_c.merged_matrix(sys.system());
    for (const auto& e : reference.entries()) {
        const auto ref = reference.counts(e.module, e.in_port, e.out_port);
        const auto a = merged_a.counts(e.module, e.in_port, e.out_port);
        const auto b = merged_b.counts(e.module, e.in_port, e.out_port);
        const auto c = merged_c.counts(e.module, e.in_port, e.out_port);
        EXPECT_EQ(a.hits, ref.hits) << "pair " << e.in_port << "->" << e.out_port;
        EXPECT_EQ(a.trials, ref.trials);
        EXPECT_EQ(b.hits, ref.hits);
        EXPECT_EQ(b.trials, ref.trials);
        EXPECT_EQ(c.hits, ref.hits);
        EXPECT_EQ(c.trials, ref.trials);
    }
}

// The in-memory executor is the multi-threaded permeability runner behind
// `estimate` and the table benches.
// The merged matrix refers to `sys`, which must outlive it.
epic::PermeabilityMatrix in_memory_matrix(const target::ArrestmentSystem& sys,
                                          std::size_t cases, std::size_t times,
                                          std::size_t threads) {
    CampaignSpec spec = tiny_spec(cases, cases);
    spec.times_per_bit = times;
    CampaignExecutor exec("", spec);
    ExecutorOptions options;
    options.threads = threads;
    EXPECT_TRUE(exec.run(options));
    return exec.merged_matrix(sys.system());
}

TEST(ParallelCampaign, MatchesSequentialExactly) {
    target::ArrestmentSystem sys;
    exp::CampaignOptions o = tiny_options(3);
    o.times_per_bit = 2;
    const epic::PermeabilityMatrix sequential =
        exp::estimate_arrestment_permeability(sys, o);
    const epic::PermeabilityMatrix parallel = in_memory_matrix(sys, 3, 2, /*threads=*/3);

    const auto seq_entries = sequential.entries();
    const auto par_entries = parallel.entries();
    ASSERT_EQ(seq_entries.size(), par_entries.size());
    for (std::size_t k = 0; k < seq_entries.size(); ++k) {
        EXPECT_EQ(par_entries[k].affected, seq_entries[k].affected) << k;
        EXPECT_EQ(par_entries[k].active, seq_entries[k].active) << k;
        EXPECT_DOUBLE_EQ(par_entries[k].value, seq_entries[k].value) << k;
    }
}

TEST(ParallelCampaign, ThreadCountDoesNotChangeResults) {
    target::ArrestmentSystem sys;
    const epic::PermeabilityMatrix one = in_memory_matrix(sys, 3, 2, 1);
    const epic::PermeabilityMatrix many = in_memory_matrix(sys, 3, 2, 8);
    const auto a = one.entries();
    const auto b = many.entries();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a[k].affected, b[k].affected) << k;
        EXPECT_EQ(a[k].active, b[k].active) << k;
    }
}

TEST(ParallelCampaign, AutoThreadCount) {
    target::ArrestmentSystem sys;
    const epic::PermeabilityMatrix pm = in_memory_matrix(sys, 1, 1, /*threads=*/0);
    // Structure sanity: the strong CLOCK pair is measured.
    EXPECT_GE(pm.get("CLOCK", "i", "ms_slot_nbr"), 0.9);
}

// With no cache an in-memory run captures each case's golden once and
// reads it once. An external cache (the opt:: evaluator's, kept across
// batches) changes no result, and a second run on it is served from
// memory alone. That goldens are freed with their case is checked by
// GoldenFor.WithoutACacheHandsOutTheOnlyReference and the campaign_memory
// ctest.
TEST(ExecutorTest, ExternalGoldenCacheIsReusedAndChangesNoResult) {
    target::ArrestmentSystem sys;
    const auto run = [&sys](fi::GoldenCache* cache, fi::FastPathStats& stats) {
        CampaignExecutor exec("", tiny_spec(3, 3));
        ExecutorOptions options;
        options.threads = 2;
        options.golden_cache = cache;
        EXPECT_TRUE(exec.run(options));
        stats = exec.fastpath_totals();
        std::ostringstream csv;
        epic::save_matrix_csv(csv, exec.merged_matrix(sys.system()));
        return csv.str();
    };

    fi::FastPathStats scoped;
    const std::string scoped_csv = run(nullptr, scoped);
    EXPECT_EQ(scoped.cache_hits, 0U);
    EXPECT_EQ(scoped.cache_misses, 3U);  // one snapshot golden per case

    fi::GoldenCache cache;
    fi::FastPathStats first;
    EXPECT_EQ(run(&cache, first), scoped_csv);
    EXPECT_EQ(first.cache_hits, 0U);
    EXPECT_EQ(first.cache_misses, 3U);
    EXPECT_EQ(cache.entry_count(), 3U);

    fi::FastPathStats reuse;
    EXPECT_EQ(run(&cache, reuse), scoped_csv);
    EXPECT_EQ(reuse.cache_hits, 3U);
    EXPECT_EQ(reuse.cache_misses, 0U);
    EXPECT_EQ(reuse.runs(), scoped.runs());
}

TEST(ExecutorTest, ShardedSevereCampaignMatchesSequentialDriver) {
    CampaignSpec spec = CampaignSpec::defaults(CampaignKind::kSevere);
    spec.case_ids.resize(2);
    spec.shards = 2;

    target::ArrestmentSystem sys;
    exp::CampaignOptions options;
    options.case_count = 2;
    const exp::SevereCoverageResult reference =
        exp::severe_coverage_experiment(sys, options, spec.subsets);

    CampaignExecutor exec(temp_dir("severe"), spec);
    EXPECT_TRUE(exec.run(ExecutorOptions{}));
    const exp::SevereCoverageResult merged = exec.merged_severe();

    EXPECT_EQ(merged.runs, reference.runs);
    EXPECT_EQ(merged.failures, reference.failures);
    EXPECT_EQ(merged.ram_locations, reference.ram_locations);
    EXPECT_EQ(merged.stack_locations, reference.stack_locations);
    ASSERT_EQ(merged.sets.size(), reference.sets.size());
    for (std::size_t s = 0; s < reference.sets.size(); ++s) {
        for (std::size_t r = 0; r < 3; ++r) {
            for (std::size_t k = 0; k < 3; ++k) {
                EXPECT_EQ(merged.sets[s].cells[r][k].n,
                          reference.sets[s].cells[r][k].n);
                EXPECT_EQ(merged.sets[s].cells[r][k].detected,
                          reference.sets[s].cells[r][k].detected)
                    << "set " << s << " region " << r << " class " << k;
            }
        }
    }
}

TEST(ExecutorTest, ShardedRecoveryCampaignMatchesSequentialDriver) {
    CampaignSpec spec = CampaignSpec::defaults(CampaignKind::kRecovery);
    spec.case_ids.resize(2);
    spec.shards = 2;

    target::ArrestmentSystem sys;
    exp::CampaignOptions options;
    options.case_count = 2;
    const exp::RecoveryResult reference =
        exp::recovery_experiment(sys, options, spec.guarded_signals);

    CampaignExecutor exec(temp_dir("recovery"), spec);
    EXPECT_TRUE(exec.run(ExecutorOptions{}));
    const exp::RecoveryResult merged = exec.merged_recovery();

    EXPECT_EQ(merged.runs, reference.runs);
    EXPECT_EQ(merged.failures_baseline, reference.failures_baseline);
    EXPECT_EQ(merged.failures_with_erm, reference.failures_with_erm);
    EXPECT_EQ(merged.repairs, reference.repairs);
    EXPECT_EQ(merged.erm_cost.rom, reference.erm_cost.rom);
    EXPECT_EQ(merged.erm_cost.ram, reference.erm_cost.ram);
}

TEST(ExecutorTest, CorruptCheckpointIsRerunNotTrusted) {
    const std::string dir = temp_dir("corrupt");
    {
        CampaignExecutor exec(dir, tiny_spec(2, 2));
        EXPECT_TRUE(exec.run(ExecutorOptions{}));
    }
    const ShardResult good = ShardResult::from_json(read_file(dir + "/shard-001.json"));
    { std::ofstream out(dir + "/shard-001.json"); out << "garbage{{{"; }

    CampaignExecutor again = CampaignExecutor::open(dir);
    EXPECT_TRUE(again.run(ExecutorOptions{}));  // reruns the corrupt shard
    const ShardResult rerun =
        ShardResult::from_json(read_file(dir + "/shard-001.json"));
    EXPECT_EQ(rerun.runs, good.runs);
    ASSERT_EQ(rerun.pairs.size(), good.pairs.size());
    for (std::size_t i = 0; i < good.pairs.size(); ++i) {  // deterministic counts
        EXPECT_EQ(rerun.pairs[i].module, good.pairs[i].module);
        EXPECT_EQ(rerun.pairs[i].affected, good.pairs[i].affected);
        EXPECT_EQ(rerun.pairs[i].active, good.pairs[i].active);
    }
}

TEST(ExecutorTest, RejectsMismatchedSpecInExistingDirectory) {
    const std::string dir = temp_dir("mismatch");
    CampaignExecutor exec(dir, tiny_spec(2, 2));
    EXPECT_NO_THROW(CampaignExecutor(dir, tiny_spec(2, 2)));
    EXPECT_THROW(CampaignExecutor(dir, tiny_spec(3, 2)), std::runtime_error);

    CampaignSpec bad = tiny_spec(2, 2);
    bad.case_ids = {0, 99};  // out of range for the 25-case matrix
    EXPECT_THROW(CampaignExecutor(temp_dir("badcase"), bad), std::runtime_error);
}

// ----------------------------------------------------------- adaptive

ShardResult synthetic_shard(std::size_t shard, std::uint64_t hits,
                            std::uint64_t trials) {
    ShardResult r;
    r.shard = shard;
    r.kind = CampaignKind::kPermeability;
    r.runs = trials;
    r.pairs.push_back(PairCountRecord{"CALC", 0, 0, hits, trials});
    return r;
}

TEST(AdaptiveTest, ConvergesExactlyWhenWilsonIntervalIsTight) {
    AdaptiveOptions options;
    options.enabled = true;
    options.half_width = 0.02;
    options.min_trials = 100;

    // p ~ 0.5 with 100 trials: half-width ~ 0.096 — far too wide.
    const std::vector<ShardResult> coarse{synthetic_shard(0, 50, 100)};
    const AdaptiveDecision wide =
        evaluate_convergence(options, CampaignKind::kPermeability, coarse);
    EXPECT_FALSE(wide.converged);
    EXPECT_GT(wide.worst_half_width, options.half_width);

    // Same ground truth with 10000 trials: half-width ~ 0.0098 <= 0.02.
    const std::vector<ShardResult> fine{synthetic_shard(0, 2500, 5000),
                                        synthetic_shard(1, 2500, 5000)};
    const AdaptiveDecision tight =
        evaluate_convergence(options, CampaignKind::kPermeability, fine);
    EXPECT_TRUE(tight.converged);
    EXPECT_LE(tight.worst_half_width, options.half_width);
    EXPECT_EQ(tight.min_trials_seen, 10000u);

    // Below min_trials never converges, however narrow the interval.
    AdaptiveOptions strict = options;
    strict.min_trials = 20000;
    EXPECT_FALSE(
        evaluate_convergence(strict, CampaignKind::kPermeability, fine).converged);

    // Disabled never converges.
    AdaptiveOptions off = options;
    off.enabled = false;
    EXPECT_FALSE(
        evaluate_convergence(off, CampaignKind::kPermeability, fine).converged);
}

/// Runs a 4-shard adaptive campaign that converges after one shard and
/// checks the early stop. `threads` = 0 sizes the pool by the host.
void expect_adaptive_stop(const std::string& name, std::size_t threads) {
    const std::string dir = temp_dir(name);
    CampaignSpec spec = tiny_spec(4, 4);
    spec.adaptive.enabled = true;
    spec.adaptive.half_width = 0.9;  // loose: one shard suffices
    spec.adaptive.min_trials = 0;

    CampaignExecutor exec(dir, spec);
    ExecutorOptions options;
    options.threads = threads;
    EXPECT_TRUE(exec.run(options));
    EXPECT_TRUE(exec.adaptive_stopped());
    EXPECT_LT(exec.completed().size(), 4u);
    EXPECT_GT(exec.saved_runs(), 0u);

    const CampaignStatus status = read_status(dir);
    EXPECT_TRUE(status.adaptive_stopped);
    EXPECT_TRUE(status.complete());
    EXPECT_EQ(status.saved_runs, exec.saved_runs());
    // Extrapolation is exact here: every case has the same plan size.
    std::uint64_t runs_done = 0;
    for (const auto& r : exec.completed()) runs_done += r.runs;
    const std::uint64_t per_case = runs_done / exec.completed().size();
    EXPECT_EQ(exec.saved_runs(), per_case * (4 - exec.completed().size()));
}

TEST(AdaptiveTest, ExecutorStopsEarlyAndReportsSavedRuns) {
    expect_adaptive_stop("adaptive", 0);
}

TEST(AdaptiveTest, ExecutorStopsEarlyWithMoreThreadsThanShards) {
    // More workers than shards: the pool still leaves a shard queued for
    // the convergence check to skip, whatever the host's core count.
    expect_adaptive_stop("adaptive_t8", 8);
}

// -------------------------------------------------------- observability

TEST(ObserverTest, JournalIsWellFormedAndStatusReportsProgress) {
    const std::string dir = temp_dir("observe");
    CampaignExecutor exec(dir, tiny_spec(2, 2));
    ExecutorOptions opts;
    opts.threads = 2;
    EXPECT_TRUE(exec.run(opts));

    // Every journal line parses and carries type + elapsed_s.
    std::ifstream journal(dir + "/events.jsonl");
    ASSERT_TRUE(journal.is_open());
    std::string line;
    std::size_t events = 0;
    std::vector<std::string> types;
    while (std::getline(journal, line)) {
        ASSERT_FALSE(line.empty());
        const JsonValue ev = JsonValue::parse(line);
        types.push_back(ev.at("type").as_string());
        EXPECT_GE(ev.at("elapsed_s").as_double(), 0.0);
        ++events;
    }
    EXPECT_GE(events, 4u);  // start + 2 shard_done + done
    EXPECT_EQ(types.front(), "campaign_start");
    EXPECT_EQ(types.back(), "campaign_done");
    EXPECT_EQ(std::count(types.begin(), types.end(), "shard_done"), 2);

    const CampaignStatus status = read_status(dir);
    EXPECT_EQ(status.shards_done, 2u);
    EXPECT_EQ(status.shards_total, 2u);
    EXPECT_TRUE(status.complete());
    EXPECT_GT(status.runs, 0u);
    EXPECT_GT(status.run_rate, 0.0);
    EXPECT_EQ(status.events, events);

    const std::string rendered = render_status(status);
    EXPECT_NE(rendered.find("shards done: 2/2"), std::string::npos);
    EXPECT_NE(rendered.find("complete"), std::string::npos);
    EXPECT_NE(rendered.find("runs/s"), std::string::npos);

    // Phase timers saw both phases of run().
    EXPECT_GT(exec.timers().seconds("execute"), 0.0);
    EXPECT_NE(exec.timers().summary().find("checkpoint-scan"), std::string::npos);
}

TEST(ObserverTest, StatusOfPausedCampaignEstimatesEta) {
    const std::string dir = temp_dir("eta");
    CampaignExecutor exec(dir, tiny_spec(3, 3));
    ExecutorOptions one;
    one.max_shards = 1;
    EXPECT_FALSE(exec.run(one));

    const CampaignStatus status = read_status(dir);
    EXPECT_EQ(status.shards_done, 1u);
    EXPECT_EQ(status.pending_shards.size(), 2u);
    EXPECT_FALSE(status.complete());
    EXPECT_GT(status.eta_seconds, 0.0);
    EXPECT_NE(render_status(status).find("eta:"), std::string::npos);

    EXPECT_THROW((void)read_status(temp_dir("nonexistent")), std::runtime_error);
}

}  // namespace
}  // namespace epea::campaign
