// Observability against a real campaign (DESIGN.md §10): the metric
// counters exported by a traced run must equal the checkpointed shard
// totals bit-exactly, the trace must carry one named track per worker,
// re-loading checkpoints must not double-count (nor in-memory campaigns
// under-count), and the fi.* counters
// must mirror FastPathStats field for field.
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/executor.hpp"
#include "campaign/spec.hpp"
#include "fi/fastpath.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace epea::obs {
namespace {

std::string temp_dir(const std::string& name) {
    const std::string dir = testing::TempDir() + "epea_obs_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

campaign::CampaignSpec small_spec(const std::string& name) {
    campaign::CampaignSpec spec =
        campaign::CampaignSpec::defaults(campaign::CampaignKind::kPermeability);
    spec.name = name;
    spec.case_ids = {0, 1, 2};
    spec.times_per_bit = 2;
    spec.shards = 2;
    return spec;
}

TEST(ObsCampaignTest, MetricsMatchCheckpointedTotalsBitExactly) {
    if (!kEnabled) GTEST_SKIP() << "built with EPEA_OBS_ENABLED=OFF";
    const std::string dir = temp_dir("bitexact");

    RunRecorder recorder;
    recorder.begin();
    campaign::CampaignExecutor exec(dir, small_spec("obs-bitexact"));
    campaign::ExecutorOptions eopt;
    eopt.threads = 2;
    ASSERT_TRUE(exec.run(eopt));
    recorder.finalize();

    // Bit-exact: the exported counters are recorded once per completed
    // shard from its checkpointed FastPathStats, so they must sum to the
    // same totals the checkpoints themselves report.
    std::uint64_t runs = 0;
    for (const auto& shard : exec.completed()) runs += shard.runs;
    const fi::FastPathStats totals = exec.fastpath_totals();
    const MetricsSnapshot& m = recorder.manifest().metrics;
    EXPECT_EQ(m.counter("campaign.shard.runs"), runs);
    EXPECT_EQ(m.counter("campaign.shards.done"), exec.completed().size());
    EXPECT_EQ(m.counter("fi.runs.full"), totals.full_runs);
    EXPECT_EQ(m.counter("fi.runs.forked"), totals.forked_runs);
    EXPECT_EQ(m.counter("fi.runs.pruned"), totals.pruned_runs);
    EXPECT_EQ(m.counter("fi.run_ticks"), totals.ticks_executed);
    EXPECT_EQ(m.counter("fi.ticks_saved"), totals.ticks_saved);
    EXPECT_EQ(m.counter("cache.golden.hit"), totals.cache_hits);
    EXPECT_EQ(m.counter("cache.golden.miss"), totals.cache_misses);
    EXPECT_EQ(m.counter("fi.runs.full") + m.counter("fi.runs.forked") +
                  m.counter("fi.runs.skipped"),
              runs);

    // The trace carries spans and at least one named worker track.
    EXPECT_FALSE(recorder.events().empty());
    bool shard_span = false;
    for (const SpanEvent& e : recorder.events()) {
        if (e.name == "campaign.shard") shard_span = true;
    }
    EXPECT_TRUE(shard_span);
    bool named_worker = false;
    for (const TrackInfo& t : Tracer::instance().tracks()) {
        if (t.name.rfind("worker-", 0) == 0) named_worker = true;
    }
    EXPECT_TRUE(named_worker);

    // Writing the run's artifacts succeeds and the manifest re-loads
    // (config_hash verified inside load_manifest).
    recorder.manifest().tool_version = "test";
    recorder.manifest().command = "campaign run";
    recorder.manifest().config.emplace("cases", util::JsonValue(std::int64_t{3}));
    ASSERT_TRUE(recorder.write_manifest_file(dir + "/manifest.json"));
    const Manifest back = load_manifest(dir + "/manifest.json");
    EXPECT_EQ(back.metrics.counter("campaign.shard.runs"), runs);
}

TEST(ObsCampaignTest, ReloadingCheckpointsDoesNotDoubleCount) {
    if (!kEnabled) GTEST_SKIP() << "built with EPEA_OBS_ENABLED=OFF";
    const std::string dir = temp_dir("reload");
    campaign::CampaignExecutor exec(dir, small_spec("obs-reload"));
    ASSERT_TRUE(exec.run());

    // Opening the finished campaign again loads the same checkpoints;
    // the per-(dir, shard) claim set must keep the counters unchanged.
    const MetricsSnapshot before = MetricsRegistry::global().snapshot();
    campaign::CampaignExecutor reopened = campaign::CampaignExecutor::open(dir);
    ASSERT_TRUE(reopened.run());
    const MetricsSnapshot delta =
        MetricsSnapshot::diff(before, MetricsRegistry::global().snapshot());
    EXPECT_EQ(delta.counter("campaign.shard.runs"), 0u);
    EXPECT_EQ(delta.counter("campaign.shards.done"), 0u);
    EXPECT_EQ(delta.counter("fi.runs.forked"), 0u);

    // In memory nothing is reloaded and nothing is claimed: each of two
    // in-memory campaigns in one process records its own shards exactly
    // once (a claim keyed on an empty dir would drop the second's).
    for (int rep = 0; rep < 2; ++rep) {
        const MetricsSnapshot mem_before = MetricsRegistry::global().snapshot();
        campaign::CampaignExecutor memory("", small_spec("obs-reload"));
        ASSERT_TRUE(memory.run());
        const MetricsSnapshot mem_delta =
            MetricsSnapshot::diff(mem_before, MetricsRegistry::global().snapshot());
        EXPECT_EQ(mem_delta.counter("campaign.shards.done"), memory.completed().size());
        EXPECT_EQ(mem_delta.counter("fi.runs.forked"),
                  memory.fastpath_totals().forked_runs);
        EXPECT_GT(memory.fastpath_totals().forked_runs, 0u);
    }
}

TEST(ObsCampaignTest, FastpathMetricsMirrorStatsFieldForField) {
    if (!kEnabled) GTEST_SKIP() << "built with EPEA_OBS_ENABLED=OFF";
    fi::FastPathStats stats;
    stats.full_runs = 3;
    stats.forked_runs = 40;
    stats.pruned_runs = 11;
    stats.skipped_runs = 2;
    stats.ticks_executed = 12345;
    stats.ticks_saved = 678;
    stats.cache_hits = 9;
    stats.cache_misses = 4;

    const MetricsSnapshot before = MetricsRegistry::global().snapshot();
    fi::add_fastpath_metrics(stats);
    const MetricsSnapshot delta =
        MetricsSnapshot::diff(before, MetricsRegistry::global().snapshot());
    EXPECT_EQ(delta.counter("fi.runs.full"), stats.full_runs);
    EXPECT_EQ(delta.counter("fi.runs.forked"), stats.forked_runs);
    EXPECT_EQ(delta.counter("fi.runs.pruned"), stats.pruned_runs);
    EXPECT_EQ(delta.counter("fi.runs.skipped"), stats.skipped_runs);
    EXPECT_EQ(delta.counter("fi.run_ticks"), stats.ticks_executed);
    EXPECT_EQ(delta.counter("fi.ticks_saved"), stats.ticks_saved);
    EXPECT_EQ(delta.counter("cache.golden.hit"), stats.cache_hits);
    EXPECT_EQ(delta.counter("cache.golden.miss"), stats.cache_misses);

    // The manifest's fastpath_stats JSON carries the same eight fields.
    const util::JsonObject json = fi::fastpath_stats_json(stats);
    EXPECT_EQ(json.at("full_runs").as_int(), 3);
    EXPECT_EQ(json.at("forked_runs").as_int(), 40);
    EXPECT_EQ(json.at("pruned_runs").as_int(), 11);
    EXPECT_EQ(json.at("skipped_runs").as_int(), 2);
    EXPECT_EQ(json.at("ticks_executed").as_int(), 12345);
    EXPECT_EQ(json.at("ticks_saved").as_int(), 678);
    EXPECT_EQ(json.at("cache_hits").as_int(), 9);
    EXPECT_EQ(json.at("cache_misses").as_int(), 4);
}

}  // namespace
}  // namespace epea::obs
