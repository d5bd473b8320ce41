// Engine-vs-replay equivalence proofs (DESIGN.md §9): every campaign kind
// — permeability, input coverage, severe, recovery — and the opt::
// subset evaluator must produce bit-identical results whether one-shot
// plans run as batched lanes or replay from tick 0 (`use_batch = false`,
// the reference). These are the paired runs the acceptance criteria
// require; the small-scale lane mechanics are covered by batch_test.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>

#include "campaign/executor.hpp"
#include "epic/serialize.hpp"
#include "exp/arrestment_experiments.hpp"
#include "exp/recovery.hpp"
#include "opt/evaluator.hpp"
#include "target/arrestment_system.hpp"

namespace {

using namespace epea;

namespace fs = std::filesystem;

struct TempDir {
    fs::path path;
    explicit TempDir(const std::string& name)
        : path(fs::temp_directory_path() / ("epea_fastpath_" + name)) {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
};

exp::CampaignOptions tiny_campaign(bool batch, fi::FastPathStats* stats) {
    exp::CampaignOptions o;
    o.case_count = 2;
    o.times_per_bit = 2;
    o.use_batch = batch;
    o.fastpath_out = stats;
    return o;
}

std::string matrix_csv(const epic::PermeabilityMatrix& pm) {
    std::ostringstream out;
    epic::save_matrix_csv(out, pm);
    return out.str();
}

TEST(FastpathEquivalence, PermeabilityMatrixBitIdentical) {
    target::ArrestmentSystem sys;
    fi::FastPathStats batch_stats;
    fi::FastPathStats replay_stats;

    const epic::PermeabilityMatrix batch =
        exp::estimate_arrestment_permeability(sys, tiny_campaign(true, &batch_stats));
    const epic::PermeabilityMatrix replay =
        exp::estimate_arrestment_permeability(sys, tiny_campaign(false, &replay_stats));

    EXPECT_EQ(matrix_csv(batch), matrix_csv(replay));
    // The reference replayed every run from tick 0.
    EXPECT_EQ(replay_stats.full_runs, replay_stats.runs());
    EXPECT_EQ(replay_stats.lanes_launched, 0U);
    EXPECT_EQ(replay_stats.ticks_saved, 0U);
    // The engine ran its plans as lanes — with every retirement kind
    // exercised, sealing included — and reused most golden ticks.
    EXPECT_EQ(batch_stats.runs(), replay_stats.runs());
    EXPECT_EQ(batch_stats.lanes_launched,
              batch_stats.forked_runs + batch_stats.full_runs);
    EXPECT_GT(batch_stats.lanes_launched, 0U);
    EXPECT_GT(batch_stats.lanes_retired_pruned, 0U);
    EXPECT_GT(batch_stats.lanes_retired_sealed, 0U);
    EXPECT_GT(batch_stats.ticks_saved, batch_stats.ticks_executed);
    EXPECT_LT(batch_stats.ticks_executed, replay_stats.ticks_executed);
}

std::vector<exp::SubsetSpec> paper_subsets() {
    return {{"EH", {"EA1", "EA3", "EA6"}}, {"PA", {"EA2", "EA4", "EA5", "EA7"}}};
}

void expect_rows_equal(const exp::InputCoverageRow& a, const exp::InputCoverageRow& b) {
    EXPECT_EQ(a.signal, b.signal);
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.active, b.active);
    EXPECT_EQ(a.detected_any, b.detected_any);
    EXPECT_EQ(a.detected_per_ea, b.detected_per_ea);
    EXPECT_EQ(a.detected_per_subset, b.detected_per_subset);
    EXPECT_EQ(a.latency.count(), b.latency.count());
    EXPECT_EQ(a.latency.sum(), b.latency.sum());
    EXPECT_EQ(a.latency.min(), b.latency.min());
    EXPECT_EQ(a.latency.max(), b.latency.max());
}

TEST(FastpathEquivalence, InputCoverageBitIdentical) {
    target::ArrestmentSystem sys;
    fi::FastPathStats batch_stats;
    fi::FastPathStats replay_stats;

    exp::InputCoverageOptions batch_opt;
    batch_opt.campaign = tiny_campaign(true, &batch_stats);
    exp::InputCoverageOptions replay_opt;
    replay_opt.campaign = tiny_campaign(false, &replay_stats);

    const exp::InputCoverageResult batch =
        exp::input_coverage_experiment(sys, batch_opt, paper_subsets());
    const exp::InputCoverageResult replay =
        exp::input_coverage_experiment(sys, replay_opt, paper_subsets());

    ASSERT_EQ(batch.rows.size(), replay.rows.size());
    EXPECT_EQ(batch.ea_names, replay.ea_names);
    for (std::size_t r = 0; r < batch.rows.size(); ++r) {
        expect_rows_equal(batch.rows[r], replay.rows[r]);
    }
    expect_rows_equal(batch.all, replay.all);
    // Coverage-mode lanes carry armed EAs through the batch kernel; the
    // reference replays with the bank armed on the live simulator.
    EXPECT_GT(batch_stats.lanes_launched, 0U);
    EXPECT_GT(batch.all.detected_any, 0U);
    EXPECT_EQ(replay_stats.lanes_launched, 0U);
    EXPECT_EQ(replay_stats.forked_runs, 0U);
}

TEST(FastpathEquivalence, SevereCoverageBitIdentical) {
    target::ArrestmentSystem sys;
    fi::FastPathStats batch_stats;
    fi::FastPathStats replay_stats;

    // Cases 0-2: every periodic severe plan runs as a lane in the first
    // arm and replays in the second. The failure class is read from the
    // outcome's environment section, so the cases must include failures.
    exp::CampaignOptions batch_opt = tiny_campaign(true, &batch_stats);
    batch_opt.case_count = 3;
    exp::CampaignOptions replay_opt = tiny_campaign(false, &replay_stats);
    replay_opt.case_count = 3;

    const exp::SevereCoverageResult batch =
        exp::severe_coverage_experiment(sys, batch_opt, paper_subsets());
    const exp::SevereCoverageResult replay =
        exp::severe_coverage_experiment(sys, replay_opt, paper_subsets());

    EXPECT_EQ(batch.runs, replay.runs);
    EXPECT_EQ(batch.failures, replay.failures);
    EXPECT_GT(batch.failures, 0U);
    ASSERT_EQ(batch.sets.size(), replay.sets.size());
    for (std::size_t s = 0; s < batch.sets.size(); ++s) {
        for (std::size_t r = 0; r < 3; ++r) {
            for (std::size_t k = 0; k < 3; ++k) {
                EXPECT_EQ(batch.sets[s].cells[r][k].n, replay.sets[s].cells[r][k].n);
                EXPECT_EQ(batch.sets[s].cells[r][k].detected,
                          replay.sets[s].cells[r][k].detected);
            }
        }
    }
    // Lanes start from the reset state (no forks); the golden trace for
    // calibration comes through the cache, once per case.
    EXPECT_EQ(batch_stats.lanes_launched, batch.runs);
    EXPECT_EQ(batch_stats.full_runs, batch.runs);
    EXPECT_EQ(batch_stats.forked_runs, 0U);
    EXPECT_EQ(batch_stats.cache_misses, 3U);
    EXPECT_EQ(replay_stats.lanes_launched, 0U);
    EXPECT_EQ(replay_stats.full_runs, replay.runs);
}

TEST(FastpathEquivalence, RecoveryBitIdentical) {
    target::ArrestmentSystem sys;
    fi::FastPathStats batch_stats;

    // Batch flag on: periodic recovery plans must still replay.
    exp::CampaignOptions batch_opt = tiny_campaign(true, &batch_stats);
    batch_opt.case_count = 1;
    exp::CampaignOptions replay_opt = tiny_campaign(false, nullptr);
    replay_opt.case_count = 1;

    const exp::RecoveryResult batch =
        exp::recovery_experiment(sys, batch_opt, {"pulscnt", "SetValue"});
    const exp::RecoveryResult replay =
        exp::recovery_experiment(sys, replay_opt, {"pulscnt", "SetValue"});

    EXPECT_EQ(batch.runs, replay.runs);
    EXPECT_EQ(batch.failures_baseline, replay.failures_baseline);
    EXPECT_EQ(batch.failures_with_erm, replay.failures_with_erm);
    EXPECT_EQ(batch.repairs, replay.repairs);
    EXPECT_EQ(batch_stats.lanes_launched, 0U);
    EXPECT_EQ(batch_stats.full_runs, batch.runs * 2);
    EXPECT_EQ(batch_stats.runs(), batch.runs * 2);
}

/// One campaign per (kind, batch, threads) in its own directory; returns
/// the executor after a full run for result extraction.
campaign::CampaignExecutor run_campaign(const std::string& dir,
                                        campaign::CampaignKind kind, bool batch,
                                        std::size_t threads = 2) {
    campaign::CampaignSpec spec = campaign::CampaignSpec::defaults(kind);
    spec.case_ids.resize(2);
    spec.times_per_bit = 1;
    spec.shards = 2;
    campaign::CampaignExecutor exec(dir, std::move(spec));
    campaign::ExecutorOptions options;
    options.threads = threads;
    options.use_batch = batch;
    EXPECT_TRUE(exec.run(options));
    return exec;
}

/// Every merged count of a finished campaign of any kind as text, so
/// runs compare with one EXPECT_EQ.
std::string merged_digest(const campaign::CampaignExecutor& exec) {
    static const model::SystemModel system = target::make_arrestment_model();
    std::ostringstream out;
    switch (exec.spec().kind) {
        case campaign::CampaignKind::kPermeability:
            return matrix_csv(exec.merged_matrix(system));
        case campaign::CampaignKind::kSevere: {
            const exp::SevereCoverageResult r = exec.merged_severe();
            out << r.runs << ' ' << r.failures << '\n';
            for (const exp::SevereSetResult& set : r.sets) {
                out << set.set_name;
                for (const auto& region : set.cells) {
                    for (const exp::SevereCell& cell : region) {
                        out << ' ' << cell.detected << '/' << cell.n;
                    }
                }
                out << '\n';
            }
            break;
        }
        case campaign::CampaignKind::kRecovery: {
            const exp::RecoveryResult r = exec.merged_recovery();
            out << r.runs << ' ' << r.failures_baseline << ' ' << r.failures_with_erm
                << ' ' << r.repairs << '\n';
            break;
        }
        case campaign::CampaignKind::kInput: {
            exp::InputCoverageResult r = exec.merged_input();
            r.rows.push_back(r.all);
            for (const exp::InputCoverageRow& row : r.rows) {
                out << row.signal << ' ' << row.injected << ' ' << row.active << ' '
                    << row.detected_any;
                for (const std::uint64_t d : row.detected_per_ea) out << ' ' << d;
                for (const std::uint64_t d : row.detected_per_subset) out << ' ' << d;
                out << '\n';
            }
            break;
        }
    }
    return out.str();
}

TEST(FastpathEquivalence, CampaignExecutorMergedResultsBitIdentical) {
    TempDir tmp("campaign");
    static const model::SystemModel system = target::make_arrestment_model();

    const auto batch = run_campaign((tmp.path / "batch").string(),
                                    campaign::CampaignKind::kPermeability, true);
    const auto replay = run_campaign((tmp.path / "replay").string(),
                                     campaign::CampaignKind::kPermeability, false);
    EXPECT_EQ(matrix_csv(batch.merged_matrix(system)),
              matrix_csv(replay.merged_matrix(system)));

    // Lane counters travel through shard checkpoints into the merged
    // totals and the status reader.
    const fi::FastPathStats batch_totals = batch.fastpath_totals();
    EXPECT_GT(batch_totals.lanes_launched, 0U);
    EXPECT_GT(batch_totals.lanes_retired_sealed, 0U);
    EXPECT_GT(batch_totals.forked_runs, 0U);
    EXPECT_GT(batch_totals.ticks_saved, 0U);
    const fi::FastPathStats replay_totals = replay.fastpath_totals();
    EXPECT_EQ(replay_totals.lanes_launched, 0U);
    EXPECT_EQ(replay_totals.forked_runs, 0U);
    EXPECT_EQ(replay_totals.full_runs, replay_totals.runs());
    for (const campaign::ShardResult& shard : batch.completed()) {
        EXPECT_EQ(shard.threads, 2U);
    }

    // And through the status reader (what `campaign status` renders).
    const campaign::CampaignStatus status =
        campaign::read_status((tmp.path / "batch").string());
    EXPECT_EQ(status.fastpath.lanes_launched, batch_totals.lanes_launched);
    EXPECT_EQ(status.fastpath.lanes_retired_sealed, batch_totals.lanes_retired_sealed);
    EXPECT_EQ(status.fastpath.forked_runs, batch_totals.forked_runs);
    EXPECT_EQ(status.shard_threads, (std::vector<std::size_t>{2, 2}));
    const std::string rendered = campaign::render_status(status);
    EXPECT_NE(rendered.find("fast path:"), std::string::npos);
    EXPECT_NE(rendered.find("batch lanes:"), std::string::npos);
    EXPECT_NE(rendered.find("threads per shard:"), std::string::npos);
}

TEST(FastpathEquivalence, CampaignExecutorMatchesReplayAtAnyThreadCount) {
    TempDir tmp("campaign_threads");
    for (const campaign::CampaignKind kind :
         {campaign::CampaignKind::kPermeability, campaign::CampaignKind::kInput,
          campaign::CampaignKind::kSevere, campaign::CampaignKind::kRecovery}) {
        const std::string name = campaign::to_string(kind);
        const auto replay =
            run_campaign((tmp.path / (name + "-replay")).string(), kind, false, 1);
        const std::string expected = merged_digest(replay);
        ASSERT_FALSE(expected.empty()) << name;
        for (const std::size_t threads : {1U, 2U, 4U, 8U}) {
            const auto batch = run_campaign(
                (tmp.path / (name + "-batch-t" + std::to_string(threads))).string(),
                kind, true, threads);
            EXPECT_EQ(merged_digest(batch), expected)
                << name << ", " << threads << " threads";
        }
    }
}

TEST(FastpathEquivalence, SevereAndRecoveryCampaignsBitIdentical) {
    TempDir tmp("campaign_sr");

    const auto batch_sev = run_campaign((tmp.path / "batch-sev").string(),
                                        campaign::CampaignKind::kSevere, true);
    const auto replay_sev = run_campaign((tmp.path / "replay-sev").string(),
                                         campaign::CampaignKind::kSevere, false);
    const exp::SevereCoverageResult bs = batch_sev.merged_severe();
    const exp::SevereCoverageResult rs = replay_sev.merged_severe();
    EXPECT_EQ(bs.runs, rs.runs);
    EXPECT_EQ(bs.failures, rs.failures);
    ASSERT_EQ(bs.sets.size(), rs.sets.size());
    for (std::size_t s = 0; s < bs.sets.size(); ++s) {
        for (std::size_t r = 0; r < 3; ++r) {
            for (std::size_t k = 0; k < 3; ++k) {
                EXPECT_EQ(bs.sets[s].cells[r][k].detected,
                          rs.sets[s].cells[r][k].detected);
            }
        }
    }

    const auto batch_rec = run_campaign((tmp.path / "batch-rec").string(),
                                        campaign::CampaignKind::kRecovery, true);
    const auto replay_rec = run_campaign((tmp.path / "replay-rec").string(),
                                         campaign::CampaignKind::kRecovery, false);
    const exp::RecoveryResult br = batch_rec.merged_recovery();
    const exp::RecoveryResult rr = replay_rec.merged_recovery();
    EXPECT_EQ(br.runs, rr.runs);
    EXPECT_EQ(br.failures_baseline, rr.failures_baseline);
    EXPECT_EQ(br.failures_with_erm, rr.failures_with_erm);
    EXPECT_EQ(br.repairs, rr.repairs);
}

TEST(FastpathEquivalence, EvaluatorGroundTruthBitIdentical) {
    TempDir tmp("evaluator");
    opt::EvaluatorOptions batch_opt;
    batch_opt.model = opt::ErrorModel::kInput;
    batch_opt.dir = (tmp.path / "batch").string();
    batch_opt.cases = 2;
    batch_opt.times_per_bit = 1;
    batch_opt.shards = 2;
    batch_opt.use_batch = true;
    opt::EvaluatorOptions replay_opt = batch_opt;
    replay_opt.dir = (tmp.path / "replay").string();
    replay_opt.use_batch = false;

    opt::CampaignEvaluator batch(batch_opt);
    opt::CampaignEvaluator replay(replay_opt);
    const std::vector<std::vector<std::string>> subsets{{"pulscnt", "SetValue"},
                                                        {"IsValue"}};
    const auto batch_entries = batch.evaluate(subsets);
    const auto replay_entries = replay.evaluate(subsets);
    ASSERT_EQ(batch_entries.size(), replay_entries.size());
    for (std::size_t i = 0; i < batch_entries.size(); ++i) {
        EXPECT_EQ(batch_entries[i].detected, replay_entries[i].detected);
        EXPECT_EQ(batch_entries[i].active, replay_entries[i].active);
        EXPECT_DOUBLE_EQ(batch_entries[i].coverage, replay_entries[i].coverage);
    }

    // No dir: the cache and the campaign stay in memory, with the same
    // coverages, and nothing is written (cwd, or a root-anchored cache
    // file that was not there before).
    const bool root_cache_before = fs::exists("/subset_cache.json");
    opt::EvaluatorOptions memory_opt = batch_opt;
    memory_opt.dir.clear();
    const fs::path cwd = tmp.path / "memory-cwd";
    fs::create_directories(cwd);
    const fs::path old_cwd = fs::current_path();
    fs::current_path(cwd);
    opt::CampaignEvaluator memory(memory_opt);
    const auto memory_entries = memory.evaluate(subsets);
    fs::current_path(old_cwd);
    EXPECT_EQ(memory.campaigns_executed(), 1U);
    EXPECT_TRUE(fs::is_empty(cwd));
    EXPECT_EQ(fs::exists("/subset_cache.json"), root_cache_before);
    ASSERT_EQ(memory_entries.size(), batch_entries.size());
    for (std::size_t i = 0; i < batch_entries.size(); ++i) {
        EXPECT_EQ(memory_entries[i].detected, batch_entries[i].detected);
        EXPECT_EQ(memory_entries[i].active, batch_entries[i].active);
        EXPECT_DOUBLE_EQ(memory_entries[i].coverage, batch_entries[i].coverage);
    }
}

}  // namespace
