// Campaign-scale tests of the delta planner: a module-filtered estimate
// is bit-identical per module to a full run (the draw-but-skip stream
// discipline), splicing fresh rows into the cached matrix reproduces the
// from-scratch matrix byte for byte, and the campaign executor's run
// counters prove a delta campaign re-runs only the stale module's cases.
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analytic/delta.hpp"
#include "analytic/validate.hpp"
#include "campaign/executor.hpp"
#include "campaign/observer.hpp"
#include "campaign/spec.hpp"
#include "epic/serialize.hpp"
#include "exp/arrestment_experiments.hpp"
#include "target/arrestment_system.hpp"

namespace {

using namespace epea;

std::string temp_dir(const std::string& name) {
    const std::string dir = testing::TempDir() + "epea_analytic_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

std::string matrix_csv(const epic::PermeabilityMatrix& pm) {
    std::ostringstream out;
    epic::save_matrix_csv(out, pm);
    return out.str();
}

exp::CampaignOptions small_options() {
    exp::CampaignOptions options;
    options.case_count = 2;
    options.times_per_bit = 2;
    return options;
}

/// Injection runs an estimator spends on `module`: one per input bit per
/// time per case.
std::uint64_t planned_runs(const model::SystemModel& system,
                           const std::string& module, std::size_t cases,
                           std::size_t times_per_bit) {
    const auto mid = *system.find_module(module);
    std::uint64_t bits = 0;
    for (const model::SignalId in : system.module(mid).inputs) {
        bits += system.signal(in).width;
    }
    return bits * cases * times_per_bit;
}

TEST(DeltaCampaign, FilteredEstimateIsBitIdenticalPerModule) {
    const exp::CampaignOptions full_options = small_options();
    target::ArrestmentSystem full_sys;
    const epic::PermeabilityMatrix full =
        exp::estimate_arrestment_permeability(full_sys, full_options);

    exp::CampaignOptions filtered_options = small_options();
    filtered_options.module_filter = {"CALC"};
    target::ArrestmentSystem filtered_sys;
    const epic::PermeabilityMatrix filtered =
        exp::estimate_arrestment_permeability(filtered_sys, filtered_options);

    const model::SystemModel& system = full_sys.system();
    for (const model::ModuleId m : system.all_modules()) {
        const model::ModuleSpec& spec = system.module(m);
        const bool kept = system.module_name(m) == "CALC";
        const auto fm = *filtered_sys.system().find_module(system.module_name(m));
        for (std::uint32_t i = 0; i < spec.input_count(); ++i) {
            for (std::uint32_t k = 0; k < spec.output_count(); ++k) {
                const util::Proportion a = full.counts(m, i, k);
                const util::Proportion b = filtered.counts(fm, i, k);
                if (kept) {
                    // Same streams, same golden runs — identical counts.
                    EXPECT_EQ(a.hits, b.hits) << system.module_name(m);
                    EXPECT_EQ(a.trials, b.trials) << system.module_name(m);
                } else {
                    EXPECT_EQ(b.trials, 0U) << system.module_name(m);
                }
            }
        }
    }
}

TEST(DeltaCampaign, SplicedMatrixEqualsFromScratchByteForByte) {
    // The one-module-edit scenario: CALC is stale, everything else is
    // served from the cached full matrix. The spliced result must be
    // indistinguishable from re-running the whole campaign.
    target::ArrestmentSystem full_sys;
    const epic::PermeabilityMatrix full =
        exp::estimate_arrestment_permeability(full_sys, small_options());

    exp::CampaignOptions delta_options = small_options();
    delta_options.module_filter = {"CALC"};
    target::ArrestmentSystem delta_sys;
    const epic::PermeabilityMatrix fresh =
        exp::estimate_arrestment_permeability(delta_sys, delta_options);

    analytic::DeltaPlan plan;
    plan.changed = {"CALC"};
    const epic::PermeabilityMatrix merged =
        analytic::splice_matrix(full_sys.system(), full, fresh, plan);
    EXPECT_EQ(matrix_csv(merged), matrix_csv(full));
}

TEST(DeltaCampaign, ExecutorRunCountersProveOnlyStaleModuleRuns) {
    campaign::CampaignSpec spec =
        campaign::CampaignSpec::defaults(campaign::CampaignKind::kPermeability);
    spec.case_ids = {0, 1};
    spec.times_per_bit = 1;
    spec.shards = 1;

    const std::string full_dir = temp_dir("exec_full");
    campaign::CampaignExecutor full_exec(full_dir, spec);
    ASSERT_TRUE(full_exec.run({}));
    const std::uint64_t full_runs = campaign::read_status(full_dir).runs;

    spec.name = "delta";
    spec.module_filter = {"CALC"};
    const std::string delta_dir = temp_dir("exec_delta");
    campaign::CampaignExecutor delta_exec(delta_dir, spec);
    ASSERT_TRUE(delta_exec.run({}));
    const std::uint64_t delta_runs = campaign::read_status(delta_dir).runs;

    static const model::SystemModel system = target::make_arrestment_model();
    const std::uint64_t calc_runs = planned_runs(system, "CALC", 2, 1);
    EXPECT_EQ(delta_runs, calc_runs);
    EXPECT_LT(delta_runs, full_runs);
    // The full campaign spent runs on every module; the delta spent
    // exactly the stale module's share of it.
    std::uint64_t all_runs = 0;
    for (const model::ModuleId m : system.all_modules()) {
        all_runs += planned_runs(system, system.module_name(m), 2, 1);
    }
    EXPECT_EQ(full_runs, all_runs);

    std::filesystem::remove_all(full_dir);
    std::filesystem::remove_all(delta_dir);
}

TEST(DeltaCampaign, EmptyPlanSpecIsRefusedByExecutor) {
    campaign::CampaignSpec base =
        campaign::CampaignSpec::defaults(campaign::CampaignKind::kPermeability);
    base.times_per_bit = 1;
    base.shards = 1;
    const campaign::CampaignSpec spec =
        analytic::to_campaign_spec(analytic::DeltaPlan{}, base);
    EXPECT_TRUE(spec.case_ids.empty());
    EXPECT_TRUE(spec.module_filter.empty());

    // An empty plan means nothing needs re-measurement; the planner
    // clears the case list so the executor refuses the spec outright
    // instead of spending a campaign on zero work.
    const std::string dir = temp_dir("exec_empty");
    EXPECT_THROW(campaign::CampaignExecutor(dir, spec), std::runtime_error);
    std::filesystem::remove_all(dir);
}

TEST(AnalyticValidateCampaign, CampaignProngAgreesWithinTolerance) {
    analytic::ValidateOptions options;
    options.campaign.case_count = 3;
    options.campaign.times_per_bit = 3;
    options.run_synth = false;
    const analytic::ValidateResult result =
        analytic::validate_arrestment(options);
    EXPECT_TRUE(result.pass);
    const util::JsonValue& campaign = result.report.at("campaign");
    EXPECT_TRUE(campaign.at("pass").as_bool());
    EXPECT_GT(campaign.at("check").at("runs").as_int(), 0);
}

TEST(AnalyticValidateCampaign, CampaignCheckShapesRows) {
    exp::CampaignOptions options;
    options.case_count = 1;
    options.times_per_bit = 1;
    const analytic::CampaignCheck check = analytic::campaign_check(options, {});
    static const model::SystemModel system = target::make_arrestment_model();
    const std::size_t inputs =
        system.signals_with_role(model::SignalRole::kSystemInput).size();
    const std::size_t outputs =
        system.signals_with_role(model::SignalRole::kSystemOutput).size();
    EXPECT_EQ(check.rows.size(), inputs * outputs);
    EXPECT_GT(check.runs, 0U);
    for (const analytic::CampaignRow& row : check.rows) {
        EXPECT_GE(row.measured.point, 0.0);
        EXPECT_LE(row.measured.point, 1.0);
        EXPECT_GE(row.analytic.point, 0.0);
        EXPECT_LE(row.analytic.point, 1.0);
    }
}

TEST(AnalyticValidateCampaign, BatchedRowsEqualReplayRows) {
    // The end-to-end prong reads whole-trace deviations, run length
    // included: lanes retired at the golden end must score exactly like
    // replayed runs that ran on past it.
    exp::CampaignOptions options;
    options.case_count = 2;
    options.times_per_bit = 2;
    const analytic::CampaignCheck batched = analytic::campaign_check(options, {});
    options.use_batch = false;
    const analytic::CampaignCheck replayed = analytic::campaign_check(options, {});

    ASSERT_EQ(batched.rows.size(), replayed.rows.size());
    for (std::size_t i = 0; i < batched.rows.size(); ++i) {
        EXPECT_EQ(batched.rows[i].measured.trials, replayed.rows[i].measured.trials);
        EXPECT_EQ(batched.rows[i].measured.hits, replayed.rows[i].measured.hits)
            << batched.rows[i].input << " -> " << batched.rows[i].output;
    }
    EXPECT_EQ(batched.to_json().dump(), replayed.to_json().dump());
    EXPECT_GT(batched.runs, 0U);
}

}  // namespace
