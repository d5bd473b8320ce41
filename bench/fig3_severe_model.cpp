// Regenerates Fig 3: detection coverage under the severe error model —
// bit flips injected periodically (20 ms) into the RAM and stack areas of
// the modules, 25 test cases (paper: 200 locations x 25 cases = 5000
// runs). Shows c_tot / c_fail / c_nofail for the EH-set and the PA-set
// over RAM, stack and all locations. The campaign runs sharded through
// the campaign executor, in memory; --campaign-dir DIR adds checkpoints
// there. --trace-out/--metrics-out export the run's spans and metric
// delta.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "campaign/executor.hpp"
#include "exp/arrestment_experiments.hpp"
#include "fi/fastpath.hpp"
#include "obs/manifest.hpp"
#include "util/table.hpp"

#ifndef EPEA_VERSION
#define EPEA_VERSION "0.0.0-dev"
#endif

int main(int argc, char** argv) {
    using namespace epea;
    using util::Align;
    using util::TextTable;

    const std::vector<std::string> args(argv + 1, argv + argc);
    std::string campaign_dir;
    for (std::size_t i = 0; i + 1 < args.size(); ++i) {
        if (args[i] == "--campaign-dir") campaign_dir = args[i + 1];
    }

    target::ArrestmentSystem sys;
    const exp::CampaignOptions options = exp::CampaignOptions::from_env();

    obs::ArgvRecorder obs_rec(args, "bench fig3_severe_model", EPEA_VERSION);
    obs_rec.manifest().config.emplace("cases", util::JsonValue(options.case_count));
    obs_rec.manifest().config.emplace("severe_period",
                                      util::JsonValue(options.severe_period));
    obs_rec.manifest().fastpath = options.use_batch;

    std::printf("Fig 3 — coverage under the severe error model\n");
    std::printf("Periodic bit flips (period %u ms) into module RAM and stack words\n\n",
                options.severe_period);

    // The spec's default subsets are the EH-set and the PA-set. Counts are
    // bit-identical to the sequential driver at any thread count: streams
    // are keyed by global case index.
    campaign::CampaignExecutor exec(
        campaign_dir,
        campaign::CampaignSpec::from_options(campaign::CampaignKind::kSevere, options));
    exec.run();
    const exp::SevereCoverageResult result = exec.merged_severe();
    obs_rec.manifest().fastpath_stats = fi::fastpath_stats_json(exec.fastpath_totals());
    if (!campaign_dir.empty()) {
        std::printf("Campaign directory: %s (%zu shards)\n\n", campaign_dir.c_str(),
                    exec.completed().size());
    }

    std::printf("Injectable locations: %zu RAM bytes, %zu stack bytes "
                "(paper: 150 RAM + 50 stack)\n",
                result.ram_locations, result.stack_locations);
    std::printf("Runs: %llu (%llu classified as system failure)\n\n",
                static_cast<unsigned long long>(result.runs),
                static_cast<unsigned long long>(result.failures));

    TextTable table({"Set", "Region", "c_tot", "c_fail", "c_nofail", "n"},
                    {Align::kLeft, Align::kLeft, Align::kRight, Align::kRight,
                     Align::kRight, Align::kRight});
    static constexpr const char* kRegions[3] = {"RAM", "Stack", "Total"};
    for (const auto& set : result.sets) {
        for (std::size_t r = 0; r < 3; ++r) {
            const auto& row = set.cells[r];
            table.add_row({set.set_name, kRegions[r], TextTable::num(row[0].coverage()),
                           TextTable::num(row[1].coverage()),
                           TextTable::num(row[2].coverage()),
                           TextTable::num(static_cast<std::uint64_t>(row[0].n))});
        }
        table.add_rule();
    }
    std::cout << table;

    if (result.sets.size() >= 2) {
        const double eh = result.sets[0].cells[2][0].coverage();
        const double pa = result.sets[1].cells[2][0].coverage();
        std::printf("\nEH total coverage %.3f vs PA total coverage %.3f "
                    "(paper: PA roughly half of EH on RAM, worse on stack)\n",
                    eh, pa);
    }
    return obs_rec.finish();
}
