// Regenerates Table 1: estimated error permeability of every module
// input/output pair, via the fault-injection campaign of §5.3, printed
// next to the paper's published values.
//
// Full scale: 25 test cases x 10 injection moments per bit (~40k runs).
// Scale down with EPEA_CASES / EPEA_TIMES. The campaign runs sharded
// through the campaign executor, in memory; --campaign-dir DIR adds
// checkpoints there (kill + rerun resumes with identical counts).
// --trace-out/--metrics-out export the run's spans and metric delta.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "campaign/executor.hpp"
#include "exp/arrestment_experiments.hpp"
#include "exp/paper_data.hpp"
#include "fi/fastpath.hpp"
#include "obs/manifest.hpp"
#include "util/table.hpp"

#ifndef EPEA_VERSION
#define EPEA_VERSION "0.0.0-dev"
#endif

int main(int argc, char** argv) {
    using namespace epea;

    const std::vector<std::string> args(argv + 1, argv + argc);
    std::string campaign_dir;
    for (std::size_t i = 0; i + 1 < args.size(); ++i) {
        if (args[i] == "--campaign-dir") campaign_dir = args[i + 1];
    }

    target::ArrestmentSystem sys;
    const exp::CampaignOptions options = exp::CampaignOptions::from_env();

    obs::ArgvRecorder obs_rec(args, "bench table1_permeability", EPEA_VERSION);
    obs_rec.manifest().config.emplace("cases", util::JsonValue(options.case_count));
    obs_rec.manifest().config.emplace("times_per_bit",
                                      util::JsonValue(options.times_per_bit));
    obs_rec.manifest().seed_base = options.seed;
    obs_rec.manifest().fastpath = options.use_batch;

    std::printf("Table 1 — error permeability per input/output pair\n");
    std::printf("Campaign: %zu test cases, %zu injection moments per bit\n\n",
                options.case_count, options.times_per_bit);

    campaign::CampaignExecutor exec(
        campaign_dir, campaign::CampaignSpec::from_options(
                          campaign::CampaignKind::kPermeability, options));
    exec.run();
    const epic::PermeabilityMatrix measured = exec.merged_matrix(sys.system());
    obs_rec.manifest().fastpath_stats = fi::fastpath_stats_json(exec.fastpath_totals());
    if (!campaign_dir.empty()) {
        std::printf("Campaign directory: %s (%zu shards)\n\n", campaign_dir.c_str(),
                    exec.completed().size());
    }

    const epic::PermeabilityMatrix paper = exp::paper_matrix(sys.system());
    const auto& system = sys.system();

    util::TextTable table({"Input -> Output", "Name", "Measured", "Paper", "n_active"},
                          {util::Align::kLeft, util::Align::kLeft, util::Align::kRight,
                           util::Align::kRight, util::Align::kRight});
    model::ModuleId last_module;
    for (const auto& e : measured.entries()) {
        if (last_module.valid() && e.module != last_module) table.add_rule();
        last_module = e.module;
        const std::string pair =
            system.signal_name(e.in_signal) + " -> " + system.signal_name(e.out_signal);
        const std::string name = "P^" + system.module_name(e.module) + "(" +
                                 std::to_string(e.in_port + 1) + "," +
                                 std::to_string(e.out_port + 1) + ")";
        table.add_row({pair, name, util::TextTable::num(e.value),
                       util::TextTable::num(paper.get(e.module, e.in_port, e.out_port)),
                       util::TextTable::num(static_cast<std::uint64_t>(e.active))});
    }
    std::cout << table;
    return obs_rec.finish();
}
