// Regenerates Table 4: per-EA detection coverage for single bit-flip
// errors injected into the system input signals (error model A), for the
// EH-based and PA-based EA placements. `--json` emits the raw counts as
// a machine-readable document; --trace-out/--metrics-out export the run's
// spans and metric delta.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "campaign/json.hpp"
#include "exp/arrestment_experiments.hpp"
#include "exp/paper_data.hpp"
#include "fi/fastpath.hpp"
#include "obs/manifest.hpp"
#include "util/table.hpp"

#ifndef EPEA_VERSION
#define EPEA_VERSION "0.0.0-dev"
#endif

namespace {

epea::campaign::JsonObject row_to_json(const epea::exp::InputCoverageRow& row) {
    epea::campaign::JsonObject o;
    o["signal"] = row.signal;
    o["injected"] = row.injected;
    o["active"] = row.active;
    o["detected_any"] = row.detected_any;
    epea::campaign::JsonArray per_ea;
    for (const auto d : row.detected_per_ea) per_ea.emplace_back(d);
    o["detected_per_ea"] = std::move(per_ea);
    epea::campaign::JsonArray per_subset;
    for (const auto d : row.detected_per_subset) per_subset.emplace_back(d);
    o["detected_per_subset"] = std::move(per_subset);
    return o;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace epea;
    using util::Align;
    using util::TextTable;

    const std::vector<std::string> args(argv + 1, argv + argc);
    bool json = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) json = true;
    }

    target::ArrestmentSystem sys;
    exp::InputCoverageOptions options;
    options.campaign = exp::CampaignOptions::from_env();

    obs::ArgvRecorder obs_rec(args, "bench table4_coverage", EPEA_VERSION);
    obs_rec.manifest().config.emplace("cases",
                                      util::JsonValue(options.campaign.case_count));
    obs_rec.manifest().config.emplace(
        "times_per_bit", util::JsonValue(options.campaign.times_per_bit));
    obs_rec.manifest().seed_base = options.campaign.seed;
    obs_rec.manifest().fastpath = options.campaign.use_batch;
    fi::FastPathStats fastpath;
    options.campaign.fastpath_out = &fastpath;

    // EA membership of the two sets (paper §5.1/§5.3).
    const std::vector<exp::SubsetSpec> subsets = {
        {"EH-set", {"EA1", "EA2", "EA3", "EA4", "EA5", "EA6", "EA7"}},
        {"PA-set", {"EA1", "EA3", "EA4", "EA7"}},
    };

    if (!json) {
        std::printf("Table 4 — detection coverage, errors injected at system inputs\n");
        std::printf("Campaign: %zu cases x %zu times/bit\n",
                    options.campaign.case_count, options.campaign.times_per_bit);
        std::printf("(ADC excluded, as in the paper, whose Table 1 gives ADC->IsValue "
                    "0.000; this model's value is in table1_permeability)\n\n");
    }

    const exp::InputCoverageResult result =
        exp::input_coverage_experiment(sys, options, subsets);
    fi::add_fastpath_metrics(fastpath);
    obs_rec.manifest().fastpath_stats = fi::fastpath_stats_json(fastpath);

    if (json) {
        campaign::JsonObject root;
        root["table"] = "table4_coverage";
        root["cases"] = options.campaign.case_count;
        root["times_per_bit"] = options.campaign.times_per_bit;
        campaign::JsonArray ea_names;
        for (const auto& n : result.ea_names) ea_names.emplace_back(n);
        root["ea_names"] = std::move(ea_names);
        campaign::JsonArray subset_names;
        for (const auto& n : result.subset_names) subset_names.emplace_back(n);
        root["subset_names"] = std::move(subset_names);
        campaign::JsonArray rows;
        for (const auto& row : result.rows) rows.emplace_back(row_to_json(row));
        root["rows"] = std::move(rows);
        root["all"] = row_to_json(result.all);
        campaign::JsonObject latency;
        latency["n"] = result.all.latency.count();
        latency["mean_ms"] =
            result.all.latency.count() ? result.all.latency.mean() : 0.0;
        latency["max_ms"] = result.all.latency.count() ? result.all.latency.max() : 0.0;
        root["latency"] = std::move(latency);
        std::printf("%s\n", campaign::JsonValue(std::move(root)).dump().c_str());
        return obs_rec.finish();
    }

    std::vector<std::string> header = {"Signal", "n_err"};
    for (const auto& n : result.ea_names) header.push_back(n);
    header.insert(header.end(), {"Total", "EH", "PA"});
    std::vector<util::Align> aligns(header.size(), Align::kRight);
    aligns[0] = Align::kLeft;

    TextTable table(header, aligns);
    auto add = [&](const exp::InputCoverageRow& row) {
        std::vector<std::string> cells = {
            row.signal, TextTable::num(static_cast<std::uint64_t>(row.active))};
        auto cov = [&](std::uint64_t det) {
            if (row.active == 0) return std::string{"-"};
            const double c = static_cast<double>(det) / static_cast<double>(row.active);
            return det == 0 ? std::string{"-"} : TextTable::num(c);
        };
        for (const std::uint64_t det : row.detected_per_ea) cells.push_back(cov(det));
        cells.push_back(cov(row.detected_any));
        for (const std::uint64_t det : row.detected_per_subset) cells.push_back(cov(det));
        table.add_row(std::move(cells));
    };
    for (const auto& row : result.rows) add(row);
    table.add_rule();
    add(result.all);
    std::cout << table;

    std::printf("\nDetection latency over detected errors: mean %.1f ms, "
                "max %.0f ms (n=%zu)\n",
                result.all.latency.mean(), result.all.latency.max(),
                result.all.latency.count());

    std::printf("\nPaper reference (Total column): ");
    for (const auto& row : exp::paper_table4()) {
        std::printf("%s %.3f (n_err %llu)  ", row.signal.c_str(), row.total_coverage,
                    static_cast<unsigned long long>(row.n_err));
    }
    std::printf("\nKey claims: only PACNT-injected errors are detectable; the EH and "
                "PA sets obtain the same coverage.\n");
    return obs_rec.finish();
}
