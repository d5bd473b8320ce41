// Cost-aware placement frontier (src/opt/) over the arrestment target:
// enumerates all 127 EA-location subsets under both error models with
// the analytic engine benefit, prints the frontier report validating
// the paper's placements, and writes the frontier exports
// (frontier_placement_<model>.{csv,json,dot}) alongside fig5/fig6. The
// DOT is byte-identical to `epea_tool place frontier --out-prefix`.
// A synthetic 30-signal model then demonstrates the search-regime split:
// greedy completes in milliseconds where the exact lattice (2^30) is
// infeasible and refused.
#include <chrono>
#include <cstdio>
#include <fstream>

#include "analytic/benefit.hpp"
#include "epic/placement.hpp"
#include "exp/paper_data.hpp"
#include "opt/optimizer.hpp"
#include "synth/generator.hpp"
#include "target/arrestment_system.hpp"

int main() {
    using namespace epea;

    const model::SystemModel system = target::make_arrestment_model();
    const epic::PermeabilityMatrix pm = exp::paper_matrix(system);

    for (const opt::ErrorModel model :
         {opt::ErrorModel::kInput, opt::ErrorModel::kSevere}) {
        opt::PlacementOptimizer optimizer = analytic::make_engine_optimizer(pm, model);
        const opt::Frontier frontier = optimizer.frontier();

        std::printf("=== %s error model ===\n%s\n", opt::to_string(model),
                    optimizer.explain(frontier).c_str());

        const std::string prefix =
            std::string("frontier_placement_") + opt::to_string(model);
        std::ofstream csv(prefix + ".csv");
        std::ofstream json(prefix + ".json");
        std::ofstream dot(prefix + ".dot");
        opt::write_frontier_csv(csv, frontier);
        opt::write_frontier_json(json, frontier);
        opt::write_frontier_dot(dot, frontier,
                                std::string("EA placement frontier (") +
                                    opt::to_string(model) + " model, analytic)");
        std::printf("wrote %s.{csv,json,dot}\n\n", prefix.c_str());
    }

    // Search-regime demonstration on a model too large for the exact
    // lattice: ~30 candidate signals.
    synth::LayeredOptions lo;
    lo.layers = 5;
    lo.modules_per_layer = 4;
    lo.outputs_per_module = 2;
    lo.seed = 7;
    const synth::SyntheticSystem synth_sys = synth::random_layered_system(lo);
    const std::vector<model::SignalId> candidates =
        epic::ea_candidate_signals(*synth_sys.system, /*veto_boolean=*/true);

    opt::PlacementOptimizer big = analytic::make_engine_optimizer(
        synth_sys.matrix, opt::ErrorModel::kInput, candidates);
    opt::SearchOptions so;
    so.budget.memory = 600.0;

    const auto t0 = std::chrono::steady_clock::now();
    const opt::SearchResult greedy = opt::greedy_search(
        big.candidates(),
        [&big](const std::vector<std::size_t>& subset) {
            std::vector<std::string> names;
            for (const std::size_t i : subset)
                names.push_back(big.candidates()[i].name);
            return big.coverage(names);
        },
        so);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

    std::printf("synthetic system: %zu candidate locations (exact 2^n lattice "
                "infeasible)\n",
                big.candidates().size());
    std::printf("greedy under 600 B memory budget: %zu locations, coverage %.4f, "
                "%zu evaluations, %.1f ms\n",
                greedy.selected.size(), greedy.coverage, greedy.evaluations, ms);
    return 0;
}
