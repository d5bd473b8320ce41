// Unit tests for the placement optimizer's cost model and search
// strategies (src/opt/): kind-derived costs matching Table 3, greedy vs
// exact agreement, budget handling, and the exact-search feasibility
// guard at large candidate counts.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>

#include "analytic/benefit.hpp"
#include "epic/impact.hpp"
#include "epic/placement.hpp"
#include "exp/arrestment_experiments.hpp"
#include "exp/paper_data.hpp"
#include "opt/cost.hpp"
#include "opt/optimizer.hpp"
#include "opt/search.hpp"
#include "opt/types.hpp"
#include "synth/generator.hpp"
#include "target/arrestment_system.hpp"

namespace {

using namespace epea;

// --------------------------------------------------------------- types

TEST(OptTypes, ErrorModelRoundTrip) {
    EXPECT_STREQ(opt::to_string(opt::ErrorModel::kInput), "input");
    EXPECT_STREQ(opt::to_string(opt::ErrorModel::kSevere), "severe");
    EXPECT_EQ(opt::error_model_from_string("input"), opt::ErrorModel::kInput);
    EXPECT_EQ(opt::error_model_from_string("severe"), opt::ErrorModel::kSevere);
    EXPECT_THROW((void)opt::error_model_from_string("bogus"), std::runtime_error);
}

TEST(OptTypes, CanonicalSubsetIsOrderIndependent) {
    EXPECT_EQ(opt::canonical_subset({"b", "a", "c"}), "a+b+c");
    EXPECT_EQ(opt::canonical_subset({"c", "a", "b"}), "a+b+c");
    EXPECT_EQ(opt::canonical_subset({}), "");
}

// ----------------------------------------------------------- cost model

TEST(OptCost, KindDerivedCostsMatchTable3) {
    const model::SystemModel system = target::make_arrestment_model();
    const opt::CostModel cm =
        opt::CostModel::from_signal_kinds(system, system.all_signals());

    // Continuous EA (SetValue): 50 + 14 bytes, 6 comparisons.
    EXPECT_DOUBLE_EQ(cm.of("SetValue").memory, 64.0);
    EXPECT_DOUBLE_EQ(cm.of("SetValue").time, 6.0);
    // Monotonic EA (pulscnt): 25 + 13 bytes, 3 comparisons.
    EXPECT_DOUBLE_EQ(cm.of("pulscnt").memory, 38.0);
    EXPECT_DOUBLE_EQ(cm.of("pulscnt").time, 3.0);
    // Discrete EA (ms_slot_nbr): 37 + 13 bytes, 4 comparisons.
    EXPECT_DOUBLE_EQ(cm.of("ms_slot_nbr").memory, 50.0);
    EXPECT_DOUBLE_EQ(cm.of("ms_slot_nbr").time, 4.0);
    // Boolean signals carry no EA and no cost entry.
    EXPECT_FALSE(cm.has("slow_speed"));
    EXPECT_THROW((void)cm.of("slow_speed"), std::out_of_range);
}

TEST(OptCost, PaperSetTotalsAndRatio) {
    const model::SystemModel system = target::make_arrestment_model();
    const opt::CostModel cm =
        opt::CostModel::from_signal_kinds(system, system.all_signals());

    const opt::PlacementCost eh = cm.subset_cost(exp::paper_eh_signals());
    const opt::PlacementCost pa = cm.subset_cost(exp::paper_pa_signals());
    // Table 3 totals: EH 262+94 = 356 bytes, PA 150+54 = 204 bytes.
    EXPECT_DOUBLE_EQ(eh.memory, 356.0);
    EXPECT_DOUBLE_EQ(pa.memory, 204.0);
    EXPECT_DOUBLE_EQ(eh.time, 31.0);
    EXPECT_DOUBLE_EQ(pa.time, 18.0);
    // The paper's claim C1 cost side: PA total <= 65 % of EH total.
    EXPECT_LE(pa.total() / eh.total(), 0.65);
}

TEST(OptCost, BudgetAdmission) {
    opt::CostBudget budget;
    budget.memory = 100.0;
    EXPECT_TRUE(budget.admits(opt::PlacementCost{100.0, 1e9}));
    EXPECT_FALSE(budget.admits(opt::PlacementCost{100.5, 0.0}));
    const opt::CostBudget unbounded;
    EXPECT_TRUE(unbounded.admits(opt::PlacementCost{1e12, 1e12}));
}

// --------------------------------------------------------------- search

/// A tiny additive benefit: each candidate contributes a fixed weight,
/// so the optimum within budget is transparent.
opt::BenefitFn additive(std::vector<double> weights) {
    return [weights = std::move(weights)](const std::vector<std::size_t>& subset) {
        double sum = 0.0;
        for (const std::size_t i : subset) sum += weights.at(i);
        return sum;
    };
}

TEST(OptSearch, BranchAndBoundFindsOptimum) {
    // Knapsack-like instance where greedy-by-density is suboptimal:
    // budget 10, items (cost, value): a=(6, 6.1), b=(5, 5), c=(5, 5).
    // Density picks a first (1.017 > 1.0) and fits nothing else -> 6.1;
    // optimal is {b, c} = 10.
    const std::vector<opt::Candidate> candidates = {
        {"a", {6.0, 0.0}}, {"b", {5.0, 0.0}}, {"c", {5.0, 0.0}}};
    const auto benefit = additive({6.1, 5.0, 5.0});
    opt::SearchOptions options;
    options.budget.memory = 10.0;

    const opt::SearchResult exact =
        opt::branch_and_bound(candidates, benefit, options);
    EXPECT_TRUE(exact.exact);
    EXPECT_DOUBLE_EQ(exact.coverage, 10.0);
    EXPECT_EQ(exact.selected, (std::vector<std::size_t>{1, 2}));
    EXPECT_EQ(exact.selected_names(candidates),
              (std::vector<std::string>{"b", "c"}));

    const opt::SearchResult greedy = opt::greedy_search(candidates, benefit, options);
    EXPECT_FALSE(greedy.exact);
    EXPECT_DOUBLE_EQ(greedy.coverage, 6.1);  // the known greedy gap
}

TEST(OptSearch, GreedyMatchesExactWithoutBudgetPressure) {
    const std::vector<opt::Candidate> candidates = {
        {"a", {1.0, 1.0}}, {"b", {2.0, 1.0}}, {"c", {3.0, 1.0}}};
    const auto benefit = additive({0.5, 0.3, 0.2});
    const opt::SearchResult exact = opt::branch_and_bound(candidates, benefit);
    const opt::SearchResult greedy = opt::greedy_search(candidates, benefit);
    EXPECT_DOUBLE_EQ(exact.coverage, 1.0);
    EXPECT_DOUBLE_EQ(greedy.coverage, 1.0);
    EXPECT_EQ(exact.selected, greedy.selected);
}

TEST(OptSearch, GreedyIgnoresZeroGainCandidates) {
    const std::vector<opt::Candidate> candidates = {
        {"useful", {5.0, 0.0}}, {"useless", {1.0, 0.0}}};
    const auto benefit = additive({0.9, 0.0});
    const opt::SearchResult greedy = opt::greedy_search(candidates, benefit);
    EXPECT_EQ(greedy.selected, (std::vector<std::size_t>{0}));
    EXPECT_DOUBLE_EQ(greedy.cost.memory, 5.0);
}

TEST(OptSearch, BranchAndBoundRefusesLargeInstances) {
    std::vector<opt::Candidate> many(30, opt::Candidate{"s", {1.0, 1.0}});
    EXPECT_THROW((void)opt::branch_and_bound(many, additive(std::vector<double>(30, 0.1))),
                 std::invalid_argument);
}

TEST(OptSearch, GreedyHandlesThirtySignalSyntheticModelFast) {
    // The scale regime the exact search refuses: ~30+ EA-capable signals
    // on a synthetic layered system. Greedy must finish in well under a
    // second (the acceptance bound is "seconds").
    synth::LayeredOptions lo;
    lo.layers = 5;
    lo.modules_per_layer = 4;
    lo.outputs_per_module = 2;
    lo.seed = 7;
    const synth::SyntheticSystem sys = synth::random_layered_system(lo);
    const std::vector<model::SignalId> candidates =
        epic::ea_candidate_signals(*sys.system, /*veto_boolean=*/true);
    ASSERT_GE(candidates.size(), 30U);

    opt::PlacementOptimizer optimizer = analytic::make_engine_optimizer(
        sys.matrix, opt::ErrorModel::kInput, candidates);
    ASSERT_GT(optimizer.candidates().size(), 20U);  // exact regime refused...
    EXPECT_THROW((void)opt::branch_and_bound(
                     optimizer.candidates(),
                     [](const std::vector<std::size_t>&) { return 0.0; }),
                 std::invalid_argument);

    opt::SearchOptions options;
    options.budget.memory = 600.0;
    const auto t0 = std::chrono::steady_clock::now();
    const opt::SearchResult greedy = optimizer.optimize(options);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    EXPECT_FALSE(greedy.exact);
    EXPECT_GT(greedy.coverage, 0.0);
    EXPECT_FALSE(greedy.selected.empty());
    EXPECT_LE(greedy.cost.memory, 600.0);
    EXPECT_LT(seconds, 5.0);
}

// ------------------------------------------------------ analytic benefit

TEST(OptBenefit, VisibilityReachesIntermediateSignals) {
    const model::SystemModel system = target::make_arrestment_model();
    const epic::PermeabilityMatrix pm = exp::paper_matrix(system);
    const model::SignalId pacnt = system.signal_id("PACNT");
    const model::SignalId pulscnt = system.signal_id("pulscnt");

    // pulscnt is computed directly from PACNT — an EA there must see
    // input errors, although every path from PACNT continues past it.
    const double v = epic::impact(pm, pacnt, pulscnt);
    EXPECT_GT(v, 0.5);
    // Degenerate and unreachable cases.
    EXPECT_DOUBLE_EQ(epic::impact(pm, pacnt, pacnt), 1.0);
    EXPECT_DOUBLE_EQ(epic::impact(pm, system.signal_id("TOC2"), pacnt), 0.0);
    // The engine benefit's detection matrix sees the same error there.
    const analytic::Engine engine(pm);
    const std::vector<std::vector<double>> detect =
        analytic::detection_matrix(engine, opt::ErrorModel::kSevere, {pulscnt});
    EXPECT_NEAR(detect.at(pacnt.index()).at(0), v, 1e-3);
}

TEST(OptBenefit, CoverageIsMonotoneInTheSubset) {
    const model::SystemModel system = target::make_arrestment_model();
    const epic::PermeabilityMatrix pm = exp::paper_matrix(system);
    opt::PlacementOptimizer optimizer =
        analytic::make_engine_optimizer(pm, opt::ErrorModel::kInput);

    double prev = 0.0;
    std::vector<std::string> subset;
    for (const opt::Candidate& candidate : optimizer.candidates()) {
        subset.push_back(candidate.name);
        const double cov = optimizer.coverage(subset);
        EXPECT_GE(cov, prev - 1e-12);
        EXPECT_LE(cov, 1.0 + 1e-12);
        prev = cov;
    }
    EXPECT_EQ(optimizer.evaluations(), optimizer.candidates().size());
}

}  // namespace
