// Pareto-frontier tests (src/opt/): dominance marking, near-frontier
// slack, full-lattice enumeration, export formats, and the analytic
// validation of the paper's placement claims — C1 (EH and PA on/near the
// input-error frontier with PA at <= 65 % of EH cost) and C2/C3 (the §10
// extended set dominating plain PA under the severe model).
#include <gtest/gtest.h>

#include <sstream>

#include "analytic/benefit.hpp"
#include "campaign/json.hpp"
#include "exp/paper_data.hpp"
#include "opt/frontier.hpp"
#include "opt/optimizer.hpp"
#include "target/arrestment_system.hpp"

namespace {

using namespace epea;

/// Near-frontier tolerance for the paper's reference placements: a set is
/// accepted as "near" when no cheaper-or-equal frontier point exceeds its
/// coverage by more than this (documented in DESIGN.md §8).
constexpr double kNearTolerance = 0.02;

opt::FrontierPoint point(double cov, double mem, double time) {
    opt::FrontierPoint p;
    p.coverage = cov;
    p.cost = opt::PlacementCost{mem, time};
    return p;
}

TEST(OptFrontier, DominanceRequiresOneStrictImprovement) {
    const opt::FrontierPoint a = point(0.8, 100.0, 10.0);
    EXPECT_FALSE(opt::dominates(a, a));
    EXPECT_TRUE(opt::dominates(a, point(0.8, 120.0, 10.0)));
    EXPECT_TRUE(opt::dominates(a, point(0.7, 100.0, 10.0)));
    // Trade-offs in different objectives: neither dominates.
    EXPECT_FALSE(opt::dominates(a, point(0.9, 120.0, 10.0)));
    EXPECT_FALSE(opt::dominates(point(0.9, 120.0, 10.0), a));
}

TEST(OptFrontier, MarkFrontierAndSlack) {
    std::vector<opt::FrontierPoint> points = {
        point(0.5, 100.0, 10.0),  // frontier
        point(0.8, 200.0, 20.0),  // frontier
        point(0.4, 150.0, 15.0),  // dominated by the first point
    };
    opt::mark_frontier(points);
    EXPECT_TRUE(points[0].on_frontier);
    EXPECT_TRUE(points[1].on_frontier);
    EXPECT_FALSE(points[2].on_frontier);

    // The dominated point sits 0.1 below the best frontier coverage
    // available at its cost.
    EXPECT_NEAR(opt::coverage_slack(points, points[2]), 0.1, 1e-12);
    EXPECT_LE(opt::coverage_slack(points, points[0]), 0.0);
}

TEST(OptFrontier, EnumerationCoversTheLattice) {
    const std::vector<opt::Candidate> candidates = {
        {"a", {1.0, 1.0}}, {"b", {2.0, 1.0}}, {"c", {4.0, 1.0}}};
    const opt::Frontier f = opt::enumerate_frontier(
        candidates, [](const std::vector<std::size_t>& s) {
            return static_cast<double>(s.size()) / 3.0;
        });
    EXPECT_EQ(f.points.size(), 7U);  // 2^3 - 1
    // With equal per-location gain, the cheapest k-subset is on the
    // frontier for each k: {a}, {a,b}, {a,b,c}.
    const auto frontier = f.frontier_points();
    ASSERT_EQ(frontier.size(), 3U);
    EXPECT_EQ(opt::canonical_subset(frontier[0].signals), "a");
    EXPECT_EQ(opt::canonical_subset(frontier[1].signals), "a+b");
    EXPECT_EQ(opt::canonical_subset(frontier[2].signals), "a+b+c");

    std::vector<opt::Candidate> too_many(17, {"x", {1.0, 1.0}});
    EXPECT_THROW((void)opt::enumerate_frontier(
                     too_many, [](const std::vector<std::size_t>&) { return 0.0; }),
                 std::invalid_argument);
}

TEST(OptFrontier, ExportsAreWellFormed) {
    const std::vector<opt::Candidate> candidates = {{"a", {1.0, 1.0}},
                                                    {"b", {2.0, 1.0}}};
    opt::Frontier f = opt::enumerate_frontier(
        candidates, [](const std::vector<std::size_t>& s) {
            return static_cast<double>(s.size());
        });
    f.points[2].label = "REF";

    std::ostringstream csv;
    opt::write_frontier_csv(csv, f);
    EXPECT_NE(csv.str().find("subset,label,size,coverage,memory,time,on_frontier"),
              std::string::npos);
    EXPECT_NE(csv.str().find("a+b,REF,2,"), std::string::npos);

    std::ostringstream json;
    opt::write_frontier_json(json, f);
    const campaign::JsonValue parsed = campaign::JsonValue::parse(json.str());
    EXPECT_EQ(parsed.at("points").as_array().size(), 3U);
    EXPECT_EQ(parsed.at("points").as_array()[2].at("label").as_string(), "REF");

    std::ostringstream dot;
    opt::write_frontier_dot(dot, f, "test frontier");
    EXPECT_NE(dot.str().find("graph frontier {"), std::string::npos);
    EXPECT_NE(dot.str().find("xlabel=\"REF\""), std::string::npos);
}

// ---------------------------------------------- paper claims (analytic)

struct AnalyticFrontierFixture {
    model::SystemModel system = target::make_arrestment_model();
    epic::PermeabilityMatrix pm = exp::paper_matrix(system);

    opt::Frontier run(opt::ErrorModel model) {
        opt::PlacementOptimizer optimizer = analytic::make_engine_optimizer(pm, model);
        return optimizer.frontier();
    }

    static const opt::FrontierPoint& labelled(const opt::Frontier& f,
                                              const std::string& label) {
        for (const opt::FrontierPoint& p : f.points) {
            if (p.label == label) return p;
        }
        throw std::logic_error("label not found: " + label);
    }
};

TEST(OptPaperClaims, C1InputFrontierAndCostRatio) {
    AnalyticFrontierFixture fx;
    const opt::Frontier f = fx.run(opt::ErrorModel::kInput);
    ASSERT_EQ(f.points.size(), 127U);

    const opt::FrontierPoint& eh = fx.labelled(f, "EH-set");
    const opt::FrontierPoint& pa = fx.labelled(f, "PA-set");

    // Both paper placements are on or near the input-error frontier.
    EXPECT_LE(opt::coverage_slack(f.points, eh), kNearTolerance);
    EXPECT_LE(opt::coverage_slack(f.points, pa), kNearTolerance);
    // ...at essentially equal coverage (the Table-4 observation)...
    EXPECT_NEAR(pa.coverage, eh.coverage, kNearTolerance);
    // ...with the PA set at no more than 65 % of the EH cost.
    EXPECT_LE(pa.cost.total() / eh.cost.total(), 0.65);
    EXPECT_LE(pa.cost.memory / eh.cost.memory, 0.65);
}

TEST(OptPaperClaims, C2C3ExtendedSetDominatesPaUnderSevereModel) {
    AnalyticFrontierFixture fx;
    const opt::Frontier f = fx.run(opt::ErrorModel::kSevere);

    const opt::FrontierPoint& pa = fx.labelled(f, "PA-set");
    const opt::FrontierPoint& ext = fx.labelled(f, "EXT-set");

    // §10: once errors strike anywhere (severe model), plain PA leaves a
    // gap the extended set closes — strictly more coverage...
    EXPECT_GT(ext.coverage, pa.coverage + 0.01);
    // ...and the EXT set sits nearer the frontier than PA does.
    EXPECT_LT(opt::coverage_slack(f.points, ext),
              opt::coverage_slack(f.points, pa));
}

TEST(OptPaperClaims, ExplainReportsBothSets) {
    AnalyticFrontierFixture fx;
    opt::PlacementOptimizer optimizer =
        analytic::make_engine_optimizer(fx.pm, opt::ErrorModel::kInput);
    const opt::Frontier f = optimizer.frontier();
    const std::string report = optimizer.explain(f);
    EXPECT_NE(report.find("EH-set"), std::string::npos);
    EXPECT_NE(report.find("PA-set"), std::string::npos);
    EXPECT_NE(report.find("PA-set vs EH-set"), std::string::npos);
}

}  // namespace
