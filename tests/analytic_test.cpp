// Tests of the analytic propagation engine and the delta-campaign
// planner (src/analytic/): fixpoint composition vs exact enumeration,
// Wilson-bound propagation, context hashing and model diffing, splice
// identity, the subset-cache lint (EPEA-W061) and synth reproducibility.
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "analysis/campaign_lint.hpp"
#include "analytic/benefit.hpp"
#include "analytic/context.hpp"
#include "analytic/delta.hpp"
#include "analytic/engine.hpp"
#include "analytic/validate.hpp"
#include "epic/impact.hpp"
#include "epic/measures.hpp"
#include "epic/serialize.hpp"
#include "exp/paper_data.hpp"
#include "synth/generator.hpp"
#include "target/arrestment_system.hpp"

namespace {

using namespace epea;

// --------------------------------------------------------- test systems

/// in -> A -> mid -> B -> out, permeabilities a (A) and b (B).
model::SystemModel make_chain(std::uint8_t mid_width = 16) {
    model::SystemModel m;
    const auto in = m.add_signal({"in", model::SignalRole::kSystemInput,
                                  model::SignalKind::kContinuous, 16});
    const auto mid = m.add_signal({"mid", model::SignalRole::kIntermediate,
                                   model::SignalKind::kContinuous, mid_width});
    const auto out = m.add_signal({"out", model::SignalRole::kSystemOutput,
                                   model::SignalKind::kContinuous, 16});
    m.add_module({"A", {in}, {mid}});
    m.add_module({"B", {mid}, {out}});
    return m;
}

/// A two-module feedback loop:
///   A: {in, y} -> x     B: {x} -> {y, out}
/// so x -> y -> x is a ≥2-length cycle through two modules.
model::SystemModel make_cycle() {
    model::SystemModel m;
    const auto in = m.add_signal({"in", model::SignalRole::kSystemInput,
                                  model::SignalKind::kContinuous, 16});
    const auto x = m.add_signal({"x", model::SignalRole::kIntermediate,
                                 model::SignalKind::kContinuous, 16});
    const auto y = m.add_signal({"y", model::SignalRole::kIntermediate,
                                 model::SignalKind::kContinuous, 16});
    const auto out = m.add_signal({"out", model::SignalRole::kSystemOutput,
                                   model::SignalKind::kContinuous, 16});
    m.add_module({"A", {in, y}, {x}});
    m.add_module({"B", {x}, {y, out}});
    return m;
}

// --------------------------------------------------------------- engine

TEST(AnalyticEngine, MatchesEnumerationOnPaperMatrix) {
    static const model::SystemModel system = target::make_arrestment_model();
    const epic::PermeabilityMatrix pm = exp::paper_matrix(system);
    const analytic::EnumerationCheck check = analytic::enumeration_check(pm);
    EXPECT_TRUE(check.all_converged);
    // The target's only cycle (i through CALC) contributes walks the
    // simple-path enumeration cannot see; on Table 1 the difference is
    // tiny (measured 4.1e-5), far inside the committed tolerance.
    EXPECT_LT(check.max_abs_diff, 1e-3);
    EXPECT_LE(check.exposure_max_abs_diff, 1e-9);
    EXPECT_EQ(check.pairs,
              system.signal_count() * (system.signal_count() - 1));
}

TEST(AnalyticEngine, ExposureMatchesMeasureExactly) {
    static const model::SystemModel system = target::make_arrestment_model();
    const epic::PermeabilityMatrix pm = exp::paper_matrix(system);
    const analytic::Engine engine(pm);
    for (const model::SignalId s : system.all_signals()) {
        const auto composed = engine.exposure(s);
        const auto exact = epic::signal_exposure(pm, s);
        ASSERT_EQ(composed.has_value(), exact.has_value())
            << system.signal_name(s);
        if (composed) {
            EXPECT_NEAR(composed->point, *exact, 1e-12) << system.signal_name(s);
        }
    }
}

TEST(AnalyticEngine, DegeneratePairIsOne) {
    static const model::SystemModel system = target::make_arrestment_model();
    const epic::PermeabilityMatrix pm = exp::paper_matrix(system);
    const analytic::Engine engine(pm);
    const model::SignalId s = system.signal_id("SetValue");
    const analytic::Bound b = engine.permeability(s, s);
    EXPECT_DOUBLE_EQ(b.point, 1.0);
    EXPECT_DOUBLE_EQ(b.lo, 1.0);
    EXPECT_DOUBLE_EQ(b.hi, 1.0);
}

TEST(AnalyticEngine, CycleFixpointHasClosedForm) {
    const model::SystemModel m = make_cycle();
    epic::PermeabilityMatrix pm(m);
    const auto a = *m.find_module("A");
    const auto b = *m.find_module("B");
    pm.set(a, 0, 0, 0.5);  // in -> x
    pm.set(a, 1, 0, 0.5);  // y  -> x   (feedback)
    pm.set(b, 0, 0, 0.5);  // x  -> y
    pm.set(b, 0, 1, 0.5);  // x  -> out
    const analytic::Engine engine(pm);
    // v[x] = 1 - (1 - 0.5)(1 - 0.25 v[x])  =>  v[x] = 4/7.
    const double vx =
        engine.permeability(m.signal_id("in"), m.signal_id("x")).point;
    EXPECT_NEAR(vx, 4.0 / 7.0, 1e-9);
    EXPECT_NEAR(
        engine.permeability(m.signal_id("in"), m.signal_id("out")).point,
        0.5 * vx, 1e-9);
    EXPECT_TRUE(engine.reach(m.signal_id("in")).converged);
    // Simple-path enumeration cannot walk the cycle, so it sees only the
    // direct path (0.5) — the fixpoint counts the feedback reinforcement.
    EXPECT_GT(vx, epic::impact(pm, m.signal_id("in"), m.signal_id("x")));
}

TEST(AnalyticEngine, IterationCapIsReported) {
    const model::SystemModel m = make_cycle();
    epic::PermeabilityMatrix pm(m);
    const auto a = *m.find_module("A");
    const auto b = *m.find_module("B");
    pm.set(a, 0, 0, 0.5);
    pm.set(a, 1, 0, 0.9);
    pm.set(b, 0, 0, 0.9);
    pm.set(b, 0, 1, 0.5);
    analytic::EngineOptions options;
    options.max_iterations = 1;  // the cycle needs more to contract
    const analytic::Engine engine(pm, options);
    const analytic::ReachProfile& reach = engine.reach(m.signal_id("in"));
    EXPECT_FALSE(reach.converged);
    EXPECT_EQ(reach.iterations, 1U);
    EXPECT_TRUE(engine.any_unconverged());
}

TEST(AnalyticEngine, WilsonBoundsPropagate) {
    const model::SystemModel m = make_chain();
    epic::PermeabilityMatrix pm(m);
    const auto a = *m.find_module("A");
    const auto b = *m.find_module("B");
    pm.set_counts(a, 0, 0, 30, 40);  // 0.75 with a real interval
    pm.set_counts(b, 0, 0, 10, 40);  // 0.25 with a real interval
    const analytic::Engine engine(pm);
    const analytic::Bound c =
        engine.permeability(m.signal_id("in"), m.signal_id("out"));
    EXPECT_LT(c.lo, c.point);
    EXPECT_LT(c.point, c.hi);
    EXPECT_NEAR(c.point, 0.75 * 0.25, 1e-12);
    EXPECT_GE(c.lo, 0.0);
    EXPECT_LE(c.hi, 1.0);
    const auto x = engine.exposure(m.signal_id("mid"));
    ASSERT_TRUE(x.has_value());
    EXPECT_LT(x->lo, x->point);
    EXPECT_LT(x->point, x->hi);
}

TEST(AnalyticEngine, SolvesAreCachedPerSource) {
    static const model::SystemModel system = target::make_arrestment_model();
    const epic::PermeabilityMatrix pm = exp::paper_matrix(system);
    const analytic::Engine engine(pm);
    const model::SignalId s = system.signal_id("PACNT");
    (void)engine.permeability(s, system.signal_id("TOC2"));
    (void)engine.permeability(s, system.signal_id("OutValue"));
    (void)engine.reach(s);
    EXPECT_EQ(engine.solves(), 1U);
}

// ----------------------------------------------------- context & deltas

TEST(AnalyticContext, HashesAreStableAndHex) {
    const model::SystemModel m1 = target::make_arrestment_model();
    const model::SystemModel m2 = target::make_arrestment_model();
    const auto h1 = analytic::context_hashes(m1);
    const auto h2 = analytic::context_hashes(m2);
    EXPECT_EQ(h1, h2);
    ASSERT_FALSE(h1.empty());
    for (const auto& [name, hash] : h1) {
        EXPECT_EQ(hash.size(), 16U) << name;
        EXPECT_EQ(hash.find_first_not_of("0123456789abcdef"), std::string::npos)
            << name;
    }
    EXPECT_EQ(analytic::model_hash(m1), analytic::model_hash(m2));
}

TEST(AnalyticDelta, IdenticalModelsYieldEmptyPlan) {
    const model::SystemModel m1 = target::make_arrestment_model();
    const model::SystemModel m2 = target::make_arrestment_model();
    const analytic::DeltaPlan plan = analytic::diff_models(m1, m2);
    EXPECT_TRUE(plan.empty());
    EXPECT_EQ(plan.unchanged.size(), m1.module_count());
    EXPECT_TRUE(plan.changed.empty());
    EXPECT_TRUE(plan.added.empty());
    EXPECT_TRUE(plan.removed.empty());
}

TEST(AnalyticDelta, WidthEditInvalidatesOnlyTouchingModules) {
    // Widening the A→B signal changes A's output context and B's input
    // context — and nothing else.
    const model::SystemModel base = make_chain(16);
    const model::SystemModel edited = make_chain(8);
    const analytic::DeltaPlan plan = analytic::diff_models(base, edited);
    EXPECT_EQ(plan.changed, (std::vector<std::string>{"A", "B"}));
    EXPECT_TRUE(plan.unchanged.empty());
    EXPECT_FALSE(plan.empty());
    EXPECT_EQ(plan.stale_modules(), (std::vector<std::string>{"A", "B"}));
}

TEST(AnalyticDelta, RenameShowsAsAddAndRemove) {
    model::SystemModel base = make_chain();
    model::SystemModel edited;
    const auto in = edited.add_signal({"in", model::SignalRole::kSystemInput,
                                       model::SignalKind::kContinuous, 16});
    const auto mid = edited.add_signal({"mid", model::SignalRole::kIntermediate,
                                        model::SignalKind::kContinuous, 16});
    const auto out = edited.add_signal({"out", model::SignalRole::kSystemOutput,
                                        model::SignalKind::kContinuous, 16});
    edited.add_module({"A2", {in}, {mid}});
    edited.add_module({"B", {mid}, {out}});
    const analytic::DeltaPlan plan = analytic::diff_models(base, edited);
    EXPECT_EQ(plan.added, (std::vector<std::string>{"A2"}));
    EXPECT_EQ(plan.removed, (std::vector<std::string>{"A"}));
    // B's input now comes from a module of a different name, so its
    // context changed too — the planner is conservative about producers.
    EXPECT_EQ(plan.changed, (std::vector<std::string>{"B"}));
    EXPECT_TRUE(plan.unchanged.empty());
}

TEST(AnalyticDelta, SpecForEmptyPlanRunsNothing) {
    campaign::CampaignSpec base =
        campaign::CampaignSpec::defaults(campaign::CampaignKind::kPermeability);
    const campaign::CampaignSpec spec =
        analytic::to_campaign_spec(analytic::DeltaPlan{}, base);
    EXPECT_TRUE(spec.case_ids.empty());
    EXPECT_TRUE(spec.module_filter.empty());
    EXPECT_EQ(spec.name, base.name + "-delta");
}

TEST(AnalyticDelta, SpecForStaleModulesKeepsCasesAndFilters) {
    campaign::CampaignSpec base =
        campaign::CampaignSpec::defaults(campaign::CampaignKind::kPermeability);
    analytic::DeltaPlan plan;
    plan.changed = {"CALC"};
    const campaign::CampaignSpec spec = analytic::to_campaign_spec(plan, base);
    EXPECT_EQ(spec.case_ids, base.case_ids);
    EXPECT_EQ(spec.module_filter, (std::vector<std::string>{"CALC"}));
    // The filter must survive the JSON round trip delta campaigns use.
    const campaign::CampaignSpec back =
        campaign::CampaignSpec::from_json(spec.to_json());
    EXPECT_EQ(back.module_filter, spec.module_filter);
}

TEST(AnalyticDelta, FilterIsNotSerializedWhenEmpty) {
    const campaign::CampaignSpec spec =
        campaign::CampaignSpec::defaults(campaign::CampaignKind::kPermeability);
    EXPECT_EQ(spec.to_json().find("module_filter"), std::string::npos);
}

TEST(AnalyticDelta, EmptyPlanSpliceIsByteIdentical) {
    static const model::SystemModel system = target::make_arrestment_model();
    epic::PermeabilityMatrix cached = exp::paper_matrix(system);
    // Mix in estimation counts so both set() and set_counts() cells are
    // carried through the splice.
    const auto calc = *system.find_module("CALC");
    cached.set_counts(calc, 0, 0, 123, 456);
    const epic::PermeabilityMatrix merged = analytic::splice_matrix(
        system, cached, cached, analytic::DeltaPlan{});
    std::ostringstream a;
    std::ostringstream b;
    epic::save_matrix_csv(a, cached);
    epic::save_matrix_csv(b, merged);
    EXPECT_EQ(a.str(), b.str());
}

TEST(AnalyticDelta, SpliceTakesStaleRowsFromFresh) {
    const model::SystemModel m = make_chain();
    const auto a = *m.find_module("A");
    const auto b = *m.find_module("B");
    epic::PermeabilityMatrix cached(m);
    cached.set_counts(a, 0, 0, 10, 100);
    cached.set_counts(b, 0, 0, 20, 100);
    epic::PermeabilityMatrix fresh(m);
    fresh.set_counts(a, 0, 0, 99, 100);  // must be ignored (A unchanged)
    fresh.set_counts(b, 0, 0, 50, 100);  // must be taken (B stale)
    analytic::DeltaPlan plan;
    plan.unchanged = {"A"};
    plan.changed = {"B"};
    const epic::PermeabilityMatrix merged =
        analytic::splice_matrix(m, cached, fresh, plan);
    EXPECT_DOUBLE_EQ(merged.get(a, 0, 0), 0.10);
    EXPECT_DOUBLE_EQ(merged.get(b, 0, 0), 0.50);
    EXPECT_EQ(merged.counts(a, 0, 0).trials, 100U);
}

TEST(AnalyticDelta, SpliceRejectsMissingOrReshapedModules) {
    const model::SystemModel chain = make_chain();
    const model::SystemModel cycle = make_cycle();
    const epic::PermeabilityMatrix cached(cycle);
    const epic::PermeabilityMatrix fresh(chain);
    analytic::DeltaPlan plan;
    plan.changed = {"B"};
    // Cached side comes from a system where A has a different port shape.
    EXPECT_THROW(analytic::splice_matrix(chain, cached, fresh, plan),
                 std::invalid_argument);
}

TEST(AnalyticDelta, ManifestCheckFlagsUnreadableAndMismatch) {
    const campaign::CampaignSpec spec =
        campaign::CampaignSpec::defaults(campaign::CampaignKind::kPermeability);
    const analytic::ProvenanceCheck missing =
        analytic::check_manifest("/nonexistent/manifest.json", spec);
    EXPECT_FALSE(missing.ok);
    ASSERT_FALSE(missing.notes.empty());
    EXPECT_NE(missing.notes[0].find("unreadable"), std::string::npos);
}

// ------------------------------------------------- subset-cache lint

class SubsetCacheLint : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::path(::testing::TempDir()) /
               ("subset_cache_lint_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string write(const std::string& text) {
        const std::string path = (dir_ / "subset_cache.json").string();
        std::ofstream out(path, std::ios::binary);
        out << text;
        return path;
    }

    static std::size_t count_w061(const analysis::Report& report) {
        std::size_t n = 0;
        for (const analysis::Finding& f : report.findings()) {
            if (f.rule == "EPEA-W061") ++n;
        }
        return n;
    }

    std::filesystem::path dir_;
};

TEST_F(SubsetCacheLint, CleanFileAndMissingFilePass) {
    const std::string good = R"({"version": 1, "entries": {
        "input|c25|t10|s8040417|IsValue+SetValue":
            {"coverage": 0.5, "detected": 10, "active": 20, "runs": 400},
        "severe|c25|t10|s8040417|p20|OutValue":
            {"coverage": 0.0, "detected": 0, "active": 0, "runs": 400}}})";
    EXPECT_EQ(analysis::lint_subset_cache_file(write(good)).findings().size(), 0U);
    EXPECT_EQ(analysis::lint_subset_cache_file((dir_ / "absent.json").string())
                  .findings()
                  .size(),
              0U);
}

TEST_F(SubsetCacheLint, FlagsVersionKeyAndCountErrors) {
    EXPECT_GE(count_w061(analysis::lint_subset_cache_file(
                  write(R"({"version": 2, "entries": {}})"))),
              1U);
    EXPECT_GE(count_w061(analysis::lint_subset_cache_file(write(R"({"version": 1,
        "entries": {"bogus key": {"coverage": 0.5, "detected": 1,
                                  "active": 2, "runs": 4}}})"))),
              1U);
    // detected > active and coverage inconsistent with detected/active.
    EXPECT_GE(count_w061(analysis::lint_subset_cache_file(write(R"({"version": 1,
        "entries": {"input|c1|t1|s1|X": {"coverage": 0.5, "detected": 30,
                                         "active": 20, "runs": 4}}})"))),
              1U);
    EXPECT_GE(count_w061(analysis::lint_subset_cache_file(write(R"({"version": 1,
        "entries": {"input|c1|t1|s1|X": {"coverage": 0.9, "detected": 10,
                                         "active": 20, "runs": 4}}})"))),
              1U);
    EXPECT_GE(count_w061(analysis::lint_subset_cache_file(write("not json"))), 1U);
}

TEST_F(SubsetCacheLint, RuleIsInCatalog) {
    bool found = false;
    for (const analysis::RuleInfo& rule : analysis::rule_catalog()) {
        if (std::string(rule.id) == "EPEA-W061") found = true;
    }
    EXPECT_TRUE(found);
}

// ------------------------------------------------- timeline lint

class TimelineLint : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::path(::testing::TempDir()) /
               ("timeline_lint_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string write(const std::string& text) {
        const std::string path = (dir_ / "timeline.jsonl").string();
        std::ofstream out(path, std::ios::binary);
        out << text;
        return path;
    }

    static std::string sample(int seq, double t_s, const std::string& phase,
                              long long runs) {
        char buf[512];
        std::snprintf(
            buf, sizeof buf,
            "{\"type\":\"sample\",\"seq\":%d,\"t_s\":%.3f,\"dt_s\":0.2,"
            "\"queue_depth\":0,\"workers\":[{\"worker\":0,\"phase\":\"%s\","
            "\"shard\":0,\"runs\":%lld,\"runs_per_s\":0.0,"
            "\"golden_hit_rate\":0.0,\"lanes_in_flight\":0,"
            "\"lanes_launched\":0,\"stalled\":false}],\"stalled_workers\":0}\n",
            seq, t_s, phase.c_str(), runs);
        return buf;
    }

    static std::size_t count_w062(const analysis::Report& report) {
        std::size_t n = 0;
        for (const analysis::Finding& f : report.findings()) {
            if (f.rule == "EPEA-W062") ++n;
        }
        return n;
    }

    std::filesystem::path dir_;
};

TEST_F(TimelineLint, CleanResumedFileAndMissingFilePass) {
    // Two run segments (the second starts with a seq reset to 0, as a
    // resumed campaign appends), plus a torn final line from a kill.
    const std::string good = sample(0, 0.2, "execute", 10) +
                             sample(1, 0.4, "checkpoint", 20) +
                             sample(2, 0.6, "idle", 20) +
                             sample(0, 0.2, "execute", 5) +
                             sample(1, 0.4, "execute", 9) +
                             "{\"type\":\"sample\",\"seq\":2,\"t_";
    EXPECT_EQ(analysis::lint_timeline_file(write(good)).findings().size(), 0U);
    EXPECT_EQ(analysis::lint_timeline_file((dir_ / "absent.jsonl").string())
                  .findings()
                  .size(),
              0U);
}

TEST_F(TimelineLint, FlagsSeqTimePhaseAndRunsViolations) {
    // seq jump without a reset.
    EXPECT_GE(count_w062(analysis::lint_timeline_file(
                  write(sample(0, 0.2, "execute", 1) +
                        sample(3, 0.6, "execute", 2)))),
              1U);
    // Time goes backwards within a segment.
    EXPECT_GE(count_w062(analysis::lint_timeline_file(
                  write(sample(0, 0.4, "execute", 1) +
                        sample(1, 0.2, "execute", 2)))),
              1U);
    // Unknown phase name.
    EXPECT_GE(count_w062(analysis::lint_timeline_file(
                  write(sample(0, 0.2, "warp", 1)))),
              1U);
    // Per-worker runs counter decreases mid-segment.
    EXPECT_GE(count_w062(analysis::lint_timeline_file(
                  write(sample(0, 0.2, "execute", 9) +
                        sample(1, 0.4, "execute", 3)))),
              1U);
    // Unparsable line that is NOT the final one.
    EXPECT_GE(count_w062(analysis::lint_timeline_file(
                  write("not json\n" + sample(0, 0.2, "idle", 0)))),
              1U);
}

TEST_F(TimelineLint, FlagsWorkerSetChangeMidSegment) {
    const std::string two_workers =
        "{\"type\":\"sample\",\"seq\":1,\"t_s\":0.4,\"dt_s\":0.2,"
        "\"queue_depth\":0,\"workers\":[{\"worker\":0,\"phase\":\"idle\","
        "\"shard\":-1,\"runs\":1,\"runs_per_s\":0.0,\"golden_hit_rate\":0.0,"
        "\"lanes_in_flight\":0,\"lanes_launched\":0,\"stalled\":false},"
        "{\"worker\":1,\"phase\":\"idle\",\"shard\":-1,\"runs\":0,"
        "\"runs_per_s\":0.0,\"golden_hit_rate\":0.0,\"lanes_in_flight\":0,"
        "\"lanes_launched\":0,\"stalled\":false}],\"stalled_workers\":0}\n";
    EXPECT_GE(count_w062(analysis::lint_timeline_file(
                  write(sample(0, 0.2, "execute", 1) + two_workers))),
              1U);
}

TEST_F(TimelineLint, RuleIsInCatalogAndAppliedByDirLint) {
    bool found = false;
    for (const analysis::RuleInfo& rule : analysis::rule_catalog()) {
        if (std::string(rule.id) == "EPEA-W062") found = true;
    }
    EXPECT_TRUE(found);
}

// ------------------------------------------------------- synth knobs

TEST(SynthCycles, SameSeedIsByteReproducible) {
    synth::LayeredOptions options;
    options.cycle_density = 0.5;
    options.seed = 99;
    const synth::SyntheticSystem s1 = synth::random_layered_system(options);
    const synth::SyntheticSystem s2 = synth::random_layered_system(options);
    std::ostringstream t1;
    std::ostringstream t2;
    epic::save_system_text(t1, *s1.system);
    epic::save_system_text(t2, *s2.system);
    EXPECT_EQ(t1.str(), t2.str());
    std::ostringstream m1;
    std::ostringstream m2;
    epic::save_matrix_csv(m1, s1.matrix);
    epic::save_matrix_csv(m2, s2.matrix);
    EXPECT_EQ(m1.str(), m2.str());
}

TEST(SynthCycles, DensityRewiresAndEngineStillConverges) {
    synth::LayeredOptions acyclic;
    acyclic.seed = 99;
    synth::LayeredOptions cyclic = acyclic;
    cyclic.cycle_density = 1.0;
    const synth::SyntheticSystem s0 = synth::random_layered_system(acyclic);
    const synth::SyntheticSystem s1 = synth::random_layered_system(cyclic);
    std::ostringstream t0;
    std::ostringstream t1;
    epic::save_system_text(t0, *s0.system);
    epic::save_system_text(t1, *s1.system);
    EXPECT_NE(t0.str(), t1.str());  // some input was rewired to a later layer

    const analytic::Engine engine(s1.matrix);
    for (const model::SignalId s : s1.system->all_signals()) {
        const analytic::ReachProfile& reach = engine.reach(s);
        EXPECT_TRUE(reach.converged);
        for (const analytic::Bound& b : reach.visibility) {
            EXPECT_LE(b.lo, b.point + 1e-12);
            EXPECT_LE(b.point, b.hi + 1e-12);
            EXPECT_GE(b.lo, 0.0);
            EXPECT_LE(b.hi, 1.0 + 1e-12);
        }
    }
}

// -------------------------------------------------- validate (fast prongs)

TEST(AnalyticValidate, FastProngsPassCommittedTolerances) {
    analytic::ValidateOptions options;
    options.run_campaign = false;  // the slow prong has its own test
    options.synth_graphs = 4;
    const analytic::ValidateResult result =
        analytic::validate_arrestment(options);
    EXPECT_TRUE(result.pass);
    EXPECT_TRUE(result.report.at("enumeration").at("pass").as_bool());
    EXPECT_TRUE(result.report.at("synth").at("pass").as_bool());
}

// ------------------------------------------------- engine-backed benefit

TEST(AnalyticBenefit, EngineOptimizerSelectsAndScores) {
    static const model::SystemModel system = target::make_arrestment_model();
    const epic::PermeabilityMatrix pm = exp::paper_matrix(system);
    opt::PlacementOptimizer optimizer =
        analytic::make_engine_optimizer(pm, opt::ErrorModel::kInput);
    const opt::SearchResult result = optimizer.optimize({});
    EXPECT_GT(result.coverage, 0.0);
    EXPECT_LE(result.coverage, 1.0);
    EXPECT_FALSE(result.selected.empty());
    // Boolean signals carry no EA and must not appear as candidates.
    for (const opt::Candidate& cand : optimizer.candidates()) {
        EXPECT_NE(system.signal(system.signal_id(cand.name)).kind,
                  model::SignalKind::kBoolean);
    }
}

}  // namespace
