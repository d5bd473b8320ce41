// Golden tests for the static verification layer (src/analysis/): every
// rule ID fires on a minimal broken artifact and stays silent on the
// committed/clean ones, so the IDs stay stable contracts for CI gates.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "analysis/campaign_lint.hpp"
#include "analysis/matrix_lint.hpp"
#include "analysis/model_lint.hpp"
#include "analysis/placement_lint.hpp"
#include "analysis/source_lint.hpp"
#include "analytic/benefit.hpp"
#include "campaign/checkpoint.hpp"
#include "campaign/spec.hpp"
#include "epic/serialize.hpp"
#include "exp/paper_data.hpp"
#include "obs/manifest.hpp"
#include "opt/frontier.hpp"
#include "opt/optimizer.hpp"
#include "target/arrestment_system.hpp"
#include "util/json.hpp"

namespace epea {
namespace {

using analysis::Report;

Report lint_text(const std::string& text) {
    std::istringstream in(text);
    return analysis::lint_model_text(in, "model:test");
}

Report lint_csv(const std::string& csv) {
    static const model::SystemModel system = target::make_arrestment_model();
    std::istringstream in(csv);
    return analysis::lint_matrix_csv(in, system, "matrix:test");
}

// ---------------------------------------------------------------- catalog

TEST(AnalysisCatalog, LooksUpRulesAndRejectsUnknownIds) {
    const analysis::RuleInfo* info = analysis::rule_info("EPEA-E010");
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->severity, analysis::Severity::kError);
    EXPECT_EQ(analysis::rule_info("EPEA-E999"), nullptr);

    Report report;
    EXPECT_THROW(report.add("EPEA-E999", "a", "o", "m"), std::logic_error);
}

TEST(AnalysisCatalog, SeverityFollowsIdConvention) {
    for (const analysis::RuleInfo& rule : analysis::rule_catalog()) {
        const bool is_error = std::string(rule.id).rfind("EPEA-E", 0) == 0;
        EXPECT_EQ(rule.severity == analysis::Severity::kError, is_error)
            << rule.id;
    }
}

TEST(AnalysisReport, ExitCodeContract) {
    Report clean;
    EXPECT_EQ(clean.exit_code(), 0);
    EXPECT_EQ(clean.exit_code(true), 0);

    Report warn;
    warn.add("EPEA-W020", "a", "s", "m");
    EXPECT_EQ(warn.exit_code(), 0);
    EXPECT_EQ(warn.exit_code(true), 2);
    EXPECT_EQ(warn.warning_count(), 1u);

    Report err;
    err.add("EPEA-E010", "a", "s", "m");
    EXPECT_EQ(err.exit_code(), 2);
    EXPECT_EQ(err.error_count(), 1u);
}

TEST(AnalysisReport, JsonReporterRoundTrips) {
    Report report;
    report.add("EPEA-E030", "matrix:x", "CALC(3,1)", "permeability 1.5");
    std::ostringstream out;
    analysis::write_json(out, report);
    const util::JsonValue parsed = util::JsonValue::parse(out.str());
    EXPECT_EQ(parsed.at("errors").as_int(), 1);
    EXPECT_EQ(parsed.at("findings").as_array().size(), 1u);
    EXPECT_EQ(parsed.at("findings").as_array()[0].at("rule").as_string(),
              "EPEA-E030");
}

// ------------------------------------------------------------------ model

TEST(ModelLint, ArrestmentModelHasNoErrors) {
    const Report report = analysis::lint_model(target::make_arrestment_model(),
                                               "model:arrestment");
    EXPECT_EQ(report.error_count(), 0u);
    // ms_slot_nbr is a known dead-end intermediate (scheduling state).
    EXPECT_TRUE(report.has("EPEA-W020"));
}

TEST(ModelLint, DanglingSignalRefIsE010) {
    const Report report = lint_text(
        "signal a input continuous 8\n"
        "signal o output continuous 8\n"
        "module M in a ghost out o\n");
    EXPECT_TRUE(report.has("EPEA-E010"));
    EXPECT_EQ(report.exit_code(), 2);
}

TEST(ModelLint, DuplicateSignalIsE011) {
    EXPECT_TRUE(lint_text("signal a input continuous 8\n"
                          "signal a input continuous 8\n")
                    .has("EPEA-E011"));
    EXPECT_TRUE(lint_text("signal w input continuous 40\n").has("EPEA-E011"));
}

TEST(ModelLint, DuplicateProducerIsE012) {
    const Report report = lint_text(
        "signal a input continuous 8\n"
        "signal o output continuous 8\n"
        "module M1 in a out o\n"
        "module M2 in a out o\n");
    EXPECT_TRUE(report.has("EPEA-E012"));
}

TEST(ModelLint, MalformedLineIsE013) {
    EXPECT_TRUE(lint_text("frobnicate x y\n").has("EPEA-E013"));
    EXPECT_TRUE(lint_text("signal a input continuous\n").has("EPEA-E013"));
    EXPECT_TRUE(lint_text("signal a input nonsense 8\n").has("EPEA-E013"));
}

TEST(ModelLint, DeadEndIntermediateIsW020) {
    const Report report = lint_text(
        "signal a input continuous 8\n"
        "signal m intermediate continuous 8\n"
        "signal o output continuous 8\n"
        "module M1 in a out m o\n");
    EXPECT_EQ(report.error_count(), 0u);
    EXPECT_TRUE(report.has("EPEA-W020"));
}

TEST(ModelLint, UnreachableOutputModuleIsW021) {
    const Report report = lint_text(
        "signal a input continuous 8\n"
        "signal m intermediate continuous 8\n"
        "signal o output continuous 8\n"
        "module M1 in a out o\n"
        "module M2 in a out m\n");
    EXPECT_EQ(report.error_count(), 0u);
    EXPECT_TRUE(report.has("EPEA-W021"));
}

// ----------------------------------------------------------------- matrix

TEST(MatrixLint, PaperMatrixIsClean) {
    static const model::SystemModel system = target::make_arrestment_model();
    const Report report =
        analysis::lint_matrix(exp::paper_matrix(system), "matrix:paper");
    EXPECT_EQ(report.error_count(), 0u);
    EXPECT_EQ(report.warning_count(), 0u);
}

TEST(MatrixLint, PaperCsvRoundTripIsClean) {
    static const model::SystemModel system = target::make_arrestment_model();
    std::ostringstream csv;
    epic::save_matrix_csv(csv, exp::paper_matrix(system));
    EXPECT_EQ(lint_csv(csv.str()).exit_code(), 0);
}

TEST(MatrixLint, OutOfRangePermeabilityIsE030) {
    const Report report = lint_csv("CALC,i,i,1.5,0,0\n");
    EXPECT_TRUE(report.has("EPEA-E030"));
    EXPECT_EQ(report.exit_code(), 2);
}

TEST(MatrixLint, InconsistentCountsAreE031) {
    EXPECT_TRUE(lint_csv("CALC,i,i,0.9,3,2\n").has("EPEA-E031"));
    EXPECT_TRUE(lint_csv("CALC,i,i,0.9,1,2\n").has("EPEA-E031"));
}

TEST(MatrixLint, UnknownModuleOrPortIsE010) {
    EXPECT_TRUE(lint_csv("NOPE,i,i,0.5,0,0\n").has("EPEA-E010"));
    EXPECT_TRUE(lint_csv("CALC,TOC2,i,0.5,0,0\n").has("EPEA-E010"));
}

TEST(MatrixLint, MalformedCsvRowIsE013) {
    EXPECT_TRUE(lint_csv("CALC,i,i\n").has("EPEA-E013"));
    EXPECT_TRUE(lint_csv("CALC,i,i,abc,0,0\n").has("EPEA-E013"));
}

TEST(MatrixLint, WideConfidenceIntervalIsW032) {
    const Report report = lint_csv("CALC,i,i,0.25,1,4\n");
    EXPECT_EQ(report.error_count(), 0u);
    EXPECT_TRUE(report.has("EPEA-W032"));
}

/// Tiny feedback system: a -> M1 -> x -> M2 -> {y, o}, with y fed back
/// into M1. The x->y->x product decides between W033 and E034.
model::SystemModel feedback_model() {
    model::SystemModel system;
    using model::SignalKind;
    using model::SignalRole;
    system.add_signal({"a", SignalRole::kSystemInput, SignalKind::kContinuous, 8});
    system.add_signal({"x", SignalRole::kIntermediate, SignalKind::kContinuous, 8});
    system.add_signal({"y", SignalRole::kIntermediate, SignalKind::kContinuous, 8});
    system.add_signal({"o", SignalRole::kSystemOutput, SignalKind::kContinuous, 8});
    model::ModuleSpec m1;
    m1.name = "M1";
    m1.inputs = {system.signal_id("a"), system.signal_id("y")};
    m1.outputs = {system.signal_id("x")};
    system.add_module(std::move(m1));
    model::ModuleSpec m2;
    m2.name = "M2";
    m2.inputs = {system.signal_id("x")};
    m2.outputs = {system.signal_id("y"), system.signal_id("o")};
    system.add_module(std::move(m2));
    return system;
}

TEST(MatrixLint, LosslessCycleIsE034) {
    const model::SystemModel system = feedback_model();
    epic::PermeabilityMatrix pm(system);
    pm.set("M1", "a", "x", 0.2);
    pm.set("M1", "y", "x", 1.0);
    pm.set("M2", "x", "y", 1.0);
    pm.set("M2", "x", "o", 1.0);
    const Report report = analysis::lint_matrix(pm, "matrix:cycle");
    EXPECT_TRUE(report.has("EPEA-E034"));
    EXPECT_FALSE(report.has("EPEA-W033"));
}

TEST(MatrixLint, LossyFeedbackIsW033) {
    const model::SystemModel system = feedback_model();
    epic::PermeabilityMatrix pm(system);
    pm.set("M1", "a", "x", 0.2);
    pm.set("M1", "y", "x", 0.8);
    pm.set("M2", "x", "y", 0.7);
    pm.set("M2", "x", "o", 1.0);
    const Report report = analysis::lint_matrix(pm, "matrix:cycle");
    EXPECT_TRUE(report.has("EPEA-W033"));
    EXPECT_FALSE(report.has("EPEA-E034"));
    EXPECT_EQ(report.error_count(), 0u);
}

TEST(MatrixLint, ZeroExposureOutputIsW035) {
    const model::SystemModel system = feedback_model();
    epic::PermeabilityMatrix pm(system);
    pm.set("M1", "a", "x", 0.2);
    pm.set("M2", "x", "o", 0.0);  // nothing ever reaches the actuator
    const Report report = analysis::lint_matrix(pm, "matrix:dead-output");
    EXPECT_TRUE(report.has("EPEA-W035"));
}

// -------------------------------------------------------------- placement

class PlacementLint : public ::testing::Test {
protected:
    static const epic::PermeabilityMatrix& paper() {
        static const model::SystemModel system = target::make_arrestment_model();
        static const epic::PermeabilityMatrix pm = exp::paper_matrix(system);
        return pm;
    }
};

TEST_F(PlacementLint, UnknownSignalIsE040) {
    const Report report =
        analysis::lint_placement(paper(), {"no_such_signal"}, "placement:test");
    EXPECT_TRUE(report.has("EPEA-E040"));
    EXPECT_EQ(report.exit_code(), 2);
}

TEST_F(PlacementLint, BooleanSignalHasNoCostEntryE041) {
    const Report report =
        analysis::lint_placement(paper(), {"slow_speed"}, "placement:test");
    EXPECT_TRUE(report.has("EPEA-E041"));
}

TEST_F(PlacementLint, SystemInputIsW042) {
    const Report report =
        analysis::lint_placement(paper(), {"PACNT"}, "placement:test");
    EXPECT_EQ(report.error_count(), 0u);
    EXPECT_TRUE(report.has("EPEA-W042"));
}

TEST_F(PlacementLint, ZeroExposureSignalIsW043) {
    const Report report =
        analysis::lint_placement(paper(), {"IsValue"}, "placement:test");
    EXPECT_EQ(report.error_count(), 0u);
    EXPECT_TRUE(report.has("EPEA-W043"));
}

TEST_F(PlacementLint, PaSetIsFullyClean) {
    const auto sets = opt::arrestment_reference_sets();
    const auto pa = std::find_if(sets.begin(), sets.end(), [](const auto& s) {
        return s.label == "PA-set";
    });
    ASSERT_NE(pa, sets.end());
    const Report report =
        analysis::lint_placement(paper(), pa->signals, "placement:PA-set");
    EXPECT_TRUE(report.clean());
}

TEST_F(PlacementLint, GeneratedFrontierDotIsClean) {
    opt::PlacementOptimizer optimizer =
        analytic::make_engine_optimizer(paper(), opt::ErrorModel::kInput);
    const opt::Frontier frontier = optimizer.frontier();
    std::ostringstream dot;
    opt::write_frontier_dot(dot, frontier, "test frontier");

    std::vector<std::string> labels;
    for (const opt::ReferenceSet& set : opt::arrestment_reference_sets()) {
        labels.push_back(set.label);
    }
    std::istringstream in(dot.str());
    const Report report = analysis::lint_frontier_dot(
        in, optimizer.candidates(), labels, "frontier:test");
    EXPECT_TRUE(report.clean()) << [&] {
        std::ostringstream os;
        analysis::write_text(os, report);
        return os.str();
    }();
}

TEST_F(PlacementLint, TamperedFrontierDotIsCaught) {
    opt::PlacementOptimizer optimizer =
        analytic::make_engine_optimizer(paper(), opt::ErrorModel::kInput);
    const std::string dot =
        "graph frontier {\n"
        "  p0 [pos=\"0,0!\"];\n"
        "  p1 [pos=\"1,1!\"];\n"
        "  p2 [pos=\"2,2!\"];\n"
        "}\n"
        "// axes: x = memory [bytes] (max 9999), y = coverage\n";
    std::istringstream in(dot);
    const Report report = analysis::lint_frontier_dot(
        in, optimizer.candidates(), {"EH-set", "PA-set"}, "frontier:test");
    EXPECT_TRUE(report.has("EPEA-E046"));  // 3 points, not 2^n - 1
    EXPECT_TRUE(report.has("EPEA-E044"));  // bogus memory axis
    EXPECT_TRUE(report.has("EPEA-W045"));  // no reference labels
}

// --------------------------------------------------------------- campaign

class CampaignLint : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::path(::testing::TempDir()) /
               ("campaign_lint_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        spec_ = campaign::CampaignSpec::defaults(
            campaign::CampaignKind::kPermeability);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    void write(const std::string& file, const std::string& content) const {
        std::ofstream out(dir_ / file, std::ios::binary);
        out << content;
    }

    std::string hash_of(const util::JsonValue& v) const {
        char buf[24];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(obs::fnv1a64(v.dump())));
        return buf;
    }

    /// A manifest whose config_hash is self-consistent over `config`.
    std::string manifest_json(const util::JsonValue& config,
                              const std::string& command) const {
        util::JsonObject m;
        m.emplace("command", util::JsonValue(command));
        m.emplace("config", config);
        m.emplace("config_hash", util::JsonValue(hash_of(config)));
        return util::JsonValue(std::move(m)).dump();
    }

    Report lint() const { return analysis::lint_campaign_dir(dir_.string()); }

    std::filesystem::path dir_;
    campaign::CampaignSpec spec_;
};

TEST_F(CampaignLint, MissingOrBadSpecIsE050) {
    EXPECT_TRUE(lint().has("EPEA-E050"));  // no spec.json at all
    write("spec.json", "{not json");
    EXPECT_TRUE(lint().has("EPEA-E050"));
}

TEST_F(CampaignLint, SpecOnlyDirectoryIsClean) {
    write("spec.json", spec_.to_json());
    const Report report = lint();
    EXPECT_EQ(report.exit_code(), 0);
    EXPECT_TRUE(report.clean());
}

TEST_F(CampaignLint, DegenerateSpecIsW054) {
    spec_.times_per_bit = 0;
    write("spec.json", spec_.to_json());
    EXPECT_TRUE(lint().has("EPEA-W054"));
}

TEST_F(CampaignLint, ShardOutOfRangeIsE051) {
    write("spec.json", spec_.to_json());
    campaign::ShardResult shard;
    shard.shard = 99;  // spec has far fewer effective shards
    shard.runs = 1;
    campaign::save_shard(dir_.string(), shard);
    EXPECT_TRUE(lint().has("EPEA-E051"));
}

TEST_F(CampaignLint, ShardCaseMismatchIsE052) {
    write("spec.json", spec_.to_json());
    campaign::ShardResult shard;
    shard.shard = 0;
    shard.case_ids = {1, 2, 3};  // not the round-robin deal for shard 0
    shard.runs = 1;
    campaign::save_shard(dir_.string(), shard);
    const Report report = lint();
    EXPECT_TRUE(report.has("EPEA-E052"));
}

TEST_F(CampaignLint, ShardKindMismatchIsE053) {
    write("spec.json", spec_.to_json());
    campaign::ShardResult shard;
    shard.shard = 0;
    shard.kind = campaign::CampaignKind::kSevere;
    shard.case_ids = spec_.shard_cases(0);
    shard.runs = 1;
    campaign::save_shard(dir_.string(), shard);
    EXPECT_TRUE(lint().has("EPEA-E053"));
}

TEST_F(CampaignLint, ZeroRunShardIsW058) {
    write("spec.json", spec_.to_json());
    campaign::ShardResult shard;
    shard.shard = 0;
    shard.case_ids = spec_.shard_cases(0);
    shard.runs = 0;
    campaign::save_shard(dir_.string(), shard);
    const Report report = lint();
    EXPECT_TRUE(report.has("EPEA-W058"));
    EXPECT_EQ(report.error_count(), 0u);
}

TEST_F(CampaignLint, UnparsableShardIsW059) {
    write("spec.json", spec_.to_json());
    write("shard-000.json", "{truncated");
    const Report report = lint();
    EXPECT_TRUE(report.has("EPEA-W059"));
    EXPECT_EQ(report.error_count(), 0u);
}

TEST_F(CampaignLint, TamperedManifestIsE055) {
    write("spec.json", spec_.to_json());
    util::JsonObject m;
    m.emplace("command", util::JsonValue(std::string("campaign run")));
    m.emplace("config", util::JsonValue::parse(spec_.to_json()));
    m.emplace("config_hash", util::JsonValue(std::string("deadbeef")));
    write("manifest.json", util::JsonValue(std::move(m)).dump());
    EXPECT_TRUE(lint().has("EPEA-E055"));
}

TEST_F(CampaignLint, StaleManifestIsE056) {
    write("spec.json", spec_.to_json());
    campaign::CampaignSpec other = spec_;
    other.times_per_bit += 1;  // the manifest was produced under this one
    write("manifest.json",
          manifest_json(util::JsonValue::parse(other.to_json()),
                        "campaign run"));
    const Report report = lint();
    EXPECT_TRUE(report.has("EPEA-E056"));
    EXPECT_FALSE(report.has("EPEA-E055"));  // hash itself is consistent
}

TEST_F(CampaignLint, FreshManifestIsClean) {
    write("spec.json", spec_.to_json());
    write("manifest.json",
          manifest_json(util::JsonValue::parse(spec_.to_json()),
                        "campaign run"));
    EXPECT_TRUE(lint().clean());
}

TEST_F(CampaignLint, UnparsableJournalLineIsW057) {
    write("spec.json", spec_.to_json());
    write("events.jsonl", "{\"event\":\"shard_done\"}\nnot json at all\n");
    const Report report = lint();
    EXPECT_TRUE(report.has("EPEA-W057"));
    EXPECT_EQ(report.error_count(), 0u);
}

// ------------------------------------------------------------ source tree

TEST(SourceLint, BadMetricNameIsW060) {
    const std::filesystem::path root =
        std::filesystem::path(::testing::TempDir()) /
        ("source_lint_" +
         std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root / "src");
    {
        std::ofstream out(root / "src" / "bad.cpp");
        out << "void f(Registry& reg) {\n"
               "    reg.counter(\"Bad Name\").add(1);\n"
               "    reg.gauge(\"ok.name\").set(2);\n"
               "}\n";
    }
    std::size_t names = 0;
    const Report report = analysis::lint_metric_names(root.string(), &names);
    EXPECT_TRUE(report.has("EPEA-W060"));
    EXPECT_EQ(report.warning_count(), 1u);  // ok.name passes
    EXPECT_EQ(names, 2u);
    std::filesystem::remove_all(root);
}

TEST(SourceLint, RepoSourceTreeIsClean) {
    // The repo root is two levels up from the test binary only in-tree;
    // fall back to skipping when the layout is unexpected (installed runs).
    std::filesystem::path root = std::filesystem::current_path();
    while (!root.empty() && !std::filesystem::exists(root / "src" / "obs")) {
        if (root == root.parent_path()) GTEST_SKIP();
        root = root.parent_path();
    }
    const Report report = analysis::lint_metric_names(root.string());
    EXPECT_FALSE(report.has("EPEA-W060")) << [&] {
        std::ostringstream os;
        analysis::write_text(os, report);
        return os.str();
    }();
}

}  // namespace
}  // namespace epea
