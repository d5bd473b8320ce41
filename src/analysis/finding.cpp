#include "analysis/finding.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "util/json.hpp"

namespace epea::analysis {

const std::vector<RuleInfo>& rule_catalog() {
    static const std::vector<RuleInfo> kCatalog = {
        // -- propagation graph / system model ------------------------------
        {"EPEA-E010", Severity::kError, "dangling-signal-ref",
         "a module port references a signal the model does not declare"},
        {"EPEA-E011", Severity::kError, "bad-name",
         "empty or duplicate signal/module name, or signal width outside [1,32]"},
        {"EPEA-E012", Severity::kError, "producer-invariant",
         "producer/consumer structure violates the model invariants"},
        {"EPEA-E013", Severity::kError, "malformed-model-line",
         "a line of a serialized artifact (model text or matrix CSV) "
         "cannot be parsed"},
        {"EPEA-W020", Severity::kWarning, "dead-end-intermediate",
         "an intermediate signal no module consumes; errors there cannot "
         "propagate further through the software"},
        {"EPEA-W021", Severity::kWarning, "unreachable-output-module",
         "no system output is reachable from any of the module's outputs"},
        // -- permeability matrix -------------------------------------------
        {"EPEA-E030", Severity::kError, "perm-out-of-range",
         "a permeability value lies outside [0,1]"},
        {"EPEA-E031", Severity::kError, "count-mismatch",
         "estimation counts are inconsistent (affected > active, or value "
         "disagrees with affected/active)"},
        {"EPEA-W032", Severity::kWarning, "wide-ci",
         "the Wilson interval of an estimated pair is wider than the "
         "trustworthiness threshold; more injection runs are needed"},
        {"EPEA-E034", Severity::kError, "lossless-cycle",
         "a feedback cycle over two or more signals has permeability "
         "product ~1; the analytic engine's noisy-OR fixpoint does not "
         "contract around it and stops at its iteration cap unconverged"},
        {"EPEA-W033", Severity::kWarning, "lossy-feedback",
         "a feedback cycle has permeability product >= 0.5; the analytic "
         "engine's fixpoint composes repeated walks around it as "
         "independent, so its estimates through the cycle are least "
         "trustworthy"},
        {"EPEA-W035", Severity::kWarning, "zero-exposure-output",
         "a system output has zero error exposure; no modelled error ever "
         "reaches the actuator, which usually means missing matrix rows"},
        // -- EDM placement --------------------------------------------------
        {"EPEA-E040", Severity::kError, "ea-unknown-signal",
         "a placed EA references a signal the model does not declare"},
        {"EPEA-E041", Severity::kError, "ea-no-cost-entry",
         "a placed signal's kind has no Table-3 cost entry (no EA type "
         "exists for it, e.g. boolean signals)"},
        {"EPEA-W042", Severity::kWarning, "ea-on-system-input",
         "an EA guards a raw system input (sensor/HW register) — outside "
         "the paper's EA locations"},
        {"EPEA-W043", Severity::kWarning, "ea-zero-exposure",
         "an EA guards a signal with zero error exposure (all producing "
         "permeabilities are zero) — the assertion can never fire on a "
         "propagated error"},
        {"EPEA-E044", Severity::kError, "frontier-cost-mismatch",
         "a frontier artifact's cost axis disagrees with the Table-3 cost "
         "model of the candidate set"},
        {"EPEA-W045", Severity::kWarning, "frontier-missing-reference",
         "a frontier artifact lacks a labelled reference placement "
         "(EH-set/PA-set/EXT-set)"},
        {"EPEA-E046", Severity::kError, "frontier-point-count",
         "a frontier artifact's point count is not 2^n - 1 for the n-"
         "candidate subset lattice"},
        {"EPEA-W063", Severity::kWarning, "shadowed-ea",
         "the prover shows no modelled error can ever propagate into the "
         "EA's signal (its propagated witness set is empty) — the "
         "detector is provably redundant, the structural form of the "
         "paper's §7 IsValue/mscnt zero-exposure finding"},
        {"EPEA-W064", Severity::kWarning, "uncut-coverage-claim",
         "a placement labelled full-coverage is not a vertex cut of the "
         "signal graph: a concrete error path reaches a system output "
         "past every EA"},
        // -- campaign directories ------------------------------------------
        {"EPEA-E050", Severity::kError, "bad-spec",
         "spec.json is missing, unreadable or malformed"},
        {"EPEA-E051", Severity::kError, "shard-out-of-range",
         "a checkpoint's shard index is outside the spec's shard count"},
        {"EPEA-E052", Severity::kError, "shard-case-mismatch",
         "a checkpoint's case list differs from the spec's round-robin "
         "deal for that shard; merged counts would be wrong"},
        {"EPEA-E053", Severity::kError, "shard-kind-mismatch",
         "a checkpoint was produced by a different campaign kind than the "
         "spec declares"},
        {"EPEA-W054", Severity::kWarning, "spec-window-anomaly",
         "a spec field makes the campaign degenerate (no cases, zero "
         "times/ticks, or an adaptive threshold outside (0, 0.5])"},
        {"EPEA-E055", Severity::kError, "manifest-tampered",
         "manifest.json's stored config_hash does not match its own "
         "config object"},
        {"EPEA-E056", Severity::kError, "manifest-stale",
         "manifest.json was produced under a different configuration than "
         "the spec.json now in the directory"},
        {"EPEA-W057", Severity::kWarning, "journal-unparsable",
         "events.jsonl contains lines that are not valid JSON objects"},
        {"EPEA-W058", Severity::kWarning, "shard-zero-runs",
         "a completed checkpoint recorded zero injection runs"},
        {"EPEA-W059", Severity::kWarning, "shard-unreadable",
         "a shard checkpoint exists but cannot be parsed; resume treats it "
         "as absent and re-executes the shard"},
        // -- source tree ----------------------------------------------------
        {"EPEA-W060", Severity::kWarning, "bad-metric-name",
         "a metric registered in the source tree violates the obs naming "
         "contract ^[a-z][a-z0-9_.]*$"},
        // -- caches ---------------------------------------------------------
        {"EPEA-W061", Severity::kWarning, "bad-subset-cache",
         "subset_cache.json is malformed or holds inconsistent entries; "
         "the ground-truth optimizer and the delta planner would silently "
         "re-measure or mis-reuse coverage"},
        // -- timelines -------------------------------------------------------
        {"EPEA-W062", Severity::kWarning, "bad-timeline",
         "timeline.jsonl violates the flight-recorder contract (non-"
         "monotone timestamps or sequence numbers, unknown phase names, "
         "or per-worker sample discontinuity); obs report and the stall "
         "detector would mis-attribute progress"},
    };
    return kCatalog;
}

const RuleInfo* rule_info(std::string_view id) {
    for (const RuleInfo& rule : rule_catalog()) {
        if (id == rule.id) return &rule;
    }
    return nullptr;
}

void Report::add(std::string rule, std::string artifact, std::string object,
                 std::string message) {
    const RuleInfo* info = rule_info(rule);
    if (info == nullptr) {
        throw std::logic_error("analysis: unknown rule ID " + rule);
    }
    findings_.push_back(Finding{std::move(rule), info->severity,
                                std::move(artifact), std::move(object),
                                std::move(message)});
}

void Report::merge(Report other) {
    findings_.insert(findings_.end(),
                     std::make_move_iterator(other.findings_.begin()),
                     std::make_move_iterator(other.findings_.end()));
}

std::size_t Report::error_count() const noexcept {
    return static_cast<std::size_t>(
        std::count_if(findings_.begin(), findings_.end(), [](const Finding& f) {
            return f.severity == Severity::kError;
        }));
}

std::size_t Report::warning_count() const noexcept {
    return findings_.size() - error_count();
}

bool Report::has(std::string_view rule) const noexcept {
    return std::any_of(findings_.begin(), findings_.end(),
                       [rule](const Finding& f) { return f.rule == rule; });
}

int Report::exit_code(bool strict) const noexcept {
    if (error_count() > 0) return 2;
    if (strict && !findings_.empty()) return 2;
    return 0;
}

void write_text(std::ostream& os, const Report& report) {
    for (const Finding& f : report.findings()) {
        os << f.rule << ' ' << to_string(f.severity) << ' ' << f.artifact;
        if (!f.object.empty()) os << ' ' << f.object;
        os << ": " << f.message << '\n';
    }
    os << report.error_count() << " error(s), " << report.warning_count()
       << " warning(s)\n";
}

void write_json(std::ostream& os, const Report& report) {
    util::JsonArray findings;
    for (const Finding& f : report.findings()) {
        util::JsonObject o;
        o.emplace("rule", util::JsonValue(f.rule));
        o.emplace("severity", util::JsonValue(to_string(f.severity)));
        o.emplace("artifact", util::JsonValue(f.artifact));
        o.emplace("object", util::JsonValue(f.object));
        o.emplace("message", util::JsonValue(f.message));
        findings.emplace_back(std::move(o));
    }
    util::JsonObject root;
    root.emplace("findings", util::JsonValue(std::move(findings)));
    root.emplace("errors", util::JsonValue(report.error_count()));
    root.emplace("warnings", util::JsonValue(report.warning_count()));
    os << util::JsonValue(std::move(root)).dump() << '\n';
}

}  // namespace epea::analysis
