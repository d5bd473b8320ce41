#include "opt/evaluator.hpp"

#include <filesystem>
#include <map>
#include <stdexcept>

#include "campaign/executor.hpp"
#include "campaign/spec.hpp"
#include "exp/arrestment_experiments.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace epea::opt {

namespace {

/// Signal name -> EA name on the arrestment target (EA1..EA7).
const std::map<std::string, std::string>& signal_to_ea() {
    static const std::map<std::string, std::string> map = [] {
        std::map<std::string, std::string> m;
        for (const auto& [ea_name, signal_name] : exp::arrestment_ea_signals()) {
            m[signal_name] = ea_name;
        }
        return m;
    }();
    return map;
}

std::string batch_fingerprint(const std::vector<std::string>& keys) {
    // FNV-1a over the sorted keys: a deterministic campaign-directory
    // suffix, so re-running the identical batch resumes the same campaign.
    std::uint64_t h = 1469598103934665603ULL;
    for (const std::string& k : keys) {
        for (const char c : k) {
            h ^= static_cast<std::uint8_t>(c);
            h *= 1099511628211ULL;
        }
        h ^= '\n';
        h *= 1099511628211ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
    return std::string(buf, 16);
}

}  // namespace

CampaignEvaluator::CampaignEvaluator(EvaluatorOptions options)
    : options_(std::move(options)), cache_(options_.dir) {
    if (!options_.dir.empty()) std::filesystem::create_directories(options_.dir);
}

std::string CampaignEvaluator::subset_key(const std::vector<std::string>& subset) const {
    return SubsetCache::key(options_.model, options_.cases, options_.times_per_bit,
                            options_.seed, options_.severe_period, subset);
}

std::vector<CacheEntry> CampaignEvaluator::evaluate(
    const std::vector<std::vector<std::string>>& subsets) {
    obs::Span span("opt.evaluate", subsets.size());
    auto& reg = obs::MetricsRegistry::global();
    std::vector<CacheEntry> results(subsets.size());
    // Deduplicated cache misses, keyed canonically; values are the EA-name
    // SubsetSpecs the campaign will score.
    std::map<std::string, exp::SubsetSpec> missing;

    for (std::size_t i = 0; i < subsets.size(); ++i) {
        if (subsets[i].empty()) continue;  // empty placement detects nothing
        const std::string key = subset_key(subsets[i]);
        reg.counter("opt.subset.evaluated").add();
        if (const auto hit = cache_.lookup(key)) {
            ++cache_hits_;
            reg.counter("opt.subset.cache_hit").add();
            results[i] = *hit;
            continue;
        }
        ++cache_misses_;
        reg.counter("opt.subset.cache_miss").add();
        if (missing.count(key)) continue;
        exp::SubsetSpec spec;
        spec.name = key;
        for (const std::string& signal : subsets[i]) {
            const auto it = signal_to_ea().find(signal);
            if (it == signal_to_ea().end()) {
                throw std::invalid_argument(
                    "CampaignEvaluator: no EA guards signal '" + signal +
                    "' on the arrestment target");
            }
            spec.ea_names.push_back(it->second);
        }
        missing.emplace(key, std::move(spec));
    }

    if (!missing.empty()) {
        campaign::CampaignSpec spec;
        spec.kind = options_.model == ErrorModel::kInput
                        ? campaign::CampaignKind::kInput
                        : campaign::CampaignKind::kSevere;
        spec.name = "opt-eval";
        spec.case_ids.clear();
        for (std::size_t c = 0; c < options_.cases; ++c) spec.case_ids.push_back(c);
        spec.times_per_bit = options_.times_per_bit;
        spec.severe_period = options_.severe_period;
        spec.seed = options_.seed;
        spec.shards = options_.shards;
        spec.subsets.clear();
        std::vector<std::string> batch_keys;
        for (auto& [key, subset_spec] : missing) {
            batch_keys.push_back(key);
            spec.subsets.push_back(subset_spec);
        }

        const std::string campaign_dir =
            options_.dir.empty() ? std::string()
                                 : options_.dir + "/eval-" + to_string(options_.model) +
                                       "-" + batch_fingerprint(batch_keys);
        campaign::CampaignExecutor executor(campaign_dir, spec);
        campaign::ExecutorOptions exec;
        exec.threads = options_.threads;
        exec.echo_events = options_.echo_events;
        exec.use_batch = options_.use_batch;
        exec.golden_cache = &golden_cache_;  // reused across batches
        executor.run(exec);
        ++campaigns_executed_;
        reg.counter("opt.campaigns.executed").add();

        if (options_.model == ErrorModel::kInput) {
            const exp::InputCoverageResult merged = executor.merged_input();
            for (std::size_t s = 0; s < merged.subset_names.size(); ++s) {
                CacheEntry e;
                e.detected = merged.all.detected_per_subset.at(s);
                e.active = merged.all.active;
                e.runs = merged.all.injected;
                e.coverage = e.active ? static_cast<double>(e.detected) /
                                            static_cast<double>(e.active)
                                      : 0.0;
                cache_.store(merged.subset_names[s], e);
            }
        } else {
            const exp::SevereCoverageResult merged = executor.merged_severe();
            for (const exp::SevereSetResult& set : merged.sets) {
                const exp::SevereCell& total = set.cells[2][0];
                CacheEntry e;
                e.detected = total.detected;
                e.active = total.n;
                e.runs = merged.runs;
                e.coverage = total.coverage();
                cache_.store(set.set_name, e);
            }
        }
        cache_.flush();
    }

    for (std::size_t i = 0; i < subsets.size(); ++i) {
        if (subsets[i].empty()) continue;
        if (results[i].runs == 0 && results[i].active == 0) {
            const auto entry = cache_.lookup(subset_key(subsets[i]));
            if (!entry) {
                throw std::logic_error(
                    "CampaignEvaluator: campaign did not produce subset '" +
                    canonical_subset(subsets[i]) + "'");
            }
            results[i] = *entry;
        }
    }
    return results;
}

double CampaignEvaluator::coverage(const std::vector<std::string>& subset) {
    return evaluate({subset}).at(0).coverage;
}

}  // namespace epea::opt
