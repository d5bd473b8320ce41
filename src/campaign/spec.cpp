#include "campaign/spec.hpp"

#include <algorithm>
#include <stdexcept>

#include "campaign/json.hpp"
#include "exp/paper_data.hpp"

namespace epea::campaign {

const char* to_string(CampaignKind kind) {
    switch (kind) {
        case CampaignKind::kPermeability: return "permeability";
        case CampaignKind::kSevere: return "severe";
        case CampaignKind::kRecovery: return "recovery";
        case CampaignKind::kInput: return "input";
    }
    return "permeability";
}

CampaignKind campaign_kind_from_string(const std::string& s) {
    if (s == "permeability") return CampaignKind::kPermeability;
    if (s == "severe") return CampaignKind::kSevere;
    if (s == "recovery") return CampaignKind::kRecovery;
    if (s == "input") return CampaignKind::kInput;
    throw std::runtime_error("unknown campaign kind '" + s + "'");
}

CampaignSpec CampaignSpec::defaults(CampaignKind kind) {
    CampaignSpec spec;
    spec.kind = kind;
    spec.name = std::string("arrestment-") + to_string(kind);
    for (std::size_t c = 0; c < 25; ++c) spec.case_ids.push_back(c);
    spec.subsets = {
        {"EH-set", {"EA1", "EA2", "EA3", "EA4", "EA5", "EA6", "EA7"}},
        {"PA-set", {"EA1", "EA3", "EA4", "EA7"}},
    };
    spec.guarded_signals = exp::paper_eh_signals();
    return spec;
}

CampaignSpec CampaignSpec::from_options(CampaignKind kind,
                                       const exp::CampaignOptions& options) {
    CampaignSpec spec = defaults(kind);
    const std::size_t n_cases = spec.case_ids.size();
    const std::size_t first = std::min(options.case_first, n_cases);
    const std::size_t count = std::min(options.case_count, n_cases - first);
    spec.case_ids.clear();
    for (std::size_t c = first; c < first + count; ++c) spec.case_ids.push_back(c);
    spec.shards = spec.case_ids.size();
    spec.times_per_bit = options.times_per_bit;
    spec.seed = options.seed;
    spec.max_ticks = options.max_ticks;
    spec.severe_period = options.severe_period;
    spec.module_filter = options.module_filter;
    return spec;
}

std::vector<std::size_t> CampaignSpec::shard_cases(std::size_t s) const {
    std::vector<std::size_t> out;
    const std::size_t n = effective_shards();
    if (n == 0) return out;
    for (std::size_t i = s; i < case_ids.size(); i += n) {
        out.push_back(case_ids[i]);
    }
    return out;
}

std::size_t CampaignSpec::effective_shards() const {
    return std::min(std::max<std::size_t>(shards, 1), case_ids.size());
}

std::string CampaignSpec::to_json() const {
    JsonObject o;
    o.emplace("version", JsonValue(kVersion));
    o.emplace("name", JsonValue(name));
    o.emplace("kind", JsonValue(to_string(kind)));
    o.emplace("target", JsonValue(target));

    JsonArray ids;
    for (const std::size_t c : case_ids) ids.emplace_back(c);
    o.emplace("case_ids", JsonValue(std::move(ids)));

    o.emplace("times_per_bit", JsonValue(times_per_bit));
    o.emplace("max_ticks", JsonValue(max_ticks));
    o.emplace("severe_period", JsonValue(severe_period));
    o.emplace("seed", JsonValue(seed));
    o.emplace("shards", JsonValue(shards));

    if (!module_filter.empty()) {
        JsonArray mods;
        for (const auto& m : module_filter) mods.emplace_back(m);
        o.emplace("module_filter", JsonValue(std::move(mods)));
    }

    JsonArray subs;
    for (const auto& s : subsets) {
        JsonObject so;
        so.emplace("name", JsonValue(s.name));
        JsonArray eas;
        for (const auto& n : s.ea_names) eas.emplace_back(n);
        so.emplace("eas", JsonValue(std::move(eas)));
        subs.emplace_back(std::move(so));
    }
    o.emplace("subsets", JsonValue(std::move(subs)));

    JsonArray guards;
    for (const auto& g : guarded_signals) guards.emplace_back(g);
    o.emplace("guarded_signals", JsonValue(std::move(guards)));

    JsonObject ad;
    ad.emplace("enabled", JsonValue(adaptive.enabled));
    ad.emplace("z", JsonValue(adaptive.z));
    ad.emplace("half_width", JsonValue(adaptive.half_width));
    ad.emplace("min_trials", JsonValue(adaptive.min_trials));
    o.emplace("adaptive", JsonValue(std::move(ad)));

    return JsonValue(std::move(o)).dump();
}

CampaignSpec CampaignSpec::from_json(const std::string& text) {
    const JsonValue root = JsonValue::parse(text);
    const std::int64_t version = root.at("version").as_int();
    if (version < 1 || version > kVersion) {
        throw std::runtime_error("campaign spec version " + std::to_string(version) +
                                 " not supported (this build reads <= " +
                                 std::to_string(kVersion) + ")");
    }

    CampaignSpec spec;
    spec.name = root.at("name").as_string();
    spec.kind = campaign_kind_from_string(root.at("kind").as_string());
    spec.target = root.at("target").as_string();

    spec.case_ids.clear();
    for (const auto& v : root.at("case_ids").as_array()) {
        const std::int64_t c = v.as_int();
        if (c < 0) throw std::runtime_error("campaign spec: negative case id");
        spec.case_ids.push_back(static_cast<std::size_t>(c));
    }

    spec.times_per_bit = static_cast<std::size_t>(root.at("times_per_bit").as_int());
    spec.max_ticks = static_cast<std::uint64_t>(root.at("max_ticks").as_int());
    spec.severe_period = static_cast<std::uint64_t>(root.at("severe_period").as_int());
    spec.seed = static_cast<std::uint64_t>(root.at("seed").as_int());
    spec.shards = static_cast<std::size_t>(root.at("shards").as_int());

    spec.module_filter.clear();
    if (const JsonValue* mods = root.find("module_filter")) {
        for (const auto& m : mods->as_array()) {
            spec.module_filter.push_back(m.as_string());
        }
    }

    spec.subsets.clear();
    for (const auto& v : root.at("subsets").as_array()) {
        exp::SubsetSpec s;
        s.name = v.at("name").as_string();
        for (const auto& n : v.at("eas").as_array()) s.ea_names.push_back(n.as_string());
        spec.subsets.push_back(std::move(s));
    }

    spec.guarded_signals.clear();
    for (const auto& g : root.at("guarded_signals").as_array()) {
        spec.guarded_signals.push_back(g.as_string());
    }

    const JsonValue& ad = root.at("adaptive");
    spec.adaptive.enabled = ad.at("enabled").as_bool();
    spec.adaptive.z = ad.at("z").as_double();
    spec.adaptive.half_width = ad.at("half_width").as_double();
    spec.adaptive.min_trials = static_cast<std::uint64_t>(ad.at("min_trials").as_int());

    return spec;
}

}  // namespace epea::campaign
