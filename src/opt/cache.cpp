#include "opt/cache.hpp"

#include <fstream>
#include <sstream>

#include "campaign/checkpoint.hpp"
#include "campaign/json.hpp"

namespace epea::opt {

namespace {
constexpr std::int64_t kCacheVersion = 1;
}

SubsetCache::SubsetCache(std::string dir) : path_(std::move(dir)) {
    if (path_.empty()) return;  // in memory
    path_ += "/subset_cache.json";
    std::ifstream in(path_);
    if (!in) return;
    std::stringstream buffer;
    buffer << in.rdbuf();
    try {
        const campaign::JsonValue root = campaign::JsonValue::parse(buffer.str());
        if (root.at("version").as_int() != kCacheVersion) return;
        for (const auto& [key, value] : root.at("entries").as_object()) {
            CacheEntry e;
            e.coverage = value.at("coverage").as_double();
            e.detected = static_cast<std::uint64_t>(value.at("detected").as_int());
            e.active = static_cast<std::uint64_t>(value.at("active").as_int());
            e.runs = static_cast<std::uint64_t>(value.at("runs").as_int());
            entries_[key] = e;
        }
    } catch (const std::exception&) {
        entries_.clear();  // corrupt cache: start over, measurements rerun
    }
}

std::optional<CacheEntry> SubsetCache::lookup(const std::string& key) const {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return it->second;
}

void SubsetCache::store(const std::string& key, const CacheEntry& entry) {
    entries_[key] = entry;
}

void SubsetCache::flush() const {
    if (path_.empty()) return;
    campaign::JsonObject entries;
    for (const auto& [key, e] : entries_) {
        campaign::JsonObject o;
        o["coverage"] = e.coverage;
        o["detected"] = e.detected;
        o["active"] = e.active;
        o["runs"] = e.runs;
        entries[key] = std::move(o);
    }
    campaign::JsonObject root;
    root["version"] = kCacheVersion;
    root["entries"] = std::move(entries);
    campaign::atomic_write_file(path_, campaign::JsonValue(std::move(root)).dump());
}

std::string SubsetCache::key(ErrorModel model, std::size_t cases,
                             std::size_t times_per_bit, std::uint64_t seed,
                             std::uint64_t severe_period,
                             const std::vector<std::string>& subset_signals) {
    std::string k = to_string(model);
    k += "|c" + std::to_string(cases);
    k += "|t" + std::to_string(times_per_bit);
    k += "|s" + std::to_string(seed);
    if (model == ErrorModel::kSevere) {
        k += "|p" + std::to_string(severe_period);
    }
    k += "|" + canonical_subset(subset_signals);
    return k;
}

}  // namespace epea::opt
