// On-disk memoization of ground-truth subset evaluations. Every campaign
//-measured coverage is stored under a key binding the subset to the full
// experiment identity (error model, campaign sizing, seed), so refining a
// frontier — or re-running it with more subsets — re-executes campaigns
// only for subsets never measured before. The FastFlip-style contract:
// same key, same counts, zero injections.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "opt/types.hpp"

namespace epea::opt {

/// One memoized ground-truth measurement (integer counts kept alongside
/// the derived coverage so merged results stay auditable).
struct CacheEntry {
    double coverage = 0.0;
    std::uint64_t detected = 0;  ///< errors detected by the subset
    std::uint64_t active = 0;    ///< activated errors (coverage denominator)
    std::uint64_t runs = 0;      ///< injection runs behind the measurement
};

class SubsetCache {
public:
    /// Binds the cache to `dir`/subset_cache.json and loads it when
    /// present. A corrupt file is treated as empty (measurements rerun).
    /// An empty `dir` keeps the cache in memory: flush() writes nothing.
    explicit SubsetCache(std::string dir);

    [[nodiscard]] std::optional<CacheEntry> lookup(const std::string& key) const;
    void store(const std::string& key, const CacheEntry& entry);
    /// Atomically rewrites subset_cache.json with the current entries.
    void flush() const;
    [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
    [[nodiscard]] const std::string& path() const noexcept { return path_; }

    /// The cache key of one (subset, experiment identity) pair.
    [[nodiscard]] static std::string key(ErrorModel model, std::size_t cases,
                                         std::size_t times_per_bit, std::uint64_t seed,
                                         std::uint64_t severe_period,
                                         const std::vector<std::string>& subset_signals);

private:
    std::string path_;
    std::map<std::string, CacheEntry> entries_;
};

}  // namespace epea::opt
