// Crash-safe on-disk checkpoints. Each completed shard is persisted as
// `shard-NNN.json` in the campaign directory via write-temp-then-rename,
// so a killed campaign leaves either a complete shard file or none — a
// resumed run re-executes only the missing shards and the merged result
// is bit-identical to an uninterrupted run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "exp/arrestment_experiments.hpp"
#include "exp/recovery.hpp"
#include "fi/fastpath.hpp"

namespace epea::campaign {

/// Raw estimation counts of one permeability pair (ports are enough to
/// address the pair; names make the file auditable).
struct PairCountRecord {
    std::string module;
    std::uint32_t in_port = 0;
    std::uint32_t out_port = 0;
    std::uint64_t affected = 0;
    std::uint64_t active = 0;
};

/// The persisted outcome of one shard: integer counts only, so merging
/// is order-independent and exact.
struct ShardResult {
    std::size_t shard = 0;
    CampaignKind kind = CampaignKind::kPermeability;
    std::vector<std::size_t> case_ids;  ///< global case indices executed
    std::uint64_t runs = 0;             ///< injection runs in this shard
    double wall_seconds = 0.0;
    /// Injection-engine counters of this shard (DESIGN.md §9); all-zero
    /// when the checkpoint predates them.
    fi::FastPathStats fastpath;
    /// Worker-pool size of the run() call that executed this shard.
    std::size_t threads = 1;

    std::vector<PairCountRecord> pairs;     ///< kind == kPermeability
    exp::SevereCoverageResult severe;       ///< kind == kSevere
    exp::RecoveryResult recovery;           ///< kind == kRecovery
    exp::InputCoverageResult input;         ///< kind == kInput

    [[nodiscard]] std::string to_json() const;
    [[nodiscard]] static ShardResult from_json(const std::string& text);
};

/// Writes `content` to `path` atomically (temp file + rename).
void atomic_write_file(const std::string& path, const std::string& content);

[[nodiscard]] std::string shard_file_name(std::size_t shard);

/// Persists a completed shard into the campaign directory.
void save_shard(const std::string& dir, const ShardResult& result);

/// Loads shard `s` if a readable, well-formed checkpoint exists.
/// Corrupt or truncated files are treated as absent (the shard reruns).
[[nodiscard]] std::optional<ShardResult> load_shard(const std::string& dir,
                                                    std::size_t shard);

}  // namespace epea::campaign
