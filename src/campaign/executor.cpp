#include "campaign/executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include "campaign/adaptive.hpp"
#include "exp/arrestment_experiments.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "target/arrestment_system.hpp"

namespace epea::campaign {

namespace {

void merge_severe(exp::SevereCoverageResult& dst,
                  const exp::SevereCoverageResult& src) {
    dst.runs += src.runs;
    dst.failures += src.failures;
    dst.ram_locations = src.ram_locations;
    dst.stack_locations = src.stack_locations;
    if (dst.sets.empty()) {
        for (const auto& set : src.sets) {
            dst.sets.push_back(exp::SevereSetResult{set.set_name, {}});
        }
    }
    if (dst.sets.size() != src.sets.size()) {
        throw std::runtime_error("campaign: severe subset mismatch while merging");
    }
    for (std::size_t s = 0; s < src.sets.size(); ++s) {
        for (std::size_t r = 0; r < 3; ++r) {
            for (std::size_t k = 0; k < 3; ++k) {
                dst.sets[s].cells[r][k].n += src.sets[s].cells[r][k].n;
                dst.sets[s].cells[r][k].detected += src.sets[s].cells[r][k].detected;
            }
        }
    }
}

void merge_coverage_row(exp::InputCoverageRow& dst, const exp::InputCoverageRow& src) {
    dst.injected += src.injected;
    dst.active += src.active;
    dst.detected_any += src.detected_any;
    if (dst.detected_per_ea.empty()) dst.detected_per_ea.resize(src.detected_per_ea.size());
    if (dst.detected_per_subset.empty()) {
        dst.detected_per_subset.resize(src.detected_per_subset.size());
    }
    if (dst.detected_per_ea.size() != src.detected_per_ea.size() ||
        dst.detected_per_subset.size() != src.detected_per_subset.size()) {
        throw std::runtime_error("campaign: input-coverage row shape mismatch");
    }
    for (std::size_t i = 0; i < src.detected_per_ea.size(); ++i) {
        dst.detected_per_ea[i] += src.detected_per_ea[i];
    }
    for (std::size_t i = 0; i < src.detected_per_subset.size(); ++i) {
        dst.detected_per_subset[i] += src.detected_per_subset[i];
    }
    dst.latency.merge(src.latency);
}

void merge_input(exp::InputCoverageResult& dst, const exp::InputCoverageResult& src) {
    if (dst.rows.empty()) {
        dst.ea_names = src.ea_names;
        dst.subset_names = src.subset_names;
        for (const auto& row : src.rows) {
            exp::InputCoverageRow empty;
            empty.signal = row.signal;
            dst.rows.push_back(std::move(empty));
        }
        dst.all.signal = src.all.signal;
    }
    if (dst.rows.size() != src.rows.size() || dst.ea_names != src.ea_names ||
        dst.subset_names != src.subset_names) {
        throw std::runtime_error("campaign: input-coverage subset mismatch while merging");
    }
    for (std::size_t r = 0; r < src.rows.size(); ++r) {
        if (dst.rows[r].signal != src.rows[r].signal) {
            throw std::runtime_error("campaign: input-coverage row order mismatch");
        }
        merge_coverage_row(dst.rows[r], src.rows[r]);
    }
    merge_coverage_row(dst.all, src.all);
}

void merge_recovery(exp::RecoveryResult& dst, const exp::RecoveryResult& src) {
    dst.runs += src.runs;
    dst.failures_baseline += src.failures_baseline;
    dst.failures_with_erm += src.failures_with_erm;
    dst.repairs += src.repairs;
    // Identical wrapper set in every window: the cost is a constant, not
    // a sum.
    dst.erm_cost = src.erm_cost;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return {};
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/// Each (dir, shard) is recorded into the obs metrics registry at most
/// once per process, so resumed checkpoints loaded by several executor
/// instances (run, then resume, then status) never double-count. One CLI
/// invocation is one process, so resumed + freshly executed shards sum
/// to the whole campaign. In-memory shards are never reloaded, so they
/// skip the claim: each is recorded exactly once, when it completes.
bool claim_shard_metrics(const std::string& dir, std::size_t shard) {
    static std::mutex mutex;
    static std::set<std::pair<std::string, std::size_t>> claimed;
    const std::lock_guard<std::mutex> lock(mutex);
    return claimed.emplace(dir, shard).second;
}

/// Aggregation boundary for fi.*/campaign.* metrics: one call per
/// completed (or resumed) shard, from its checkpointed totals — the
/// counters therefore match the checkpoints bit-exactly.
void record_shard_metrics(const std::string& dir, const ShardResult& result) {
    if (!dir.empty() && !claim_shard_metrics(dir, result.shard)) return;
    fi::add_fastpath_metrics(result.fastpath);
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("campaign.shard.runs").add(result.runs);
    reg.counter("campaign.shards.done").add(1);
    reg.histogram("campaign.shard.wall_seconds",
                  {0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0})
        .observe(result.wall_seconds);
}

}  // namespace

CampaignExecutor::CampaignExecutor(std::string dir, CampaignSpec spec)
    : dir_(std::move(dir)), spec_(std::move(spec)) {
    if (spec_.target != "arrestment") {
        throw std::runtime_error("campaign: unknown target '" + spec_.target + "'");
    }
    if (spec_.case_ids.empty()) {
        throw std::runtime_error("campaign: spec has no test cases");
    }
    const auto n_cases = target::standard_test_cases().size();
    for (const std::size_t c : spec_.case_ids) {
        if (c >= n_cases) {
            throw std::runtime_error("campaign: case id " + std::to_string(c) +
                                     " out of range (target has " +
                                     std::to_string(n_cases) + " cases)");
        }
    }

    if (dir_.empty()) return;  // in memory: nothing to persist or resume
    std::filesystem::create_directories(dir_);
    const std::string spec_path = dir_ + "/spec.json";
    const std::string serialized = spec_.to_json() + "\n";
    if (std::filesystem::exists(spec_path)) {
        const std::string stored = read_file(spec_path);
        if (stored != serialized) {
            throw std::runtime_error(
                "campaign: " + spec_path +
                " holds a different spec; refusing to mix campaigns in one "
                "directory");
        }
    } else {
        atomic_write_file(spec_path, serialized);
    }
}

CampaignExecutor CampaignExecutor::open(const std::string& dir) {
    if (dir.empty()) throw std::runtime_error("campaign: open() needs a directory");
    const std::string text = read_file(dir + "/spec.json");
    if (text.empty()) {
        throw std::runtime_error("campaign: no readable spec at " + dir +
                                 "/spec.json");
    }
    return CampaignExecutor(dir, CampaignSpec::from_json(text));
}

exp::CampaignOptions CampaignExecutor::case_options(std::size_t case_id) const {
    exp::CampaignOptions o;
    o.case_first = case_id;
    o.case_count = 1;
    o.times_per_bit = spec_.times_per_bit;
    o.seed = spec_.seed;
    o.max_ticks = static_cast<runtime::Tick>(
        std::min<std::uint64_t>(spec_.max_ticks, target::kMaxRunTicks));
    o.severe_period = static_cast<runtime::Tick>(spec_.severe_period);
    o.module_filter = spec_.module_filter;
    return o;
}

ShardResult CampaignExecutor::run_shard(std::size_t shard,
                                        const ExecutorOptions& exec_options,
                                        obs::WorkerProgress* progress) const {
    obs::Span shard_span("campaign.shard", shard);
    const auto start = std::chrono::steady_clock::now();
    ShardResult result;
    result.shard = shard;
    result.kind = spec_.kind;
    result.case_ids = spec_.shard_cases(shard);

    target::ArrestmentSystem sys;
    // (module, in_port, out_port) -> (affected, active), sorted for a
    // deterministic checkpoint file.
    std::map<std::tuple<std::string, std::uint32_t, std::uint32_t>,
             std::pair<std::uint64_t, std::uint64_t>>
        pair_counts;

    for (const std::size_t case_id : result.case_ids) {
        obs::Span case_span("campaign.case", case_id);
        // Flight-recorder deltas: fastpath counters accumulate across the
        // shard, so snapshot before the case and publish the difference.
        const fi::FastPathStats fp_before = result.fastpath;
        const std::uint64_t runs_before = result.runs;
        exp::CampaignOptions options = case_options(case_id);
        options.use_batch = exec_options.use_batch;
        options.golden_cache = exec_options.golden_cache;
        options.fastpath_out = &result.fastpath;
        switch (spec_.kind) {
            case CampaignKind::kPermeability: {
                std::size_t planned = 0;
                const epic::EstimatorProgress progress_cb =
                    [&planned, progress](std::size_t, std::size_t total) {
                        planned = total;
                        if (progress != nullptr) {
                            progress->heartbeat.fetch_add(
                                1, std::memory_order_relaxed);
                        }
                    };
                const epic::PermeabilityMatrix matrix =
                    exp::estimate_arrestment_permeability(sys, options, progress_cb);
                result.runs += planned;
                for (const epic::PairEntry& e : matrix.entries()) {
                    auto& acc = pair_counts[{sys.system().module_name(e.module),
                                             e.in_port, e.out_port}];
                    acc.first += e.affected;
                    acc.second += e.active;
                }
                break;
            }
            case CampaignKind::kSevere: {
                const exp::SevereCoverageResult severe =
                    exp::severe_coverage_experiment(sys, options, spec_.subsets);
                merge_severe(result.severe, severe);
                result.runs += severe.runs;
                break;
            }
            case CampaignKind::kRecovery: {
                const exp::RecoveryResult recovery = exp::recovery_experiment(
                    sys, options, spec_.guarded_signals);
                merge_recovery(result.recovery, recovery);
                result.runs += recovery.runs;
                break;
            }
            case CampaignKind::kInput: {
                exp::InputCoverageOptions icopt;
                icopt.campaign = options;
                const exp::InputCoverageResult coverage =
                    exp::input_coverage_experiment(sys, icopt, spec_.subsets);
                merge_input(result.input, coverage);
                result.runs += coverage.all.injected;
                break;
            }
        }
        if (progress != nullptr) {
            const fi::FastPathStats& fp = result.fastpath;
            progress->runs.fetch_add(result.runs - runs_before,
                                     std::memory_order_relaxed);
            progress->cache_hits.fetch_add(fp.cache_hits - fp_before.cache_hits,
                                           std::memory_order_relaxed);
            progress->cache_misses.fetch_add(
                fp.cache_misses - fp_before.cache_misses,
                std::memory_order_relaxed);
            progress->lanes_launched.fetch_add(
                fp.lanes_launched - fp_before.lanes_launched,
                std::memory_order_relaxed);
            const std::uint64_t retired =
                (fp.lanes_retired_pruned + fp.lanes_retired_end +
                 fp.lanes_retired_sealed + fp.lanes_retired_merged) -
                (fp_before.lanes_retired_pruned + fp_before.lanes_retired_end +
                 fp_before.lanes_retired_sealed + fp_before.lanes_retired_merged);
            progress->lanes_retired.fetch_add(retired, std::memory_order_relaxed);
            progress->heartbeat.fetch_add(1, std::memory_order_relaxed);
        }
    }

    for (const auto& [key, counts] : pair_counts) {
        PairCountRecord rec;
        rec.module = std::get<0>(key);
        rec.in_port = std::get<1>(key);
        rec.out_port = std::get<2>(key);
        rec.affected = counts.first;
        rec.active = counts.second;
        result.pairs.push_back(std::move(rec));
    }

    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return result;
}

void CampaignExecutor::load_checkpoints(CampaignObserver& observer) {
    // In memory, completed_ already holds exactly this executor's shards.
    if (dir_.empty()) return;
    completed_.clear();
    for (std::size_t s = 0; s < spec_.effective_shards(); ++s) {
        if (auto shard = load_shard(dir_, s)) {
            JsonObject f;
            f.emplace("shard", JsonValue(s));
            f.emplace("runs", JsonValue(shard->runs));
            observer.emit("shard_resume", std::move(f));
            completed_.push_back(std::move(*shard));
            record_shard_metrics(dir_, completed_.back());
        }
    }
}

bool CampaignExecutor::run(const ExecutorOptions& options) {
    obs::Span run_span("campaign.run");
    CampaignObserver observer(dir_, options.echo_events);
    const ScopedLogBridge log_bridge(observer);
    timers_ = PhaseTimers{};
    adaptive_stopped_ = false;
    saved_runs_ = 0;

    timers_.begin("checkpoint-scan");
    load_checkpoints(observer);
    timers_.end("checkpoint-scan");

    const std::size_t total_shards = spec_.effective_shards();
    {
        JsonObject f;
        f.emplace("name", JsonValue(spec_.name));
        f.emplace("kind", JsonValue(to_string(spec_.kind)));
        f.emplace("cases", JsonValue(spec_.case_ids.size()));
        f.emplace("shards", JsonValue(total_shards));
        f.emplace("resumed_shards", JsonValue(completed_.size()));
        observer.emit("campaign_start", std::move(f));
    }

    std::vector<std::size_t> pending;
    for (std::size_t s = 0; s < total_shards; ++s) {
        const bool done = std::any_of(completed_.begin(), completed_.end(),
                                      [s](const ShardResult& r) { return r.shard == s; });
        if (!done) pending.push_back(s);
    }

    const auto cases_of = [this](const std::vector<std::size_t>& shards) {
        std::size_t n = 0;
        for (const std::size_t s : shards) n += spec_.shard_cases(s).size();
        return n;
    };
    const auto finish_adaptive = [&](const AdaptiveDecision& decision) {
        adaptive_stopped_ = true;
        std::vector<std::size_t> remaining;
        for (const std::size_t s : pending) {
            const bool done =
                std::any_of(completed_.begin(), completed_.end(),
                            [s](const ShardResult& r) { return r.shard == s; });
            if (!done) remaining.push_back(s);
        }
        std::size_t done_cases = 0;
        std::uint64_t done_runs = 0;
        for (const ShardResult& r : completed_) {
            done_cases += r.case_ids.size();
            done_runs += r.runs;
        }
        // Every case carries the same injection plan, so runs-per-case
        // from the executed shards extrapolates exactly.
        const double per_case =
            done_cases ? static_cast<double>(done_runs) / static_cast<double>(done_cases)
                       : 0.0;
        saved_runs_ = static_cast<std::uint64_t>(
            std::llround(per_case * static_cast<double>(cases_of(remaining))));
        obs::MetricsRegistry::global()
            .counter("campaign.runs.saved_adaptive")
            .add(saved_runs_);
        JsonObject f;
        f.emplace("saved_runs", JsonValue(saved_runs_));
        f.emplace("skipped_shards", JsonValue(remaining.size()));
        f.emplace("limiting", JsonValue(decision.limiting));
        f.emplace("half_width", JsonValue(decision.worst_half_width));
        f.emplace("min_trials", JsonValue(decision.min_trials_seen));
        observer.emit("adaptive_stop", std::move(f));
    };

    // Converged already (e.g. resuming a finished adaptive campaign)?
    if (spec_.adaptive.enabled && !pending.empty() && !completed_.empty()) {
        const AdaptiveDecision decision =
            evaluate_convergence(spec_.adaptive, spec_.kind, completed_);
        if (decision.converged) finish_adaptive(decision);
    }

    if (!pending.empty() && !adaptive_stopped_) {
        timers_.begin("execute");
        std::atomic<std::size_t> next{0};
        std::atomic<bool> stop{false};
        std::mutex mutex;
        AdaptiveDecision stop_decision;

        // Adaptive stopping is checked as shards complete; with every
        // pending shard already claimed there would be nothing left to
        // skip, so one shard stays queued behind the pool.
        const std::size_t claimable = spec_.adaptive.enabled && pending.size() > 1
                                          ? pending.size() - 1
                                          : pending.size();
        const std::size_t n_workers = std::max<std::size_t>(
            1, std::min({options.threads != 0
                             ? options.threads
                             : std::max<std::size_t>(
                                   1, std::thread::hardware_concurrency()),
                         claimable, options.max_shards}));

        // Flight recorder (DESIGN.md §15): one progress slot per worker,
        // sampled to timeline.jsonl by a background thread for the whole
        // execute phase. The slots outlive the workers and the sampler
        // stops before they go out of scope.
        std::vector<obs::WorkerProgress> progress(n_workers);
        obs::TimelineOptions tl_options;
        if (!dir_.empty()) tl_options.path = dir_ + "/timeline.jsonl";
        tl_options.interval_ms = options.timeline_interval_ms;
        tl_options.stall_samples = options.timeline_stall_samples;
        obs::TimelineSampler sampler(
            std::move(tl_options), &progress,
            [&pending, &next]() -> std::uint64_t {
                const std::size_t claimed = next.load(std::memory_order_relaxed);
                return claimed >= pending.size() ? 0 : pending.size() - claimed;
            });
        sampler.start();

        const auto worker = [&](std::size_t worker_index) {
            obs::WorkerProgress& prog = progress[worker_index];
            while (!stop.load()) {
                const std::size_t idx = next.fetch_add(1);
                if (idx >= pending.size() || idx >= options.max_shards) break;
                const std::size_t shard = pending[idx];
                prog.current_shard.store(static_cast<std::int64_t>(shard),
                                         std::memory_order_relaxed);
                prog.set_phase(obs::TimelinePhase::kExecute);
                ShardResult result = run_shard(shard, options, &prog);
                result.threads = n_workers;
                prog.set_phase(obs::TimelinePhase::kCheckpoint);
                if (!dir_.empty()) {
                    obs::Span ckpt_span("campaign.checkpoint", shard);
                    save_shard(dir_, result);
                }
                record_shard_metrics(dir_, result);

                const std::lock_guard<std::mutex> lock(mutex);
                completed_.push_back(result);
                const std::size_t done = completed_.size();
                std::uint64_t runs = 0;
                double wall = 0.0;
                for (const ShardResult& r : completed_) {
                    runs += r.runs;
                    wall += r.wall_seconds;
                }
                const double rate = wall > 0.0 ? static_cast<double>(runs) / wall : 0.0;
                JsonObject f;
                f.emplace("shard", JsonValue(shard));
                f.emplace("cases", JsonValue(result.case_ids.size()));
                f.emplace("runs", JsonValue(result.runs));
                f.emplace("wall_s", JsonValue(result.wall_seconds));
                f.emplace("forked_runs", JsonValue(result.fastpath.forked_runs));
                f.emplace("pruned_runs", JsonValue(result.fastpath.pruned_runs));
                f.emplace("skipped_runs", JsonValue(result.fastpath.skipped_runs));
                f.emplace("ticks_saved", JsonValue(result.fastpath.ticks_saved));
                f.emplace("cache_hits", JsonValue(result.fastpath.cache_hits));
                f.emplace("lanes_launched",
                          JsonValue(result.fastpath.lanes_launched));
                f.emplace("lanes_retired_sealed",
                          JsonValue(result.fastpath.lanes_retired_sealed));
                f.emplace("lanes_retired_merged",
                          JsonValue(result.fastpath.lanes_retired_merged));
                f.emplace("threads", JsonValue(n_workers));
                f.emplace("done", JsonValue(done));
                f.emplace("total", JsonValue(total_shards));
                f.emplace("runs_per_s", JsonValue(rate));
                f.emplace("eta_s",
                          JsonValue(done ? wall / static_cast<double>(done) *
                                               static_cast<double>(total_shards - done)
                                         : 0.0));
                observer.emit("shard_done", std::move(f));

                if (spec_.adaptive.enabled && done < total_shards) {
                    const AdaptiveDecision decision =
                        evaluate_convergence(spec_.adaptive, spec_.kind, completed_);
                    JsonObject cf;
                    cf.emplace("converged", JsonValue(decision.converged));
                    cf.emplace("limiting", JsonValue(decision.limiting));
                    cf.emplace("half_width", JsonValue(decision.worst_half_width));
                    observer.emit("adaptive_check", std::move(cf));
                    if (decision.converged && !stop.exchange(true)) {
                        stop_decision = decision;
                    }
                }
                prog.shards_done.fetch_add(1, std::memory_order_relaxed);
                prog.current_shard.store(-1, std::memory_order_relaxed);
                prog.set_phase(obs::TimelinePhase::kIdle);
            }
        };

        if (n_workers == 1) {
            // The calling thread is the whole pool: label its track so
            // the trace still shows one track per worker.
            obs::set_thread_name("worker-0");
            worker(0);
        } else {
            std::vector<std::thread> threads;
            for (std::size_t i = 0; i < n_workers; ++i) {
                threads.emplace_back([&worker, i] {
                    // Named before any span so every worker gets its own
                    // labelled track in the exported trace.
                    obs::set_thread_name("worker-" + std::to_string(i));
                    worker(i);
                });
            }
            for (auto& t : threads) t.join();
        }
        sampler.stop();
        timers_.end("execute");

        if (stop.load() && spec_.adaptive.enabled && !adaptive_stopped_) {
            finish_adaptive(stop_decision);
        }
    }

    std::sort(completed_.begin(), completed_.end(),
              [](const ShardResult& a, const ShardResult& b) { return a.shard < b.shard; });

    const bool complete = completed_.size() == total_shards || adaptive_stopped_;
    std::uint64_t runs = 0;
    double wall = 0.0;
    for (const ShardResult& r : completed_) {
        runs += r.runs;
        wall += r.wall_seconds;
    }
    const fi::FastPathStats fp = fastpath_totals();
    JsonObject f;
    f.emplace("done", JsonValue(completed_.size()));
    f.emplace("total", JsonValue(total_shards));
    f.emplace("runs", JsonValue(runs));
    f.emplace("shard_wall_s", JsonValue(wall));
    f.emplace("forked_runs", JsonValue(fp.forked_runs));
    f.emplace("pruned_runs", JsonValue(fp.pruned_runs));
    f.emplace("skipped_runs", JsonValue(fp.skipped_runs));
    f.emplace("ticks_saved", JsonValue(fp.ticks_saved));
    f.emplace("cache_hits", JsonValue(fp.cache_hits));
    f.emplace("lanes_launched", JsonValue(fp.lanes_launched));
    f.emplace("lanes_retired_sealed", JsonValue(fp.lanes_retired_sealed));
    f.emplace("lanes_retired_merged", JsonValue(fp.lanes_retired_merged));
    observer.emit(complete ? "campaign_done" : "campaign_pause", std::move(f));
    return complete;
}

fi::FastPathStats CampaignExecutor::fastpath_totals() const {
    fi::FastPathStats total;
    for (const ShardResult& r : completed_) total.merge(r.fastpath);
    return total;
}

epic::PermeabilityMatrix CampaignExecutor::merged_matrix(
    const model::SystemModel& system) const {
    obs::Span span("campaign.merge");
    std::map<std::tuple<std::string, std::uint32_t, std::uint32_t>,
             std::pair<std::uint64_t, std::uint64_t>>
        acc;
    for (const ShardResult& shard : completed_) {
        for (const PairCountRecord& p : shard.pairs) {
            auto& counts = acc[{p.module, p.in_port, p.out_port}];
            counts.first += p.affected;
            counts.second += p.active;
        }
    }
    epic::PermeabilityMatrix matrix(system);
    for (const auto& [key, counts] : acc) {
        matrix.set_counts(system.module_id(std::get<0>(key)), std::get<1>(key),
                          std::get<2>(key), counts.first, counts.second);
    }
    return matrix;
}

exp::SevereCoverageResult CampaignExecutor::merged_severe() const {
    obs::Span span("campaign.merge");
    exp::SevereCoverageResult out;
    for (const ShardResult& shard : completed_) merge_severe(out, shard.severe);
    return out;
}

exp::RecoveryResult CampaignExecutor::merged_recovery() const {
    obs::Span span("campaign.merge");
    exp::RecoveryResult out;
    for (const ShardResult& shard : completed_) merge_recovery(out, shard.recovery);
    return out;
}

exp::InputCoverageResult CampaignExecutor::merged_input() const {
    obs::Span span("campaign.merge");
    exp::InputCoverageResult out;
    for (const ShardResult& shard : completed_) merge_input(out, shard.input);
    return out;
}

}  // namespace epea::campaign
