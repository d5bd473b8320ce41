#include "fi/fastpath.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace epea::fi {

void add_fastpath_metrics(const FastPathStats& delta) {
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("fi.runs.full").add(delta.full_runs);
    reg.counter("fi.runs.forked").add(delta.forked_runs);
    reg.counter("fi.runs.pruned").add(delta.pruned_runs);
    reg.counter("fi.runs.skipped").add(delta.skipped_runs);
    reg.counter("fi.run_ticks").add(delta.ticks_executed);
    reg.counter("fi.ticks_saved").add(delta.ticks_saved);
    reg.counter("cache.golden.hit").add(delta.cache_hits);
    reg.counter("cache.golden.miss").add(delta.cache_misses);
    reg.counter("fi.lanes.launched").add(delta.lanes_launched);
    reg.counter("fi.lanes.retired_pruned").add(delta.lanes_retired_pruned);
    reg.counter("fi.lanes.retired_end").add(delta.lanes_retired_end);
    reg.counter("fi.lanes.retired_sealed").add(delta.lanes_retired_sealed);
    reg.counter("fi.lanes.retired_merged").add(delta.lanes_retired_merged);
}

util::JsonObject fastpath_stats_json(const FastPathStats& stats) {
    util::JsonObject o;
    o.emplace("full_runs", util::JsonValue(stats.full_runs));
    o.emplace("forked_runs", util::JsonValue(stats.forked_runs));
    o.emplace("pruned_runs", util::JsonValue(stats.pruned_runs));
    o.emplace("skipped_runs", util::JsonValue(stats.skipped_runs));
    o.emplace("ticks_executed", util::JsonValue(stats.ticks_executed));
    o.emplace("ticks_saved", util::JsonValue(stats.ticks_saved));
    o.emplace("cache_hits", util::JsonValue(stats.cache_hits));
    o.emplace("cache_misses", util::JsonValue(stats.cache_misses));
    o.emplace("lanes_launched", util::JsonValue(stats.lanes_launched));
    o.emplace("lanes_retired_pruned", util::JsonValue(stats.lanes_retired_pruned));
    o.emplace("lanes_retired_end", util::JsonValue(stats.lanes_retired_end));
    o.emplace("lanes_retired_sealed", util::JsonValue(stats.lanes_retired_sealed));
    o.emplace("lanes_retired_merged", util::JsonValue(stats.lanes_retired_merged));
    util::JsonArray widths;
    for (const std::uint64_t n : stats.batch_widths) widths.emplace_back(n);
    o.emplace("batch_widths", util::JsonValue(std::move(widths)));
    return o;
}

std::size_t GoldenCaseData::approx_bytes() const noexcept {
    std::size_t bytes = sizeof(GoldenCaseData);
    for (std::size_t s = 0; s < run.trace.signal_count(); ++s) {
        bytes += run.trace.series(model::SignalId{static_cast<std::uint32_t>(s)}).capacity() *
                 sizeof(std::uint32_t);
    }
    for (const runtime::Snapshot& snap : boundary) bytes += snap.approx_bytes();
    return bytes + last.approx_bytes();
}

GoldenCaseData capture_golden_data(runtime::Simulator& sim, runtime::Tick max_ticks,
                                   bool with_snapshots) {
    obs::Span span("fi.golden_capture", max_ticks);
    GoldenCaseData data;
    data.max_ticks = max_ticks;
    sim.enable_trace(true);
    sim.reset();
    bool finished = false;
    if (with_snapshots) {
        // Manual stepping replicating Simulator::run so boundary[i] is
        // captured with now() == i*kPruneCheckPeriod for every stride
        // tick the run passes through.
        data.boundary.reserve(max_ticks / kPruneCheckPeriod + 1);
        // Captures go through a reused scratch whose section vectors keep
        // their capacity; the stored copy then allocates each section
        // exactly once instead of growing it from empty.
        runtime::Snapshot scratch;
        sim.capture_snapshot(scratch);
        data.boundary.push_back(scratch);
        while (sim.now() < max_ticks) {
            sim.step_tick();
            finished = sim.environment().finished();
            if (sim.now() % kPruneCheckPeriod == 0) {
                sim.capture_snapshot(scratch);
                data.boundary.push_back(scratch);
            }
            if (finished) break;
        }
        data.boundary.shrink_to_fit();
        sim.capture_snapshot(scratch);
        data.last = std::move(scratch);
        data.run.length = sim.now();
    } else {
        const runtime::RunResult rr = sim.run(max_ticks);
        finished = rr.env_finished;
        data.run.length = rr.ticks;
    }
    data.run.trace = *sim.trace();
    data.run.finished = finished;
    return data;
}

GoldenCaseData capture_reset_data(runtime::Simulator& sim, const GoldenCaseData& golden) {
    GoldenCaseData data;
    data.max_ticks = golden.max_ticks;
    data.run.length = golden.run.length;
    data.run.finished = golden.run.finished;
    sim.reset();
    sim.capture_snapshot(data.boundary.emplace_back());
    return data;
}

std::string golden_key(const std::string& tag, std::size_t case_index) {
    return tag + "/" + std::to_string(case_index);
}

std::shared_ptr<const GoldenCaseData> GoldenCache::get_or_capture(
    const std::string& key, const std::function<GoldenCaseData()>& capture,
    FastPathStats* stats) {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(key);
        if (it != entries_.end()) {
            it->second.last_used = ++clock_;
            if (stats) ++stats->cache_hits;
            return it->second.data;
        }
    }
    // Capture outside the lock: concurrent workers capture different
    // cases in parallel. A duplicate capture of the same key (rare —
    // keys are per test case) is resolved in favour of the first insert.
    auto fresh = std::make_shared<const GoldenCaseData>(capture());
    if (stats) ++stats->cache_misses;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
        it->second.last_used = ++clock_;
        return it->second.data;
    }
    Entry entry;
    entry.data = fresh;
    entry.bytes = fresh->approx_bytes();
    entry.last_used = ++clock_;
    bytes_ += entry.bytes;
    entries_.emplace(key, std::move(entry));
    evict_locked(fresh.get());
    return fresh;
}

void GoldenCache::evict_locked(const GoldenCaseData* just_inserted) {
    while (bytes_ > byte_budget_) {
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            // `fresh` in get_or_capture still references the entry it just
            // inserted; discount that self-reference so it stays evictable.
            const long pinned_above = it->second.data.get() == just_inserted ? 2 : 1;
            if (it->second.data.use_count() > pinned_above) continue;  // live user
            if (victim == entries_.end() || it->second.last_used < victim->second.last_used) {
                victim = it;
            }
        }
        if (victim == entries_.end()) return;  // everything pinned
        bytes_ -= victim->second.bytes;
        entries_.erase(victim);
    }
}

void GoldenCache::clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    bytes_ = 0;
}

std::size_t GoldenCache::entry_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::size_t GoldenCache::byte_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
}

std::shared_ptr<const GoldenCaseData> golden_for(
    GoldenCache* cache, const std::string& key,
    const std::function<GoldenCaseData()>& capture, FastPathStats* stats) {
    if (cache != nullptr) return cache->get_or_capture(key, capture, stats);
    if (stats) ++stats->cache_misses;
    return std::make_shared<const GoldenCaseData>(capture());
}

runtime::RunResult replay(runtime::Simulator& sim, Injector& injector,
                          std::vector<Injection> plan, runtime::Tick max_ticks,
                          std::uint64_t seed, FastPathStats& stats) {
    EPEA_OBS_SAMPLED_SPAN(span, "fi.run");
    injector.arm(std::move(plan), seed);
    sim.reset();
    const runtime::RunResult rr = sim.run(max_ticks);
    ++stats.full_runs;
    stats.ticks_executed += rr.ticks;
    return rr;
}

}  // namespace epea::fi
