#include "campaign/observer.hpp"

#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "campaign/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace epea::campaign {

void PhaseTimers::begin(const std::string& phase) { open_[phase] = Clock::now(); }

void PhaseTimers::end(const std::string& phase) {
    const auto it = open_.find(phase);
    if (it == open_.end()) return;
    total_[phase] += std::chrono::duration<double>(Clock::now() - it->second).count();
    open_.erase(it);
}

double PhaseTimers::seconds(const std::string& phase) const {
    const auto it = total_.find(phase);
    return it == total_.end() ? 0.0 : it->second;
}

std::string PhaseTimers::summary() const {
    std::ostringstream out;
    for (const auto& [name, secs] : total_) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.2f", secs);
        out << "  " << name << ": " << buf << " s\n";
    }
    return out.str();
}

CampaignObserver::CampaignObserver(const std::string& dir, bool echo_stderr)
    : echo_(echo_stderr) {
    if (dir.empty()) return;  // in-memory campaign: no journal
    out_.open(dir + "/events.jsonl", std::ios::app);
    if (!out_) throw std::runtime_error("cannot open " + dir + "/events.jsonl");
}

void CampaignObserver::emit(const std::string& type, JsonObject fields) {
    if (!out_.is_open() && !echo_) return;
    fields.emplace("type", JsonValue(type));
    fields.emplace("elapsed_s", JsonValue(elapsed_seconds()));
    const std::string line = JsonValue(std::move(fields)).dump();
    const std::lock_guard<std::mutex> lock(mutex_);
    if (out_.is_open()) {
        out_ << line << '\n';
        out_.flush();
    }
    if (echo_) std::cerr << "[campaign] " << line << '\n';
}

double CampaignObserver::elapsed_seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
}

ScopedLogBridge::ScopedLogBridge(CampaignObserver& observer) {
    util::set_log_sink([&observer](util::LogLevel level, std::string_view component,
                                   std::string_view message) {
        obs::MetricsRegistry::global().counter("log.emitted").add();
        JsonObject f;
        f.emplace("level", JsonValue(std::string(util::level_name(level))));
        f.emplace("component", JsonValue(std::string(component)));
        f.emplace("msg", JsonValue(std::string(message)));
        observer.emit("log", std::move(f));
    });
}

ScopedLogBridge::~ScopedLogBridge() { util::set_log_sink({}); }

CampaignStatus read_status(const std::string& dir) {
    CampaignStatus status;
    {
        std::ifstream in(dir + "/spec.json", std::ios::binary);
        if (!in) throw std::runtime_error("no campaign spec at " + dir + "/spec.json");
        std::ostringstream buf;
        buf << in.rdbuf();
        status.spec = CampaignSpec::from_json(buf.str());
    }

    // The journal is read first: its shard_done events carry the wall
    // clock each shard actually ran under, which stays correct across
    // resumes (a resumed process re-checkpoints nothing, so checkpoint
    // metadata alone can drift). Latest event per shard wins.
    std::map<std::size_t, double> journal_wall;
    std::ifstream journal(dir + "/events.jsonl", std::ios::binary);
    std::string line;
    while (std::getline(journal, line)) {
        if (line.empty()) continue;
        ++status.events;
        status.last_event = line;
        try {
            const JsonValue ev = JsonValue::parse(line);
            const std::string& type = ev.at("type").as_string();
            if (type == "adaptive_stop") {
                status.adaptive_stopped = true;
                if (const JsonValue* saved = ev.find("saved_runs")) {
                    status.saved_runs = static_cast<std::uint64_t>(saved->as_int());
                }
            } else if (type == "shard_done") {
                const JsonValue* shard = ev.find("shard");
                const JsonValue* wall = ev.find("wall_s");
                if (shard != nullptr && wall != nullptr) {
                    journal_wall[static_cast<std::size_t>(shard->as_int())] =
                        wall->as_double();
                }
            }
        } catch (const std::runtime_error&) {
            // A torn last line from a killed run is expected; skip it.
        }
    }

    // Flight-recorder summary (timeline.jsonl is appended across
    // resumes; a torn tail from a killed sampler is skipped like the
    // journal's). Stall transitions are counted per worker slot so one
    // long stall is one flag, not one per sample.
    {
        std::ifstream timeline(dir + "/timeline.jsonl", std::ios::binary);
        std::map<std::int64_t, bool> was_stalled;
        while (std::getline(timeline, line)) {
            if (line.empty()) continue;
            try {
                const JsonValue sample = JsonValue::parse(line);
                if (sample.at("type").as_string() != "sample") continue;
                ++status.timeline_samples;
                std::uint64_t stalled_now = 0;
                if (const JsonValue* workers = sample.find("workers")) {
                    for (const JsonValue& w : workers->as_array()) {
                        const std::int64_t id = w.at("worker").as_int();
                        const bool stalled = w.at("stalled").as_bool();
                        if (stalled) ++stalled_now;
                        if (stalled && !was_stalled[id]) ++status.stall_flags;
                        was_stalled[id] = stalled;
                    }
                }
                status.stalled_workers = stalled_now;
            } catch (const std::runtime_error&) {
                // Torn tail of a killed sampler; skip.
            }
        }
    }

    status.shards_total = status.spec.effective_shards();
    for (std::size_t s = 0; s < status.shards_total; ++s) {
        if (const auto shard = load_shard(dir, s)) {
            status.done_shards.push_back(s);
            status.runs += shard->runs;
            const auto jw = journal_wall.find(s);
            const double wall =
                jw != journal_wall.end() ? jw->second : shard->wall_seconds;
            status.shard_wall.push_back(wall);
            status.wall_seconds += wall;
            status.fastpath.merge(shard->fastpath);
            status.shard_threads.push_back(shard->threads);
        } else {
            status.pending_shards.push_back(s);
        }
    }
    status.shards_done = status.done_shards.size();
    if (status.wall_seconds > 0.0) {
        status.run_rate = static_cast<double>(status.runs) / status.wall_seconds;
    }
    if (status.shards_done > 0) {
        const double avg =
            status.wall_seconds / static_cast<double>(status.shards_done);
        status.eta_seconds =
            avg * static_cast<double>(status.shards_total - status.shards_done);
    }
    return status;
}

std::string render_status(const CampaignStatus& status) {
    std::ostringstream out;
    char buf[128];
    out << "campaign '" << status.spec.name << "' (" << to_string(status.spec.kind)
        << ", " << status.spec.case_ids.size() << " cases, "
        << status.shards_total << " shards)\n";
    std::snprintf(buf, sizeof buf, "  shards done: %zu/%zu", status.shards_done,
                  status.shards_total);
    out << buf;
    if (status.adaptive_stopped) out << "  [adaptive stop]";
    out << '\n';
    std::snprintf(buf, sizeof buf,
                  "  runs: %llu  (%.1f runs/s over %.1f s of shard wall-clock)\n",
                  static_cast<unsigned long long>(status.runs), status.run_rate,
                  status.wall_seconds);
    out << buf;
    const fi::FastPathStats& fp = status.fastpath;
    if (fp.runs() > 0) {
        std::snprintf(buf, sizeof buf,
                      "  fast path: %llu forked, %llu pruned, %llu skipped, "
                      "%llu ticks saved\n",
                      static_cast<unsigned long long>(fp.forked_runs),
                      static_cast<unsigned long long>(fp.pruned_runs),
                      static_cast<unsigned long long>(fp.skipped_runs),
                      static_cast<unsigned long long>(fp.ticks_saved));
        out << buf;
        std::snprintf(buf, sizeof buf, "  golden cache: %llu hits, %llu misses\n",
                      static_cast<unsigned long long>(fp.cache_hits),
                      static_cast<unsigned long long>(fp.cache_misses));
        out << buf;
    }
    if (fp.lanes_launched > 0) {
        std::snprintf(buf, sizeof buf,
                      "  batch lanes: %llu launched, %llu pruned, %llu sealed, "
                      "%llu merged, %llu to end\n",
                      static_cast<unsigned long long>(fp.lanes_launched),
                      static_cast<unsigned long long>(fp.lanes_retired_pruned),
                      static_cast<unsigned long long>(fp.lanes_retired_sealed),
                      static_cast<unsigned long long>(fp.lanes_retired_merged),
                      static_cast<unsigned long long>(fp.lanes_retired_end));
        out << buf;
    }
    if (!status.shard_threads.empty()) {
        out << "  threads per shard:";
        for (std::size_t i = 0; i < status.done_shards.size(); ++i) {
            std::snprintf(buf, sizeof buf, " %03zu:%zu", status.done_shards[i],
                          status.shard_threads[i]);
            out << buf;
        }
        out << '\n';
    }
    if (!status.shard_wall.empty()) {
        out << "  wall per shard (journal):";
        for (std::size_t i = 0; i < status.done_shards.size(); ++i) {
            std::snprintf(buf, sizeof buf, " %03zu:%.2fs", status.done_shards[i],
                          status.shard_wall[i]);
            out << buf;
        }
        out << '\n';
    }
    if (status.complete()) {
        out << "  complete";
        if (status.saved_runs > 0) {
            std::snprintf(buf, sizeof buf, " — adaptive stopping saved %llu runs",
                          static_cast<unsigned long long>(status.saved_runs));
            out << buf;
        }
        out << '\n';
    } else {
        std::snprintf(buf, sizeof buf, "  eta: %.1f s (%zu shards pending)\n",
                      status.eta_seconds, status.pending_shards.size());
        out << buf;
    }
    if (status.timeline_samples > 0) {
        std::snprintf(buf, sizeof buf,
                      "  timeline: %zu samples, %llu stall flag(s)",
                      status.timeline_samples,
                      static_cast<unsigned long long>(status.stall_flags));
        out << buf;
        if (status.stalled_workers > 0) {
            std::snprintf(buf, sizeof buf, "  [%llu worker(s) stalled now]",
                          static_cast<unsigned long long>(status.stalled_workers));
            out << buf;
        }
        out << '\n';
    }
    out << "  journal: " << status.events << " events\n";
    return out.str();
}

}  // namespace epea::campaign
